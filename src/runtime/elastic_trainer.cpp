#include "runtime/elastic_trainer.h"

#include <signal.h>

#include <cstdio>

#include <algorithm>
#include <thread>
#include <utility>

#include "common/error.h"
#include "parallel/thread_pool.h"
#include "runtime/checkpoint.h"
#include "runtime/resilient_trainer.h"
#include "transport/process_group.h"
#include "transport/shm_region.h"
#include "transport/tcp_frame.h"
#include "transport/tcp_transport.h"

namespace vocab {

ElasticTrainer::ElasticTrainer(GptWeights weights, int p, OutputAlgo algo,
                               PipelineFlavor flavor, ElasticOptions options)
    : algo_(algo), flavor_(flavor_from_env(flavor)), options_(std::move(options)), width_(p),
      num_layers_(weights.config.num_layers) {
  VOCAB_CHECK(!options_.checkpoint_path.empty(),
              "elastic training requires a checkpoint path (recovery IS the checkpoint)");
  VOCAB_CHECK(flavor_ != PipelineFlavor::Naive,
              "elastic lane workers drive the scheduled flavors only (not naive)");
  // The initial checkpoint: even a death in the very first iteration has a
  // good state to restart from.
  save_checkpoint(options_.checkpoint_path, weights);
}

void ElasticTrainer::set_fault_plan(FaultPlan plan) { plan_ = std::move(plan); }

void ElasticTrainer::worker_main(int rank, transport::ShmArena& arena, int width,
                                 std::uint64_t start_iteration, std::uint64_t end_iteration,
                                 const BatchFn& batch, const OptimizerConfig& opt,
                                 const FaultPlan& plan) const {
  // The fork inherited the parent's ThreadPool singleton WITHOUT its worker
  // threads; route any parallel_for outside the executor's own (freshly
  // constructed) per-device pools to serial execution — same chunks, same
  // order, same bytes.
  parallel::ScopedPool serial(nullptr);

  auto injector = std::make_shared<FaultInjector>(plan);

  // The arena is the control plane; attach() brings up the socket mesh (it
  // blocks until every peer link is connected).
  auto tcp = transport::TcpTransport::attach(arena, rank, options_.transport, injector);
  tcp->set_heartbeat_suppressed([injector, rank] { return injector->heartbeat_suppressed(rank); });
  transport::TcpSupervisor* supervisor = tcp->supervisor();

  GptWeights weights = load_checkpoint(options_.checkpoint_path);
  PipelineTrainer trainer(std::move(weights), width, algo_, flavor_, tcp.get());
  tcp->set_abort_token(trainer.abort_token());
  trainer.set_fault_injector(injector);
  if (options_.enable_watchdog) trainer.enable_watchdog(options_.watchdog);

  transport::ShmProgressBlock& progress = arena.progress();
  try {
    for (std::uint64_t it = start_iteration; it < end_iteration; ++it) {
      injector->begin_iteration(it);
      const std::vector<Sample> microbatches = batch(it);
      const float loss = trainer.train_iteration_lane(rank, microbatches, opt);
      GptWeights full = trainer.gather_weights_lane(rank, it);
      if (rank == 0) {
        // Checkpoint FIRST, publish second: `completed` must never point at an
        // iteration whose state could not be reloaded.
        save_checkpoint(options_.checkpoint_path, full);
        progress.losses[it] = loss;
        progress.completed.store(static_cast<std::int64_t>(it) + 1, std::memory_order_release);
      }
    }
  } catch (const transport::PeerDeadError&) {
    throw;
  } catch (const AbortedError&) {
    // The abort may be noticed in compute (collective token check) rather
    // than in a transport wait; if *this* rank's supervisor is the one that
    // declared a peer dead, reclassify so the coordinator sees exit code 5
    // (partition → downgrade), not 3 (voluntary unwind → same-width retry).
    if (supervisor->dead_peer() >= 0) {
      throw transport::PeerDeadError(supervisor->dead_peer(),
                                     "rank " + std::to_string(rank) + " unwound: rank " +
                                         std::to_string(supervisor->dead_peer()) + " is dead" +
                                         supervisor->diag_suffix());
    }
    throw;
  }
  std::snprintf(arena.rank_state(rank).schedule, transport::kArenaScheduleBytes, "%s",
                trainer.selected_schedule().c_str());
  tcp->mark_done();
}

ElasticResult ElasticTrainer::train(std::uint64_t iterations, const BatchFn& batch,
                                    const OptimizerConfig& opt) {
  VOCAB_CHECK(iterations >= 1, "need at least one iteration");
  VOCAB_CHECK(iterations <= transport::kArenaProgressSlots,
              "elastic progress block holds " << transport::kArenaProgressSlots
                                              << " iterations, asked for " << iterations);
  VOCAB_CHECK(transport::shm_arena_supported(),
              "shared-memory control arena unsupported on this platform");
  VOCAB_CHECK(transport::tcp_transport_supported(),
              "tcp transport unsupported on this platform");

  ElasticResult result;
  FaultPlan plan = plan_;
  int width = width_;
  std::uint64_t next_iteration = 0;

  while (next_iteration < iterations) {
    VOCAB_CHECK(result.generations < options_.max_generations,
                "elastic training exhausted " << options_.max_generations
                                              << " generations at iteration " << next_iteration);
    ++result.generations;
    result.history.push_back({next_iteration, width});
    result.events.push_back("generation " + std::to_string(result.generations) + ": width " +
                            std::to_string(width) + " from iteration " +
                            std::to_string(next_iteration) + " over tcp");

    auto arena = transport::ShmArena::create(width);
    VOCAB_CHECK(arena != nullptr, "failed to create the shared arena");
    arena->progress().completed.store(static_cast<std::int64_t>(next_iteration),
                                      std::memory_order_release);

    // Workers leave via _exit (no stdio flush): drain the parent's buffers
    // first or every child re-emits whatever the caller had pending.
    std::fflush(nullptr);
    auto group = transport::ProcessGroup::spawn(width, [&](int rank) {
      worker_main(rank, *arena, width, next_iteration, iterations, batch, opt, plan);
    });

    // Monitor: waitpid is the authoritative death signal (faster and surer
    // than heartbeat loss when the coordinator is alive); the workers' own
    // failure detectors back it up when the coordinator is starved or gone.
    bool killed = false;
    bool aborted = false;
    bool partitioned = false;
    const auto classify_exit = [&](const transport::ProcessExit& exit, bool escalate) {
      result.events.push_back(exit.describe());
      if (exit.exited) {
        if (exit.status == transport::kWorkerExitPeerDead) {
          // The worker's own transport declared a peer dead (partition /
          // reconnect budget): the mesh is unreliable, downgrade like a kill.
          partitioned = true;
          ++result.partitions;
        } else {
          // Exit codes 3/4 are voluntary unwinds (abort protocol / clean
          // exception): the peers already know or will know via the mirrored
          // abort — retry at the same width.
          aborted = true;
        }
        return;
      }
      // Signal: real death.
      killed = true;
      ++result.kills;
      if (escalate) {
        // Mark the rank dead and post the shared abort so every survivor's
        // blocking wait ends promptly.
        arena->rank_state(exit.rank).dead.store(1, std::memory_order_release);
        arena->abort_block().post(exit.rank, -1, exit.describe().c_str());
      }
    };
    // Classify from a cursor over the group's cumulative exit record, not
    // poll()'s return value: wait_all reaps internally, and an exit swallowed
    // there (canonically the detecting rank's code-5 PeerDead exit arriving
    // just after a peer's code-3 unwind triggered the drain) must still reach
    // the kill/partition/abort taxonomy or a partition downgrades nothing.
    std::size_t classified = 0;
    const auto classify_new = [&](bool escalate) {
      const auto& exits = group.exits();
      for (; classified < exits.size(); ++classified) {
        const transport::ProcessExit& exit = exits[classified];
        if (exit.exited && exit.status == transport::kWorkerExitOk) {
          result.events.push_back(exit.describe());  // clean exits are evidence too
          continue;
        }
        classify_exit(exit, escalate);
      }
    };
    for (;;) {
      group.poll();
      classify_new(/*escalate=*/true);
      if (group.all_done()) break;
      if (killed || aborted || partitioned) {
        if (!group.wait_all(options_.worker_exit_timeout)) {
          result.events.push_back("survivors did not unwind in time; sending SIGKILL");
          // Everything reaped up to here died of its own accord; whatever the
          // coordinator now SIGKILLs must not count as a workload fault.
          classify_new(/*escalate=*/false);
          group.kill_all(SIGKILL);
          group.wait_all(options_.worker_exit_timeout);
          for (const auto& exits = group.exits(); classified < exits.size(); ++classified) {
            result.events.push_back(exits[classified].describe() + " (coordinator SIGKILL)");
          }
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Exits reaped inside wait_all (or between the last poll and here) still
    // reclassify the generation; sweep the record once more.
    group.poll();
    classify_new(/*escalate=*/false);
    if (aborted) ++result.aborts;
    if (killed || aborted || partitioned) {
      // Record WHO posted the shared abort and why — without it a generation
      // log full of exit codes says nothing about the failure's origin.
      transport::ShmAbortBlock& abort = arena->abort_block();
      if (abort.aborted()) {
        result.events.push_back("arena abort: device " + std::to_string(abort.device) +
                                " op " + std::to_string(abort.op_id) + ": " + abort.what);
      }
    }

    // Harvest the generation's published progress.
    const auto completed =
        static_cast<std::uint64_t>(arena->progress().completed.load(std::memory_order_acquire));
    for (std::uint64_t it = next_iteration; it < completed; ++it) {
      result.losses.push_back(arena->progress().losses[it]);
    }
    next_iteration = completed;
    result.schedules.clear();
    for (int r = 0; r < width; ++r) result.schedules.emplace_back(arena->rank_state(r).schedule);
    if (!killed && !aborted && !partitioned) continue;  // clean generation (or finished)

    // The retry of iteration `completed` must run clean: the one-shot fired
    // state died with the workers, so drop every spec at-or-before it.
    plan.faults.erase(std::remove_if(plan.faults.begin(), plan.faults.end(),
                                     [&](const FaultSpec& spec) {
                                       return spec.iteration <= completed;
                                     }),
                      plan.faults.end());

    if (killed || partitioned) {
      const int smaller = ResilientTrainer::next_smaller_width(width, num_layers_, flavor_);
      if (smaller > 0) {
        ++result.downgrades;
        result.events.push_back("downgrading width " + std::to_string(width) + " -> " +
                                std::to_string(smaller));
        width = smaller;
      } else {
        result.events.push_back("no smaller admissible width; retrying at " +
                                std::to_string(width));
      }
    }
    // An abort without a death retries at the same width from the last
    // checkpoint — the generation loop IS the retry.
  }

  result.final_width = width;
  return result;
}

}  // namespace vocab
