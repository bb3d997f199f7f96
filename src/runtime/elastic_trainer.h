#pragma once

// Live elastic downgrade over real OS processes, over the supervised tcp
// socket mesh.
//
// ResilientTrainer recovers from *exceptions* inside one process; this
// coordinator recovers from *process death* and *network partitions*. It
// fans one training run out as one worker process per pipeline device, all
// attached to a pre-fork shared control arena (transport/shm_region.h):
//
//   coordinator                         worker rank r
//   -----------                         -------------
//   save initial checkpoint             attach TcpTransport(arena, r)
//   create ShmArena(world=width)        load checkpoint, build PipelineTrainer
//   fork x width ------------------->   per iteration:
//   poll waitpid + arena progress         train_iteration_lane(r, ...)
//                                         gather_weights_lane(r, it)
//                                       rank 0: save checkpoint, publish
//                                         loss + completed into the arena
//
// The data plane is a supervised full mesh of loopback TCP connections; the
// arena is the control plane only: abort block, rank liveness/done flags,
// progress block, and the tcp port advertisement — exactly the subset a
// future cross-machine deployment would move onto a rendezvous service.
//
// Failure taxonomy, per generation:
//   - worker killed by signal (waitpid says so): mark dead, post abort,
//     downgrade width. The workers' own failure detectors (each rank's tcp
//     connection supervisor) back the coordinator up.
//   - worker exits kWorkerExitPeerDead (5): its transport *itself* declared
//     a peer dead — over tcp that is a partition (heartbeat silence) or an
//     exhausted reconnect budget. The process mesh is unreliable even though
//     every process may still be alive, so the coordinator downgrades
//     exactly as it does for a real death.
//   - worker exits 3/4 (abort protocol / clean exception): voluntary unwind;
//     retry at the same width.
//
// Every iteration is checkpointed (CRC32 + atomic rename) BEFORE rank 0
// publishes it as completed, so a generation that dies mid-iteration resumes
// exactly at the last published iteration and the loss sequence is
// bit-identical to a clean run over the same generation widths (the
// fault_stress soak and the transport suite assert this).
//
// Survivability: the coordinator itself holds no training state — a
// coordinator death loses only the monitor; the checkpoint file plus the
// ElasticResult history is everything needed to resume (see DESIGN.md §16).

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "model/gpt.h"
#include "runtime/optimizer.h"
#include "runtime/pipeline_trainer.h"
#include "transport/transport.h"

namespace vocab::transport {
class ShmArena;
}

namespace vocab {

/// Knobs of the multi-process elastic loop.
struct ElasticOptions {
  /// Where the (single) rolling checkpoint lives. Required.
  std::string checkpoint_path;
  /// Heartbeat / retry knobs handed to every worker's attached transport.
  transport::TransportConfig transport = {};
  /// Run the per-lane stall watchdog inside every worker iteration.
  bool enable_watchdog = false;
  WatchdogConfig watchdog;
  /// After a death is observed, how long the survivors get to unwind via the
  /// coordinated abort before the coordinator SIGKILLs the stragglers.
  std::chrono::milliseconds worker_exit_timeout{10000};
  /// Hard bound on process-group spawns (first generation included); the
  /// loop throws CheckError when exceeded instead of respawning forever.
  int max_generations = 16;
};

/// One process-group lifetime: which global iteration it started at and at
/// what pipeline width — the replay recipe for the bit-identity reference.
struct ElasticGeneration {
  std::uint64_t start_iteration = 0;
  int width = 0;
};

/// What an elastic run observed.
struct ElasticResult {
  std::vector<float> losses;  ///< per iteration, bitwise as rank 0 published them
  int kills = 0;              ///< workers that died by signal
  int partitions = 0;         ///< workers whose transport declared a peer dead
  int aborts = 0;             ///< workers that exited via the abort protocol
  int downgrades = 0;         ///< width reductions
  int generations = 0;        ///< process groups spawned
  int final_width = 0;
  std::vector<ElasticGeneration> history;  ///< one entry per generation
  std::vector<std::string> events;         ///< human-readable log
  /// Per rank of the last generation: the schedule its trainer ran last
  /// (what Auto picked), "" for a rank that did not finish.
  std::vector<std::string> schedules;
};

/// Coordinator for multi-process training with fault tolerance. Construct
/// once (writes the initial checkpoint), then train(). Thread-free by
/// design: fork() from a multi-threaded coordinator would be a minefield.
class ElasticTrainer {
 public:
  /// Produce iteration `it`'s microbatches. Must be deterministic in `it`
  /// (the batch is re-derived inside every worker process and on retries).
  using BatchFn = std::function<std::vector<Sample>(std::uint64_t)>;

  ElasticTrainer(GptWeights weights, int p, OutputAlgo algo, PipelineFlavor flavor,
                 ElasticOptions options);

  ElasticTrainer(const ElasticTrainer&) = delete;
  ElasticTrainer& operator=(const ElasticTrainer&) = delete;

  /// Deterministic fault plan every worker's injector is built from. Specs
  /// whose iteration has already been attempted are dropped between
  /// generations (the one-shot `fired` state dies with the process that
  /// fired it, so the coordinator must keep retries clean). The
  /// network-chaos specs (DropConnection/PartitionPeer/...) are applied by
  /// each worker's connection supervisor.
  void set_fault_plan(FaultPlan plan);

  /// Run `iterations` training iterations across worker processes, surviving
  /// worker death and network partition by elastic downgrade. Throws
  /// CheckError when the platform lacks shared-memory or loopback-socket
  /// support, when max_generations is exhausted, or when a generation fails
  /// with no admissible recovery.
  ElasticResult train(std::uint64_t iterations, const BatchFn& batch,
                      const OptimizerConfig& opt);

  [[nodiscard]] int initial_width() const { return width_; }

 private:
  void worker_main(int rank, transport::ShmArena& arena, int width,
                   std::uint64_t start_iteration, std::uint64_t end_iteration,
                   const BatchFn& batch, const OptimizerConfig& opt,
                   const FaultPlan& plan) const;

  OutputAlgo algo_;
  PipelineFlavor flavor_;
  ElasticOptions options_;
  int width_;
  int num_layers_;
  FaultPlan plan_;
};

}  // namespace vocab
