// Fault-tolerance subsystem tests: the coordinated-abort protocol
// (AbortToken observed by Channel / DeviceGroup / executor), the stall
// watchdog, deterministic fault injection, and checkpoint-based recovery —
// including the paper-specific property that a faulted run can restart
// *elastically* on a smaller pipeline width because Vocabulary Parallelism
// keeps the vocabulary logically contiguous across shards.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "comm/device_group.h"
#include "common/error.h"
#include "cost/cost_model.h"
#include "fault/abort_token.h"
#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "model/gpt.h"
#include "runtime/checkpoint.h"
#include "runtime/pipeline_trainer.h"
#include "runtime/resilient_trainer.h"
#include "runtime/schedule_executor.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define VOCAB_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define VOCAB_TEST_SANITIZED 1
#endif
#endif

// Latency assertions are the point of these tests (a failure must abort the
// whole pipeline in well under the 30 s comm timeout), but sanitizer builds
// run everything several times slower, so the bounds scale with the build.
#ifdef VOCAB_TEST_SANITIZED
constexpr double kAbortLatencyBound = 5.0;  // seconds
constexpr std::chrono::milliseconds kStallDeadline{2000};
#else
constexpr double kAbortLatencyBound = 1.0;
constexpr std::chrono::milliseconds kStallDeadline{300};
#endif

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Same shape as the executor suite: 8 layers so p | 8 and (V-Half) 2p | 8
// for p in {2, 4}; prime vocabulary forces shard padding at every width.
GptConfig fault_config() {
  GptConfig cfg;
  cfg.num_layers = 8;
  cfg.heads = 2;
  cfg.hidden = 32;
  cfg.seq_len = 16;
  cfg.vocab = 53;
  return cfg;
}

std::vector<Sample> microbatches(const SyntheticCorpus& corpus, int iteration, int count) {
  std::vector<Sample> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(corpus.sample(iteration * count + i));
  return out;
}

WatchdogConfig fast_watchdog() {
  WatchdogConfig cfg;
  cfg.stall_deadline = kStallDeadline;
  cfg.poll_interval = std::chrono::milliseconds(10);
  return cfg;
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void expect_bitwise_equal(const GptWeights& a, const GptWeights& b) {
  EXPECT_EQ(max_abs_diff(a.input_embedding, b.input_embedding), 0.0f);
  EXPECT_EQ(max_abs_diff(a.pos_embedding, b.pos_embedding), 0.0f);
  EXPECT_EQ(max_abs_diff(a.output_weight, b.output_weight), 0.0f);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(max_abs_diff(a.layers[l].wq, b.layers[l].wq), 0.0f) << "layer " << l;
    EXPECT_EQ(max_abs_diff(a.layers[l].w2, b.layers[l].w2), 0.0f) << "layer " << l;
  }
}

// ---------------------------------------------------------------------------
// AbortToken.
// ---------------------------------------------------------------------------

TEST(AbortToken, FirstAbortWinsAndSticks) {
  AbortToken token;
  EXPECT_FALSE(token.aborted());
  EXPECT_TRUE(token.abort({2, 17, "first failure"}));
  EXPECT_FALSE(token.abort({3, 99, "late failure"}));
  EXPECT_TRUE(token.aborted());
  EXPECT_EQ(token.reason().device, 2);
  EXPECT_EQ(token.reason().op_id, 17);
  EXPECT_EQ(token.reason().what, "first failure");
}

TEST(AbortToken, ThrowIfAbortedCarriesOrigin) {
  AbortToken token;
  EXPECT_NO_THROW(token.throw_if_aborted("clean"));
  token.abort({1, 5, "boom"});
  try {
    token.throw_if_aborted("device 3 before op 'F2'");
    FAIL() << "must throw once aborted";
  } catch (const AbortedError& e) {
    EXPECT_EQ(e.origin_device(), 1);
    EXPECT_EQ(e.origin_op_id(), 5);
    const std::string what = e.what();
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
    EXPECT_NE(what.find("device 3 before op 'F2'"), std::string::npos) << what;
  }
}

TEST(AbortToken, ResetRearms) {
  AbortToken token;
  token.abort({0, 0, "x"});
  token.reset();
  EXPECT_FALSE(token.aborted());
  EXPECT_NO_THROW(token.throw_if_aborted("after reset"));
}

// ---------------------------------------------------------------------------
// Abort unblocks every comm wait in milliseconds.
// ---------------------------------------------------------------------------

TEST(Abort, UnblocksBlockedChannelRecv) {
  Channel ch(4);
  auto token = std::make_shared<AbortToken>();
  ch.set_abort_token(token);

  const auto t0 = Clock::now();
  int origin = -1;
  std::thread waiter([&] {
    try {
      ch.recv_tag("never-sent");
      ADD_FAILURE() << "recv must not complete";
    } catch (const AbortedError& e) {
      origin = e.origin_device();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token->abort({3, 42, "unit-test failure"});
  waiter.join();
  EXPECT_EQ(origin, 3);
  EXPECT_LT(seconds_since(t0), kAbortLatencyBound);
}

TEST(Abort, UnblocksBlockedChannelSend) {
  Channel ch(/*capacity=*/1);
  auto token = std::make_shared<AbortToken>();
  ch.set_abort_token(token);
  ch.send("fill", Tensor({1}));

  bool aborted = false;
  std::thread sender([&] {
    try {
      ch.send("overflow", Tensor({1}));
      ADD_FAILURE() << "send into a full channel must not complete";
    } catch (const AbortedError&) {
      aborted = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token->abort({0, -1, "producer failed"});
  sender.join();
  EXPECT_TRUE(aborted);
}

TEST(Abort, UnblocksCollectiveRendezvous) {
  DeviceGroup group(2);
  auto token = std::make_shared<AbortToken>();
  group.set_abort_token(token);

  const auto t0 = Clock::now();
  bool aborted = false;
  std::thread rank0([&] {
    try {
      group.barrier(0, "lonely-barrier");
      ADD_FAILURE() << "rank 1 never arrives";
    } catch (const AbortedError&) {
      aborted = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token->abort({1, 7, "rank 1 died"});
  rank0.join();
  EXPECT_TRUE(aborted);
  EXPECT_LT(seconds_since(t0), kAbortLatencyBound);
}

// ---------------------------------------------------------------------------
// Configurable comm timeout + diagnostic DeadlockError.
// ---------------------------------------------------------------------------

TEST(CommTimeout, EnvOverrideAndDiagnosticMessage) {
  ::setenv("VOCAB_COMM_TIMEOUT_MS", "150", 1);
  Channel ch(2);  // resolves the env timeout at construction
  ::unsetenv("VOCAB_COMM_TIMEOUT_MS");
  ASSERT_EQ(ch.timeout().count(), 150);
  ch.send("bystander", Tensor({1}));

  const auto t0 = Clock::now();
  try {
    ch.recv_tag("missing-tag");
    FAIL() << "must time out";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("missing-tag"), std::string::npos) << what;
    EXPECT_NE(what.find("timeout 150 ms"), std::string::npos) << what;
    EXPECT_NE(what.find("occupancy 1/2"), std::string::npos) << what;
    EXPECT_NE(what.find("'bystander'"), std::string::npos) << what;
  }
  const double elapsed = seconds_since(t0);
  EXPECT_GE(elapsed, 0.14);
  EXPECT_LT(elapsed, kAbortLatencyBound);
}

// A malformed timeout used to silently fall back to the 30 s default — a
// typo'd override then ran with a config the operator never chose. Garbage
// now fails fast, naming the variable and the offending text.
TEST(CommTimeout, InvalidEnvFailsFast) {
  for (const char* bad : {"not-a-number", "-5", "0", "10abc", ""}) {
    ::setenv("VOCAB_COMM_TIMEOUT_MS", bad, 1);
    if (*bad == '\0') {
      // Empty is treated as unset, not as garbage.
      Channel ch(2);
      EXPECT_EQ(ch.timeout().count(), 30000) << "empty value should use default";
      continue;
    }
    try {
      Channel ch(2);
      FAIL() << "VOCAB_COMM_TIMEOUT_MS=\"" << bad << "\" should have thrown";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("VOCAB_COMM_TIMEOUT_MS"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
  ::unsetenv("VOCAB_COMM_TIMEOUT_MS");
}

TEST(CommTimeout, ValidEnvOverrides) {
  ::setenv("VOCAB_COMM_TIMEOUT_MS", "1234", 1);
  Channel ch(2);
  ::unsetenv("VOCAB_COMM_TIMEOUT_MS");
  EXPECT_EQ(ch.timeout().count(), 1234);
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

TEST(Watchdog, DetectsSilentDeviceAndReportsState) {
  auto token = std::make_shared<AbortToken>();
  WatchdogConfig cfg;
  cfg.stall_deadline = std::chrono::milliseconds(100);
  cfg.poll_interval = std::chrono::milliseconds(10);
  Watchdog dog(
      2, cfg, token,
      [](int d, int op) { return "op#" + std::to_string(op) + "@dev" + std::to_string(d); },
      [] { return std::string("  comm: test-snapshot\n"); });
  dog.start();
  dog.heartbeat(0, 7);
  dog.mark_done(0);
  dog.heartbeat(1, 9);
  // Device 1 now goes silent; the watchdog must fire within deadline + slack.
  const auto t0 = Clock::now();
  while (!token->aborted() && seconds_since(t0) < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(token->aborted()) << "watchdog never fired";
  EXPECT_TRUE(dog.fired());
  EXPECT_EQ(token->reason().device, 1);
  EXPECT_EQ(token->reason().op_id, 9);
  const std::string report = dog.last_report();
  EXPECT_NE(report.find("stall deadline"), std::string::npos) << report;
  EXPECT_NE(report.find("op#9@dev1"), std::string::npos) << report;
  EXPECT_NE(report.find("done"), std::string::npos) << report;  // device 0
  EXPECT_NE(report.find("test-snapshot"), std::string::npos) << report;
  dog.stop();
}

TEST(Watchdog, QuietWhenAllDevicesFinish) {
  auto token = std::make_shared<AbortToken>();
  WatchdogConfig cfg;
  cfg.stall_deadline = std::chrono::milliseconds(50);
  cfg.poll_interval = std::chrono::milliseconds(5);
  Watchdog dog(2, cfg, token, nullptr, nullptr);
  dog.start();
  dog.heartbeat(0, 1);
  dog.heartbeat(1, 2);
  dog.mark_done(0);
  dog.mark_done(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(dog.fired());
  EXPECT_FALSE(token->aborted());
  dog.stop();
}

// ---------------------------------------------------------------------------
// FaultPlan / FaultInjector.
// ---------------------------------------------------------------------------

TEST(FaultPlan, RandomIsSeedDeterministic) {
  const std::vector<FaultKind> kinds{FaultKind::ThrowInOp, FaultKind::KillThread};
  const FaultPlan a = FaultPlan::random(7, 5, 4, 10, 20, kinds);
  const FaultPlan b = FaultPlan::random(7, 5, 4, 10, 20, kinds);
  ASSERT_EQ(a.faults.size(), 5u);
  EXPECT_EQ(a.summary(), b.summary());
  for (const FaultSpec& s : a.faults) {
    EXPECT_GE(s.device, 0);
    EXPECT_LT(s.device, 4);
    EXPECT_LT(s.iteration, 10u);
    EXPECT_GE(s.op_index, 0);
    EXPECT_LT(s.op_index, 20);
  }
  const FaultPlan c = FaultPlan::random(8, 5, 4, 10, 20, kinds);
  EXPECT_NE(a.summary(), c.summary());
}

TEST(FaultInjector, SpecsAreOneShotAcrossRetries) {
  FaultSpec spec;
  spec.kind = FaultKind::ThrowInOp;
  spec.iteration = 0;
  spec.device = 0;
  spec.op_index = 2;
  FaultInjector injector(FaultPlan::single(spec));

  injector.begin_iteration(0);
  EXPECT_NO_THROW(injector.on_op_at(0, 0, 10, "F0", nullptr));
  EXPECT_NO_THROW(injector.on_op_at(0, 1, 11, "F1", nullptr));
  EXPECT_THROW(injector.on_op_at(0, 2, 12, "F2", nullptr), InjectedFault);
  EXPECT_EQ(injector.faults_fired(), 1);

  // A recovery retry of the same iteration must not re-fire the spec.
  injector.begin_iteration(0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NO_THROW(injector.on_op_at(0, i, 10 + i, "F", nullptr));
  }
  EXPECT_EQ(injector.faults_fired(), 1);
}

// ---------------------------------------------------------------------------
// Executor abort latency: a mid-schedule failure ends the whole iteration in
// well under a second instead of serializing 30 s comm timeouts (regression
// for the exception-while-peers-blocked hang window).
// ---------------------------------------------------------------------------

TEST(ExecutorAbort, MidScheduleThrowAbortsAllDevicesFast) {
  const GptConfig cfg = fault_config();
  PipelineTrainer trainer(GptWeights::init(cfg, 11), /*p=*/4, OutputAlgo::Alg1,
                          PipelineFlavor::OneFOneBVocab);
  FaultSpec spec;
  spec.kind = FaultKind::ThrowInOp;
  spec.iteration = 0;
  spec.device = 1;
  spec.op_index = 3;
  spec.note = "latency-regression";
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  trainer.set_fault_injector(injector);
  injector->begin_iteration(0);

  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 12);
  const auto mbs = microbatches(corpus, 0, 8);
  const auto t0 = Clock::now();
  EXPECT_THROW(trainer.train_iteration(mbs, 0.1f), InjectedFault);
  const double elapsed = seconds_since(t0);
  EXPECT_LT(elapsed, kAbortLatencyBound)
      << "peers must unblock via the abort token, not serialize comm timeouts";

  // The failure poisons the trainer: state is torn, so further iterations
  // must refuse until the owner rebuilds from a checkpoint.
  ASSERT_TRUE(trainer.abort_token()->aborted());
  EXPECT_EQ(trainer.abort_token()->reason().device, 1);
  try {
    trainer.train_iteration(mbs, 0.1f);
    FAIL() << "poisoned trainer must not train";
  } catch (const AbortedError& e) {
    EXPECT_NE(std::string(e.what()).find("rebuild"), std::string::npos) << e.what();
  }
}

TEST(ExecutorAbort, ExternalCancelPoisonsNaiveTrainer) {
  // The naive (one microbatch in flight) schedule shares the same protocol:
  // its channels and collectives observe the trainer's token, and a
  // cancelled / failed token refuses further iterations until the owner
  // rebuilds.
  const GptConfig cfg = fault_config();
  PipelineTrainer trainer(GptWeights::init(cfg, 21), /*p=*/2, OutputAlgo::Alg1,
                          PipelineFlavor::Naive);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 22);
  const auto mbs = microbatches(corpus, 0, 4);
  EXPECT_GT(trainer.train_iteration(mbs, 0.1f), 0.0f) << "healthy trainer trains";

  trainer.abort_token()->abort({-1, -1, "external cancel"});
  try {
    trainer.train_iteration(mbs, 0.1f);
    FAIL() << "cancelled trainer must refuse to train";
  } catch (const AbortedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("external cancel"), std::string::npos) << what;
    EXPECT_NE(what.find("rebuild"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Watchdog-driven detection inside the executor (kill / stall).
// ---------------------------------------------------------------------------

TEST(ExecutorAbort, WatchdogDetectsKilledThread) {
  const GptConfig cfg = fault_config();
  PipelineTrainer trainer(GptWeights::init(cfg, 31), /*p=*/2, OutputAlgo::Alg1,
                          PipelineFlavor::OneFOneBVocab);
  trainer.enable_watchdog(fast_watchdog());
  FaultSpec spec;
  spec.kind = FaultKind::KillThread;
  spec.iteration = 0;
  spec.device = 1;
  spec.op_index = 2;
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  trainer.set_fault_injector(injector);
  injector->begin_iteration(0);

  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 32);
  // A killed thread raises no abort; only the watchdog's stall deadline can
  // end the run, so the iteration fails in ~deadline, not the comm timeout.
  const auto t0 = Clock::now();
  EXPECT_THROW(trainer.train_iteration(microbatches(corpus, 0, 4), 0.1f), ThreadKilledFault);
  const double elapsed = seconds_since(t0);
  EXPECT_LT(elapsed,
            std::chrono::duration<double>(kStallDeadline).count() + kAbortLatencyBound);
  ASSERT_TRUE(trainer.abort_token()->aborted());
  // The abort reason carries the watchdog's diagnostic snapshot.
  const std::string report = trainer.abort_token()->reason().what;
  EXPECT_NE(report.find("stall deadline"), std::string::npos) << report;
  EXPECT_NE(report.find("mailbox"), std::string::npos) << report;
}

// A device that dies before posting a collective strands its peers in the
// wait for it: the stall report must name that collective (its op on the
// waiting devices' lines, its tag and arrived count in the comm section),
// not only the consumer the survivors were about to run.
TEST(ExecutorAbort, KilledBeforePostingC1TheReportNamesTheCollective) {
  const GptConfig cfg = fault_config();
  constexpr int kP = 4, kM = 8;
  PipelineTrainer trainer(GptWeights::init(cfg, 33), kP, OutputAlgo::Alg2,
                          PipelineFlavor::OneFOneBVocab);
  trainer.enable_watchdog(fast_watchdog());

  // The trainer's schedule, rebuilt here to find device 1's S0: killed just
  // before it, device 1 never posts C1.0.
  ModelConfig mc;
  mc.name = "gpt";
  mc.num_layers = cfg.num_layers;
  mc.attention_heads = cfg.heads;
  mc.hidden = cfg.hidden;
  mc.seq_len = cfg.seq_len;
  mc.vocab = cfg.vocab;
  mc.microbatch = 1;
  mc.num_microbatches = kM;
  const ScheduleExecutor plan(
      build_1f1b_vocab(CostModel(mc, HardwareModel{}), kP, OutputAlgo::Alg2));
  const std::vector<int>& seq = plan.device_sequence(1);
  const auto s0 = std::find_if(seq.begin(), seq.end(),
                               [&](int id) { return plan.schedule().op(id).label == "S0"; });
  ASSERT_NE(s0, seq.end());

  FaultSpec spec;
  spec.kind = FaultKind::KillThread;
  spec.iteration = 0;
  spec.device = 1;
  spec.op_index = static_cast<int>(s0 - seq.begin());
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  trainer.set_fault_injector(injector);
  injector->begin_iteration(0);

  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 34);
  EXPECT_THROW(trainer.train_iteration(microbatches(corpus, 0, kM), 0.1f), ThreadKilledFault);
  ASSERT_TRUE(trainer.abort_token()->aborted());
  const std::string report = trainer.abort_token()->reason().what;
  EXPECT_NE(report.find("stall deadline"), std::string::npos) << report;
  EXPECT_NE(report.find("op 'C1.0'"), std::string::npos) << report;
  EXPECT_NE(report.find("'out:mb0:b0:stats' all_gather_rows arrived 3/4"), std::string::npos)
      << report;
  EXPECT_TRUE(trainer.device_group()->waiting_ranks().empty());
}

// ---------------------------------------------------------------------------
// WatchdogSnapshot: the machine-readable stall diagnostic survives its wire
// format, so a coordinator can persist / re-ingest which op each lane was
// stuck on.
// ---------------------------------------------------------------------------

TEST(WatchdogSnapshot, SerializeParseRoundTrip) {
  WatchdogSnapshot snap;
  snap.stall_deadline_ms = 1234;
  snap.devices.push_back({/*device=*/0, /*op_id=*/17, /*ops_started=*/42,
                          /*silent_ms=*/950, /*done=*/false});
  snap.devices.push_back({/*device=*/1, /*op_id=*/-1, /*ops_started=*/0,
                          /*silent_ms=*/12, /*done=*/true});
  snap.comm = "mailbox fwd[1]: 2/8 ['fwd:mb3']\ngroup: arrived 1/2, waiters [r0:'loss']";

  const WatchdogSnapshot back = WatchdogSnapshot::parse(snap.serialize());
  EXPECT_EQ(back.stall_deadline_ms, 1234);
  ASSERT_EQ(back.devices.size(), 2u);
  EXPECT_EQ(back.devices[0].device, 0);
  EXPECT_EQ(back.devices[0].op_id, 17);  // the stuck-op id survives the trip
  EXPECT_EQ(back.devices[0].ops_started, 42);
  EXPECT_EQ(back.devices[0].silent_ms, 950);
  EXPECT_FALSE(back.devices[0].done);
  EXPECT_EQ(back.devices[1].op_id, -1);
  EXPECT_TRUE(back.devices[1].done);
  EXPECT_EQ(back.comm, snap.comm);  // multi-line comm text carried verbatim
}

TEST(WatchdogSnapshot, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)WatchdogSnapshot::parse("garbage"), CheckError);
  // Missing comm section.
  EXPECT_THROW((void)WatchdogSnapshot::parse("watchdog-snapshot v1\ndeadline_ms 10\n"),
               CheckError);
  // Malformed device line.
  EXPECT_THROW((void)WatchdogSnapshot::parse(
                   "watchdog-snapshot v1\ndeadline_ms 10\ndevice 0 op\ncomm\n"),
               CheckError);
}

TEST(WatchdogSnapshot, FiredSnapshotCarriesStuckOp) {
  auto token = std::make_shared<AbortToken>();
  Watchdog dog(
      /*num_devices=*/2, fast_watchdog(), token,
      [](int d, int op) { return "op " + std::to_string(op) + " on d" + std::to_string(d); },
      [] { return std::string("mailbox fwd[0]: 1/4 ['fwd:mb0']"); });
  dog.start();
  dog.heartbeat(0, 7);  // device 0 announces op 7, then falls silent
  dog.mark_done(1);

  // Before the stall fires, snapshot() is an on-demand probe of the beats.
  const WatchdogSnapshot live = dog.snapshot();
  ASSERT_EQ(live.devices.size(), 2u);
  EXPECT_EQ(live.devices[0].op_id, 7);
  EXPECT_TRUE(live.devices[1].done);

  const auto t0 = Clock::now();
  while (!dog.fired() && seconds_since(t0) < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(dog.fired());
  dog.stop();
  EXPECT_TRUE(token->aborted());

  const WatchdogSnapshot fired = dog.last_snapshot();
  ASSERT_EQ(fired.devices.size(), 2u);
  EXPECT_EQ(fired.devices[0].op_id, 7);
  EXPECT_FALSE(fired.devices[0].done);
  EXPECT_GE(fired.devices[0].silent_ms, kStallDeadline.count());
  EXPECT_TRUE(fired.devices[1].done);
  EXPECT_EQ(fired.stall_deadline_ms, kStallDeadline.count());
  EXPECT_NE(fired.comm.find("mailbox"), std::string::npos);

  // Round-trip the fired snapshot through the wire format.
  const WatchdogSnapshot back = WatchdogSnapshot::parse(fired.serialize());
  EXPECT_EQ(back.devices[0].op_id, 7);
  EXPECT_EQ(back.devices[0].silent_ms, fired.devices[0].silent_ms);
  EXPECT_EQ(back.comm, fired.comm);
}

// ---------------------------------------------------------------------------
// A transient delay (slow link / straggler) must NOT abort, and must leave
// training bit-identical to an undisturbed run.
// ---------------------------------------------------------------------------

TEST(FaultInjection, DelayedOpIsHarmlessAndBitIdentical) {
  const GptConfig cfg = fault_config();
  const GptWeights init = GptWeights::init(cfg, 41);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 42);

  PipelineTrainer clean(init, /*p=*/2, OutputAlgo::Alg2, PipelineFlavor::OneFOneBVocab);
  PipelineTrainer delayed(init, /*p=*/2, OutputAlgo::Alg2, PipelineFlavor::OneFOneBVocab);
  FaultSpec spec;
  spec.kind = FaultKind::DelayOp;
  spec.iteration = 1;
  spec.device = 1;
  spec.op_index = 2;
  spec.delay = std::chrono::milliseconds(50);
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  delayed.set_fault_injector(injector);

  for (int it = 0; it < 3; ++it) {
    const auto mbs = microbatches(corpus, it, 4);
    const float l_clean = clean.train_iteration(mbs, 0.1f);
    injector->begin_iteration(static_cast<std::uint64_t>(it));
    const float l_delayed = delayed.train_iteration(mbs, 0.1f);
    EXPECT_EQ(l_clean, l_delayed) << "iteration " << it;
  }
  EXPECT_EQ(injector->faults_fired(), 1);
  expect_bitwise_equal(clean.export_weights(), delayed.export_weights());
}

// ---------------------------------------------------------------------------
// Recovery matrix: every flavor × width × fault kind recovers from the
// checkpoint to weights bit-identical to an uninterrupted run.
// ---------------------------------------------------------------------------

struct FaultCase {
  PipelineFlavor flavor;
  int p;
  FaultKind kind;
};

std::string fault_case_name(const testing::TestParamInfo<FaultCase>& info) {
  const FaultCase& c = info.param;
  std::string flavor;
  switch (c.flavor) {
    case PipelineFlavor::Naive: flavor = "Naive"; break;
    case PipelineFlavor::Baseline1F1B: flavor = "Baseline1F1B"; break;
    case PipelineFlavor::Gpipe: flavor = "Gpipe"; break;
    case PipelineFlavor::OneFOneBVocab: flavor = "OneFOneBVocab"; break;
    case PipelineFlavor::VHalf: flavor = "VHalf"; break;
    case PipelineFlavor::ZbVocab: flavor = "ZbVocab"; break;
    case PipelineFlavor::Auto: flavor = "Auto"; break;
  }
  std::string kind;
  switch (c.kind) {
    case FaultKind::ThrowInOp: kind = "Throw"; break;
    case FaultKind::DelayOp: kind = "Delay"; break;
    case FaultKind::StallDevice: kind = "Stall"; break;
    case FaultKind::KillThread: kind = "Kill"; break;
    case FaultKind::InjectNaN: kind = "NaN"; break;
    case FaultKind::InjectInf: kind = "Inf"; break;
    case FaultKind::BitFlip: kind = "BitFlip"; break;
    // Transport-level kinds live in the multi-process suite
    // (test_transport.cpp); the in-thread recovery matrix never uses them.
    case FaultKind::KillProcess: kind = "KillProcess"; break;
    case FaultKind::DropMessage: kind = "DropMsg"; break;
    case FaultKind::DelayMessage: kind = "DelayMsg"; break;
    case FaultKind::SuppressHeartbeat: kind = "SuppressHeartbeat"; break;
    case FaultKind::DropConnection: kind = "DropConn"; break;
    case FaultKind::PartitionPeer: kind = "Partition"; break;
    case FaultKind::DuplicateFrame: kind = "DupFrame"; break;
    case FaultKind::TruncateFrame: kind = "TruncFrame"; break;
    case FaultKind::StallSocket: kind = "StallSock"; break;
  }
  return flavor + "_p" + std::to_string(c.p) + "_" + kind;
}

class FaultRecovery : public testing::TestWithParam<FaultCase> {};

TEST_P(FaultRecovery, RecoversToBitIdenticalWeights) {
  const FaultCase c = GetParam();
  const GptConfig cfg = fault_config();
  const GptWeights init = GptWeights::init(cfg, 51);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 52);
  const int m = 2 * c.p;
  constexpr int kIterations = 4;
  // SGD keeps recovery exactly replayable: the checkpoint carries weights
  // only, and SGD has no optimizer state to lose across the rebuild.
  const OptimizerConfig opt = OptimizerConfig::sgd(0.1f);

  // Uninterrupted baseline (advanced in lockstep with the faulted run below).
  PipelineTrainer baseline(init, c.p, OutputAlgo::Alg1, c.flavor);

  // Faulted run: one injected failure mid-training (global iteration 2).
  RecoveryPolicy policy;
  policy.checkpoint_path = temp_path("recovery_" + fault_case_name({c, 0}) + ".ckpt");
  policy.checkpoint_every = 1;
  // Kill / Stall are only discoverable by the watchdog.
  policy.enable_watchdog = true;
  policy.watchdog = fast_watchdog();
  ResilientTrainer resilient(init, c.p, OutputAlgo::Alg1, c.flavor, policy);

  FaultSpec spec;
  spec.kind = c.kind;
  spec.iteration = 2;
  spec.device = 1;
  spec.op_index = 3;
  if (c.kind == FaultKind::StallDevice) {
    spec.delay = kStallDeadline + std::chrono::milliseconds(2000);
  }
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  resilient.set_fault_injector(injector);

  for (int it = 0; it < kIterations; ++it) {
    const float l_res = resilient.train_iteration(microbatches(corpus, it, m), opt);
    const float l_base = baseline.train_iteration(microbatches(corpus, it, m), opt);
    EXPECT_EQ(l_res, l_base) << "iteration " << it;
  }
  EXPECT_EQ(injector->faults_fired(), 1);
  EXPECT_EQ(resilient.stats().faults_observed, 1);
  EXPECT_EQ(resilient.stats().recoveries, 1);
  EXPECT_EQ(resilient.pipeline_width(), c.p) << "no downgrade was requested";
  expect_bitwise_equal(resilient.export_weights(), baseline.export_weights());
}

std::vector<FaultCase> fault_cases() {
  std::vector<FaultCase> cases;
  for (const PipelineFlavor flavor :
       {PipelineFlavor::Naive, PipelineFlavor::Baseline1F1B, PipelineFlavor::Gpipe,
        PipelineFlavor::OneFOneBVocab, PipelineFlavor::VHalf}) {
    for (const int p : {2, 4}) {
      for (const FaultKind kind :
           {FaultKind::ThrowInOp, FaultKind::StallDevice, FaultKind::KillThread}) {
        cases.push_back({flavor, p, kind});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, FaultRecovery, testing::ValuesIn(fault_cases()),
                         fault_case_name);

// Wait — the baseline above advances in lockstep with the resilient run, so
// a buggy recovery that silently skipped an iteration would still compare
// "equal" if both sides skipped. Guard against that: the loss sequence of a
// recovered run must match a straight run computed independently first.
TEST(FaultRecovery, LossSequenceMatchesStraightRun) {
  const GptConfig cfg = fault_config();
  const GptWeights init = GptWeights::init(cfg, 61);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 62);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.1f);

  std::vector<float> straight;
  {
    PipelineTrainer t(init, 2, OutputAlgo::Alg1, PipelineFlavor::OneFOneBVocab);
    for (int it = 0; it < 4; ++it) {
      straight.push_back(t.train_iteration(microbatches(corpus, it, 4), opt));
    }
  }

  RecoveryPolicy policy;
  policy.checkpoint_path = temp_path("loss_sequence.ckpt");
  ResilientTrainer resilient(init, 2, OutputAlgo::Alg1, PipelineFlavor::OneFOneBVocab, policy);
  FaultSpec spec;
  spec.kind = FaultKind::ThrowInOp;
  spec.iteration = 1;
  spec.device = 0;
  spec.op_index = 1;
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  resilient.set_fault_injector(injector);
  for (int it = 0; it < 4; ++it) {
    EXPECT_EQ(resilient.train_iteration(microbatches(corpus, it, 4), opt),
              straight[static_cast<std::size_t>(it)])
        << "iteration " << it;
  }
  EXPECT_EQ(resilient.iterations_completed(), 4u);
}

// ---------------------------------------------------------------------------
// Elastic degradation: repeated failures of one iteration reshard the run
// onto a smaller pipeline width from the same checkpoint.
// ---------------------------------------------------------------------------

TEST(ElasticRecovery, DowngradesWidthAndMatchesCleanRestart) {
  const GptConfig cfg = fault_config();
  const GptWeights init = GptWeights::init(cfg, 71);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 72);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.1f);
  constexpr int kFaultIter = 2, kIterations = 4, kM = 8;

  RecoveryPolicy policy;
  policy.checkpoint_path = temp_path("elastic.ckpt");
  policy.allow_elastic_downgrade = true;
  policy.retries_before_downgrade = 2;
  policy.max_retries_per_iteration = 3;
  ResilientTrainer resilient(init, 4, OutputAlgo::Alg1, PipelineFlavor::OneFOneBVocab, policy);

  // Two one-shot specs on the same iteration: attempt 1 trips the first,
  // the retry trips the second, and the third attempt downgrades 4 -> 2.
  FaultPlan plan;
  FaultSpec a;
  a.kind = FaultKind::ThrowInOp;
  a.iteration = kFaultIter;
  a.device = 1;
  a.op_index = 3;
  FaultSpec b = a;
  b.device = 2;
  b.op_index = 5;
  plan.faults = {a, b};
  auto injector = std::make_shared<FaultInjector>(plan);
  resilient.set_fault_injector(injector);

  for (int it = 0; it < kIterations; ++it) {
    resilient.train_iteration(microbatches(corpus, it, kM), opt);
  }
  EXPECT_EQ(injector->faults_fired(), 2);
  EXPECT_EQ(resilient.stats().faults_observed, 2);
  EXPECT_EQ(resilient.stats().downgrades, 1);
  EXPECT_EQ(resilient.pipeline_width(), 2);

  // Reference: clean restart at width 2 from the same pre-fault state. A
  // different width changes reduction orders, so cross-width equality with a
  // p=4 run does NOT hold — equality with a p=2 restart from the iteration-2
  // checkpoint is the exact guarantee.
  PipelineTrainer before(init, 4, OutputAlgo::Alg1, PipelineFlavor::OneFOneBVocab);
  for (int it = 0; it < kFaultIter; ++it) {
    before.train_iteration(microbatches(corpus, it, kM), opt);
  }
  PipelineTrainer restart(before.export_weights(), 2, OutputAlgo::Alg1,
                          PipelineFlavor::OneFOneBVocab);
  for (int it = kFaultIter; it < kIterations; ++it) {
    restart.train_iteration(microbatches(corpus, it, kM), opt);
  }
  expect_bitwise_equal(resilient.export_weights(), restart.export_weights());
}

TEST(ElasticRecovery, NextSmallerWidthHonorsFlavorConstraints) {
  // 8 layers: V-Half needs 2p' | 8, vocab schedules need p' >= 2.
  EXPECT_EQ(ResilientTrainer::next_smaller_width(4, 8, PipelineFlavor::OneFOneBVocab), 2);
  EXPECT_EQ(ResilientTrainer::next_smaller_width(2, 8, PipelineFlavor::OneFOneBVocab), 0);
  EXPECT_EQ(ResilientTrainer::next_smaller_width(4, 8, PipelineFlavor::VHalf), 2);
  EXPECT_EQ(ResilientTrainer::next_smaller_width(2, 8, PipelineFlavor::VHalf), 0);
  EXPECT_EQ(ResilientTrainer::next_smaller_width(4, 8, PipelineFlavor::Baseline1F1B), 2);
  EXPECT_EQ(ResilientTrainer::next_smaller_width(2, 8, PipelineFlavor::Baseline1F1B), 1);
  // 12 layers, width 8 -> largest admissible half-or-smaller is 6 (12 % 6 == 0...
  // scan starts at 4: 12 % 4 == 0), so 4.
  EXPECT_EQ(ResilientTrainer::next_smaller_width(8, 12, PipelineFlavor::OneFOneBVocab), 4);
}

// ---------------------------------------------------------------------------
// Numeric guardrails (src/guard): silently corrupted tensors (NaN / Inf data
// faults) are caught by the fence within the same iteration with exact
// (device, op, microbatch) attribution; recovery from a detected corruption
// is bit-identical to a fault-free run; an aborted iteration leaves no
// residue in the mailboxes or the collective group.
// ---------------------------------------------------------------------------

/// Sets an environment variable for the lifetime of one test (exception-safe:
/// a failing assertion must not leak the guard level into later tests).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

class GuardDetection : public testing::TestWithParam<FaultCase> {};

TEST_P(GuardDetection, DataFaultDetectedWithAttribution) {
  const FaultCase c = GetParam();
  const GptConfig cfg = fault_config();
  PipelineTrainer trainer(GptWeights::init(cfg, 91), c.p, OutputAlgo::Alg1, c.flavor);
  trainer.set_guard_level(guard::GuardLevel::kFence);
  FaultSpec spec;
  spec.kind = c.kind;
  spec.iteration = 1;
  spec.device = 1;
  spec.op_index = 3;
  spec.element = 7;
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  trainer.set_fault_injector(injector);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 92);
  const int m = 2 * c.p;

  injector->begin_iteration(0);
  trainer.train_iteration(microbatches(corpus, 0, m), 0.1f);  // clean warm-up
  EXPECT_GT(trainer.nan_fence()->checks(0), 0) << "fence must actually scan tensors";

  injector->begin_iteration(1);
  const auto t0 = Clock::now();
  try {
    trainer.train_iteration(microbatches(corpus, 1, m), 0.1f);
    FAIL() << "corrupted iteration must throw through the fence";
  } catch (const guard::NonFiniteError& e) {
    // Attribution: the corruption is applied (and must be caught) at a tensor
    // boundary on the device whose op the spec addressed, before the poison
    // can propagate to a peer.
    EXPECT_EQ(e.device(), spec.device);
    EXPECT_FALSE(e.op_label().empty());
    EXPECT_GE(e.microbatch(), -1);
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
    EXPECT_NE(what.find(e.op_label()), std::string::npos) << what;
    EXPECT_NE(what.find("device 1"), std::string::npos) << what;
  }
  // Same-iteration detection: the throw ends the iteration immediately rather
  // than surfacing iterations later as a diverged loss.
  EXPECT_LT(seconds_since(t0), kAbortLatencyBound);
  EXPECT_EQ(injector->faults_fired(), 1);
  EXPECT_EQ(injector->corruptions_applied(), 1);
  EXPECT_NE(trainer.nan_fence()->verdict(spec.device), "ok")
      << "the tripped device's verdict must record the failure";
  ASSERT_TRUE(trainer.abort_token()->aborted());

  // Abort hygiene: nothing queued, nobody waiting.
  EXPECT_EQ(trainer.comm_in_flight(), 0u);
  if (trainer.device_group() != nullptr) {
    EXPECT_TRUE(trainer.device_group()->waiting_ranks().empty());
  }
}

std::vector<FaultCase> guard_detection_cases() {
  std::vector<FaultCase> cases;
  for (const PipelineFlavor flavor :
       {PipelineFlavor::Baseline1F1B, PipelineFlavor::Gpipe, PipelineFlavor::OneFOneBVocab,
        PipelineFlavor::VHalf}) {
    for (const int p : {2, 4}) {
      for (const FaultKind kind : {FaultKind::InjectNaN, FaultKind::InjectInf}) {
        cases.push_back({flavor, p, kind});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, GuardDetection, testing::ValuesIn(guard_detection_cases()),
                         fault_case_name);

class GuardRecovery : public testing::TestWithParam<FaultCase> {};

TEST_P(GuardRecovery, DetectedCorruptionRecoversBitIdentical) {
  const FaultCase c = GetParam();
  // Via the environment on purpose: ResilientTrainer rebuilds the trainer
  // after the failure, and the rebuilt one must inherit the fence level.
  ScopedEnv guard_env("VOCAB_GUARD_LEVEL", "1");
  const GptConfig cfg = fault_config();
  const GptWeights init = GptWeights::init(cfg, 93);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 94);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.1f);
  const int m = 2 * c.p;

  PipelineTrainer baseline(init, c.p, OutputAlgo::Alg1, c.flavor);
  RecoveryPolicy policy;
  policy.checkpoint_path = temp_path("guard_" + fault_case_name({c, 0}) + ".ckpt");
  ResilientTrainer resilient(init, c.p, OutputAlgo::Alg1, c.flavor, policy);

  FaultSpec spec;
  spec.kind = c.kind;
  spec.iteration = 2;
  spec.device = 1;
  spec.op_index = 3;
  spec.element = 11;
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  resilient.set_fault_injector(injector);

  for (int it = 0; it < 4; ++it) {
    const float l_res = resilient.train_iteration(microbatches(corpus, it, m), opt);
    const float l_base = baseline.train_iteration(microbatches(corpus, it, m), opt);
    EXPECT_EQ(l_res, l_base) << "iteration " << it;
  }
  EXPECT_EQ(injector->faults_fired(), 1);
  EXPECT_EQ(injector->corruptions_applied(), 1);
  EXPECT_EQ(resilient.stats().faults_observed, 1);
  EXPECT_EQ(resilient.stats().recoveries, 1);
  expect_bitwise_equal(resilient.export_weights(), baseline.export_weights());
}

std::vector<FaultCase> guard_recovery_cases() {
  std::vector<FaultCase> cases;
  for (const PipelineFlavor flavor :
       {PipelineFlavor::Baseline1F1B, PipelineFlavor::Gpipe, PipelineFlavor::OneFOneBVocab,
        PipelineFlavor::VHalf}) {
    for (const int p : {2, 4}) {
      cases.push_back({flavor, p, FaultKind::InjectNaN});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, GuardRecovery, testing::ValuesIn(guard_recovery_cases()),
                         fault_case_name);

class AbortHygiene : public testing::TestWithParam<FaultCase> {};

TEST_P(AbortHygiene, AbortedIterationLeavesNoResidue) {
  const FaultCase c = GetParam();
  const GptConfig cfg = fault_config();
  PipelineTrainer trainer(GptWeights::init(cfg, 95), c.p, OutputAlgo::Alg1, c.flavor);
  FaultSpec spec;
  spec.kind = FaultKind::ThrowInOp;
  spec.iteration = 0;
  spec.device = 1;
  spec.op_index = 3;
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  trainer.set_fault_injector(injector);
  injector->begin_iteration(0);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 96);

  EXPECT_THROW(trainer.train_iteration(microbatches(corpus, 0, 2 * c.p), 0.1f),
               InjectedFault);
  // The abort tore the iteration mid-flight: every recv_tag mailbox and stage
  // channel must have been drained, and no rank may still sit in a
  // collective.
  EXPECT_EQ(trainer.comm_in_flight(), 0u);
  if (trainer.device_group() != nullptr) {
    EXPECT_TRUE(trainer.device_group()->waiting_ranks().empty());
  }
}

std::vector<FaultCase> abort_hygiene_cases() {
  std::vector<FaultCase> cases;
  for (const PipelineFlavor flavor :
       {PipelineFlavor::Baseline1F1B, PipelineFlavor::Gpipe, PipelineFlavor::OneFOneBVocab,
        PipelineFlavor::VHalf}) {
    for (const int p : {2, 4}) cases.push_back({flavor, p, FaultKind::ThrowInOp});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, AbortHygiene, testing::ValuesIn(abort_hygiene_cases()),
                         fault_case_name);

// ---------------------------------------------------------------------------
// Anomaly-triggered recovery: a silent corruption (guard fence OFF) surfaces
// as a non-finite loss / grad norm, which the rolling detector flags; the
// policy then discards the poisoned optimizer step.
// ---------------------------------------------------------------------------

TEST(AnomalyRecovery, RollbackReplaysBitIdentical) {
  const GptConfig cfg = fault_config();
  const GptWeights init = GptWeights::init(cfg, 97);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 98);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.1f);

  // Baseline without anomaly machinery: the grad-norm monitor the policy
  // turns on must not perturb training numerics.
  PipelineTrainer baseline(init, 2, OutputAlgo::Alg1, PipelineFlavor::OneFOneBVocab);

  RecoveryPolicy policy;
  policy.checkpoint_path = temp_path("anomaly_rollback.ckpt");
  policy.anomaly.action = AnomalyAction::kRollback;
  ResilientTrainer resilient(init, 2, OutputAlgo::Alg1, PipelineFlavor::OneFOneBVocab,
                             policy);

  FaultSpec spec;
  spec.kind = FaultKind::InjectNaN;  // fence off: the NaN propagates silently
  spec.iteration = 2;
  spec.device = 1;
  spec.op_index = 3;
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  resilient.set_fault_injector(injector);

  for (int it = 0; it < 4; ++it) {
    const float l_res = resilient.train_iteration(microbatches(corpus, it, 4), opt);
    const float l_base = baseline.train_iteration(microbatches(corpus, it, 4), opt);
    EXPECT_EQ(l_res, l_base) << "iteration " << it;
  }
  EXPECT_EQ(resilient.stats().anomalies, 1);
  EXPECT_EQ(resilient.stats().rollbacks, 1);
  EXPECT_EQ(resilient.stats().skipped_batches, 0);
  EXPECT_EQ(resilient.iterations_completed(), 4u);
  expect_bitwise_equal(resilient.export_weights(), baseline.export_weights());
}

TEST(AnomalyRecovery, SkipBatchDiscardsPoisonedUpdate) {
  const GptConfig cfg = fault_config();
  const GptWeights init = GptWeights::init(cfg, 99);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 100);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.1f);

  RecoveryPolicy policy;
  policy.checkpoint_path = temp_path("anomaly_skip.ckpt");
  policy.anomaly.action = AnomalyAction::kSkipBatch;
  ResilientTrainer resilient(init, 2, OutputAlgo::Alg1, PipelineFlavor::OneFOneBVocab,
                             policy);

  FaultSpec spec;
  spec.kind = FaultKind::InjectInf;
  spec.iteration = 2;
  spec.device = 0;
  spec.op_index = 4;
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  resilient.set_fault_injector(injector);

  for (int it = 0; it < 4; ++it) {
    resilient.train_iteration(microbatches(corpus, it, 4), opt);
  }
  EXPECT_EQ(resilient.stats().anomalies, 1);
  EXPECT_EQ(resilient.stats().skipped_batches, 1);
  EXPECT_EQ(resilient.stats().rollbacks, 0);
  EXPECT_EQ(resilient.iterations_completed(), 4u);

  // Skip semantics: the final weights equal a run that never saw iteration
  // 2's batch at all.
  PipelineTrainer skipping(init, 2, OutputAlgo::Alg1, PipelineFlavor::OneFOneBVocab);
  for (const int it : {0, 1, 3}) {
    skipping.train_iteration(microbatches(corpus, it, 4), opt);
  }
  expect_bitwise_equal(resilient.export_weights(), skipping.export_weights());
}

// ---------------------------------------------------------------------------
// Watchdog stall snapshots now carry the numeric state: the per-device guard
// verdict and the resilient trainer's rolling anomaly windows.
// ---------------------------------------------------------------------------

TEST(WatchdogSnapshot, StallReportCarriesGuardAndAnomalyState) {
  ScopedEnv guard_env("VOCAB_GUARD_LEVEL", "2");
  const GptConfig cfg = fault_config();
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 102);

  RecoveryPolicy policy;
  policy.checkpoint_path = temp_path("snapshot.ckpt");
  policy.max_retries_per_iteration = 1;  // rethrow on the first failure
  policy.enable_watchdog = true;
  policy.watchdog = fast_watchdog();
  policy.anomaly.action = AnomalyAction::kRollback;
  ResilientTrainer resilient(GptWeights::init(cfg, 101), 2, OutputAlgo::Alg1,
                             PipelineFlavor::OneFOneBVocab, policy);

  FaultSpec spec;
  spec.kind = FaultKind::StallDevice;
  spec.iteration = 1;
  spec.device = 1;
  spec.op_index = 3;
  spec.delay = kStallDeadline + std::chrono::milliseconds(2000);
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  resilient.set_fault_injector(injector);

  // One clean iteration warms the anomaly windows so the dump is non-trivial.
  resilient.train_iteration(microbatches(corpus, 0, 4), 0.1f);
  EXPECT_NE(resilient.anomaly_snapshot().find("loss: n=1"), std::string::npos)
      << resilient.anomaly_snapshot();

  try {
    resilient.train_iteration(microbatches(corpus, 1, 4), 0.1f);
    FAIL() << "the stalled iteration must fail through the watchdog";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stall deadline"), std::string::npos) << what;
    EXPECT_NE(what.find("guard:"), std::string::npos) << what;
    EXPECT_NE(what.find("anomaly:"), std::string::npos) << what;
    EXPECT_NE(what.find("grad-norm:"), std::string::npos) << what;
  }
}

TEST(ElasticRecovery, ExhaustedRetriesRethrowTheFault) {
  const GptConfig cfg = fault_config();
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 82);
  RecoveryPolicy policy;
  policy.checkpoint_path = temp_path("exhausted.ckpt");
  policy.max_retries_per_iteration = 2;
  ResilientTrainer resilient(GptWeights::init(cfg, 81), 2, OutputAlgo::Alg1,
                             PipelineFlavor::OneFOneBVocab, policy);
  FaultPlan plan;
  for (int attempt = 0; attempt < 2; ++attempt) {
    FaultSpec s;
    s.kind = FaultKind::ThrowInOp;
    s.iteration = 0;
    s.device = 0;
    s.op_index = attempt;  // distinct specs so each attempt fails once
    plan.faults.push_back(s);
  }
  auto injector = std::make_shared<FaultInjector>(plan);
  resilient.set_fault_injector(injector);
  EXPECT_THROW(resilient.train_iteration(microbatches(corpus, 0, 4), 0.1f), InjectedFault);
  EXPECT_EQ(resilient.stats().faults_observed, 2);
}

}  // namespace
}  // namespace vocab
