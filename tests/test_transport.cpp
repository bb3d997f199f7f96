// Transport-layer tests: backend selection and config parsing, the backoff
// schedule, thread/tcp backend equivalence through the Channel / DeviceGroup
// facades, the transport-level fault-injection kinds, the tcp frame codec,
// and — where the platform allows fork + shared mappings — real
// multi-process communication over the tcp mesh, SIGKILL and partition
// detection, and the elastic downgrade loop with its bit-identity recovery
// guarantee.

#include <gtest/gtest.h>

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "comm/device_group.h"
#include "common/error.h"
#include "fault/abort_token.h"
#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "model/gpt.h"
#include "runtime/checkpoint.h"
#include "runtime/optimizer.h"
#include "runtime/pipeline_trainer.h"
#include "runtime/elastic_trainer.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "transport/process_group.h"
#include "transport/shm_region.h"
#include "transport/tcp_frame.h"
#include "transport/tcp_transport.h"
#include "transport/thread_transport.h"
#include "transport/transport.h"

namespace vocab {
namespace {

#if defined(__SANITIZE_THREAD__)
#define VOCAB_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VOCAB_TEST_TSAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define VOCAB_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define VOCAB_TEST_SANITIZED 1
#endif
#endif

#ifdef VOCAB_TEST_SANITIZED
constexpr double kDeathLatencyBound = 20.0;  // seconds
#else
constexpr double kDeathLatencyBound = 8.0;
#endif

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Fork-based tests need shared mappings for the control arena; under TSan
// fork() of an instrumented process is off the table entirely. Skip, never
// fail: an unsupported platform degrades gracefully.
bool fork_tests_supported(std::string* why) {
#ifdef VOCAB_TEST_TSAN
  *why = "fork-based tests are incompatible with ThreadSanitizer";
  return false;
#else
  if (!transport::shm_arena_supported()) {
    *why = "platform has no anonymous shared mappings";
    return false;
  }
  return true;
#endif
}

#define VOCAB_REQUIRE_FORK_SUPPORT()                 \
  do {                                               \
    std::string why;                                 \
    if (!fork_tests_supported(&why)) GTEST_SKIP() << why; \
  } while (0)

/// Set (or unset, value == nullptr) an env var for the test's scope and
/// restore the previous state on destruction.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  bool had_ = false;
  std::string old_;
};

// Same shape as the fault/executor suites: 8 layers so p | 8 for p in
// {1, 2, 4}; prime vocabulary forces shard padding at every width.
GptConfig transport_config() {
  GptConfig cfg;
  cfg.num_layers = 8;
  cfg.heads = 2;
  cfg.hidden = 32;
  cfg.seq_len = 16;
  cfg.vocab = 53;
  return cfg;
}

std::vector<Sample> microbatches(const SyntheticCorpus& corpus, std::uint64_t iteration,
                                 int count) {
  std::vector<Sample> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(corpus.sample(static_cast<int>(iteration) * count + i));
  }
  return out;
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
// Backend selection + config parsing (strict env).
// ---------------------------------------------------------------------------

TEST(TransportEnv, KindDefaultsToThreads) {
  EnvGuard guard("VOCAB_TRANSPORT", nullptr);
  EXPECT_EQ(transport::transport_kind_from_env(), transport::TransportKind::kThreads);
  EXPECT_STREQ(transport::to_string(transport::TransportKind::kThreads), "threads");
}

// VOCAB_TRANSPORT accepts threads and tcp only: "shm" (no shared-memory
// data plane exists) is rejected like any unknown value, by the strict parse
// naming the accepted spellings, never by a silent fall back to threads.
TEST(TransportEnv, KindParsesShmAndRejectsGarbage) {
  for (const char* value : {"shm", "carrier-pigeon"}) {
    EnvGuard guard("VOCAB_TRANSPORT", value);
    try {
      (void)transport::transport_kind_from_env();
      FAIL() << "VOCAB_TRANSPORT=" << value << " was accepted";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("threads|tcp"), std::string::npos) << what;
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
  }
}

TEST(TransportEnv, ConfigDefaults) {
  EnvGuard g1("VOCAB_HEARTBEAT_MS", nullptr);
  EnvGuard g2("VOCAB_HEARTBEAT_TIMEOUT_MS", nullptr);
  EnvGuard g3("VOCAB_RETRY_MAX", nullptr);
  EnvGuard g4("VOCAB_RETRY_BACKOFF_MS", nullptr);
  const transport::TransportConfig config = transport::TransportConfig::from_env();
  EXPECT_EQ(config.heartbeat_period.count(), 100);
  EXPECT_EQ(config.heartbeat_timeout.count(), 1000);
  EXPECT_EQ(config.retry_max, 8);
  EXPECT_EQ(config.retry_backoff.count(), 2);
}

TEST(TransportEnv, ConfigOverridesAndStrictFailure) {
  EnvGuard g1("VOCAB_HEARTBEAT_MS", "25");
  EnvGuard g2("VOCAB_HEARTBEAT_TIMEOUT_MS", "250");
  EnvGuard g3("VOCAB_RETRY_MAX", "3");
  EnvGuard g4("VOCAB_RETRY_BACKOFF_MS", "7");
  const transport::TransportConfig config = transport::TransportConfig::from_env();
  EXPECT_EQ(config.heartbeat_period.count(), 25);
  EXPECT_EQ(config.heartbeat_timeout.count(), 250);
  EXPECT_EQ(config.retry_max, 3);
  EXPECT_EQ(config.retry_backoff.count(), 7);

  // Strict parsing: garbage and non-positive values throw, they do not
  // silently mean "default".
  {
    EnvGuard bad("VOCAB_HEARTBEAT_MS", "fast");
    EXPECT_THROW((void)transport::TransportConfig::from_env(), CheckError);
  }
  {
    EnvGuard bad("VOCAB_RETRY_MAX", "0");
    EXPECT_THROW((void)transport::TransportConfig::from_env(), CheckError);
  }
}

TEST(TransportEnv, ConfigRejectsTimeoutNotExceedingPeriod) {
  EnvGuard g1("VOCAB_HEARTBEAT_MS", "100");
  EnvGuard g2("VOCAB_HEARTBEAT_TIMEOUT_MS", "100");
  EXPECT_THROW((void)transport::TransportConfig::from_env(), CheckError);
}

TEST(TransportBackoff, DeterministicBoundedSchedule) {
  transport::TransportConfig config;
  config.retry_backoff = std::chrono::milliseconds(2);
  const auto cap =
      std::chrono::duration_cast<std::chrono::microseconds>(kAbortPollInterval);
  for (int attempt = 0; attempt < 24; ++attempt) {
    const auto a = transport::backoff_delay(config, attempt, 17);
    const auto b = transport::backoff_delay(config, attempt, 17);
    EXPECT_EQ(a.count(), b.count()) << "attempt " << attempt;  // reproducible
    EXPECT_GE(a, std::chrono::duration_cast<std::chrono::microseconds>(config.retry_backoff));
    EXPECT_LE(a, cap + cap / 4);  // saturates at the abort-poll cap + jitter
  }
  // Different seeds decorrelate (at least one attempt differs).
  bool differs = false;
  for (int attempt = 0; attempt < 8 && !differs; ++attempt) {
    differs = transport::backoff_delay(config, attempt, 1) !=
              transport::backoff_delay(config, attempt, 2);
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Thread backend through the facades.
// ---------------------------------------------------------------------------

TEST(ThreadsBackend, DescribeNamesBackendAndHeartbeatIsUnavailable) {
  EnvGuard guard("VOCAB_TRANSPORT", nullptr);
  transport::ThreadTransport backend;
  EXPECT_EQ(backend.kind(), transport::TransportKind::kThreads);
  EXPECT_EQ(backend.heartbeat_age_ms(0), -1);

  Channel ch(4, std::chrono::seconds(5), &backend);
  ch.send("x", Tensor({2}, {1.0f, 2.0f}));
  EXPECT_NE(ch.describe().find("transport 'threads'"), std::string::npos) << ch.describe();
  const Tensor t = ch.recv_tag("x");
  EXPECT_EQ(t.data()[1], 2.0f);

  DeviceGroup group(2, std::chrono::seconds(5), &backend);
  EXPECT_NE(group.describe().find("transport 'threads'"), std::string::npos)
      << group.describe();
}

// The probes the executor fills waits with: they answer at once, never
// block, and turn true exactly when a receive or a wait would not block.
TEST(ThreadsBackend, ProbesReportArrivalWithoutBlocking) {
  transport::ThreadTransport backend;
  Channel ch(4, std::chrono::seconds(5), &backend);
  EXPECT_FALSE(ch.has_tag("act:s1:mb0"));
  ch.send("act:s1:mb0", Tensor({2}, 1.0f));
  EXPECT_TRUE(ch.has_tag("act:s1:mb0"));
  EXPECT_FALSE(ch.has_tag("act:s1:mb1"));
  (void)ch.recv_tag("act:s1:mb0");
  EXPECT_FALSE(ch.has_tag("act:s1:mb0"));

  // Posts never block on this backend, so one thread drives both ranks.
  DeviceGroup group(2, std::chrono::seconds(5), &backend);
  Tensor a({2}, 1.0f), b({2}, 2.0f);
  group.post_all_reduce(0, a, ReduceOp::Sum, "C2.0");
  EXPECT_FALSE(group.test(0, "C2.0"));
  group.post_all_reduce(1, b, ReduceOp::Sum, "C2.0");
  EXPECT_TRUE(group.test(0, "C2.0"));
  EXPECT_TRUE(group.test(1, "C2.0"));
  group.wait(0, "C2.0");
  group.wait(1, "C2.0");
  EXPECT_FLOAT_EQ(a.at(0), 3.0f);
  EXPECT_FLOAT_EQ(b.at(1), 3.0f);
  // Testing a collective this rank never posted is a schedule bug, as a
  // wait on it would be.
  EXPECT_THROW((void)group.test(0, "C2.0"), Error);
  EXPECT_TRUE(group.waiting_ranks().empty());
}

// Where collectives overlap compute: at p=4 the threads backend posts each
// collective as soon as the device's own inputs exist, waits where the
// result is consumed and fills waits with ready vocabulary passes, while tcp
// still rendezvous at the collective's place in the certified sequence and
// runs that sequence exactly. Losses and exported
// weights must be bitwise equal all the same, for the flavors whose barriers
// overlap the most: 1F1B-vocab with both algorithms, GPipe with Alg2 (what
// `auto` runs), V-Half and ZB with Alg2.
struct OverlapCase {
  PipelineFlavor flavor;
  OutputAlgo algo;
};

constexpr OverlapCase kOverlapCases[] = {
    {PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg2},
    {PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg1},
    {PipelineFlavor::Gpipe, OutputAlgo::Alg2},
    {PipelineFlavor::VHalf, OutputAlgo::Alg1},
    {PipelineFlavor::ZbVocab, OutputAlgo::Alg2},
};

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

void expect_memcmp_equal(const GptWeights& a, const GptWeights& b) {
  EXPECT_TRUE(same_bytes(a.input_embedding, b.input_embedding));
  EXPECT_TRUE(same_bytes(a.pos_embedding, b.pos_embedding));
  EXPECT_TRUE(same_bytes(a.output_weight, b.output_weight));
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const LayerWeights& x = a.layers[l];
    const LayerWeights& y = b.layers[l];
    for (const auto member : {&LayerWeights::ln1_g, &LayerWeights::ln1_b, &LayerWeights::wq,
                              &LayerWeights::wk, &LayerWeights::wv, &LayerWeights::wo,
                              &LayerWeights::ln2_g, &LayerWeights::ln2_b, &LayerWeights::w1,
                              &LayerWeights::b1, &LayerWeights::w2, &LayerWeights::b2}) {
      EXPECT_TRUE(same_bytes(x.*member, y.*member)) << "layer " << l;
    }
  }
}

void expect_p4_trainers_bit_identical(transport::Transport& other, std::uint64_t seed) {
  EnvGuard guard("VOCAB_TRANSPORT", nullptr);
  const GptConfig cfg = transport_config();
  const SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, seed + 1);
  const OptimizerConfig opt = OptimizerConfig::adam(1e-3f);
  constexpr int kIters = 2;
  for (const OverlapCase& c : kOverlapCases) {
    struct Run {
      std::vector<float> losses;
      GptWeights weights;
      int early_passes = 0;  // over every device and iteration
    };
    auto run = [&](transport::Transport* backend) {
      PipelineTrainer trainer(GptWeights::init(cfg, seed), /*p=*/4, c.algo, c.flavor, backend);
      Run r;
      for (int it = 0; it < kIters; ++it) {
        r.losses.push_back(trainer.train_iteration(microbatches(corpus, it, 8), opt));
        for (const int n : trainer.last_executor_stats()->early_passes) r.early_passes += n;
      }
      r.weights = trainer.export_weights();
      return r;
    };
    transport::ThreadTransport threads;
    const Run via_threads = run(&threads);
    const Run via_other = run(&other);
    const std::string name = std::string(to_string(c.flavor)) + " " + to_string(c.algo);
    ASSERT_EQ(via_threads.losses.size(), via_other.losses.size());
    EXPECT_EQ(std::memcmp(via_threads.losses.data(), via_other.losses.data(),
                          via_threads.losses.size() * sizeof(float)),
              0)
        << name;
    expect_memcmp_equal(via_threads.weights, via_other.weights);
    // Threads fills waits with ready passes; the other backend keeps the
    // certified order exactly.
    if (c.flavor == PipelineFlavor::OneFOneBVocab) {
      EXPECT_GT(via_threads.early_passes, 0) << name;
    }
    EXPECT_EQ(via_other.early_passes, 0) << name;
  }
}

// ---------------------------------------------------------------------------
// Transport-level fault kinds (injector plumbing; in-process).
// ---------------------------------------------------------------------------

TEST(TransportFaults, ToStringCoversTransportKinds) {
  EXPECT_STREQ(to_string(FaultKind::KillProcess), "kill-process");
  EXPECT_STREQ(to_string(FaultKind::DropMessage), "drop-msg");
  EXPECT_STREQ(to_string(FaultKind::DelayMessage), "delay-msg");
  EXPECT_STREQ(to_string(FaultKind::SuppressHeartbeat), "suppress-heartbeat");
  EXPECT_FALSE(is_data_fault(FaultKind::KillProcess));
  EXPECT_FALSE(is_data_fault(FaultKind::DropMessage));
}

TEST(TransportFaults, DropAndDelayArmOneShot) {
  FaultPlan plan;
  FaultSpec drop;
  drop.kind = FaultKind::DropMessage;
  drop.iteration = 0;
  drop.device = 0;
  drop.op_index = 0;
  plan.faults.push_back(drop);
  FaultSpec delay;
  delay.kind = FaultKind::DelayMessage;
  delay.iteration = 0;
  delay.device = 1;
  delay.op_index = 0;
  delay.delay = std::chrono::milliseconds(5);
  plan.faults.push_back(delay);

  FaultInjector injector(plan);
  injector.begin_iteration(0);
  EXPECT_FALSE(injector.take_message_drop(0));  // not armed before on_op_at
  injector.on_op_at(0, 0, 0, "F0", nullptr);
  injector.on_op_at(1, 0, 100, "F0", nullptr);
  EXPECT_EQ(injector.faults_fired(), 2);

  EXPECT_TRUE(injector.take_message_drop(0));
  EXPECT_FALSE(injector.take_message_drop(0));  // consumed
  EXPECT_EQ(injector.take_message_delay(1).count(), 5);
  EXPECT_EQ(injector.take_message_delay(1).count(), 0);  // consumed
  EXPECT_FALSE(injector.take_message_drop(7));           // out-of-range device: no-op

  // One-shot: the same iteration retried does not re-fire.
  injector.begin_iteration(0);
  injector.on_op_at(0, 0, 0, "F0", nullptr);
  EXPECT_FALSE(injector.take_message_drop(0));
}

TEST(TransportFaults, SuppressHeartbeatWindowOutlivesIterations) {
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::SuppressHeartbeat;
  spec.iteration = 0;
  spec.device = 0;
  spec.op_index = 0;
  spec.delay = std::chrono::milliseconds(200);
  plan.faults.push_back(spec);

  FaultInjector injector(plan);
  injector.begin_iteration(0);
  EXPECT_FALSE(injector.heartbeat_suppressed(0));
  injector.on_op_at(0, 0, 0, "F0", nullptr);
  EXPECT_TRUE(injector.heartbeat_suppressed(0));
  EXPECT_FALSE(injector.heartbeat_suppressed(1));

  // A muted beacon must stay muted across iteration boundaries — heartbeat
  // loss shorter than the timeout is invisible by design.
  injector.begin_iteration(1);
  EXPECT_TRUE(injector.heartbeat_suppressed(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_FALSE(injector.heartbeat_suppressed(0));
}

// A dropped cross-device message must end as a coordinated abort (receiver
// times out, everyone unblocks), never a hang past the comm timeout.
TEST(TransportFaults, DroppedMessageAbortsPromptly) {
  EnvGuard guard("VOCAB_COMM_TIMEOUT_MS", "1500");
  const GptConfig cfg = transport_config();
  PipelineTrainer trainer(GptWeights::init(cfg, 310), /*p=*/2, OutputAlgo::Alg1,
                          PipelineFlavor::OneFOneBVocab);
  FaultSpec spec;
  spec.kind = FaultKind::DropMessage;
  spec.iteration = 0;
  spec.device = 0;
  spec.op_index = 0;  // device 0's first op: its next send vanishes
  spec.note = "drop-first-activation";
  auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
  trainer.set_fault_injector(injector);

  const SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 311);
  injector->begin_iteration(0);
  const auto t0 = Clock::now();
  EXPECT_THROW(trainer.train_iteration(microbatches(corpus, 0, 4), 0.05f), Error);
  EXPECT_LT(seconds_since(t0), kDeathLatencyBound);
  EXPECT_EQ(injector->faults_fired(), 1);
}

// A delayed message is a straggler, not a failure: training completes with
// bitwise the same result.
TEST(TransportFaults, DelayedMessageKeepsBitIdentity) {
  const GptConfig cfg = transport_config();
  const SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 321);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.05f);

  auto run = [&](const FaultPlan& plan) {
    PipelineTrainer trainer(GptWeights::init(cfg, 320), /*p=*/2, OutputAlgo::Alg1,
                            PipelineFlavor::OneFOneBVocab);
    auto injector = std::make_shared<FaultInjector>(plan);
    trainer.set_fault_injector(injector);
    std::vector<float> losses;
    for (int it = 0; it < 2; ++it) {
      injector->begin_iteration(static_cast<std::uint64_t>(it));
      losses.push_back(trainer.train_iteration(microbatches(corpus, it, 4), opt));
    }
    return losses;
  };

  FaultSpec spec;
  spec.kind = FaultKind::DelayMessage;
  spec.iteration = 0;
  spec.device = 0;
  spec.op_index = 0;
  spec.delay = std::chrono::milliseconds(30);
  const std::vector<float> clean = run(FaultPlan{});
  const std::vector<float> delayed = run(FaultPlan::single(spec));
  ASSERT_EQ(clean.size(), delayed.size());
  for (std::size_t i = 0; i < clean.size(); ++i) EXPECT_EQ(clean[i], delayed[i]) << i;
}

// ---------------------------------------------------------------------------
// Tcp backend: env selection + the timeout lattice.
// ---------------------------------------------------------------------------

TEST(TransportEnv, KindParsesTcp) {
  EnvGuard guard("VOCAB_TRANSPORT", "tcp");
  EXPECT_EQ(transport::transport_kind_from_env(), transport::TransportKind::kTcp);
  EXPECT_STREQ(transport::to_string(transport::TransportKind::kTcp), "tcp");
}

// The three timeout knobs form a lattice (heartbeat < heartbeat timeout <
// comm timeout); a violation must be rejected once, at config parse, with a
// message naming all three knobs — not discovered as a misdiagnosed
// "deadlock" at runtime.
TEST(TransportEnv, TimeoutLatticeValidatedNamingAllKnobs) {
  EnvGuard g1("VOCAB_HEARTBEAT_MS", "100");
  EnvGuard g2("VOCAB_HEARTBEAT_TIMEOUT_MS", "1000");
  {
    EnvGuard g3("VOCAB_COMM_TIMEOUT_MS", "1000");  // == heartbeat timeout: rejected
    try {
      (void)transport::TransportConfig::from_env();
      FAIL() << "lattice violation not caught";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("VOCAB_HEARTBEAT_MS"), std::string::npos) << what;
      EXPECT_NE(what.find("VOCAB_HEARTBEAT_TIMEOUT_MS"), std::string::npos) << what;
      EXPECT_NE(what.find("VOCAB_COMM_TIMEOUT_MS"), std::string::npos) << what;
    }
  }
  {
    EnvGuard g3("VOCAB_COMM_TIMEOUT_MS", "1001");  // strictly above: accepted
    EXPECT_NO_THROW((void)transport::TransportConfig::from_env());
  }
}

// ---------------------------------------------------------------------------
// Tcp frame codec: round trips, corruption rejection, fuzz. The sanitizers
// (ASan/UBSan ctest lanes) are the oracle for the fuzz tests: any
// out-of-bounds read in the decoder fails the run even where the status
// checks pass.
// ---------------------------------------------------------------------------

transport::Frame sample_frame(transport::FrameKind kind) {
  transport::Frame frame;
  frame.kind = kind;
  frame.seq = 41;
  transport::PayloadWriter writer;
  switch (kind) {
    case transport::FrameKind::kHello:
      writer.u32(1);  // rank
      writer.u64(7);  // last_seq_in
      break;
    case transport::FrameKind::kHeartbeat:
      break;  // empty payload; seq carries the cumulative ack
    case transport::FrameKind::kData:
      writer.u32(0);  // mailbox
      writer.str("act-f3");
      writer.tensor(Tensor({2, 2}, {1.0f, -2.0f, 3.5f, 0.25f}));
      break;
    case transport::FrameKind::kCollJoin:
      writer.u64(3);  // collective index
      writer.u32(1);  // op code (all-reduce sum)
      writer.u32(0);  // root
      writer.str("grad-sync");
      writer.tensor(Tensor({3}, {0.5f, 1.5f, 2.5f}));
      break;
    case transport::FrameKind::kCollResult:
      writer.u64(3);
      writer.tensor(Tensor({3}, {9.0f, 8.0f, 7.0f}));
      break;
  }
  frame.payload = writer.take();
  return frame;
}

TEST(TcpFrame, EncodeDecodeRoundTripAllKinds) {
  const transport::FrameKind kinds[] = {
      transport::FrameKind::kHello, transport::FrameKind::kHeartbeat,
      transport::FrameKind::kData, transport::FrameKind::kCollJoin,
      transport::FrameKind::kCollResult};
  for (const transport::FrameKind kind : kinds) {
    const transport::Frame in = sample_frame(kind);
    std::vector<std::byte> wire;
    transport::encode_frame(in, &wire);
    ASSERT_GE(wire.size(), transport::kFrameHeaderBytes);

    transport::Frame out;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(transport::decode_frame(wire.data(), wire.size(), &out, &consumed, &error),
              transport::DecodeStatus::kFrame)
        << transport::frame_kind_name(kind) << ": " << error;
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.seq, in.seq);
    EXPECT_TRUE(out.payload == in.payload) << transport::frame_kind_name(kind);
  }

  // Two frames back to back decode in sequence from one buffer.
  std::vector<std::byte> wire;
  transport::encode_frame(sample_frame(transport::FrameKind::kData), &wire);
  const std::size_t first = wire.size();
  transport::encode_frame(sample_frame(transport::FrameKind::kHeartbeat), &wire);
  transport::Frame out;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(transport::decode_frame(wire.data(), wire.size(), &out, &consumed, &error),
            transport::DecodeStatus::kFrame);
  EXPECT_EQ(consumed, first);
  EXPECT_EQ(out.kind, transport::FrameKind::kData);
  ASSERT_EQ(transport::decode_frame(wire.data() + first, wire.size() - first, &out,
                                    &consumed, &error),
            transport::DecodeStatus::kFrame);
  EXPECT_EQ(out.kind, transport::FrameKind::kHeartbeat);
}

TEST(TcpFrame, HonestPrefixesReturnNeedMore) {
  std::vector<std::byte> wire;
  transport::encode_frame(sample_frame(transport::FrameKind::kData), &wire);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    transport::Frame out;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(transport::decode_frame(wire.data(), len, &out, &consumed, &error),
              transport::DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(TcpFrame, DecoderRejectsCorruption) {
  std::vector<std::byte> wire;
  transport::encode_frame(sample_frame(transport::FrameKind::kData), &wire);

  auto expect_corrupt = [](std::vector<std::byte> bad, const char* which) {
    transport::Frame out;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(transport::decode_frame(bad.data(), bad.size(), &out, &consumed, &error),
              transport::DecodeStatus::kCorrupt)
        << which;
    EXPECT_FALSE(error.empty()) << which;
  };

  // Header layout: u32 magic @0, u8 kind @4, u8 flags @5, u16 reserved @6,
  // u64 seq @8, u32 payload_len @16, u32 crc @20.
  {
    std::vector<std::byte> bad = wire;
    bad[0] = std::byte{0x00};  // bad magic
    expect_corrupt(std::move(bad), "bad magic");
  }
  {
    std::vector<std::byte> bad = wire;
    bad[4] = std::byte{0x2a};  // unknown frame kind
    expect_corrupt(std::move(bad), "unknown kind");
  }
  {
    std::vector<std::byte> bad = wire;
    const std::uint32_t oversize = transport::kMaxFramePayload + 1;
    std::memcpy(bad.data() + 16, &oversize, sizeof(oversize));
    expect_corrupt(std::move(bad), "oversize payload_len");
  }
  {
    std::vector<std::byte> bad = wire;
    bad[transport::kFrameHeaderBytes] ^= std::byte{0x01};  // payload bit flip
    expect_corrupt(std::move(bad), "crc mismatch");
  }
}

// Feed the decoder garbage and mutated real frames: it must classify every
// buffer as kNeedMore/kFrame/kCorrupt without ever reading out of bounds.
TEST(TcpFrame, FuzzedBytesNeverCrashDecoder) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  auto decode_must_not_crash = [](const std::vector<std::byte>& buf) {
    transport::Frame out;
    std::size_t consumed = 0;
    std::string error;
    const transport::DecodeStatus status =
        transport::decode_frame(buf.data(), buf.size(), &out, &consumed, &error);
    if (status == transport::DecodeStatus::kFrame) {
      EXPECT_LE(consumed, buf.size());
      // A decoded frame's payload must survive a structured re-read attempt
      // without UB (PayloadReader throws CheckError on overruns, never reads
      // past its buffer).
      try {
        transport::PayloadReader reader(out.payload);
        while (reader.remaining() >= 4) (void)reader.u32();
      } catch (const CheckError&) {
      }
    }
  };

  // (a) Pure garbage buffers of assorted sizes (including empty).
  for (int round = 0; round < 256; ++round) {
    std::vector<std::byte> buf(next() % 96);
    for (std::byte& b : buf) b = static_cast<std::byte>(next() & 0xff);
    decode_must_not_crash(buf);
  }

  // (b) Every single-byte mutation of a real frame.
  std::vector<std::byte> wire;
  transport::encode_frame(sample_frame(transport::FrameKind::kCollJoin), &wire);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::vector<std::byte> mutated = wire;
    mutated[i] ^= std::byte{0xff};
    decode_must_not_crash(mutated);
  }

  // (c) Random truncations with random tail garbage appended.
  for (int round = 0; round < 64; ++round) {
    std::vector<std::byte> buf(wire.begin(),
                               wire.begin() + static_cast<std::ptrdiff_t>(next() % wire.size()));
    const std::size_t extra = next() % 16;
    for (std::size_t i = 0; i < extra; ++i) {
      buf.push_back(static_cast<std::byte>(next() & 0xff));
    }
    decode_must_not_crash(buf);
  }
}

TEST(TcpFrame, PayloadReaderRejectsOverrun) {
  transport::PayloadWriter writer;
  writer.u32(7);
  transport::PayloadReader reader(writer.bytes());
  EXPECT_EQ(reader.u32(), 7u);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_THROW((void)reader.u64(), CheckError);

  // A string header claiming more bytes than the payload holds.
  transport::PayloadWriter liar;
  liar.u32(1000);
  transport::PayloadReader lied_to(liar.bytes());
  EXPECT_THROW((void)lied_to.str(), CheckError);
}

// ---------------------------------------------------------------------------
// Tcp backend, in-process (loopback) mode.
// ---------------------------------------------------------------------------

TEST(TcpBackend, InProcessMailboxRoundTrip) {
  if (!transport::tcp_transport_supported()) GTEST_SKIP() << "no loopback sockets";
  transport::TcpTransport backend = transport::TcpTransport::in_process();
  Channel ch(4, std::chrono::seconds(5), &backend);

  ch.send("a", Tensor({3}, {1.0f, 2.0f, 3.0f}));
  ch.send("b", Tensor({2, 2}, {4.0f, 5.0f, 6.0f, 7.0f}));
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_NE(ch.describe().find("transport 'tcp'"), std::string::npos) << ch.describe();

  // Out-of-order tag addressing across the socket stream.
  const Tensor b = ch.recv_tag("b");
  ASSERT_EQ(b.numel(), 4);
  EXPECT_EQ(b.data()[3], 7.0f);
  const Message a = ch.recv();
  EXPECT_EQ(a.tag, "a");
  EXPECT_EQ(a.payload.data()[2], 3.0f);
  EXPECT_TRUE(ch.empty());

  ch.send("stale", Tensor({1}, {9.0f}));
  ch.clear();
  EXPECT_EQ(ch.size(), 0u);
}

TEST(TcpBackend, EnvSelectionReachesChannels) {
  if (!transport::tcp_transport_supported()) GTEST_SKIP() << "no loopback sockets";
  EnvGuard guard("VOCAB_TRANSPORT", "tcp");
  Channel ch;  // default transport resolved from the environment
  EXPECT_NE(ch.describe().find("transport 'tcp'"), std::string::npos) << ch.describe();
}

// Satellite 3: a timed-out tcp recv names the transport and reports the
// mailbox occupancy, so a stuck run is diagnosable from the error alone.
TEST(TcpBackend, TimeoutErrorNamesTransportAndOccupancy) {
  if (!transport::tcp_transport_supported()) GTEST_SKIP() << "no loopback sockets";
  transport::TcpTransport backend = transport::TcpTransport::in_process();
  Channel ch(4, std::chrono::milliseconds(150), &backend);
  ch.send("other", Tensor({1}, {1.0f}));
  try {
    (void)ch.recv_tag("missing");
    FAIL() << "expected a timeout";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("transport 'tcp' (loopback)"), std::string::npos) << what;
    EXPECT_NE(what.find("occupancy 1/4"), std::string::npos) << what;
    EXPECT_NE(what.find("'other'"), std::string::npos) << what;
  }
}

// Every collective bitwise equals the thread rendezvous (the loopback hub
// reduces rank 0 += rank 1 += ... in rank order, exactly like the thread
// leader), so even non-associative float sums agree.
TEST(TcpBackend, CollectivesBitIdenticalToThreads) {
  if (!transport::tcp_transport_supported()) GTEST_SKIP() << "no loopback sockets";
  constexpr int kWorld = 4;

  auto rank_tensor = [](int rank) {
    Tensor t({3, 5});
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      t.data()[i] = std::sin(0.37f * static_cast<float>(i) + static_cast<float>(rank)) *
                    (1.0f + 0.01f * static_cast<float>(rank));
    }
    return t;
  };

  struct RankResult {
    Tensor sum{std::vector<std::int64_t>{1}};
    Tensor maxed{std::vector<std::int64_t>{1}};
    Tensor reduced{std::vector<std::int64_t>{1}};
    Tensor bcast{std::vector<std::int64_t>{1}};
    Tensor gathered{std::vector<std::int64_t>{1}};
  };

  auto run = [&](transport::Transport& backend) {
    DeviceGroup group(kWorld, std::chrono::seconds(30), &backend);
    std::vector<RankResult> results(kWorld);
    std::vector<std::thread> ranks;
    ranks.reserve(kWorld);
    for (int r = 0; r < kWorld; ++r) {
      ranks.emplace_back([&, r] {
        group.barrier(r, "start");
        Tensor sum = rank_tensor(r);
        group.all_reduce(r, sum, ReduceOp::Sum, "sum");
        results[r].sum = sum;
        Tensor maxed = rank_tensor(r);
        group.all_reduce(r, maxed, ReduceOp::Max, "max");
        results[r].maxed = maxed;
        Tensor reduced = rank_tensor(r);
        group.reduce(r, /*root=*/1, reduced, ReduceOp::Sum, "reduce");
        results[r].reduced = reduced;
        Tensor bcast = r == 2 ? rank_tensor(2) : Tensor({3, 5});
        group.broadcast(r, /*root=*/2, bcast, "bcast");
        results[r].bcast = bcast;
        results[r].gathered = group.all_gather_rows(r, rank_tensor(r), "gather");
      });
    }
    for (auto& t : ranks) t.join();
    EXPECT_EQ(group.completed_collectives(), 6u);
    EXPECT_TRUE(group.waiting_ranks().empty());
    return results;
  };

  transport::ThreadTransport threads;
  transport::TcpTransport tcp = transport::TcpTransport::in_process();
  const std::vector<RankResult> via_threads = run(threads);
  const std::vector<RankResult> via_tcp = run(tcp);

  for (int r = 0; r < kWorld; ++r) {
    EXPECT_EQ(max_abs_diff(via_threads[r].sum, via_tcp[r].sum), 0.0f) << "rank " << r;
    EXPECT_EQ(max_abs_diff(via_threads[r].maxed, via_tcp[r].maxed), 0.0f) << "rank " << r;
    EXPECT_EQ(max_abs_diff(via_threads[r].reduced, via_tcp[r].reduced), 0.0f) << "rank " << r;
    EXPECT_EQ(max_abs_diff(via_threads[r].bcast, via_tcp[r].bcast), 0.0f) << "rank " << r;
    EXPECT_EQ(max_abs_diff(via_threads[r].gathered, via_tcp[r].gathered), 0.0f)
        << "rank " << r;
  }
  EXPECT_EQ(max_abs_diff(via_tcp[0].gathered, via_tcp[3].gathered), 0.0f);
}

// The acceptance bar for VOCAB_TRANSPORT=tcp as a drop-in: every pipeline
// flavor trains to bitwise the losses and weights of the thread backend.
TEST(TcpBackend, TrainerBitIdenticalToThreadsAllFlavors) {
  if (!transport::tcp_transport_supported()) GTEST_SKIP() << "no loopback sockets";
  EnvGuard guard("VOCAB_TRANSPORT", nullptr);
  const GptConfig cfg = transport_config();
  const SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 351);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.05f);
  // Three iterations, so Auto runs the pick of its measured search too. tcp
  // does not overlap collectives, so its timings (and possibly its pick)
  // differ from threads; its bits must not.
  constexpr int kIters = 3;

  const PipelineFlavor flavors[] = {PipelineFlavor::Baseline1F1B, PipelineFlavor::OneFOneBVocab,
                                    PipelineFlavor::VHalf, PipelineFlavor::ZbVocab,
                                    PipelineFlavor::Auto};
  for (const PipelineFlavor flavor : flavors) {
    auto run = [&](transport::Transport* backend) {
      PipelineTrainer trainer(GptWeights::init(cfg, 350), /*p=*/2, OutputAlgo::Alg1, flavor,
                              backend);
      std::vector<float> losses;
      for (int it = 0; it < kIters; ++it) {
        losses.push_back(trainer.train_iteration(microbatches(corpus, it, 4), opt));
      }
      return std::make_pair(losses, trainer.export_weights());
    };

    transport::ThreadTransport threads;
    transport::TcpTransport tcp = transport::TcpTransport::in_process();
    const auto [threads_losses, threads_weights] = run(&threads);
    const auto [tcp_losses, tcp_weights] = run(&tcp);

    ASSERT_EQ(threads_losses.size(), tcp_losses.size());
    for (int it = 0; it < kIters; ++it) {
      EXPECT_EQ(threads_losses[static_cast<std::size_t>(it)],
                tcp_losses[static_cast<std::size_t>(it)])
          << "flavor " << static_cast<int>(flavor) << " iteration " << it;
    }
    expect_bitwise_equal(threads_weights, tcp_weights);
  }
}

// The p=4 overlap cases against tcp, which rendezvous in place.
TEST(TcpBackend, TrainerBitIdenticalToThreadsAtP4WhereThreadsOverlap) {
  if (!transport::tcp_transport_supported()) GTEST_SKIP() << "no loopback sockets";
  transport::TcpTransport tcp = transport::TcpTransport::in_process();
  expect_p4_trainers_bit_identical(tcp, 360);
}

// ---------------------------------------------------------------------------
// Tcp multi-process mode: fork + socket mesh (the shared arena carries only
// the control plane — abort block, liveness, port rendezvous).
// ---------------------------------------------------------------------------

#define VOCAB_REQUIRE_TCP_FORK_SUPPORT()                                        \
  do {                                                                          \
    VOCAB_REQUIRE_FORK_SUPPORT();                                               \
    if (!transport::tcp_transport_supported()) GTEST_SKIP() << "no loopback sockets"; \
    /* Headroom for the mesh rendezvous: on an oversubscribed single-core CI  \
       box a freshly forked peer can be starved for whole seconds before it   \
       binds its listener, and the default 5 s deadline then fails a healthy  \
       run. Respects an explicit setting (no overwrite). */                   \
    ::setenv("VOCAB_TCP_CONNECT_TIMEOUT_MS", "20000", /*overwrite=*/0);       \
  } while (0)

TEST(TcpFork, CrossProcessPingPong) {
  VOCAB_REQUIRE_TCP_FORK_SUPPORT();
  auto arena = transport::ShmArena::create(2);
  ASSERT_NE(arena, nullptr);

  transport::TransportConfig config;
  config.heartbeat_period = std::chrono::milliseconds(20);
  config.heartbeat_timeout = std::chrono::milliseconds(500);

  auto group = transport::ProcessGroup::spawn(2, [&](int rank) {
    auto backend = transport::TcpTransport::attach(*arena, rank, config);
    // In mesh mode the i-th make_mailbox call is rank i's inbox; both ranks
    // create both channels in the same order.
    Channel inbox0(8, std::chrono::seconds(30), backend.get());  // rank 0 receives here
    Channel inbox1(8, std::chrono::seconds(30), backend.get());  // rank 1 receives here
    if (rank == 0) {
      inbox1.send("ping", Tensor({3}, {1.0f, 2.0f, 3.0f}));
      const Tensor pong = inbox0.recv_tag("pong");
      for (std::int64_t i = 0; i < 3; ++i) {
        VOCAB_CHECK(pong.data()[i] == 2.0f * static_cast<float>(i + 1),
                    "pong payload mismatch at " << i);
      }
      // Satellite 3: the mesh mailbox's describe() names the transport and
      // reports the per-peer link states.
      const std::string described = inbox0.describe();
      VOCAB_CHECK(described.find("transport 'tcp'") != std::string::npos,
                  "describe missing transport name: " << described);
      VOCAB_CHECK(described.find("links [") != std::string::npos,
                  "describe missing link states: " << described);
    } else {
      Tensor ping = inbox1.recv_tag("ping");
      for (std::int64_t i = 0; i < ping.numel(); ++i) ping.data()[i] *= 2.0f;
      inbox0.send("pong", std::move(ping));
    }
    backend->mark_done();
  });

  ASSERT_TRUE(group.wait_all(std::chrono::seconds(60)));
  for (const transport::ProcessExit& exit : group.exits()) {
    EXPECT_TRUE(exit.exited) << exit.describe();
    EXPECT_EQ(exit.status, transport::kWorkerExitOk) << exit.describe();
  }
}

// SIGKILL of a peer is detected by the survivor's connection supervisor
// (EOF + heartbeat silence + exhausted reconnect budget) and surfaces as the
// distinct peer-dead exit — within the latency bound, not a comm timeout.
TEST(TcpFork, SigkillBecomesPeerDeadExit) {
  VOCAB_REQUIRE_TCP_FORK_SUPPORT();
  auto arena = transport::ShmArena::create(2);
  ASSERT_NE(arena, nullptr);

  transport::TransportConfig config;
  config.heartbeat_period = std::chrono::milliseconds(20);
  config.heartbeat_timeout = std::chrono::milliseconds(300);

  const auto t0 = Clock::now();
  auto group = transport::ProcessGroup::spawn(2, [&](int rank) {
    auto backend = transport::TcpTransport::attach(*arena, rank, config);
    if (rank == 0) {
      // Block waiting on a message that never comes; only peer-death
      // detection can end this before the (long) timeout.
      Channel inbox0(8, std::chrono::seconds(120), backend.get());
      (void)inbox0.recv_tag("never-sent");
    } else {
      Channel inbox0(8, std::chrono::seconds(120), backend.get());
      std::this_thread::sleep_for(5 * config.heartbeat_period);
      std::fflush(nullptr);
      ::raise(SIGKILL);
    }
  });

  ASSERT_TRUE(group.wait_all(std::chrono::seconds(60)));
  EXPECT_LT(seconds_since(t0), kDeathLatencyBound);
  bool saw_kill = false;
  bool saw_peer_dead = false;
  for (const transport::ProcessExit& exit : group.exits()) {
    if (exit.rank == 1) {
      EXPECT_TRUE(exit.signaled) << exit.describe();
      EXPECT_EQ(exit.sig, SIGKILL) << exit.describe();
      saw_kill = true;
    } else {
      EXPECT_TRUE(exit.exited) << exit.describe();
      EXPECT_EQ(exit.status, transport::kWorkerExitPeerDead) << exit.describe();
      saw_peer_dead = true;
    }
  }
  EXPECT_TRUE(saw_kill);
  EXPECT_TRUE(saw_peer_dead);
}

// An injected PartitionPeer (sticky blackhole, every process still alive)
// must be indistinguishable from death at the protocol level: heartbeat
// silence escalates to a coordinated abort with at least one rank reporting
// the distinct peer-dead exit, inside the latency bound.
TEST(TcpFork, PartitionBecomesCoordinatedAbort) {
  VOCAB_REQUIRE_TCP_FORK_SUPPORT();
  auto arena = transport::ShmArena::create(2);
  ASSERT_NE(arena, nullptr);

  transport::TransportConfig config;
  config.heartbeat_period = std::chrono::milliseconds(20);
  config.heartbeat_timeout = std::chrono::milliseconds(300);

  FaultSpec spec;
  spec.kind = FaultKind::PartitionPeer;
  spec.iteration = 0;
  spec.device = 1;
  spec.op_index = 0;
  spec.element = 0;  // blackhole the link to rank 0
  spec.note = "partition-rank0";

  const auto t0 = Clock::now();
  auto group = transport::ProcessGroup::spawn(2, [&](int rank) {
    auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
    auto backend = transport::TcpTransport::attach(*arena, rank, config, injector);
    Channel inbox0(8, std::chrono::seconds(120), backend.get());
    Channel inbox1(8, std::chrono::seconds(120), backend.get());
    if (rank == 1) {
      // Arm the partition only after the mesh is up — a blackhole during the
      // rendezvous would be a connect failure, not a partition.
      injector->begin_iteration(0);
      injector->on_op_at(1, 0, 0, "partition", nullptr);
      (void)inbox1.recv_tag("never-sent");
    } else {
      (void)inbox0.recv_tag("never-sent");
    }
  });

  ASSERT_TRUE(group.wait_all(std::chrono::seconds(60)));
  EXPECT_LT(seconds_since(t0), kDeathLatencyBound);
  bool saw_peer_dead = false;
  for (const transport::ProcessExit& exit : group.exits()) {
    EXPECT_TRUE(exit.exited) << exit.describe();
    EXPECT_TRUE(exit.status == transport::kWorkerExitPeerDead ||
                exit.status == transport::kWorkerExitAborted)
        << exit.describe();
    saw_peer_dead = saw_peer_dead || exit.status == transport::kWorkerExitPeerDead;
  }
  EXPECT_TRUE(saw_peer_dead);
}

// A transient DropConnection is NOT death: the supervisor reconnects within
// its retry budget, the outbox retransmits undelivered frames, sequence
// numbers dedup replays — and every message arrives intact, in order, with
// both ranks exiting cleanly.
TEST(TcpFork, ReconnectAfterTransientDropKeepsDataIntact) {
  VOCAB_REQUIRE_TCP_FORK_SUPPORT();
  auto arena = transport::ShmArena::create(2);
  ASSERT_NE(arena, nullptr);

  transport::TransportConfig config;
  config.heartbeat_period = std::chrono::milliseconds(20);
  config.heartbeat_timeout = std::chrono::milliseconds(800);

  constexpr int kMessages = 12;
  FaultSpec spec;
  spec.kind = FaultKind::DropConnection;
  spec.iteration = 0;
  spec.device = 1;
  spec.op_index = 0;
  spec.element = 0;  // drop the link to rank 0, once
  spec.note = "transient-drop";

  auto group = transport::ProcessGroup::spawn(2, [&](int rank) {
    auto injector = std::make_shared<FaultInjector>(FaultPlan::single(spec));
    auto backend = transport::TcpTransport::attach(*arena, rank, config, injector);
    Channel inbox0(16, std::chrono::seconds(30), backend.get());
    Channel inbox1(16, std::chrono::seconds(30), backend.get());
    for (int i = 0; i < kMessages; ++i) {
      const std::string tag = "m" + std::to_string(i);
      if (rank == 0) {
        inbox1.send(tag, Tensor({2}, {static_cast<float>(i), static_cast<float>(2 * i)}));
        const Tensor echo = inbox0.recv_tag(tag);
        VOCAB_CHECK(echo.numel() == 2 && echo.data()[0] == static_cast<float>(3 * i) &&
                        echo.data()[1] == static_cast<float>(6 * i),
                    "echo payload mismatch for " << tag);
      } else {
        Tensor t = inbox1.recv_tag(tag);
        for (std::int64_t j = 0; j < t.numel(); ++j) t.data()[j] *= 3.0f;
        inbox0.send(tag, std::move(t));
        if (i == 3) {
          // Sever the link mid-conversation; the remaining messages must
          // still arrive via reconnect + retransmission.
          injector->begin_iteration(0);
          injector->on_op_at(1, 0, 0, "drop", nullptr);
        }
      }
    }
    backend->mark_done();
  });

  ASSERT_TRUE(group.wait_all(std::chrono::seconds(60)));
  for (const transport::ProcessExit& exit : group.exits()) {
    EXPECT_TRUE(exit.exited) << exit.describe();
    EXPECT_EQ(exit.status, transport::kWorkerExitOk) << exit.describe();
  }
}

// ---------------------------------------------------------------------------
// Elastic recovery over tcp: partitions and kills both downgrade, and the
// published run stays bit-identical to the in-process replay.
// ---------------------------------------------------------------------------

ElasticOptions elastic_options(const std::string& checkpoint) {
  ElasticOptions options;
  options.checkpoint_path = checkpoint;
  options.transport.heartbeat_period = std::chrono::milliseconds(20);
  options.transport.heartbeat_timeout = std::chrono::milliseconds(400);
  options.worker_exit_timeout = std::chrono::seconds(30);
  return options;
}

// Replay `result.history` in-process (thread backend) from the same initial
// weights: generation g runs at history[g].width from history[g].start up to
// the next generation's start. Because every completed iteration was
// checkpointed before being published and SGD carries no optimizer state,
// this reference must match the multi-process run bit for bit.
std::pair<std::vector<float>, GptWeights> replay_reference(
    const GptConfig& cfg, std::uint64_t seed, const ElasticResult& result,
    std::uint64_t iterations, const SyntheticCorpus& corpus, int mbs,
    const OptimizerConfig& opt) {
  GptWeights weights = GptWeights::init(cfg, seed);
  std::vector<float> losses;
  for (std::size_t g = 0; g < result.history.size(); ++g) {
    const std::uint64_t start = result.history[g].start_iteration;
    const std::uint64_t end =
        g + 1 < result.history.size() ? result.history[g + 1].start_iteration : iterations;
    if (end <= start) continue;  // generation died before completing anything
    PipelineTrainer trainer(std::move(weights), result.history[g].width, OutputAlgo::Alg1,
                            PipelineFlavor::Baseline1F1B);
    for (std::uint64_t it = start; it < end; ++it) {
      losses.push_back(trainer.train_iteration(microbatches(corpus, it, mbs), opt));
    }
    weights = trainer.export_weights();
  }
  return {losses, std::move(weights)};
}

// Cross-machine elastic recovery, modeled faithfully on one machine: a
// network partition (not a death — both processes stay alive) must drive the
// same downgrade + checkpoint-reload recovery as a SIGKILL, bit-identically.
TEST(TcpFork, ElasticPartitionDowngradeRecoversBitIdentical) {
  VOCAB_REQUIRE_TCP_FORK_SUPPORT();
  EnvGuard guard("VOCAB_SCHEDULE", nullptr);
  const GptConfig cfg = transport_config();
  const std::uint64_t kSeed = 360;
  const SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 361);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.05f);
  constexpr std::uint64_t kIterations = 4;
  constexpr int kMicrobatches = 4;
  const std::string checkpoint = temp_path("tcp_elastic_partition.ckpt");

  ElasticTrainer elastic(GptWeights::init(cfg, kSeed), /*p=*/2, OutputAlgo::Alg1,
                         PipelineFlavor::Baseline1F1B, elastic_options(checkpoint));
  FaultSpec partition;
  partition.kind = FaultKind::PartitionPeer;
  partition.iteration = 1;
  partition.device = 1;
  partition.op_index = 2;
  partition.element = 0;  // blackhole rank 1 -> rank 0
  partition.note = "partition-mid-iteration";
  elastic.set_fault_plan(FaultPlan::single(partition));

  const ElasticResult result = elastic.train(
      kIterations,
      [&](std::uint64_t it) { return microbatches(corpus, it, kMicrobatches); }, opt);

  EXPECT_EQ(result.kills, 0);
  EXPECT_GE(result.partitions, 1);
  EXPECT_EQ(result.downgrades, 1);
  EXPECT_EQ(result.final_width, 1);
  EXPECT_GE(result.generations, 2);
  ASSERT_EQ(result.losses.size(), kIterations);
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_EQ(result.history[0].width, 2);
  EXPECT_EQ(result.history.back().width, 1);

  const auto [ref_losses, ref_weights] =
      replay_reference(cfg, kSeed, result, kIterations, corpus, kMicrobatches, opt);
  ASSERT_EQ(ref_losses.size(), result.losses.size());
  for (std::size_t i = 0; i < ref_losses.size(); ++i) {
    EXPECT_EQ(ref_losses[i], result.losses[i]) << "iteration " << i;
  }
  expect_bitwise_equal(load_checkpoint(checkpoint), ref_weights);
}

// The elastic acceptance test: a real SIGKILL mid-iteration downgrades
// 2 -> 1, and the published losses and final checkpoint are bit-identical
// to a never-killed replay over the same generation widths.
TEST(TcpFork, ElasticSigkillDowngradeRecoversBitIdentical) {
  VOCAB_REQUIRE_TCP_FORK_SUPPORT();
  EnvGuard guard("VOCAB_SCHEDULE", nullptr);
  const GptConfig cfg = transport_config();
  const std::uint64_t kSeed = 362;
  const SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 363);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.05f);
  constexpr std::uint64_t kIterations = 4;
  constexpr int kMicrobatches = 4;
  const std::string checkpoint = temp_path("tcp_elastic_sigkill.ckpt");

  ElasticTrainer elastic(GptWeights::init(cfg, kSeed), /*p=*/2, OutputAlgo::Alg1,
                         PipelineFlavor::Baseline1F1B, elastic_options(checkpoint));
  FaultSpec kill;
  kill.kind = FaultKind::KillProcess;
  kill.iteration = 1;
  kill.device = 1;
  kill.op_index = 2;
  kill.note = "die-mid-iteration";
  elastic.set_fault_plan(FaultPlan::single(kill));

  const ElasticResult result = elastic.train(
      kIterations,
      [&](std::uint64_t it) { return microbatches(corpus, it, kMicrobatches); }, opt);

  EXPECT_EQ(result.kills, 1);
  EXPECT_EQ(result.downgrades, 1);
  EXPECT_EQ(result.final_width, 1);
  ASSERT_EQ(result.losses.size(), kIterations);

  const auto [ref_losses, ref_weights] =
      replay_reference(cfg, kSeed, result, kIterations, corpus, kMicrobatches, opt);
  ASSERT_EQ(ref_losses.size(), result.losses.size());
  for (std::size_t i = 0; i < ref_losses.size(); ++i) {
    EXPECT_EQ(ref_losses[i], result.losses[i]) << "iteration " << i;
  }
  expect_bitwise_equal(load_checkpoint(checkpoint), ref_weights);
}

// Control run over tcp: no faults, one generation, bitwise equal to an
// ordinary in-process run.
TEST(TcpFork, ElasticCleanRunMatchesInProcess) {
  VOCAB_REQUIRE_TCP_FORK_SUPPORT();
  EnvGuard guard("VOCAB_SCHEDULE", nullptr);
  const GptConfig cfg = transport_config();
  const std::uint64_t kSeed = 370;
  const SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 371);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.05f);
  constexpr std::uint64_t kIterations = 2;
  const std::string checkpoint = temp_path("tcp_elastic_clean.ckpt");

  ElasticTrainer elastic(GptWeights::init(cfg, kSeed), /*p=*/2, OutputAlgo::Alg1,
                         PipelineFlavor::OneFOneBVocab, elastic_options(checkpoint));
  const ElasticResult result = elastic.train(
      kIterations, [&](std::uint64_t it) { return microbatches(corpus, it, 4); }, opt);

  EXPECT_EQ(result.kills, 0);
  EXPECT_EQ(result.partitions, 0);
  EXPECT_EQ(result.aborts, 0);
  EXPECT_EQ(result.generations, 1);
  EXPECT_EQ(result.final_width, 2);
  ASSERT_EQ(result.losses.size(), kIterations);

  PipelineTrainer reference(GptWeights::init(cfg, kSeed), /*p=*/2, OutputAlgo::Alg1,
                            PipelineFlavor::OneFOneBVocab);
  for (std::uint64_t it = 0; it < kIterations; ++it) {
    EXPECT_EQ(reference.train_iteration(microbatches(corpus, it, 4), opt),
              result.losses[it])
        << "iteration " << it;
  }
  expect_bitwise_equal(load_checkpoint(checkpoint), reference.export_weights());
}

// Auto in lane mode: each worker process profiles its own lane, and the
// all-reduce that agrees on the measured table makes every rank re-rank to
// the same schedule (ranks that picked differently would mismatch their
// collectives). The bits equal the in-process threads run, whatever either
// picked.
TEST(TcpFork, ElasticAutoRanksAgreeOnTheMeasuredPick) {
  VOCAB_REQUIRE_TCP_FORK_SUPPORT();
  EnvGuard guard("VOCAB_SCHEDULE", nullptr);
  const GptConfig cfg = transport_config();
  const std::uint64_t kSeed = 345;
  const SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 346);
  const OptimizerConfig opt = OptimizerConfig::sgd(0.05f);
  constexpr std::uint64_t kIterations = 4;
  const std::string checkpoint = temp_path("tcp_elastic_auto.ckpt");

  ElasticTrainer elastic(GptWeights::init(cfg, kSeed), /*p=*/2, OutputAlgo::Alg2,
                         PipelineFlavor::Auto, elastic_options(checkpoint));
  const ElasticResult result = elastic.train(
      kIterations, [&](std::uint64_t it) { return microbatches(corpus, it, 4); }, opt);

  EXPECT_EQ(result.kills, 0);
  EXPECT_EQ(result.aborts, 0);
  EXPECT_EQ(result.generations, 1);
  ASSERT_EQ(result.losses.size(), kIterations);
  ASSERT_EQ(result.schedules.size(), 2u);
  EXPECT_FALSE(result.schedules[0].empty());
  EXPECT_EQ(result.schedules[0], result.schedules[1]);

  PipelineTrainer threads(GptWeights::init(cfg, kSeed), /*p=*/2, OutputAlgo::Alg2,
                          PipelineFlavor::Auto);
  for (std::uint64_t it = 0; it < kIterations; ++it) {
    EXPECT_EQ(threads.train_iteration(microbatches(corpus, it, 4), opt), result.losses[it])
        << "iteration " << it;
  }
  expect_bitwise_equal(load_checkpoint(checkpoint), threads.export_weights());
}

// ---------------------------------------------------------------------------
// Watchdog snapshots: the new per-peer link lines round-trip, and the old
// peer-less format still parses.
// ---------------------------------------------------------------------------

TEST(WatchdogSnapshot, PeerLinesRoundTripThroughSerialize) {
  WatchdogSnapshot snap;
  snap.stall_deadline_ms = 750;
  WatchdogDeviceBeat beat;
  beat.device = 0;
  beat.op_id = 3;
  beat.ops_started = 17;
  beat.silent_ms = 12;
  beat.done = false;
  snap.devices.push_back(beat);
  WatchdogPeerLink connected;
  connected.rank = 1;
  connected.state = "connected";
  connected.reconnects = 2;
  connected.heartbeat_age_ms = 35;
  WatchdogPeerLink flapping;
  flapping.rank = 2;
  flapping.state = "reconnecting";
  flapping.reconnects = 5;
  flapping.heartbeat_age_ms = 612;
  snap.peers = {connected, flapping};
  snap.comm = "occupancy 0/8\n";

  const WatchdogSnapshot parsed = WatchdogSnapshot::parse(snap.serialize());
  EXPECT_EQ(parsed.stall_deadline_ms, 750);
  ASSERT_EQ(parsed.devices.size(), 1u);
  EXPECT_EQ(parsed.devices[0].op_id, 3);
  ASSERT_EQ(parsed.peers.size(), 2u);
  EXPECT_EQ(parsed.peers[0].rank, 1);
  EXPECT_EQ(parsed.peers[0].state, "connected");
  EXPECT_EQ(parsed.peers[0].reconnects, 2);
  EXPECT_EQ(parsed.peers[0].heartbeat_age_ms, 35);
  EXPECT_EQ(parsed.peers[1].rank, 2);
  EXPECT_EQ(parsed.peers[1].state, "reconnecting");
  EXPECT_EQ(parsed.peers[1].reconnects, 5);
  EXPECT_EQ(parsed.peers[1].heartbeat_age_ms, 612);
  EXPECT_EQ(parsed.comm, "occupancy 0/8\n");
}

TEST(WatchdogSnapshot, ParseAcceptsPeerlessSnapshotsAndRejectsMalformedPeers) {
  // The pre-PR-10 format carried no peer lines; it must keep parsing.
  const std::string legacy =
      "watchdog-snapshot v1\n"
      "deadline_ms 500\n"
      "device 0 op 7 ops 9 silent_ms 3 done 0\n"
      "comm\n"
      "quiet\n";
  const WatchdogSnapshot parsed = WatchdogSnapshot::parse(legacy);
  EXPECT_TRUE(parsed.peers.empty());
  ASSERT_EQ(parsed.devices.size(), 1u);
  EXPECT_EQ(parsed.devices[0].op_id, 7);

  const std::string malformed =
      "watchdog-snapshot v1\n"
      "deadline_ms 500\n"
      "peer 1 state\n"
      "comm\n";
  EXPECT_THROW((void)WatchdogSnapshot::parse(malformed), CheckError);
}

}  // namespace
}  // namespace vocab
