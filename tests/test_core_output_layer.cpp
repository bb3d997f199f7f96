// Correctness of the vocabulary-parallel output layer: every partitioned
// algorithm (naive / Alg1 / Alg2), on every partition count, must reproduce
// the unpartitioned reference loss, grad_X and grad_W — including awkward
// vocabulary sizes that force padding and even fully-padded shards.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "comm/device_group.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/output_layer_shard.h"
#include "core/reference_output_layer.h"
#include "core/vocab_shard.h"
#include "tensor/tensor_ops.h"
#include "transport/thread_transport.h"

namespace vocab {
namespace {

void run_ranks(int world, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

struct Problem {
  Tensor x;                           // [n, h]
  Tensor w;                           // [V, h] full weights
  std::vector<std::int64_t> targets;  // n labels
  float grad_scale;
};

Problem make_problem(std::int64_t n, std::int64_t h, std::int64_t v, std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.x = Tensor::randn({n, h}, rng, 0.8f);
  p.w = Tensor::randn({v, h}, rng, 0.5f);
  p.targets.resize(static_cast<std::size_t>(n));
  for (auto& t : p.targets) t = static_cast<std::int64_t>(rng.uniform_int(static_cast<std::uint64_t>(v)));
  p.grad_scale = 1.0f / static_cast<float>(n);
  return p;
}

/// Slice the full weight matrix into a shard's [size, h] block, zero-filling
/// padding rows, exactly as a sharded checkpoint loader would.
Tensor shard_weights(const Tensor& w, const VocabShard& s) {
  Tensor out({s.size, w.dim(1)});
  for (std::int64_t r = 0; r < s.valid_size(); ++r) {
    for (std::int64_t c = 0; c < w.dim(1); ++c) out.at(r, c) = w.at(s.offset + r, c);
  }
  return out;
}

/// Reassemble grad_W from per-shard grads for comparison with the reference.
Tensor unshard_grads(const std::vector<Tensor>& shard_grads,
                     const std::vector<VocabShard>& shards, std::int64_t v, std::int64_t h) {
  Tensor out({v, h});
  for (std::size_t d = 0; d < shards.size(); ++d) {
    const VocabShard& s = shards[d];
    for (std::int64_t r = 0; r < s.valid_size(); ++r) {
      for (std::int64_t c = 0; c < h; ++c) out.at(s.offset + r, c) = shard_grads[d].at(r, c);
    }
  }
  return out;
}

struct Case {
  OutputAlgo algo;
  int world;
  std::int64_t vocab;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string name = std::string(to_string(info.param.algo)) + "_p" +
                     std::to_string(info.param.world) + "_V" + std::to_string(info.param.vocab);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class OutputLayerEquivalence : public testing::TestWithParam<Case> {};

TEST_P(OutputLayerEquivalence, MatchesUnpartitionedReference) {
  const auto [algo, world, v] = GetParam();
  const std::int64_t n = 12, h = 16;
  const Problem prob = make_problem(n, h, v, /*seed=*/1234 + static_cast<std::uint64_t>(v));
  const OutputLayerResult ref =
      reference_output_layer(prob.x, prob.w, prob.targets, prob.grad_scale);

  const auto shards = make_all_shards(v, world);
  DeviceGroup group(world);
  std::vector<float> losses(static_cast<std::size_t>(world));
  std::vector<Tensor> grad_xs(static_cast<std::size_t>(world));
  std::vector<Tensor> grad_ws(static_cast<std::size_t>(world));

  run_ranks(world, [&](int rank) {
    OutputLayerShard layer(algo, shards[static_cast<std::size_t>(rank)],
                           shard_weights(prob.w, shards[static_cast<std::size_t>(rank)]));
    auto [loss, gx] = layer.run_all(/*mb=*/0, group, prob.x, prob.targets, prob.grad_scale);
    losses[static_cast<std::size_t>(rank)] = loss;
    grad_xs[static_cast<std::size_t>(rank)] = std::move(gx);
    grad_ws[static_cast<std::size_t>(rank)] = layer.weight_grad();
    EXPECT_EQ(layer.live_microbatches(), 0u);
  });

  for (int r = 0; r < world; ++r) {
    EXPECT_NEAR(losses[static_cast<std::size_t>(r)], ref.loss, 2e-4f)
        << "loss mismatch on rank " << r;
    EXPECT_LT(max_abs_diff(grad_xs[static_cast<std::size_t>(r)], ref.grad_x), 2e-4f)
        << "grad_x mismatch on rank " << r;
  }
  const Tensor grad_w = unshard_grads(grad_ws, shards, v, h);
  EXPECT_LT(max_abs_diff(grad_w, ref.grad_w), 2e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllPartitions, OutputLayerEquivalence,
    testing::ValuesIn([] {
      std::vector<Case> cases;
      for (const OutputAlgo algo : {OutputAlgo::Naive, OutputAlgo::Alg1, OutputAlgo::Alg2}) {
        for (const int world : {1, 2, 4, 8}) {
          // 64: divides evenly; 61: prime, padding on the last shard;
          // 10 with p=8: pads to 16 and leaves shards 5..7 fully padded.
          for (const std::int64_t v : {std::int64_t{64}, std::int64_t{61}, std::int64_t{10}}) {
            cases.push_back({algo, world, v});
          }
        }
      }
      return cases;
    }()),
    case_name);

TEST(OutputLayerShard, BarrierCountsMatchPaper) {
  EXPECT_EQ(num_barriers(OutputAlgo::Naive), 3);
  EXPECT_EQ(num_barriers(OutputAlgo::Alg1), 2);
  EXPECT_EQ(num_barriers(OutputAlgo::Alg2), 1);
  EXPECT_EQ(grad_x_ready_barrier(OutputAlgo::Naive), 2);
  EXPECT_EQ(grad_x_ready_barrier(OutputAlgo::Alg1), 1);
  EXPECT_EQ(grad_x_ready_barrier(OutputAlgo::Alg2), 0);
}

TEST(OutputLayerShard, PhaseOrderIsEnforced) {
  const auto shards = make_all_shards(8, 1);
  Rng rng(5);
  OutputLayerShard layer(OutputAlgo::Alg2, shards[0], Tensor::randn({8, 4}, rng));
  DeviceGroup group(1);
  layer.start_microbatch(0, Tensor::randn({3, 4}, rng), {0, 1, 2}, 1.0f);
  EXPECT_THROW(layer.compute_phase(0, 1), CheckError);     // wrong phase index
  EXPECT_THROW(layer.comm_barrier(0, 0, group), CheckError);  // barrier before S
  layer.compute_phase(0, 0);
  EXPECT_THROW(layer.compute_phase(0, 1), CheckError);  // T before C1
  layer.comm_barrier(0, 0, group);
  layer.compute_phase(0, 1);
  EXPECT_THROW(layer.finish_microbatch(1), CheckError);  // unknown mb
  layer.finish_microbatch(0);
}

TEST(OutputLayerShard, ResultsGatedOnReadiness) {
  const auto shards = make_all_shards(8, 1);
  Rng rng(6);
  OutputLayerShard layer(OutputAlgo::Alg1, shards[0], Tensor::randn({8, 4}, rng));
  DeviceGroup group(1);
  layer.start_microbatch(7, Tensor::randn({2, 4}, rng), {1, 3}, 0.5f);
  EXPECT_THROW((void)layer.loss(7), CheckError);
  layer.compute_phase(7, 0);
  layer.comm_barrier(7, 0, group);
  EXPECT_NO_THROW((void)layer.loss(7));
  EXPECT_THROW((void)layer.grad_x(7), CheckError);  // Alg1 grad_x only after C2
  layer.compute_phase(7, 1);
  layer.comm_barrier(7, 1, group);
  EXPECT_NO_THROW((void)layer.grad_x(7));
}

TEST(OutputLayerShard, RejectsBadInputs) {
  const auto shards = make_all_shards(8, 1);
  Rng rng(7);
  OutputLayerShard layer(OutputAlgo::Alg2, shards[0], Tensor::randn({8, 4}, rng));
  EXPECT_THROW(layer.start_microbatch(0, Tensor::randn({2, 5}, rng), {0, 1}, 1.0f),
               CheckError);  // wrong hidden dim
  EXPECT_THROW(layer.start_microbatch(0, Tensor::randn({2, 4}, rng), {0}, 1.0f),
               CheckError);  // target count mismatch
  EXPECT_THROW(layer.start_microbatch(0, Tensor::randn({2, 4}, rng), {0, 8}, 1.0f),
               CheckError);  // target outside vocab
  layer.start_microbatch(0, Tensor::randn({2, 4}, rng), {0, 1}, 1.0f);
  EXPECT_THROW(layer.start_microbatch(0, Tensor::randn({2, 4}, rng), {0, 1}, 1.0f),
               CheckError);  // duplicate mb id
}

TEST(OutputLayerShard, WeightGradAccumulatesAcrossMicrobatches) {
  const auto shards = make_all_shards(16, 2);
  const std::int64_t n = 6, h = 8;
  const Problem prob = make_problem(n, h, 16, 99);
  DeviceGroup group(2);

  // Run the same microbatch twice: grads must double.
  std::vector<Tensor> grads_once(2), grads_twice(2);
  run_ranks(2, [&](int rank) {
    OutputLayerShard layer(OutputAlgo::Alg2, shards[static_cast<std::size_t>(rank)],
                           shard_weights(prob.w, shards[static_cast<std::size_t>(rank)]));
    layer.run_all(0, group, prob.x, prob.targets, prob.grad_scale);
    grads_once[static_cast<std::size_t>(rank)] = layer.weight_grad();
    layer.run_all(1, group, prob.x, prob.targets, prob.grad_scale);
    grads_twice[static_cast<std::size_t>(rank)] = layer.weight_grad();
    layer.zero_weight_grad();
    EXPECT_FLOAT_EQ(static_cast<float>(sum_all(layer.weight_grad())), 0.0f);
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_LT(max_abs_diff(scale(grads_once[static_cast<std::size_t>(r)], 2.0f),
                           grads_twice[static_cast<std::size_t>(r)]),
              1e-4f);
  }
}

TEST(OutputLayerShard, ActivationMemoryReleasedOnFinish) {
  const auto shards = make_all_shards(32, 1);
  Rng rng(8);
  OutputLayerShard layer(OutputAlgo::Alg1, shards[0], Tensor::randn({32, 8}, rng));
  DeviceGroup group(1);
  EXPECT_EQ(layer.live_activation_bytes(), 0u);
  layer.start_microbatch(0, Tensor::randn({4, 8}, rng), {0, 1, 2, 3}, 1.0f);
  layer.compute_phase(0, 0);
  EXPECT_GT(layer.live_activation_bytes(), 0u);
  layer.comm_barrier(0, 0, group);
  layer.compute_phase(0, 1);
  layer.comm_barrier(0, 1, group);
  layer.compute_phase(0, 2);
  layer.finish_microbatch(0);
  EXPECT_EQ(layer.live_activation_bytes(), 0u);
}

TEST(OutputLayerShard, Alg2HoldsFewerBigTensorsThanAlg1AfterS) {
  // After the S pass, Alg2 has freed the logits and holds softmax' + A + B;
  // Alg1 holds softmax'. Both must have dropped the [n, V/p] logits.
  const auto shards = make_all_shards(1024, 2);
  Rng rng(9);
  const std::int64_t n = 4, h = 8;
  for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    OutputLayerShard layer(algo, shards[0], Tensor::randn({shards[0].size, h}, rng));
    layer.start_microbatch(0, Tensor::randn({n, h}, rng), std::vector<std::int64_t>(n, 3), 1.0f);
    layer.compute_phase(0, 0);
    const std::size_t logits_bytes = static_cast<std::size_t>(n * shards[0].size) * sizeof(float);
    const std::size_t softmax_plus_x =
        logits_bytes + static_cast<std::size_t>(n * h) * sizeof(float);
    // State must be within softmax' + x + small vectors (+ A/B for Alg2),
    // i.e. strictly less than two [n, V/p] matrices.
    EXPECT_LT(layer.live_activation_bytes(), 2 * logits_bytes)
        << to_string(algo) << " retained the logits after S";
    EXPECT_GE(layer.live_activation_bytes(), softmax_plus_x);
  }
}

TEST(OutputLayerShard, CollectiveCountsPerMicrobatch) {
  // One collective per paper barrier:
  // naive: max + gather(sum, ytgt) + gradx          = 3
  // alg1:  gather(max, sum, ytgt) + gradx           = 2
  // alg2:  gather(max, sum, ytgt, A, B)             = 1
  const auto shards = make_all_shards(24, 2);
  const Problem prob = make_problem(4, 8, 24, 7);
  for (const OutputAlgo algo : {OutputAlgo::Naive, OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    DeviceGroup group(2);
    run_ranks(2, [&](int rank) {
      OutputLayerShard layer(algo, shards[static_cast<std::size_t>(rank)],
                             shard_weights(prob.w, shards[static_cast<std::size_t>(rank)]));
      layer.run_all(0, group, prob.x, prob.targets, prob.grad_scale);
    });
    EXPECT_EQ(group.completed_collectives(), static_cast<std::uint64_t>(num_barriers(algo)))
        << to_string(algo);
  }
}

// ---------------------------------------------------------------------------
// The statistics barrier as one gather, against the chain of all-reduces it
// replaced: a max all-reduce, the per-rank scaled sums and their sum
// all-reduce, the rescale, the target-logit all-reduce and, under Alg2, the
// all-reduce of each rank's (A * c - B) * grad_scale. The chain runs on the
// rows each real shard posted, so it sees exactly the shard's S outputs.
// ---------------------------------------------------------------------------

/// Threads collective that keeps every rank's last all_gather_rows input.
class RecordingCollective final : public transport::Collective {
 public:
  explicit RecordingCollective(int world) : inner_(world, std::chrono::seconds(30)) {}

  [[nodiscard]] int world_size() const override { return inner_.world_size(); }
  void set_abort_token(std::shared_ptr<AbortToken> token) override {
    inner_.set_abort_token(std::move(token));
  }
  void barrier(int rank, const std::string& tag) override { inner_.barrier(rank, tag); }
  void all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) override {
    inner_.all_reduce(rank, data, op, tag);
  }
  void reduce(int rank, int root, Tensor& data, ReduceOp op, const std::string& tag) override {
    inner_.reduce(rank, root, data, op, tag);
  }
  void broadcast(int rank, int root, Tensor& data, const std::string& tag) override {
    inner_.broadcast(rank, root, data, tag);
  }
  Tensor all_gather_rows(int rank, const Tensor& data, const std::string& tag) override {
    record(rank, data);
    return inner_.all_gather_rows(rank, data, tag);
  }
  void post(int rank, const std::string& tag, const transport::CollectiveRequest& r) override {
    if (r.kind == transport::CollectiveRequest::Kind::kAllGatherRows) record(rank, *r.input);
    inner_.post(rank, tag, r);
  }
  void wait(int rank, const std::string& tag) override { inner_.wait(rank, tag); }
  [[nodiscard]] bool nonblocking_post() const override { return true; }
  [[nodiscard]] std::uint64_t completed_collectives() const override {
    return inner_.completed_collectives();
  }
  [[nodiscard]] std::vector<int> waiting_ranks() const override {
    return inner_.waiting_ranks();
  }
  [[nodiscard]] std::string describe() const override { return inner_.describe(); }

  [[nodiscard]] Tensor rows(int rank) const {
    std::lock_guard lock(mutex_);
    return rows_.at(rank);
  }

 private:
  void record(int rank, const Tensor& rows) {
    std::lock_guard lock(mutex_);
    rows_[rank] = rows;
  }

  transport::ThreadCollective inner_;
  mutable std::mutex mutex_;
  std::map<int, Tensor> rows_;
};

class RecordingTransport final : public transport::Transport {
 public:
  [[nodiscard]] transport::TransportKind kind() const override {
    return transport::TransportKind::kThreads;
  }
  [[nodiscard]] const char* name() const override { return "recording"; }
  [[nodiscard]] std::unique_ptr<transport::Mailbox> make_mailbox(
      std::size_t capacity, std::chrono::milliseconds timeout) override {
    return std::make_unique<transport::ThreadMailbox>(capacity, timeout);
  }
  [[nodiscard]] std::unique_ptr<transport::Collective> make_collective(
      int world_size, std::chrono::milliseconds /*timeout*/) override {
    auto c = std::make_unique<RecordingCollective>(world_size);
    last = c.get();
    return c;
  }
  RecordingCollective* last = nullptr;
};

struct ChainedStats {
  float loss = 0.0f;
  Tensor rescale;  // Alg1/Alg2
  Tensor grad_x;   // Alg2
};

/// The chained statistics barrier on one rank, from that rank's posted rows
/// [n, 3 (+ 2h)]: local max, local sum, target-logit partial (then A, B).
ChainedStats chained_stats(int rank, const Tensor& rows, OutputAlgo algo, std::int64_t h,
                           float grad_scale, DeviceGroup& group) {
  const std::int64_t n = rows.dim(0);
  Tensor local_max({n}), local_sum({n}), target({n});
  for (std::int64_t i = 0; i < n; ++i) {
    local_max.at(i) = rows.at(i, 0);
    local_sum.at(i) = rows.at(i, 1);
    target.at(i) = rows.at(i, 2);
  }
  ChainedStats out;
  Tensor global_max = local_max;
  group.all_reduce(rank, global_max, ReduceOp::Max, "max");
  Tensor global_sum;
  if (algo == OutputAlgo::Naive) {
    // Naive's sums were taken against the global max already (its barrier 0).
    global_sum = local_sum;
    group.all_reduce(rank, global_sum, ReduceOp::Sum, "sum");
  } else {
    Tensor scaled({n});
    for (std::int64_t i = 0; i < n; ++i) {
      scaled.at(i) = local_sum.at(i) * std::exp(local_max.at(i) - global_max.at(i));
    }
    global_sum = scaled;
    group.all_reduce(rank, global_sum, ReduceOp::Sum, "sum");
    out.rescale = Tensor({n});
    for (std::int64_t i = 0; i < n; ++i) {
      out.rescale.at(i) = scaled.at(i) / global_sum.at(i);
    }
  }
  group.all_reduce(rank, target, ReduceOp::Sum, "ytgt");
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += std::log(static_cast<double>(global_sum.at(i))) + global_max.at(i) - target.at(i);
  }
  out.loss = static_cast<float>(acc / static_cast<double>(n));
  if (algo == OutputAlgo::Alg2) {
    Tensor a({n, h}), b({n, h});
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t col = 0; col < h; ++col) {
        a.at(i, col) = rows.at(i, 3 + col);
        b.at(i, col) = rows.at(i, 3 + h + col);
      }
    }
    // The per-rank expression as a pointer loop, the form (and hence the
    // FMA contraction) the library uses.
    out.grad_x = Tensor({n, h});
    const float* pa = a.data();
    const float* pb = b.data();
    const float* pr = out.rescale.data();
    float* pgx = out.grad_x.data();
    for (std::int64_t i = 0; i < n; ++i) {
      const float c = pr[i];
      for (std::int64_t col = 0; col < h; ++col) {
        pgx[i * h + col] = (pa[i * h + col] * c - pb[i * h + col]) * grad_scale;
      }
    }
    group.all_reduce(rank, out.grad_x, ReduceOp::Sum, "gradx");
  }
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

using GatherCase = std::tuple<OutputAlgo, int, std::int64_t, bool>;

class StatsBarrierGather : public testing::TestWithParam<GatherCase> {};

TEST_P(StatsBarrierGather, BitIdenticalToChainedAllReduces) {
  const auto [algo, world, v, bf16] = GetParam();
  const std::int64_t n = 12, h = 16;
  const Problem prob = make_problem(n, h, v, /*seed=*/4321 + static_cast<std::uint64_t>(v));
  const auto shards = make_all_shards(v, world);
  RecordingTransport recording;
  DeviceGroup group(world, std::chrono::seconds(30), &recording);
  const int stats_barrier = algo == OutputAlgo::Naive ? 1 : 0;

  std::vector<float> losses(static_cast<std::size_t>(world));
  std::vector<Tensor> rescales(static_cast<std::size_t>(world));
  std::vector<Tensor> grad_xs(static_cast<std::size_t>(world));
  run_ranks(world, [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    OutputLayerShard layer(algo, shards[r], shard_weights(prob.w, shards[r]));
    if (bf16) layer.enable_bf16();
    layer.start_microbatch(0, prob.x, prob.targets, prob.grad_scale);
    for (int ph = 0; ph <= stats_barrier; ++ph) {
      layer.compute_phase(0, ph);
      layer.comm_barrier(0, ph, group);
    }
    losses[r] = layer.loss(0);
    if (algo != OutputAlgo::Naive) rescales[r] = layer.rescale(0);
    if (algo == OutputAlgo::Alg2) grad_xs[r] = layer.grad_x(0);
  });

  DeviceGroup chain_group(world);
  std::vector<ChainedStats> chained(static_cast<std::size_t>(world));
  run_ranks(world, [&](int rank) {
    chained[static_cast<std::size_t>(rank)] = chained_stats(
        rank, recording.last->rows(rank), algo, h, prob.grad_scale, chain_group);
  });

  for (std::size_t r = 0; r < static_cast<std::size_t>(world); ++r) {
    EXPECT_EQ(std::memcmp(&losses[r], &chained[r].loss, sizeof(float)), 0)
        << "rank " << r << ": " << losses[r] << " vs " << chained[r].loss;
    if (algo != OutputAlgo::Naive) {
      EXPECT_TRUE(same_bits(rescales[r], chained[r].rescale)) << "rescale, rank " << r;
    }
    if (algo == OutputAlgo::Alg2) {
      EXPECT_TRUE(same_bits(grad_xs[r], chained[r].grad_x)) << "grad_x, rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsWidthsPaddingPrecision, StatsBarrierGather,
    testing::Combine(testing::Values(OutputAlgo::Naive, OutputAlgo::Alg1, OutputAlgo::Alg2),
                     testing::Values(2, 3, 4),
                     // 61: the last shard is padded at every width; 10 at p=4
                     // pads to 16 and leaves the last shard fully padded.
                     testing::Values(std::int64_t{61}, std::int64_t{10}),
                     testing::Bool()),
    [](const testing::TestParamInfo<GatherCase>& info) {
      std::string name = std::string(to_string(std::get<0>(info.param))) + "_p" +
                         std::to_string(std::get<1>(info.param)) + "_V" +
                         std::to_string(std::get<2>(info.param)) +
                         (std::get<3>(info.param) ? "_bf16" : "_fp32");
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(VocabShardMath, PaddingAndOwnership) {
  EXPECT_EQ(pad_vocab(256008, 24), 256032);  // the paper's §6.1 example
  EXPECT_EQ(pad_vocab(32000, 8), 32000);
  EXPECT_EQ(pad_vocab(1, 4), 8);

  const auto shards = make_all_shards(10, 4);  // pads to 16, shard size 4
  EXPECT_EQ(shards[0].size, 4);
  EXPECT_EQ(shards[0].valid_size(), 4);
  EXPECT_EQ(shards[2].valid_size(), 2);  // ids 8, 9
  EXPECT_EQ(shards[3].valid_size(), 0);  // fully padded
  EXPECT_TRUE(shards[2].owns(9));
  EXPECT_FALSE(shards[2].owns(10));
  EXPECT_EQ(shards[2].to_local(9), 1);
  EXPECT_THROW((void)shards[3].to_local(12), CheckError);

  // Every real vocab id is owned by exactly one shard.
  for (std::int64_t vid = 0; vid < 10; ++vid) {
    int owners = 0;
    for (const auto& s : shards) owners += s.owns(vid) ? 1 : 0;
    EXPECT_EQ(owners, 1) << "vocab id " << vid;
  }
}

}  // namespace
}  // namespace vocab
