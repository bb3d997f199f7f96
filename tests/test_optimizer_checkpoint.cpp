// Tests for the optimizer module (SGD / Adam) and checkpoint I/O, including
// the paper-relevant property that a vocabulary-parallel run can be
// checkpointed and resumed on a *different* pipeline width.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>
#include <unistd.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/output_layer_shard.h"
#include "model/gpt.h"
#include "runtime/checkpoint.h"
#include "runtime/optimizer.h"
#include "runtime/pipeline_trainer.h"
#include "runtime/reference_trainer.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---- optimizer ----------------------------------------------------------------

TEST(Optimizer, SgdStepMatchesAxpy) {
  Tensor p({3}, std::vector<float>{1, 2, 3});
  const Tensor g({3}, std::vector<float>{0.5f, -1.0f, 2.0f});
  ParamOptimizer opt;
  opt.step(p, g, OptimizerConfig::sgd(0.1f));
  EXPECT_FLOAT_EQ(p.at(0), 0.95f);
  EXPECT_FLOAT_EQ(p.at(1), 2.1f);
  EXPECT_FLOAT_EQ(p.at(2), 2.8f);
}

TEST(Optimizer, AdamFirstStepIsSignedLr) {
  // With bias correction, step 1 moves each coordinate by ~lr * sign(grad).
  Tensor p({2}, std::vector<float>{0.0f, 0.0f});
  const Tensor g({2}, std::vector<float>{3.0f, -0.01f});
  ParamOptimizer opt;
  const auto cfg = OptimizerConfig::adam(0.05f);
  opt.step(p, g, cfg);
  EXPECT_NEAR(p.at(0), -0.05f, 1e-4f);
  EXPECT_NEAR(p.at(1), 0.05f, 1e-3f);
}

TEST(Optimizer, AdamMatchesHandComputedSecondStep) {
  Tensor p({1}, std::vector<float>{1.0f});
  ParamOptimizer opt;
  OptimizerConfig cfg = OptimizerConfig::adam(0.1f);
  const float g1 = 2.0f, g2 = -1.0f;
  opt.step(p, Tensor({1}, g1), cfg);
  opt.step(p, Tensor({1}, g2), cfg);
  // Manual recomputation.
  float m = 0, v = 0, x = 1.0f;
  for (int t = 1; t <= 2; ++t) {
    const float g = t == 1 ? g1 : g2;
    m = 0.9f * m + 0.1f * g;
    v = 0.999f * v + 0.001f * g * g;
    const float mh = m / (1 - std::pow(0.9f, t));
    const float vh = v / (1 - std::pow(0.999f, t));
    x -= 0.1f * mh / (std::sqrt(vh) + 1e-8f);
  }
  EXPECT_NEAR(p.at(0), x, 1e-6f);
}

// The Adam update runs vectorized and chunked over parallel_for; neither may
// change a bit. Odd lengths leave a remainder after every vector width, and
// a length past one chunk exercises the chunking.
TEST(Optimizer, AdamStepsBitEqualToThePlainLoop) {
  Rng rng(123);
  const OptimizerConfig cfg = OptimizerConfig::adam(3e-3f);
  constexpr int kSteps = 25;
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{7}, std::int64_t{1021},
                               std::int64_t{40013}}) {
    Tensor param = Tensor::randn({n}, rng, 0.5f);
    std::vector<Tensor> grads;
    for (int s = 0; s < kSteps; ++s) grads.push_back(Tensor::randn({n}, rng, 1e-2f));

    std::vector<float> p(param.data(), param.data() + n), m(static_cast<std::size_t>(n), 0.0f),
        v(static_cast<std::size_t>(n), 0.0f);
    ParamOptimizer opt;
    for (int s = 0; s < kSteps; ++s) {
      opt.step(param, grads[static_cast<std::size_t>(s)], cfg);
      const float b1 = cfg.beta1, b2 = cfg.beta2;
      const float corr1 = 1.0f - std::pow(b1, static_cast<float>(s + 1));
      const float corr2 = 1.0f - std::pow(b2, static_cast<float>(s + 1));
      const float* g = grads[static_cast<std::size_t>(s)].data();
      for (std::int64_t i = 0; i < n; ++i) {
        const auto k = static_cast<std::size_t>(i);
        m[k] = b1 * m[k] + (1.0f - b1) * g[i];
        v[k] = b2 * v[k] + (1.0f - b2) * g[i] * g[i];
        const float mhat = m[k] / corr1;
        const float vhat = v[k] / corr2;
        p[k] -= cfg.lr * mhat / (std::sqrt(vhat) + cfg.eps);
      }
    }
    EXPECT_EQ(std::memcmp(param.data(), p.data(), static_cast<std::size_t>(n) * sizeof(float)), 0)
        << "n=" << n;
  }
}

TEST(Optimizer, ShapeMismatchThrows) {
  Tensor p({2});
  ParamOptimizer opt;
  EXPECT_THROW(opt.step(p, Tensor({3}), OptimizerConfig::sgd(0.1f)), CheckError);
}

TEST(Optimizer, AdamTrainingBeatsPlateauedSgd) {
  // On the synthetic corpus a modest-lr Adam makes clear progress.
  GptConfig cfg;
  cfg.num_layers = 2;
  cfg.heads = 2;
  cfg.hidden = 32;
  cfg.seq_len = 16;
  cfg.vocab = 67;
  ReferenceTrainer trainer(GptWeights::init(cfg, 31));
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 32);
  // Held-out sample evaluated before and after (per-iteration losses are
  // noisy because every iteration sees fresh data).
  const Sample held_out = corpus.sample(10000);
  const float before = trainer.evaluate(held_out);
  for (int it = 0; it < 30; ++it) {
    std::vector<Sample> mbs{corpus.sample(2 * it), corpus.sample(2 * it + 1)};
    trainer.train_iteration(mbs, OptimizerConfig::adam(0.02f));
  }
  const float after = trainer.evaluate(held_out);
  EXPECT_LT(after, before - 0.3f) << "Adam should make steady progress from init";
}

TEST(Optimizer, PipelineMatchesReferenceUnderAdam) {
  GptConfig cfg;
  cfg.num_layers = 4;
  cfg.heads = 2;
  cfg.hidden = 24;
  cfg.seq_len = 12;
  cfg.vocab = 53;
  const GptWeights weights = GptWeights::init(cfg, 77);
  ReferenceTrainer ref(weights);
  PipelineTrainer pipe(weights, /*p=*/4, OutputAlgo::Alg1);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 78);
  for (int it = 0; it < 5; ++it) {
    const std::vector<Sample> mbs{corpus.sample(2 * it), corpus.sample(2 * it + 1)};
    const float rl = ref.train_iteration(mbs, OptimizerConfig::adam(0.02f));
    const float pl = pipe.train_iteration(mbs, OptimizerConfig::adam(0.02f));
    EXPECT_NEAR(pl, rl, 1e-2f) << "iteration " << it;
  }
  EXPECT_LT(max_abs_diff(pipe.gathered_output_weight(), ref.output_weight()), 1e-2f);
}

// ---- checkpointing ---------------------------------------------------------------

TEST(Checkpoint, RoundTripPreservesEverything) {
  GptConfig cfg;
  cfg.num_layers = 3;
  cfg.heads = 2;
  cfg.hidden = 16;
  cfg.seq_len = 8;
  cfg.vocab = 29;
  cfg.tie_embeddings = true;
  const GptWeights original = GptWeights::init(cfg, 5);
  const std::string path = temp_path("roundtrip.ckpt");
  save_checkpoint(path, original);
  const GptWeights loaded = load_checkpoint(path);

  EXPECT_EQ(loaded.config.num_layers, cfg.num_layers);
  EXPECT_EQ(loaded.config.vocab, cfg.vocab);
  EXPECT_TRUE(loaded.config.tie_embeddings);
  EXPECT_EQ(max_abs_diff(loaded.input_embedding, original.input_embedding), 0.0f);
  EXPECT_EQ(max_abs_diff(loaded.pos_embedding, original.pos_embedding), 0.0f);
  EXPECT_EQ(max_abs_diff(loaded.output_weight, original.output_weight), 0.0f);
  ASSERT_EQ(loaded.layers.size(), original.layers.size());
  for (std::size_t l = 0; l < loaded.layers.size(); ++l) {
    EXPECT_EQ(max_abs_diff(loaded.layers[l].wq, original.layers[l].wq), 0.0f);
    EXPECT_EQ(max_abs_diff(loaded.layers[l].w2, original.layers[l].w2), 0.0f);
    EXPECT_EQ(max_abs_diff(loaded.layers[l].ln2_g, original.layers[l].ln2_g), 0.0f);
  }
}

TEST(Checkpoint, MissingFileAndBadMagicThrow) {
  EXPECT_THROW(load_checkpoint(temp_path("does_not_exist.ckpt")), Error);
  const std::string path = temp_path("garbage.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  EXPECT_THROW(load_checkpoint(path), Error);
}

TEST(Checkpoint, TruncatedFileThrows) {
  GptConfig cfg;
  cfg.num_layers = 1;
  cfg.heads = 1;
  cfg.hidden = 8;
  cfg.seq_len = 4;
  cfg.vocab = 11;
  const std::string path = temp_path("trunc.ckpt");
  save_checkpoint(path, GptWeights::init(cfg, 1));
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
  EXPECT_THROW(load_checkpoint(path), Error);
}

TEST(Checkpoint, BitFlipFailsCrcWithPreciseError) {
  GptConfig cfg;
  cfg.num_layers = 1;
  cfg.heads = 1;
  cfg.hidden = 8;
  cfg.seq_len = 4;
  cfg.vocab = 11;
  const std::string path = temp_path("bitflip.ckpt");
  save_checkpoint(path, GptWeights::init(cfg, 2));

  // Flip one bit in the middle of the tensor payload.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  const int byte = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(byte ^ 0x01, f);
  std::fclose(f);

  try {
    load_checkpoint(path);
    FAIL() << "bit-flipped checkpoint must not load";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC32"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, TruncatedTrailerThrows) {
  // Cutting only the CRC trailer (not the payload) must still be rejected.
  GptConfig cfg;
  cfg.num_layers = 1;
  cfg.heads = 1;
  cfg.hidden = 8;
  cfg.seq_len = 4;
  cfg.vocab = 11;
  const std::string path = temp_path("trunc_trailer.ckpt");
  save_checkpoint(path, GptWeights::init(cfg, 3));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(path.c_str(), size - 2), 0);
  EXPECT_THROW(load_checkpoint(path), Error);
}

TEST(Checkpoint, V1MagicRejectedWithUpgradeHint) {
  const std::string path = temp_path("v1.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint64_t v1 = 0x564f434142435031ULL;  // "VOCABCP1"
  ASSERT_EQ(std::fwrite(&v1, sizeof v1, 1, f), 1u);
  std::fclose(f);
  try {
    load_checkpoint(path);
    FAIL() << "v1 checkpoint must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("re-save"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, SaveIsAtomicAndLeavesNoTempFile) {
  GptConfig cfg;
  cfg.num_layers = 1;
  cfg.heads = 1;
  cfg.hidden = 8;
  cfg.seq_len = 4;
  cfg.vocab = 11;
  const std::string path = temp_path("atomic.ckpt");
  const GptWeights first = GptWeights::init(cfg, 4);
  save_checkpoint(path, first);
  // Overwrite with different weights: the destination must flip atomically
  // (rename), never be torn, and the temp file must be gone afterwards.
  const GptWeights second = GptWeights::init(cfg, 5);
  save_checkpoint(path, second);
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr) << "temp file left behind after save";
  if (tmp != nullptr) std::fclose(tmp);
  const GptWeights loaded = load_checkpoint(path);
  EXPECT_EQ(max_abs_diff(loaded.output_weight, second.output_weight), 0.0f);
}

TEST(Checkpoint, ReshardAcrossPipelineWidths) {
  // Train on p=2, checkpoint, resume on p=4 (and on one device): all three
  // continue with identical losses. This is the flexibility the paper
  // contrasts with Redis, whose layer placement depends on the pipeline.
  GptConfig cfg;
  cfg.num_layers = 4;
  cfg.heads = 2;
  cfg.hidden = 24;
  cfg.seq_len = 12;
  cfg.vocab = 37;
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 91);

  PipelineTrainer first(GptWeights::init(cfg, 90), 2, OutputAlgo::Alg2);
  for (int it = 0; it < 3; ++it) {
    first.train_iteration({corpus.sample(2 * it), corpus.sample(2 * it + 1)}, 0.2f);
  }
  const std::string path = temp_path("reshard.ckpt");
  save_checkpoint(path, first.export_weights());

  const GptWeights resumed = load_checkpoint(path);
  ReferenceTrainer ref(resumed);
  PipelineTrainer wide(resumed, 4, OutputAlgo::Alg1);
  const std::vector<Sample> mbs{corpus.sample(100), corpus.sample(101)};
  const float l_first = first.train_iteration(mbs, 0.2f);
  const float l_ref = ref.train_iteration(mbs, 0.2f);
  const float l_wide = wide.train_iteration(mbs, 0.2f);
  EXPECT_NEAR(l_ref, l_first, 5e-4f);
  EXPECT_NEAR(l_wide, l_first, 5e-4f);
}

}  // namespace
}  // namespace vocab
