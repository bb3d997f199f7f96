#include "core/output_layer_shard.h"

#include <cmath>
#include <limits>

#include "comm/device_group.h"
#include "common/error.h"
#include "parallel/thread_pool.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace vocab {

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Grain for intra-op row partitioning: a function of the row width only, so
// chunk boundaries (and results) never depend on the thread count.
std::int64_t stats_grain(std::int64_t row_width) {
  return std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(row_width, 1));
}

std::string tag(int mb, int barrier, const char* what) {
  return "out:mb" + std::to_string(mb) + ":b" + std::to_string(barrier) + ":" + what;
}

// Columns of one rank's packed statistics rows; under Alg2 A_d and B_d
// follow, h columns each.
constexpr std::int64_t kMaxCol = 0;
constexpr std::int64_t kSumCol = 1;
constexpr std::int64_t kTargetCol = 2;
constexpr std::int64_t kStatCols = 3;

// Per-rank terms of the statistics barrier. Every rank evaluates every
// rank's term through these, the expressions each rank evaluated for itself
// before C1 became one gather, so no call site can round or contract them
// differently.
float scaled_sum(float local_sum, float local_max, float global_max) {
  return local_sum * std::exp(local_max - global_max);  // eq. (5) numerator
}

// Rows [i0, i1) of (A_r * c_r - B_r) * grad_scale (eq. 6); row i of A_r and
// B_r starts at a + i * stride and b + i * stride.
void gradx_term(const float* a, const float* b, std::int64_t stride, const float* c,
                float gscale, std::int64_t h, std::int64_t i0, std::int64_t i1, float* out) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float ci = c[i];
    const float* pa = a + i * stride;
    const float* pb = b + i * stride;
    float* po = out + i * h;
    for (std::int64_t col = 0; col < h; ++col) po[col] = (pa[col] * ci - pb[col]) * gscale;
  }
}

// Column `col` of the gathered rows, summed over ranks in rank order: rank
// 0's value first, as the sum all-reduce accumulated.
Tensor fold_sum_column(const Tensor& gathered, std::int64_t n, std::int64_t col) {
  const std::int64_t cols = gathered.dim(1);
  const std::int64_t p = gathered.dim(0) / n;
  const float* pg = gathered.data();
  Tensor out({n});
  float* po = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    float acc = pg[i * cols + col];
    for (std::int64_t r = 1; r < p; ++r) acc += pg[(r * n + i) * cols + col];
    po[i] = acc;
  }
  return out;
}

// Row-wise softmax' *= rescale over the valid columns (eq. 5 application).
void rescale_softmax_rows(Tensor& softmax_local, const Tensor& rescale, std::int64_t valid) {
  const std::int64_t n = softmax_local.dim(0), cols = softmax_local.dim(1);
  float* psm = softmax_local.data();
  const float* pr = rescale.data();
  parallel::parallel_for(0, n, stats_grain(valid), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float c = pr[i];
      for (std::int64_t j = 0; j < valid; ++j) psm[i * cols + j] *= c;
    }
  });
}
}  // namespace

const char* to_string(OutputAlgo algo) {
  switch (algo) {
    case OutputAlgo::Naive: return "naive";
    case OutputAlgo::Alg1: return "vocab-1";
    case OutputAlgo::Alg2: return "vocab-2";
  }
  return "?";
}

int num_barriers(OutputAlgo algo) {
  switch (algo) {
    case OutputAlgo::Naive: return 3;
    case OutputAlgo::Alg1: return 2;
    case OutputAlgo::Alg2: return 1;
  }
  return 0;
}

int num_compute_phases(OutputAlgo algo) { return num_barriers(algo) + 1; }

int grad_x_ready_barrier(OutputAlgo algo) {
  switch (algo) {
    case OutputAlgo::Naive: return 2;
    case OutputAlgo::Alg1: return 1;
    case OutputAlgo::Alg2: return 0;
  }
  return 0;
}

OutputLayerShard::OutputLayerShard(OutputAlgo algo, VocabShard shard, Tensor weight_shard)
    : algo_(algo), shard_(shard), weight_(std::move(weight_shard)) {
  VOCAB_CHECK(weight_.rank() == 2 && weight_.dim(0) == shard_.size,
              "weight shard must be [" << shard_.size << ", h], got " << weight_.shape_str());
  // Padding rows must be exactly zero so they contribute nothing to any
  // matmul (their logits are additionally excluded from softmax statistics).
  for (std::int64_t r = shard_.valid_size(); r < shard_.size; ++r) {
    for (std::int64_t c = 0; c < weight_.dim(1); ++c) weight_.at(r, c) = 0.0f;
  }
  hidden_ = weight_.dim(1);
  weight_grad_ = Tensor(weight_.shape());
}

void OutputLayerShard::zero_weight_grad() { weight_grad_.fill(0.0f); }

const Tensor& OutputLayerShard::weight() const {
  VOCAB_CHECK(!bf16_, "fp32 weight accessor used on a bf16-mode shard");
  return weight_;
}

Tensor& OutputLayerShard::mutable_weight() {
  VOCAB_CHECK(!bf16_, "fp32 weight accessor used on a bf16-mode shard");
  return weight_;
}

void OutputLayerShard::enable_bf16() {
  VOCAB_CHECK(!bf16_, "bf16 mode already enabled");
  VOCAB_CHECK(state_.empty(), "cannot switch precision with microbatches in flight");
  wbf16_ = Bf16Tensor::from_tensor(weight_);
  weight_ = Tensor();
  bf16_ = true;
}

const Bf16Tensor& OutputLayerShard::weight_bf16() const {
  VOCAB_CHECK(bf16_, "bf16 weight accessor used on an fp32-mode shard");
  return wbf16_;
}

Bf16Tensor& OutputLayerShard::mutable_weight_bf16() {
  VOCAB_CHECK(bf16_, "bf16 weight accessor used on an fp32-mode shard");
  return wbf16_;
}

Tensor OutputLayerShard::weight_fp32() const {
  return bf16_ ? wbf16_.to_tensor() : weight_;
}

std::size_t OutputLayerShard::parameter_bytes() const {
  return bf16_ ? wbf16_.byte_size()
               : static_cast<std::size_t>(weight_.numel()) * sizeof(float);
}

void OutputLayerShard::start_microbatch(int mb, Tensor x, std::vector<std::int64_t> targets,
                                        float grad_scale) {
  VOCAB_CHECK(!state_.contains(mb), "microbatch " << mb << " already in flight");
  VOCAB_CHECK(x.rank() == 2 && x.dim(1) == hidden_,
              "x must be [n, " << hidden_ << "], got " << x.shape_str());
  VOCAB_CHECK(static_cast<std::int64_t>(targets.size()) == x.dim(0),
              "target count must equal token count");
  for (const auto t : targets) {
    VOCAB_CHECK(t >= 0 && t < shard_.full_vocab, "target " << t << " outside vocabulary");
  }
  MbState s;
  s.x = std::move(x);
  s.targets = std::move(targets);
  s.grad_scale = grad_scale;
  state_.emplace(mb, std::move(s));
}

OutputLayerShard::MbState& OutputLayerShard::state(int mb) {
  const auto it = state_.find(mb);
  VOCAB_CHECK(it != state_.end(), "microbatch " << mb << " not started");
  return it->second;
}

const OutputLayerShard::MbState& OutputLayerShard::state(int mb) const {
  const auto it = state_.find(mb);
  VOCAB_CHECK(it != state_.end(), "microbatch " << mb << " not started");
  return it->second;
}

void OutputLayerShard::compute_phase(int mb, int phase) {
  MbState& s = state(mb);
  VOCAB_CHECK(phase == s.phases_done, "compute phase " << phase << " out of order (expected "
                                                       << s.phases_done << ")");
  VOCAB_CHECK(phase == 0 || s.barriers_done >= phase,
              "compute phase " << phase << " requires barrier " << phase - 1 << " first");
  switch (algo_) {
    case OutputAlgo::Naive: naive_compute(s, phase); break;
    case OutputAlgo::Alg1: alg1_compute(s, phase); break;
    case OutputAlgo::Alg2: alg2_compute(s, phase); break;
  }
  ++s.phases_done;
}

void OutputLayerShard::comm_barrier(int mb, int barrier, DeviceGroup& group) {
  post_barrier(mb, barrier, group);
  complete_barrier(mb, barrier, group);
}

bool OutputLayerShard::is_stats_barrier(int barrier) const {
  return barrier == (algo_ == OutputAlgo::Naive ? 1 : 0);
}

std::string OutputLayerShard::barrier_tag(int mb, int barrier) const {
  if (is_stats_barrier(barrier)) return tag(mb, barrier, "stats");
  // The rest are all-reduces: Naive's max, and the grad_x reduce (Naive's
  // last barrier, Alg1's C2).
  return tag(mb, barrier, algo_ == OutputAlgo::Naive && barrier == 0 ? "max" : "gradx");
}

void OutputLayerShard::post_barrier(int mb, int barrier, DeviceGroup& group) {
  MbState& s = state(mb);
  VOCAB_CHECK(barrier == s.barriers_done && !s.barrier_posted,
              "barrier " << barrier << " out of order");
  VOCAB_CHECK(s.phases_done >= barrier + 1,
              "barrier " << barrier << " requires compute phase " << barrier << " first");
  VOCAB_CHECK(barrier < num_barriers(algo_),
              to_string(algo_) << " has " << num_barriers(algo_) << " barriers, got " << barrier);
  const int rank = shard_.rank;
  const std::string t = barrier_tag(mb, barrier);
  if (is_stats_barrier(barrier)) {
    s.rows = pack_rows(s);
    group.post_all_gather_rows(rank, s.rows, s.gathered, t);
  } else if (algo_ == OutputAlgo::Naive && barrier == 0) {
    group.post_all_reduce(rank, s.global_max, ReduceOp::Max, t);
  } else {
    group.post_all_reduce(rank, s.grad_x, ReduceOp::Sum, t);
  }
  s.barrier_posted = true;
}

void OutputLayerShard::complete_barrier(int mb, int barrier, DeviceGroup& group) {
  MbState& s = state(mb);
  VOCAB_CHECK(barrier == s.barriers_done && s.barrier_posted,
              "barrier " << barrier << " completed before it was posted");
  group.wait(shard_.rank, barrier_tag(mb, barrier));
  if (is_stats_barrier(barrier)) {
    fold_stats(s);
  } else if (barrier == grad_x_ready_barrier(algo_)) {
    s.grad_x_ready = true;
  }
  s.barrier_posted = false;
  ++s.barriers_done;
}

bool OutputLayerShard::barrier_ready(int mb, int barrier, DeviceGroup& group) const {
  return group.test(shard_.rank, barrier_tag(mb, barrier));
}

// ---- shared helpers --------------------------------------------------------

void OutputLayerShard::compute_logits_masked(MbState& s) {
  // eq. (1): Y = X W_d^T; bf16 mode streams half the weight bytes.
  s.logits = bf16_ ? matmul_nt_bf16(s.x, wbf16_) : matmul_nt(s.x, weight_);
  // Extract this shard's contribution to the per-token target logit while the
  // logits are live; unowned targets contribute zero and are summed in later.
  const std::int64_t n = s.logits.dim(0);
  s.target_logit = Tensor({n});
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t t = s.targets[static_cast<std::size_t>(i)];
    if (shard_.owns(t)) s.target_logit.at(i) = s.logits.at(i, shard_.to_local(t));
  }
}

void OutputLayerShard::compute_local_stats(MbState& s) {
  // Local (per-shard) online-softmax statistics over *valid* columns only —
  // padding columns are excluded exactly as Megatron masks padded logits.
  const std::int64_t n = s.logits.dim(0);
  const std::int64_t cols = s.logits.dim(1);
  const std::int64_t valid = shard_.valid_size();
  s.local_max = Tensor({n}, kNegInf);
  s.local_sum = Tensor({n});
  s.softmax_local = Tensor({n, cols});
  const float* py = s.logits.data();
  float* psm = s.softmax_local.data();
  float* pmax = s.local_max.data();
  float* psum = s.local_sum.data();
  const simd::Kernels& ks = simd::kernels();
  parallel::parallel_for(0, n, stats_grain(valid), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* row = py + i * cols;
      const float m = ks.reduce_max(row, valid);
      const double sum = ks.exp_sum(row, valid, m);
      pmax[i] = m;
      psum[i] = static_cast<float>(sum);
      const float inv = sum > 0.0 ? static_cast<float>(1.0 / sum) : 0.0f;
      ks.exp_scale(row, psm + i * cols, valid, m, inv);
      // columns [valid, cols) stay zero
    }
  });
}

void OutputLayerShard::finalize_loss(MbState& s) {
  // loss_i = log(sum_i) + m_i - y_{i, g_i}, averaged over tokens (identical
  // on every rank since all inputs are globally reduced).
  const std::int64_t n = s.global_max.dim(0);
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += std::log(static_cast<double>(s.global_sum.at(i))) + s.global_max.at(i) -
           s.target_logit.at(i);
  }
  s.loss = static_cast<float>(acc / static_cast<double>(n));
  s.loss_ready = true;
}

Tensor OutputLayerShard::diff_matrix(const MbState& s) const {
  // D = (softmax(Y) - G_d) * grad_scale, where s.softmax_local already holds
  // the *global* softmax restricted to this shard's columns.
  Tensor d = s.softmax_local;
  const std::int64_t n = d.dim(0);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t t = s.targets[static_cast<std::size_t>(i)];
    if (shard_.owns(t)) d.at(i, shard_.to_local(t)) -= 1.0f;
  }
  scale_inplace(d, s.grad_scale);
  return d;
}

Tensor OutputLayerShard::pack_rows(MbState& s) const {
  // Row i: local max, local sum and target-logit partial of token i; under
  // Alg2 also rows i of A_d and B_d, which leave the state with the post.
  const std::int64_t n = static_cast<std::int64_t>(s.targets.size());
  const bool with_ab = algo_ == OutputAlgo::Alg2;
  const std::int64_t h = hidden_;
  const std::int64_t cols = kStatCols + (with_ab ? 2 * h : 0);
  Tensor rows({n, cols});
  float* pr = rows.data();
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = pr + i * cols;
    row[kMaxCol] = s.local_max.at(i);
    row[kSumCol] = s.local_sum.at(i);
    row[kTargetCol] = s.target_logit.at(i);
    if (with_ab) {
      std::copy(s.a.data() + i * h, s.a.data() + (i + 1) * h, row + kStatCols);
      std::copy(s.b.data() + i * h, s.b.data() + (i + 1) * h, row + kStatCols + h);
    }
  }
  if (with_ab) {
    s.a = Tensor();
    s.b = Tensor();
  }
  return rows;
}

void OutputLayerShard::fold_stats(MbState& s) {
  const Tensor& g = s.gathered;
  const std::int64_t n = static_cast<std::int64_t>(s.targets.size());
  const std::int64_t cols = g.dim(1);
  const std::int64_t p = g.dim(0) / n;
  VOCAB_CHECK(p * n == g.dim(0) && p == shard_.world,
              "gathered statistics " << g.shape_str() << " do not hold " << shard_.world
                                     << " ranks of " << n << " rows");
  const auto row = [&](std::int64_t r, std::int64_t i) { return g.data() + (r * n + i) * cols; };

  s.target_logit = fold_sum_column(g, n, kTargetCol);
  if (algo_ == OutputAlgo::Naive) {
    // Naive's local sums were taken against the global max already.
    s.global_sum = fold_sum_column(g, n, kSumCol);
  } else {
    // Rank-order folds, the order the max and sum all-reduces accumulated
    // in. Separate passes keep each rounded term in memory before the next
    // expression reads it, so no product can contract into a later sum.
    s.global_max = Tensor({n});
    s.global_sum = Tensor({n});
    s.rescale = Tensor({n});
    Tensor scaled({p, n});  // every rank's eq. (5) numerator
    float* pgm = s.global_max.data();
    float* pgs = s.global_sum.data();
    float* psc = scaled.data();
    for (std::int64_t i = 0; i < n; ++i) {
      float m = row(0, i)[kMaxCol];
      for (std::int64_t r = 1; r < p; ++r) m = std::max(m, row(r, i)[kMaxCol]);
      pgm[i] = m;
    }
    for (std::int64_t r = 0; r < p; ++r) {
      for (std::int64_t i = 0; i < n; ++i) {
        psc[r * n + i] = scaled_sum(row(r, i)[kSumCol], row(r, i)[kMaxCol], pgm[i]);
      }
    }
    for (std::int64_t i = 0; i < n; ++i) pgs[i] = psc[i];
    for (std::int64_t r = 1; r < p; ++r) {
      for (std::int64_t i = 0; i < n; ++i) pgs[i] += psc[r * n + i];
    }
    for (std::int64_t i = 0; i < n; ++i) s.rescale.at(i) = psc[shard_.rank * n + i] / pgs[i];
    if (algo_ == OutputAlgo::Alg2) {
      // eq. (6): grad_X = Reduce(A * c - B), every rank's term with that
      // rank's own rescale c_r, summed in rank order.
      const std::int64_t h = hidden_;
      s.grad_x = Tensor({n, h});
      Tensor term({n, h});
      Tensor c({n});
      for (std::int64_t r = 0; r < p; ++r) {
        for (std::int64_t i = 0; i < n; ++i) c.at(i) = psc[r * n + i] / pgs[i];
        float* out = r == 0 ? s.grad_x.data() : term.data();
        const float* a = row(r, 0) + kStatCols;
        parallel::parallel_for(0, n, stats_grain(h), [&](std::int64_t i0, std::int64_t i1) {
          gradx_term(a, a + h, cols, c.data(), s.grad_scale, h, i0, i1, out);
        });
        if (r > 0) add_inplace(s.grad_x, term);
      }
      s.grad_x_ready = true;
    }
  }
  finalize_loss(s);
  s.rows = Tensor();
  s.gathered = Tensor();
}

// ---- naive: 3 barriers ------------------------------------------------------

void OutputLayerShard::naive_compute(MbState& s, int phase) {
  const std::int64_t valid = shard_.valid_size();
  switch (phase) {
    case 0: {  // F1: logits + local max
      compute_logits_masked(s);
      const std::int64_t n = s.logits.dim(0), cols = s.logits.dim(1);
      s.local_max = Tensor({n}, kNegInf);
      const float* py = s.logits.data();
      float* pmax = s.local_max.data();
      const simd::Kernels& ks = simd::kernels();
      parallel::parallel_for(0, n, stats_grain(valid), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          pmax[i] = ks.reduce_max(py + i * cols, valid);
        }
      });
      s.global_max = s.local_max;  // reduced in place by barrier 0
      break;
    }
    case 1: {  // F2: exponentials with the *global* max + local sum
      const std::int64_t n = s.logits.dim(0), cols = s.logits.dim(1);
      s.softmax_local = Tensor({n, cols});  // holds exp(Y - m) until barrier 1
      s.local_sum = Tensor({n});
      const float* py = s.logits.data();
      const float* pgm = s.global_max.data();
      float* psm = s.softmax_local.data();
      float* psum = s.local_sum.data();
      const simd::Kernels& ks = simd::kernels();
      parallel::parallel_for(0, n, stats_grain(valid), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          // Emit exp(Y - m) into the softmax buffer, then sum those floats in
          // double — the same value sequence the fused scalar loop produced.
          ks.exp_scale(py + i * cols, psm + i * cols, valid, pgm[i], 1.0f);
          psum[i] = static_cast<float>(ks.reduce_sum(psm + i * cols, valid));
        }
      });
      s.logits = Tensor();         // logits no longer needed
      break;
    }
    case 2: {  // B: softmax, then grad_x partial product
      const std::int64_t n = s.softmax_local.dim(0);
      const std::int64_t cols = s.softmax_local.dim(1);
      const float* pgs = s.global_sum.data();
      float* psm = s.softmax_local.data();
      parallel::parallel_for(0, n, stats_grain(valid), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const float inv = 1.0f / pgs[i];
          for (std::int64_t j = 0; j < valid; ++j) psm[i * cols + j] *= inv;
        }
      });
      const Tensor d = diff_matrix(s);
      // eq. (3) partial: reduced by barrier 2
      s.grad_x = bf16_ ? matmul_bf16(d, wbf16_) : matmul(d, weight_);
      break;
    }
    case 3: {  // T: weight gradient, arbitrarily delayable
      const Tensor d = diff_matrix(s);
      add_inplace(weight_grad_, matmul_tn(d, s.x));  // eq. (4)
      break;
    }
    default: VOCAB_FAIL("naive has 4 compute phases, got " << phase);
  }
}

// ---- Algorithm 1: 2 barriers -------------------------------------------------

void OutputLayerShard::alg1_compute(MbState& s, int phase) {
  switch (phase) {
    case 0: {  // S: logits + local online-softmax statistics
      compute_logits_masked(s);
      compute_local_stats(s);
      s.logits = Tensor();  // freed: softmax' + stats suffice from here on
      break;
    }
    case 1: {  // T: rescale softmax to global (eq. 5), both gradient matmuls
      rescale_softmax_rows(s.softmax_local, s.rescale, shard_.valid_size());
      const Tensor d = diff_matrix(s);
      // partial; reduced in C2
      s.grad_x = bf16_ ? matmul_bf16(d, wbf16_) : matmul(d, weight_);
      add_inplace(weight_grad_, matmul_tn(d, s.x));   // eq. (4)
      s.softmax_local = Tensor();
      s.x = Tensor();
      break;
    }
    case 2:
      break;  // trailing phase is empty: grad_x lands in barrier C2
    default: VOCAB_FAIL("alg1 has 3 compute phases, got " << phase);
  }
}

// ---- Algorithm 2: 1 barrier --------------------------------------------------

void OutputLayerShard::alg2_compute(MbState& s, int phase) {
  switch (phase) {
    case 0: {  // S: logits, local stats, and *both* pre-barrier matmuls (eq. 6)
      compute_logits_masked(s);
      compute_local_stats(s);
      s.logits = Tensor();
      // softmax'(Y) W_d
      s.a = bf16_ ? matmul_bf16(s.softmax_local, wbf16_) : matmul(s.softmax_local, weight_);
      // B = G_d W_d is a row gather: row i is W_d[g_i] when this shard owns
      // the label, zero otherwise. bf16 rows widen exactly on load.
      const std::int64_t n = s.x.dim(0), h = hidden_;
      s.b = Tensor({n, h});
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t t = s.targets[static_cast<std::size_t>(i)];
        if (!shard_.owns(t)) continue;
        const std::int64_t r = shard_.to_local(t);
        if (bf16_) {
          simd::kernels().bf16_to_fp32(wbf16_.data() + r * h, &s.b.at(i, 0), h);
        } else {
          for (std::int64_t c = 0; c < h; ++c) s.b.at(i, c) = weight_.at(r, c);
        }
      }
      break;
    }
    case 1: {  // T: global softmax + weight gradient (arbitrarily delayed)
      rescale_softmax_rows(s.softmax_local, s.rescale, shard_.valid_size());
      const Tensor d = diff_matrix(s);
      add_inplace(weight_grad_, matmul_tn(d, s.x));  // eq. (4)
      s.softmax_local = Tensor();
      s.x = Tensor();
      break;
    }
    default: VOCAB_FAIL("alg2 has 2 compute phases, got " << phase);
  }
}

// ---- results / lifecycle -----------------------------------------------------

float OutputLayerShard::loss(int mb) const {
  const MbState& s = state(mb);
  VOCAB_CHECK(s.loss_ready, "loss for microbatch " << mb << " not yet reduced");
  return s.loss;
}

const Tensor& OutputLayerShard::grad_x(int mb) const {
  const MbState& s = state(mb);
  VOCAB_CHECK(s.grad_x_ready, "grad_x for microbatch " << mb << " not yet reduced");
  return s.grad_x;
}

const Tensor& OutputLayerShard::rescale(int mb) const {
  const MbState& s = state(mb);
  VOCAB_CHECK(algo_ != OutputAlgo::Naive && s.barriers_done >= 1,
              "rescale for microbatch " << mb << " not yet computed");
  return s.rescale;
}

void OutputLayerShard::finish_microbatch(int mb) {
  const MbState& s = state(mb);
  VOCAB_CHECK(s.phases_done == num_compute_phases(algo_) &&
                  s.barriers_done == num_barriers(algo_),
              "finishing microbatch " << mb << " before all phases ran");
  state_.erase(mb);
}

std::size_t OutputLayerShard::live_activation_bytes() const {
  std::size_t bytes = 0;
  auto count = [&bytes](const Tensor& t) { bytes += static_cast<std::size_t>(t.numel()) * sizeof(float); };
  for (const auto& [mb, s] : state_) {
    count(s.x);
    count(s.logits);
    count(s.local_max);
    count(s.local_sum);
    count(s.global_max);
    count(s.global_sum);
    count(s.rescale);
    count(s.softmax_local);
    count(s.target_logit);
    count(s.a);
    count(s.b);
    count(s.grad_x);
    count(s.rows);
    count(s.gathered);
  }
  return bytes;
}

std::pair<float, Tensor> OutputLayerShard::run_all(int mb, DeviceGroup& group, Tensor x,
                                                   std::vector<std::int64_t> targets,
                                                   float grad_scale) {
  start_microbatch(mb, std::move(x), std::move(targets), grad_scale);
  const int phases = num_compute_phases(algo_);
  const int barriers = num_barriers(algo_);
  for (int i = 0; i < phases; ++i) {
    compute_phase(mb, i);
    if (i < barriers) comm_barrier(mb, i, group);
  }
  const float l = loss(mb);
  Tensor gx = grad_x(mb);
  finish_microbatch(mb);
  return {l, std::move(gx)};
}

}  // namespace vocab
