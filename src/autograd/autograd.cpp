#include "autograd/autograd.h"

#include <cmath>
#include <unordered_set>

#include "common/error.h"
#include "parallel/thread_pool.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace vocab::autograd {

Tensor& Node::ensure_grad() {
  if (grad.empty()) grad = Tensor(value.shape());
  return grad;
}

Var leaf(Tensor value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return node;
}

Var param(Tensor value) {
  Var node = leaf(std::move(value), /*requires_grad=*/true);
  node->is_param = true;
  return node;
}

Var constant(Tensor value) { return leaf(std::move(value), false); }

namespace {

/// Which half of the backward pass the current traversal computes. Closures
/// consult wants() so a split traversal skips the other half's FLOPs rather
/// than recomputing (or double-accumulating) them.
enum class GradPhase { kFull, kInput, kWeight };

thread_local GradPhase g_phase = GradPhase::kFull;

/// Does the current phase want a gradient accumulated into `v`?
bool wants(const Var& v) {
  if (!v->requires_grad) return false;
  switch (g_phase) {
    case GradPhase::kFull: return true;
    case GradPhase::kInput: return !v->is_param;
    case GradPhase::kWeight: return v->is_param;
  }
  return true;
}

/// Create an interior node; requires_grad is inherited from parents.
Var make_node(Tensor value, std::vector<Var> parents, std::function<void(Node&)> backward_fn) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  for (const auto& p : parents) node->requires_grad |= p->requires_grad;
  node->parents = std::move(parents);
  if (node->requires_grad) node->backward_fn = std::move(backward_fn);
  return node;
}

void accumulate(const Var& node, const Tensor& delta) {
  if (!wants(node)) return;
  add_inplace(node->ensure_grad(), delta);
}

}  // namespace

Var matmul(const Var& a, const Var& b) {
  Tensor out = vocab::matmul(a->value, b->value);
  return make_node(std::move(out), {a, b}, [a, b](Node& n) {
    // dA = dC B^T ; dB = A^T dC (gated per phase so BI/BW split the FLOPs)
    if (wants(a)) accumulate(a, vocab::matmul_nt(n.grad, b->value));
    if (wants(b)) accumulate(b, vocab::matmul_tn(a->value, n.grad));
  });
}

Var matmul_nt(const Var& a, const Var& b) {
  Tensor out = vocab::matmul_nt(a->value, b->value);
  return make_node(std::move(out), {a, b}, [a, b](Node& n) {
    // C = A B^T: dA = dC B ; dB = dC^T A
    if (wants(a)) accumulate(a, vocab::matmul(n.grad, b->value));
    if (wants(b)) accumulate(b, vocab::matmul_tn(n.grad, a->value));
  });
}

Var add(const Var& a, const Var& b) {
  Tensor out = vocab::add(a->value, b->value);
  return make_node(std::move(out), {a, b}, [a, b](Node& n) {
    accumulate(a, n.grad);
    accumulate(b, n.grad);
  });
}

Var add_rowvec(const Var& a, const Var& bias) {
  VOCAB_CHECK(a->value.rank() == 2 && bias->value.rank() == 1 &&
                  bias->value.dim(0) == a->value.dim(1),
              "add_rowvec shape mismatch");
  Tensor out = a->value;
  const std::int64_t m = out.dim(0), nn = out.dim(1);
  const float* pb = bias->value.data();
  for (std::int64_t i = 0; i < m; ++i) {
    float* row = out.data() + i * nn;
    for (std::int64_t j = 0; j < nn; ++j) row[j] += pb[j];
  }
  return make_node(std::move(out), {a, bias}, [a, bias](Node& n) {
    accumulate(a, n.grad);
    if (wants(bias)) {
      const std::int64_t m = n.grad.dim(0), nn = n.grad.dim(1);
      Tensor db({nn});
      float* pdb = db.data();
      for (std::int64_t i = 0; i < m; ++i) {
        const float* row = n.grad.data() + i * nn;
        for (std::int64_t j = 0; j < nn; ++j) pdb[j] += row[j];
      }
      add_inplace(bias->ensure_grad(), db);
    }
  });
}

Var mul(const Var& a, const Var& b) {
  Tensor out = vocab::mul(a->value, b->value);
  return make_node(std::move(out), {a, b}, [a, b](Node& n) {
    if (wants(a)) accumulate(a, vocab::mul(n.grad, b->value));
    if (wants(b)) accumulate(b, vocab::mul(n.grad, a->value));
  });
}

Var scale(const Var& a, float s) {
  Tensor out = vocab::scale(a->value, s);
  return make_node(std::move(out), {a}, [a, s](Node& n) {
    if (wants(a)) accumulate(a, vocab::scale(n.grad, s));
  });
}

Var gelu(const Var& a) {
  // tanh approximation, 0.5 x (1 + tanh(c (x + 0.044715 x^3))); the
  // arithmetic is the SIMD table's, one kernel call per chunk.
  const simd::Kernels& ks = simd::kernels();
  Tensor out(a->value.shape());
  const float* px = a->value.data();
  float* po = out.data();
  parallel::parallel_for(0, out.numel(), 4096, [&](std::int64_t e0, std::int64_t e1) {
    ks.gelu(px + e0, po + e0, e1 - e0);
  });
  return make_node(std::move(out), {a}, [a](Node& n) {
    if (!wants(a)) return;
    const simd::Kernels& ks = simd::kernels();
    Tensor da(a->value.shape());
    const float* px = a->value.data();
    const float* pg = n.grad.data();
    float* pd = da.data();
    parallel::parallel_for(0, da.numel(), 4096, [&](std::int64_t e0, std::int64_t e1) {
      ks.gelu_backward(px + e0, pg + e0, pd + e0, e1 - e0);
    });
    add_inplace(a->ensure_grad(), da);
  });
}

Var layernorm(const Var& x, const Var& gamma, const Var& beta, float eps) {
  VOCAB_CHECK(x->value.rank() == 2, "layernorm expects [m, n]");
  const std::int64_t m = x->value.dim(0), n = x->value.dim(1);
  VOCAB_CHECK(gamma->value.rank() == 1 && gamma->value.dim(0) == n &&
                  beta->value.rank() == 1 && beta->value.dim(0) == n,
              "layernorm gain/bias must be [n]");
  Tensor out({m, n});
  Tensor xhat({m, n});
  Tensor inv_sigma({m});
  {
    const float* px = x->value.data();
    const float* pgam = gamma->value.data();
    const float* pbet = beta->value.data();
    float* po = out.data();
    float* pxh = xhat.data();
    float* pis = inv_sigma.data();
    parallel::parallel_for(0, m, std::max<std::int64_t>(1, 4096 / n),
                           [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const float* row = px + i * n;
        double mu = 0.0;
        for (std::int64_t j = 0; j < n; ++j) mu += row[j];
        mu /= static_cast<double>(n);
        double var = 0.0;
        for (std::int64_t j = 0; j < n; ++j) {
          const double dlt = row[j] - mu;
          var += dlt * dlt;
        }
        var /= static_cast<double>(n);
        const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
        pis[i] = is;
        for (std::int64_t j = 0; j < n; ++j) {
          const float xh = (row[j] - static_cast<float>(mu)) * is;
          pxh[i * n + j] = xh;
          po[i * n + j] = pgam[j] * xh + pbet[j];
        }
      }
    });
  }
  return make_node(std::move(out), {x, gamma, beta},
                   [x, gamma, beta, xhat = std::move(xhat),
                    inv_sigma = std::move(inv_sigma)](Node& nd) {
    const std::int64_t m = nd.grad.dim(0), n = nd.grad.dim(1);
    if (wants(gamma) || wants(beta)) {
      // Column sums of grad and of grad * xhat. The products are formed in
      // their own pass so the compiler cannot fuse them into the sums as
      // FMAs: each product is rounded before it is added.
      const Tensor gx = vocab::mul(nd.grad, xhat);
      Tensor dg({n}), db({n});
      float* pdg = dg.data();
      float* pdb = db.data();
      for (std::int64_t i = 0; i < m; ++i) {
        const float* grow = nd.grad.data() + i * n;
        const float* gxrow = gx.data() + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
          pdg[j] += gxrow[j];
          pdb[j] += grow[j];
        }
      }
      if (wants(gamma)) add_inplace(gamma->ensure_grad(), dg);
      if (wants(beta)) add_inplace(beta->ensure_grad(), db);
    }
    if (!wants(x)) return;
    Tensor dx({m, n});
    const float* pgam = gamma->value.data();
    const float* pg = nd.grad.data();
    const float* pxh = xhat.data();
    const float* pis = inv_sigma.data();
    float* pdx = dx.data();
    parallel::parallel_for(0, m, std::max<std::int64_t>(1, 4096 / n),
                           [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        // g = gamma * dy; dx = (g - mean(g) - xhat * mean(g * xhat)) / sigma
        double mean_g = 0.0, mean_gx = 0.0;
        for (std::int64_t j = 0; j < n; ++j) {
          const double g = static_cast<double>(pgam[j]) * pg[i * n + j];
          mean_g += g;
          mean_gx += g * pxh[i * n + j];
        }
        mean_g /= static_cast<double>(n);
        mean_gx /= static_cast<double>(n);
        for (std::int64_t j = 0; j < n; ++j) {
          const double g = static_cast<double>(pgam[j]) * pg[i * n + j];
          pdx[i * n + j] = static_cast<float>((g - mean_g - pxh[i * n + j] * mean_gx) *
                                              pis[i]);
        }
      }
    });
    add_inplace(x->ensure_grad(), dx);
  });
}

Var causal_attention(const Var& q, const Var& k, const Var& v, int heads) {
  VOCAB_CHECK(q->value.rank() == 2 && q->value.same_shape(k->value) &&
                  q->value.same_shape(v->value),
              "attention inputs must share shape [s, h]");
  const std::int64_t s = q->value.dim(0), h = q->value.dim(1);
  VOCAB_CHECK(heads > 0 && h % heads == 0, "heads must divide hidden dim");
  const std::int64_t dh = h / heads;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(dh));

  Tensor out({s, h});
  // Saved attention probabilities per head for the backward pass.
  std::vector<Tensor> probs(static_cast<std::size_t>(heads));
  for (int a = 0; a < heads; ++a) {
    const std::int64_t c0 = a * dh, c1 = c0 + dh;
    const Tensor qa = slice_cols(q->value, c0, c1);
    const Tensor ka = slice_cols(k->value, c0, c1);
    const Tensor va = slice_cols(v->value, c0, c1);
    Tensor scores = vocab::matmul_nt(qa, ka);
    scale_inplace(scores, inv_sqrt);
    // Causal mask: position i attends to j <= i.
    float* psc = scores.data();
    for (std::int64_t i = 0; i < s; ++i) {
      for (std::int64_t j = i + 1; j < s; ++j) psc[i * s + j] = -1e30f;
    }
    Tensor p = vocab::softmax_rows(scores);
    const Tensor ctx = vocab::matmul(p, va);
    for (std::int64_t i = 0; i < s; ++i) {
      const float* crow = ctx.data() + i * dh;
      float* orow = out.data() + i * h + c0;
      for (std::int64_t j = 0; j < dh; ++j) orow[j] = crow[j];
    }
    probs[static_cast<std::size_t>(a)] = std::move(p);
  }

  return make_node(std::move(out), {q, k, v},
                   [q, k, v, heads, dh, inv_sqrt, probs = std::move(probs)](Node& n) {
    // q/k/v are all activations: the whole closure is BI work.
    if (!wants(q) && !wants(k) && !wants(v)) return;
    const std::int64_t s = n.grad.dim(0), h = n.grad.dim(1);
    Tensor dq(q->value.shape()), dk(k->value.shape()), dv(v->value.shape());
    float* pdq = dq.data();
    float* pdk = dk.data();
    float* pdv = dv.data();
    for (int a = 0; a < heads; ++a) {
      const std::int64_t c0 = a * dh, c1 = c0 + dh;
      const Tensor qa = slice_cols(q->value, c0, c1);
      const Tensor ka = slice_cols(k->value, c0, c1);
      const Tensor va = slice_cols(v->value, c0, c1);
      const Tensor dout = slice_cols(n.grad, c0, c1);
      const Tensor& p = probs[static_cast<std::size_t>(a)];
      // dV = P^T dO ; dP = dO V^T
      const Tensor dva = vocab::matmul_tn(p, dout);
      const Tensor dp = vocab::matmul_nt(dout, va);
      // softmax backward: dS = P ⊙ (dP - rowsum(dP ⊙ P))
      Tensor ds({s, s});
      const float* pdp = dp.data();
      const float* pp = p.data();
      float* pds = ds.data();
      parallel::parallel_for(0, s, std::max<std::int64_t>(1, 4096 / s),
                             [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          double dot = 0.0;
          for (std::int64_t j = 0; j <= i; ++j) dot += static_cast<double>(pdp[i * s + j]) * pp[i * s + j];
          for (std::int64_t j = 0; j <= i; ++j) {
            pds[i * s + j] = pp[i * s + j] * (pdp[i * s + j] - static_cast<float>(dot)) * inv_sqrt;
          }
        }
      });
      const Tensor dqa = vocab::matmul(ds, ka);
      const Tensor dka = vocab::matmul_tn(ds, qa);
      const float* pdqa = dqa.data();
      const float* pdka = dka.data();
      const float* pdva = dva.data();
      for (std::int64_t i = 0; i < s; ++i) {
        const std::int64_t src = i * dh, dst = i * h + c0;
        for (std::int64_t j = 0; j < dh; ++j) {
          pdq[dst + j] += pdqa[src + j];
          pdk[dst + j] += pdka[src + j];
          pdv[dst + j] += pdva[src + j];
        }
      }
    }
    accumulate(q, dq);
    accumulate(k, dk);
    accumulate(v, dv);
  });
}

Var softmax_rows(const Var& a) {
  Tensor out = vocab::softmax_rows(a->value);
  Tensor saved = out;
  return make_node(std::move(out), {a}, [a, saved = std::move(saved)](Node& n) {
    if (!wants(a)) return;
    const std::int64_t m = n.grad.dim(0), c = n.grad.dim(1);
    Tensor da({m, c});
    const float* pg = n.grad.data();
    const float* psv = saved.data();
    float* pda = da.data();
    parallel::parallel_for(0, m, std::max<std::int64_t>(1, 4096 / c),
                           [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        double dot = 0.0;
        for (std::int64_t j = 0; j < c; ++j) dot += static_cast<double>(pg[i * c + j]) * psv[i * c + j];
        for (std::int64_t j = 0; j < c; ++j) {
          pda[i * c + j] = psv[i * c + j] * (pg[i * c + j] - static_cast<float>(dot));
        }
      }
    });
    add_inplace(a->ensure_grad(), da);
  });
}

Var sum_all(const Var& a) {
  Tensor out({1}, static_cast<float>(vocab::sum_all(a->value)));
  return make_node(std::move(out), {a}, [a](Node& n) {
    if (!wants(a)) return;
    Tensor da(a->value.shape(), n.grad.at(0));
    add_inplace(a->ensure_grad(), da);
  });
}

namespace {

/// Restore the traversal phase even if a closure throws.
struct PhaseScope {
  GradPhase saved;
  explicit PhaseScope(GradPhase phase) : saved(g_phase) { g_phase = phase; }
  ~PhaseScope() { g_phase = saved; }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
};

/// Shared reverse-mode walk. The topological order is a pure function of the
/// graph structure, so the input and weight passes visit nodes in the exact
/// same sequence — the property that makes the split bit-identical.
void run_backward(const Var& root, const Tensor* seed, GradPhase phase) {
  VOCAB_CHECK(root != nullptr, "backward on null var");
  // Iterative post-order topological sort.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack{{root.get(), 0}};
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->parents.size()) {
      Node* parent = node->parents[idx].get();
      ++idx;
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  PhaseScope scope(phase);
  if (seed) add_inplace(root->ensure_grad(), *seed);
  // Reverse topological order: children before parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && !node->grad.empty()) node->backward_fn(*node);
  }
}

}  // namespace

void backward(const Var& root, const Tensor& seed) {
  VOCAB_CHECK(root != nullptr, "backward on null var");
  VOCAB_CHECK(seed.same_shape(root->value), "seed shape must match root value");
  run_backward(root, &seed, GradPhase::kFull);
}

void backward(const Var& root) {
  backward(root, Tensor(root->value.shape(), 1.0f));
}

void backward_input(const Var& root, const Tensor& seed) {
  VOCAB_CHECK(root != nullptr, "backward_input on null var");
  VOCAB_CHECK(seed.same_shape(root->value), "seed shape must match root value");
  run_backward(root, &seed, GradPhase::kInput);
}

void backward_weight(const Var& root) {
  VOCAB_CHECK(root != nullptr, "backward_weight on null var");
  VOCAB_CHECK(!root->grad.empty(),
              "backward_weight requires a prior backward_input on the same tape");
  run_backward(root, nullptr, GradPhase::kWeight);
}

}  // namespace vocab::autograd
