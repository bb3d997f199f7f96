#include "schedule/schedule_gpipe.h"

#include <numeric>

#include "common/error.h"
#include "schedule/builder.h"

namespace vocab {

PipelineSchedule build_gpipe(const CostModel& cm, int p, const LayerAssignment& assign,
                             const std::string& name) {
  VOCAB_CHECK(assign.num_stages() == p, "assignment/stage mismatch");
  const int m = cm.config().num_microbatches;
  ScheduleBuilder b(name, p, m);

  std::vector<double> tF(static_cast<std::size_t>(p)), tB(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    const int layers = assign.layers_per_stage[static_cast<std::size_t>(d)];
    tF[static_cast<std::size_t>(d)] = cm.time_f(layers);
    tB[static_cast<std::size_t>(d)] = cm.time_b_full(layers);
    if (d == 0 && assign.input_on_first) {
      tF[static_cast<std::size_t>(d)] += cm.time_input_fwd_full();
      tB[static_cast<std::size_t>(d)] += cm.time_input_bwd_full();
    }
    if (d == p - 1 && assign.output_on_last) {
      tF[static_cast<std::size_t>(d)] += cm.time_output_fwd_full();
      tB[static_cast<std::size_t>(d)] += cm.time_output_bwd_full();
    }
  }

  std::vector<std::vector<int>> f_ids(static_cast<std::size_t>(m),
                                      std::vector<int>(static_cast<std::size_t>(p), -1));
  std::vector<std::vector<int>> b_ids = f_ids;
  for (int mb = 0; mb < m; ++mb) {
    for (int d = 0; d < p; ++d) {
      Op op;
      op.device = d;
      op.kind = OpKind::Forward;
      op.microbatch = mb;
      op.duration = tF[static_cast<std::size_t>(d)];
      op.label = "F" + std::to_string(mb);
      op.alloc_bytes =
          cm.activation_bytes_per_mb(assign.layers_per_stage[static_cast<std::size_t>(d)]);
      if (d == p - 1 && assign.output_on_last) op.alloc_bytes += cm.output_full_transient_bytes();
      if (d > 0) op.deps.push_back(f_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d - 1)]);
      f_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d)] =
          b.add(std::move(op), static_cast<double>(mb));
    }
  }
  // Backward phase, newest microbatch first (LIFO, as in GPipe).
  for (int mb = m - 1; mb >= 0; --mb) {
    for (int d = p - 1; d >= 0; --d) {
      Op op;
      op.device = d;
      op.kind = OpKind::BackwardFull;
      op.microbatch = mb;
      op.duration = tB[static_cast<std::size_t>(d)];
      op.label = "B" + std::to_string(mb);
      op.free_bytes =
          cm.activation_bytes_per_mb(assign.layers_per_stage[static_cast<std::size_t>(d)]);
      if (d == p - 1 && assign.output_on_last) op.free_bytes += cm.output_full_transient_bytes();
      op.deps.push_back(f_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d)]);
      if (d < p - 1) op.deps.push_back(b_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d + 1)]);
      b_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d)] =
          b.add(std::move(op), static_cast<double>(m + (m - 1 - mb)));
    }
  }

  std::vector<double> base(static_cast<std::size_t>(p), 0.0);
  for (int d = 0; d < p; ++d) {
    base[static_cast<std::size_t>(d)] =
        assign.layers_per_stage[static_cast<std::size_t>(d)] * cm.transformer_layer_param_bytes();
  }
  if (assign.input_on_first) base[0] += cm.vocab_layer_param_bytes();
  if (assign.output_on_last) base[static_cast<std::size_t>(p - 1)] += cm.vocab_layer_param_bytes();
  return b.finalize(std::move(base));
}

PipelineSchedule build_gpipe_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                   const std::string& name) {
  VOCAB_CHECK(algo == OutputAlgo::Alg1 || algo == OutputAlgo::Alg2,
              "vocabulary-parallel schedules use Alg1 or Alg2");
  VOCAB_CHECK(p >= 2, "vocabulary parallelism needs >= 2 devices");
  const int m = cm.config().num_microbatches;
  const LayerAssignment assign = uniform_assignment(cm.config().num_layers, p);
  const int layers = assign.layers_per_stage[0];
  const std::string sched_name =
      name.empty() ? std::string("gpipe-") + to_string(algo) : name;
  ScheduleBuilder b(sched_name, p, m);

  const double tF = cm.time_f(layers);
  const double tB = cm.time_b_full(layers);
  const double tS = cm.time_output_s(algo, p);
  const double tT = cm.time_output_t(algo, p);
  const double tIF = cm.time_input_shard_fwd(p);
  const double tIB = cm.time_input_shard_bwd(p);
  const double act = cm.activation_bytes_per_mb(layers);
  const double out_state = cm.output_shard_state_bytes(algo, p);
  const double in_state = cm.activation_bytes();

  std::vector<int> all_devices(static_cast<std::size_t>(p));
  std::iota(all_devices.begin(), all_devices.end(), 0);

  std::vector<std::vector<int>> f_ids(static_cast<std::size_t>(m),
                                      std::vector<int>(static_cast<std::size_t>(p), -1));
  std::vector<std::vector<int>> b_ids = f_ids;
  std::vector<std::vector<int>> grad_gate(static_cast<std::size_t>(m));  // per-device gate for B(last)

  for (int mb = 0; mb < m; ++mb) {
    // Input forward (one slot ahead of F(mb)) + all-reduce on its own stream.
    std::vector<int> if_ids(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      Op op;
      op.device = d;
      op.kind = OpKind::InputFwd;
      op.microbatch = mb;
      op.duration = tIF;
      op.label = "i" + std::to_string(mb);
      op.alloc_bytes = in_state;
      // A pipeline-depth ahead: the last devices' lanes are paced by the
      // forward wave, so an i issued just one slot early would chain every
      // microbatch's F(., 0) to the previous wave's completion.
      if_ids[static_cast<std::size_t>(d)] = b.add(std::move(op), mb - p - 0.8);
    }
    std::vector<std::vector<int>> iar_deps(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) iar_deps[static_cast<std::size_t>(d)] = {if_ids[static_cast<std::size_t>(d)]};
    const std::vector<int> iar =
        b.add_collective(all_devices, Stream::CommAlt, cm.time_input_allreduce(p), mb,
                         "iAR" + std::to_string(mb), iar_deps, mb - p - 0.7);

    for (int d = 0; d < p; ++d) {
      Op op;
      op.device = d;
      op.kind = OpKind::Forward;
      op.microbatch = mb;
      op.duration = tF;
      op.label = "F" + std::to_string(mb);
      op.alloc_bytes = act;
      op.deps.push_back(d == 0 ? iar[0]
                               : f_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d - 1)]);
      f_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d)] =
          b.add(std::move(op), static_cast<double>(mb));
    }
    for (int d = 0; d < p; ++d) {
      b.add_free(d == 0 ? f_ids[static_cast<std::size_t>(mb)][0] : iar[static_cast<std::size_t>(d)],
                 in_state);
    }

    // Output layer: C0 broadcast, S; then the barriers. C0(mb) completes
    // only after the forward wave reaches the last stage (~p slots after
    // F(mb, 0)), so S must be *issued* p slots later too — otherwise the
    // in-order lane would stall the whole forward phase on every S.
    std::vector<std::vector<int>> c0_deps(
        static_cast<std::size_t>(p), {f_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(p - 1)]});
    const std::vector<int> c0 =
        b.add_collective(all_devices, Stream::Comm, cm.time_x_broadcast(p), mb,
                         "C0." + std::to_string(mb), c0_deps, mb + p + 0.1);
    std::vector<int> s_ids(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      Op op;
      op.device = d;
      op.kind = OpKind::OutputS;
      op.microbatch = mb;
      op.duration = tS;
      op.label = "S" + std::to_string(mb);
      op.alloc_bytes = out_state;
      op.deps.push_back(c0[static_cast<std::size_t>(d)]);
      s_ids[static_cast<std::size_t>(d)] = b.add(std::move(op), mb + p + 0.2);
    }
    std::vector<std::vector<int>> c1_deps(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) c1_deps[static_cast<std::size_t>(d)] = {s_ids[static_cast<std::size_t>(d)]};
    const double c1_time = algo == OutputAlgo::Alg1
                               ? cm.time_stats_allreduce(p)
                               : cm.time_stats_allreduce(p) + cm.time_gradx_allreduce(p);
    const std::vector<int> c1 =
        b.add_collective(all_devices, Stream::Comm, c1_time, mb, "C1." + std::to_string(mb),
                         c1_deps, mb + p + 0.3);

    std::vector<int> t_ids(static_cast<std::size_t>(p));
    auto make_t = [&](double slot) {
      for (int d = 0; d < p; ++d) {
        Op op;
        op.device = d;
        op.kind = OpKind::OutputT;
        op.microbatch = mb;
        op.duration = tT;
        op.label = "T" + std::to_string(mb);
        op.free_bytes = out_state;
        op.deps.push_back(c1[static_cast<std::size_t>(d)]);
        t_ids[static_cast<std::size_t>(d)] = b.add(std::move(op), slot);
      }
    };
    grad_gate[static_cast<std::size_t>(mb)].resize(static_cast<std::size_t>(p));
    if (algo == OutputAlgo::Alg1) {
      make_t(mb + p + 1.2);
      std::vector<std::vector<int>> c2_deps(static_cast<std::size_t>(p));
      for (int d = 0; d < p; ++d) c2_deps[static_cast<std::size_t>(d)] = {t_ids[static_cast<std::size_t>(d)]};
      grad_gate[static_cast<std::size_t>(mb)] =
          b.add_collective(all_devices, Stream::Comm, cm.time_gradx_allreduce(p), mb,
                           "C2." + std::to_string(mb), c2_deps, mb + p + 1.3);
    } else {
      make_t(mb + p + 1.2);
      grad_gate[static_cast<std::size_t>(mb)] = c1;
    }
  }

  // Backward phase in microbatch order, B(mb, p-1) gated on the gradient
  // barrier. Every device then accumulates its weight gradients in the same
  // order as 1F1B-vocab and the zero-bubble family, so all of them compute
  // the same bits.
  for (int mb = 0; mb < m; ++mb) {
    for (int d = p - 1; d >= 0; --d) {
      Op op;
      op.device = d;
      op.kind = OpKind::BackwardFull;
      op.microbatch = mb;
      op.duration = tB;
      op.label = "B" + std::to_string(mb);
      op.free_bytes = act;
      op.deps.push_back(f_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d)]);
      op.deps.push_back(d == p - 1
                            ? grad_gate[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d)]
                            : b_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d + 1)]);
      // The backward phase begins only after the last microbatches' S/T
      // slots (mb + p + ...), hence the m + p + 3 base.
      b_ids[static_cast<std::size_t>(mb)][static_cast<std::size_t>(d)] =
          b.add(std::move(op), static_cast<double>(m + p + 3 + mb));
    }
    // Input backward rides behind B(mb, 0).
    std::vector<std::vector<int>> ibb_deps(static_cast<std::size_t>(p),
                                           {b_ids[static_cast<std::size_t>(mb)][0]});
    const std::vector<int> ibb =
        b.add_collective(all_devices, Stream::CommAlt, cm.time_x_broadcast(p), mb,
                         "jBC" + std::to_string(mb), ibb_deps,
                         m + 2 * p + 3 + mb + 0.5);
    for (int d = 0; d < p; ++d) {
      Op op;
      op.device = d;
      op.kind = OpKind::InputBwd;
      op.microbatch = mb;
      op.duration = tIB;
      op.label = "j" + std::to_string(mb);
      op.deps.push_back(ibb[static_cast<std::size_t>(d)]);
      // A pipeline-depth behind its own B wave: jBC(mb) completes only when
      // B(mb, 0) retires, so an earlier slot would serialize the B waves.
      b.add(std::move(op), m + 2 * p + 3 + mb + 0.8);
    }
  }

  std::vector<double> base_bytes(static_cast<std::size_t>(p),
                                 layers * cm.transformer_layer_param_bytes() +
                                     2.0 * cm.vocab_shard_param_bytes(p));
  return b.finalize(std::move(base_bytes));
}

PipelineSchedule build_naive_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                   const std::string& name) {
  VOCAB_CHECK(algo == OutputAlgo::Alg1 || algo == OutputAlgo::Alg2,
              "vocabulary-parallel schedules use Alg1 or Alg2");
  const int m = cm.config().num_microbatches;
  const int layers = uniform_assignment(cm.config().num_layers, p).layers_per_stage[0];
  ScheduleBuilder b(name.empty() ? std::string("naive-") + to_string(algo) : name, p, m);
  const auto P = static_cast<std::size_t>(p);

  const double act = cm.activation_bytes_per_mb(layers);
  const double out_state = cm.output_shard_state_bytes(algo, p);
  const double in_state = cm.activation_bytes();
  const double c1_time = algo == OutputAlgo::Alg1
                             ? cm.time_stats_allreduce(p)
                             : cm.time_stats_allreduce(p) + cm.time_gradx_allreduce(p);

  std::vector<int> all_devices(P);
  std::iota(all_devices.begin(), all_devices.end(), 0);

  // Step k of microbatch mb issues at slot 16 mb + k, so every lane runs
  // mb's ops strictly before mb + 1's.
  const auto slot = [](int mb, int step) { return 16.0 * mb + step; };
  const auto pass = [&](int d, OpKind kind, int mb, int step, double duration,
                        const std::string& label, std::vector<int> deps, double alloc,
                        double free) {
    Op op;
    op.device = d;
    op.kind = kind;
    op.microbatch = mb;
    op.duration = duration;
    op.label = label;
    op.deps = std::move(deps);
    op.alloc_bytes = alloc;
    op.free_bytes = free;
    return b.add(std::move(op), slot(mb, step));
  };
  // A collective over every device, member d depending on deps[d]. A group
  // needs >= 2 members, so a single device issues one ungrouped op instead.
  const auto collective = [&](Stream stream, double duration, int mb, int step,
                              const std::string& label, const std::vector<int>& deps) {
    if (p == 1) {
      Op op;
      op.stream = stream;
      op.kind = OpKind::Collective;
      op.microbatch = mb;
      op.duration = duration;
      op.label = label;
      op.deps = deps;
      return std::vector<int>{b.add(std::move(op), slot(mb, step))};
    }
    std::vector<std::vector<int>> member_deps(P);
    for (std::size_t d = 0; d < P; ++d) member_deps[d] = {deps[d]};
    return b.add_collective(all_devices, stream, duration, mb, label, member_deps,
                            slot(mb, step));
  };

  for (int mb = 0; mb < m; ++mb) {
    const std::string n = std::to_string(mb);
    std::vector<int> i_ids(P), f_ids(P), s_ids(P), t_ids(P), b_ids(P);
    for (std::size_t d = 0; d < P; ++d) {
      i_ids[d] = pass(static_cast<int>(d), OpKind::InputFwd, mb, 0, cm.time_input_shard_fwd(p),
                      "i" + n, {}, in_state, 0.0);
    }
    const std::vector<int> iar =
        collective(Stream::CommAlt, cm.time_input_allreduce(p), mb, 1, "iAR" + n, i_ids);
    for (std::size_t d = 0; d < P; ++d) {
      f_ids[d] = pass(static_cast<int>(d), OpKind::Forward, mb, 2, cm.time_f(layers), "F" + n,
                      {d == 0 ? iar[0] : f_ids[d - 1]}, act, 0.0);
      // Device 0's F consumes the all-reduced embedding; the others drop it.
      b.add_free(d == 0 ? f_ids[0] : iar[d], in_state);
    }
    const std::vector<int> c0 = collective(Stream::Comm, cm.time_x_broadcast(p), mb, 3,
                                           "C0." + n, std::vector<int>(P, f_ids[P - 1]));
    for (std::size_t d = 0; d < P; ++d) {
      s_ids[d] = pass(static_cast<int>(d), OpKind::OutputS, mb, 4, cm.time_output_s(algo, p),
                      "S" + n, {c0[d]}, out_state, 0.0);
    }
    const std::vector<int> c1 = collective(Stream::Comm, c1_time, mb, 5, "C1." + n, s_ids);
    for (std::size_t d = 0; d < P; ++d) {
      t_ids[d] = pass(static_cast<int>(d), OpKind::OutputT, mb, 6, cm.time_output_t(algo, p),
                      "T" + n, {c1[d]}, 0.0, out_state);
    }
    // B(mb, p-1) waits on the barrier that completes grad_x.
    const std::vector<int> grad_gate =
        algo == OutputAlgo::Alg1
            ? collective(Stream::Comm, cm.time_gradx_allreduce(p), mb, 7, "C2." + n, t_ids)
            : c1;
    for (std::size_t d = P; d-- > 0;) {
      b_ids[d] = pass(static_cast<int>(d), OpKind::BackwardFull, mb, 8, cm.time_b_full(layers),
                      "B" + n, {f_ids[d], d == P - 1 ? grad_gate[d] : b_ids[d + 1]}, 0.0, act);
    }
    const std::vector<int> jbc = collective(Stream::CommAlt, cm.time_x_broadcast(p), mb, 9,
                                            "jBC" + n, std::vector<int>(P, b_ids[0]));
    for (std::size_t d = 0; d < P; ++d) {
      pass(static_cast<int>(d), OpKind::InputBwd, mb, 10, cm.time_input_shard_bwd(p), "j" + n,
           {jbc[d]}, 0.0, 0.0);
    }
  }

  std::vector<double> base_bytes(P, layers * cm.transformer_layer_param_bytes() +
                                        2.0 * cm.vocab_shard_param_bytes(p));
  return b.finalize(std::move(base_bytes));
}

}  // namespace vocab
