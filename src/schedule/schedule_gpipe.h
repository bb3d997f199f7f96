#pragma once

// GPipe (Huang et al. 2019) schedule generator, with and without Vocabulary
// Parallelism — a demonstration of the paper's claim that the S/T-pass
// integration "is naturally generalizable to other schedules" beyond 1F1B
// and V-Half.
//
// GPipe runs all forwards, then all backwards; activation memory is O(m)
// microbatches, which is why 1F1B superseded it — but its simplicity makes
// the vocabulary-pass insertion particularly transparent: every S runs
// during the forward phase as soon as C0 delivers X, and T/C2 stream during
// the backward phase.
//
// The naive schedule is the degenerate end of the same family: one
// microbatch in flight at a time, so the runtime executes the synchronous
// baseline through the same executor as every pipelined schedule.

#include <string>

#include "core/output_layer_shard.h"
#include "cost/cost_model.h"
#include "schedule/layer_assignment.h"
#include "schedule/ops.h"

namespace vocab {

/// Plain GPipe: vocabulary layers whole on the first/last stages.
PipelineSchedule build_gpipe(const CostModel& cm, int p, const LayerAssignment& assign,
                             const std::string& name = "gpipe");

/// GPipe + Vocabulary Parallelism (Alg1 or Alg2).
PipelineSchedule build_gpipe_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                   const std::string& name = "");

/// Synchronous Vocabulary Parallelism (Alg1 or Alg2), no pipelining. Per
/// microbatch every device issues i, iAR, F, C0, S, C1, T, [C2 for Alg1], B,
/// jBC, j, and microbatch mb + 1 starts only after mb's input backward, so
/// the peak activation memory is one microbatch. Runs at any p >= 1; at
/// p = 1 each collective is a single ungrouped Collective op, since a
/// collective group needs >= 2 members.
PipelineSchedule build_naive_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                   const std::string& name = "");

}  // namespace vocab
