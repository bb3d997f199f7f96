#pragma once

// Static verifier over compiled bytecode programs — the translation-
// validation half of the schedule compiler.
//
// The schedule-level verifier (src/analysis) proves the invariants of the
// *source* IR; this pass re-decides them, independently, on the *compiled
// artifact*, so the compiler itself never has to be trusted: every program
// is re-proven before it may be interpreted, and any divergence between the
// two proofs is by construction a compiler bug (reported with lane + pc +
// kernel ids). Checks, each a per-lane abstract interpretation or a static
// scan of the instruction streams:
//
//   (a) shape — lane/operand ranges, one terminal HALT per lane, every
//       kernel executed exactly once on its own device's lane, collective
//       instructions consistent with the kernel table's groups;
//   (b) tag matching — every RECV has exactly one matching SEND whose
//       destination is the receiving lane (and vice versa): no orphaned
//       mailbox tokens, no duplicate tags, no self-sends;
//   (c) deadlock-freedom — a model check of the blocking ops: advance all
//       lane program counters greedily under the instruction semantics
//       (SEND asynchronous, RECV blocks on its token, COLL/BARRIER
//       rendezvous). All blocking conditions are monotone — a posted token
//       stays posted, rendezvous arrivals only accumulate — so execution is
//       confluent and one maximal greedy run decides reachability of the
//       all-HALT state: if any lane is left blocked, that wait-for state
//       *is* a real deadlock, independent of the schedule-level acyclicity
//       proof;
//   (d) collective order — every pair of lanes issues their shared
//       collective groups in the same relative order (the NCCL discipline);
//   (e) memory — per-lane ALLOC/FREE balance; a byte-accurate peak scan of
//       the instruction stream that must equal the compiler's source-level
//       answer; and a recomputation of the paper's peak-activation closed
//       form (p / p+1 / p+2 microbatches) from kernel metadata that must
//       equal the schedule verifier's symbolic scan;
//   (f) semantic order — F before B/BI, BI before BW, S before T, input
//       fwd/bwd bracketing, re-decided per (lane, microbatch) on the CALL
//       streams;
//   (g) source deps (optional, given the source schedule) — every
//       dependency edge of the schedule is realized in the program: by lane
//       order when intra-device, by a SEND/RECV token pair when cross-
//       device.

#include <string>
#include <vector>

#include "analysis/verifier.h"  // Severity
#include "program/bytecode.h"

namespace vocab::program {

/// Which program invariant a diagnostic belongs to (stable codes).
enum class ProgramCheck {
  Shape,            ///< malformed lane/operands/HALT discipline
  KernelCoverage,   ///< kernel missing, duplicated, or on the wrong lane
  CollectiveShape,  ///< COLL instruction inconsistent with the kernel table
  TagMatching,      ///< orphaned / duplicated / mistargeted SEND-RECV tokens
  Deadlock,         ///< blocked wait-for state reachable under interpretation
  CollectiveOrder,  ///< lanes disagree on shared collective order
  MemoryBalance,    ///< per-lane ALLOC and FREE totals diverge
  PeakMemory,       ///< instruction-stream peak bytes != compiler's source answer
  PeakActivation,   ///< closed-form recomputation != schedule verifier's answer
  SemanticOrder,    ///< per-microbatch pass ordering violated in a CALL stream
  SourceDep,        ///< a schedule dependency edge is not realized in the program
};

[[nodiscard]] const char* to_string(ProgramCheck c);

/// One finding. `lane`/`pc` locate the primary offending instruction
/// (-1 when the finding is lane-wide or program-wide); `kernels` lists
/// implicated kernel ids (primary first).
struct ProgramDiagnostic {
  analysis::Severity severity = analysis::Severity::Error;
  ProgramCheck check = ProgramCheck::Shape;
  int lane = -1;
  int pc = -1;
  std::vector<int> kernels;
  std::string message;
  std::string hint;
};

[[nodiscard]] std::string to_string(const ProgramDiagnostic& d);

/// Multi-line report, one diagnostic per line; empty string when clean.
[[nodiscard]] std::string render_report(const std::vector<ProgramDiagnostic>& diags);

struct VerifyProgramOptions {
  /// Relative tolerance for the per-lane ALLOC/FREE balance check.
  double memory_balance_rtol = 1e-9;
  /// Relative tolerance for the instruction-stream peak-bytes check against
  /// the compiler's source-level answer (same summation order on both
  /// sides, so divergence beyond rounding is a real bug).
  double peak_bytes_rtol = 1e-9;
  /// Absolute tolerance for the peak-activation closed-form recomputation.
  double peak_microbatch_atol = 1e-6;
};

/// Run every check; returns all findings (empty == the program is certified).
/// Pass the source schedule to additionally run the dependency-realization
/// check (g) — the strongest translation-validation obligation.
[[nodiscard]] std::vector<ProgramDiagnostic> verify_program(
    const CompiledProgram& prog, const PipelineSchedule* source = nullptr,
    const VerifyProgramOptions& options = {});

/// Throw CheckError with the rendered report if verify_program finds any
/// Error-severity diagnostic.
void verify_program_or_throw(const CompiledProgram& prog,
                             const PipelineSchedule* source = nullptr,
                             const VerifyProgramOptions& options = {});

/// The closed-form recomputation by itself: peak activation memory per
/// lane, in microbatches of lifespan, derived from the compiled CALL
/// streams' kernel metadata (the program-level mirror of
/// analysis::activation_peak_microbatches).
[[nodiscard]] std::vector<double> program_activation_peak_microbatches(
    const CompiledProgram& prog);

}  // namespace vocab::program
