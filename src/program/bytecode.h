#pragma once

// Per-device bytecode programs compiled from certified PipelineSchedules.
//
// A CompiledProgram is the executable artifact of one schedule: one flat
// instruction lane per device, read top-to-bottom with no dependency graph
// left to walk. The op set is deliberately tiny —
//
//   CALL k          dispatch kernel k (a transformer/vocab pass) on this lane
//   SEND t -> d     post completion token t into device d's mailbox (async)
//   RECV t          block until token t is in this lane's mailbox
//   COLL g, k       rendezvous collective group g, dispatching kernel k
//   ALLOC k, bytes  account bytes reserved when kernel k starts
//   FREE  k, bytes  account bytes released when kernel k ends
//   BARRIER b       block until every lane reached barrier b
//   HALT            end of lane
//
// — so programs serialize to a few KB with a stable content hash, and — the
// point of the exercise — a *second*, independent verifier
// (program_verifier.h) can re-decide the schedule invariants directly on
// this artifact, making the compiler translation-validated instead of
// trusted.
//
// Kernel ids are the source schedule's op ids: the kernels table carries a
// semantic snapshot (kind, device, stream, microbatch, chunk, memory deltas)
// of every op, which is all the program verifier consumes; the executor
// runs the per-device kernel-id sequences (device_sequences) it compiles.

#include <cstdint>
#include <string>
#include <vector>

#include "schedule/ops.h"

namespace vocab::program {

enum class Opcode : std::uint8_t {
  kCall = 0,
  kSend = 1,
  kRecv = 2,
  kColl = 3,
  kAlloc = 4,
  kFree = 5,
  kBarrier = 6,
  kHalt = 7,
};

[[nodiscard]] const char* to_string(Opcode op);

/// One bytecode instruction. Operand meaning by opcode:
///   kCall     a = kernel id
///   kSend     a = token tag, b = destination lane
///   kRecv     a = token tag, b = source lane (informational; the verifier
///             cross-checks it against the SEND that posts the tag)
///   kColl     a = collective group id, b = kernel id
///   kAlloc    a = kernel id, bytes = bytes reserved
///   kFree     a = kernel id, bytes = bytes released
///   kBarrier  a = barrier id
///   kHalt     (no operands)
struct Instr {
  Opcode op = Opcode::kHalt;
  std::int32_t a = -1;
  std::int32_t b = -1;
  double bytes = 0.0;

  [[nodiscard]] bool operator==(const Instr& other) const = default;
};

/// Semantic snapshot of one source op, indexed by kernel id (== Op::id).
struct KernelMeta {
  OpKind kind = OpKind::Sync;
  int device = 0;
  Stream stream = Stream::Compute;
  int microbatch = -1;
  int chunk = 0;
  int collective = -1;
  double duration = 0.0;
  double alloc_bytes = 0.0;
  double free_bytes = 0.0;
  std::string label;

  [[nodiscard]] bool operator==(const KernelMeta& other) const = default;
};

/// A compiled schedule: one instruction lane per device plus the metadata
/// the program verifier re-proves invariants against. The expected_* fields
/// are the schedule-level verifier's answers (computed on the *source* IR,
/// not on the instruction stream); the program verifier recomputes the same
/// quantities from the compiled artifact and any divergence is, by
/// construction, a compiler bug.
struct CompiledProgram {
  std::string schedule_name;
  int num_devices = 0;
  int num_microbatches = 0;
  std::vector<KernelMeta> kernels;          ///< indexed by kernel id
  std::vector<std::vector<Instr>> lanes;    ///< one program per device
  std::vector<double> base_bytes;           ///< resident bytes per device
  /// Peak transient bytes per device of the projected source op sequence
  /// (alloc at op start, free at op end), computed over Op structs.
  std::vector<double> expected_peak_bytes;
  /// analysis::activation_peak_microbatches of the source schedule — the
  /// paper's p / p+1 / p+2 closed forms for the vocabulary schedules.
  std::vector<double> expected_peak_microbatches;

  [[nodiscard]] std::size_t total_instructions() const {
    std::size_t n = 0;
    for (const auto& lane : lanes) n += lane.size();
    return n;
  }

  [[nodiscard]] bool operator==(const CompiledProgram& other) const = default;
};

/// Human-readable listing of one lane / the whole program, one instruction
/// per line with pc, opcode, operands and the kernel label where applicable:
///   [lane 2] 0017  RECV  tag 41 <- lane 1
///   [lane 2] 0018  CALL  F3 (kernel 57, Forward mb 3)
[[nodiscard]] std::string disassemble(const CompiledProgram& prog, int lane);
[[nodiscard]] std::string disassemble(const CompiledProgram& prog);

/// Deterministic 64-bit FNV-1a content hash over the serialized payload.
/// Identical program => identical hash across processes and runs; used for
/// cross-run caching and to prove a loaded artifact is the compiled one.
[[nodiscard]] std::uint64_t content_hash(const CompiledProgram& prog);

/// Serialization ("VPB1" container: magic, version, payload hash, payload).
/// deserialize/load verify the embedded hash and throw CheckError on any
/// truncation, corruption or version mismatch.
[[nodiscard]] std::vector<std::uint8_t> serialize(const CompiledProgram& prog);
[[nodiscard]] CompiledProgram deserialize(const std::vector<std::uint8_t>& bytes);
void save(const CompiledProgram& prog, const std::string& path);
[[nodiscard]] CompiledProgram load(const std::string& path);

}  // namespace vocab::program
