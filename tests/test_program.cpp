// Tests for src/program: the schedule compiler (lowering to per-device
// bytecode), serialization with content hashing, and the static program
// verifier (translation validation — including a mutation suite asserting
// that every class of compiler bug is caught with the right check code, lane
// and pc).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "common/error.h"
#include "cost/cost_model.h"
#include "program/bytecode.h"
#include "program/compiler.h"
#include "program/program_verifier.h"
#include "runtime/schedule_executor.h"
#include "schedule/layer_assignment.h"
#include "schedule/schedule_1f1b.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "schedule/schedule_gpipe.h"
#include "schedule/schedule_vhalf.h"

namespace vocab {
namespace {

using program::CompiledProgram;
using program::Instr;
using program::Opcode;
using program::ProgramCheck;
using program::ProgramDiagnostic;

CostModel small_cost_model(int m) {
  ModelConfig mc;
  mc.num_layers = 8;
  mc.attention_heads = 2;
  mc.hidden = 32;
  mc.seq_len = 16;
  mc.vocab = 53;
  mc.microbatch = 1;
  mc.num_microbatches = m;
  return CostModel(mc, HardwareModel{});
}

/// Every shipped generator at test width, with the paper's peak-activation
/// closed form where one applies (< 0: none).
struct GenCase {
  PipelineSchedule schedule;
  double closed_form;
};

std::vector<GenCase> generator_cases(int p) {
  const CostModel cm = small_cost_model(2 * p);
  std::vector<GenCase> cases;
  cases.push_back({build_1f1b(cm, p, uniform_assignment(8, p)), static_cast<double>(p)});
  cases.push_back({build_1f1b_vocab(cm, p, OutputAlgo::Alg1), static_cast<double>(p + 2)});
  cases.push_back({build_1f1b_vocab(cm, p, OutputAlgo::Alg2), static_cast<double>(p + 1)});
  cases.push_back({build_gpipe(cm, p, uniform_assignment(8, p)), -1.0});
  cases.push_back({build_gpipe_vocab(cm, p, OutputAlgo::Alg1), -1.0});
  cases.push_back({build_gpipe_vocab(cm, p, OutputAlgo::Alg2), -1.0});
  cases.push_back({build_naive_vocab(cm, p, OutputAlgo::Alg1), 1.0});
  cases.push_back({build_naive_vocab(cm, p, OutputAlgo::Alg2), 1.0});
  cases.push_back({build_vhalf(cm, p), -1.0});
  cases.push_back({build_vhalf_vocab(cm, p), -1.0});
  return cases;
}

struct Site {
  int lane = -1;
  int pc = -1;
};

/// First instruction satisfying `pred`, scanning lanes in order.
template <typename Pred>
Site find_site(const CompiledProgram& prog, Pred pred) {
  for (int d = 0; d < prog.num_devices; ++d) {
    const auto& code = prog.lanes[static_cast<std::size_t>(d)];
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
      if (pred(code[pc])) return {d, static_cast<int>(pc)};
    }
  }
  return {};
}

const Instr& at(const CompiledProgram& prog, Site s) {
  return prog.lanes[static_cast<std::size_t>(s.lane)][static_cast<std::size_t>(s.pc)];
}

bool has_check(const std::vector<ProgramDiagnostic>& diags, ProgramCheck check) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const ProgramDiagnostic& d) { return d.check == check; });
}

const ProgramDiagnostic* find_check(const std::vector<ProgramDiagnostic>& diags,
                                    ProgramCheck check) {
  for (const auto& d : diags) {
    if (d.check == check) return &d;
  }
  return nullptr;
}

std::string render(const std::vector<ProgramDiagnostic>& diags) {
  return program::render_report(diags);
}

// ---------------------------------------------------------------------------
// Compiler units.
// ---------------------------------------------------------------------------

TEST(Compiler, CoversEveryKernelExactlyOnceOnItsDevice) {
  const PipelineSchedule s = build_1f1b_vocab(small_cost_model(8), 4, OutputAlgo::Alg2);
  const CompiledProgram prog = program::compile_schedule(s);
  ASSERT_EQ(prog.kernels.size(), s.ops.size());
  std::vector<int> seen(s.ops.size(), 0);
  const auto seqs = program::device_sequences(prog);
  for (int d = 0; d < prog.num_devices; ++d) {
    for (const int id : seqs[static_cast<std::size_t>(d)]) {
      ASSERT_GE(id, 0);
      ASSERT_LT(id, static_cast<int>(s.ops.size()));
      EXPECT_EQ(s.op(id).device, d);
      ++seen[static_cast<std::size_t>(id)];
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "kernel " << i;
  }
}

TEST(Compiler, EveryCrossDeviceEdgeGetsOneTokenPair) {
  const PipelineSchedule s = build_1f1b_vocab(small_cost_model(8), 4, OutputAlgo::Alg1);
  const CompiledProgram prog = program::compile_schedule(s);
  std::size_t cross_edges = 0;
  for (const Op& op : s.ops) {
    for (const int dep : op.deps) {
      if (s.op(dep).device != op.device) ++cross_edges;
    }
  }
  std::size_t sends = 0, recvs = 0;
  for (const auto& lane : prog.lanes) {
    for (const Instr& in : lane) {
      sends += in.op == Opcode::kSend;
      recvs += in.op == Opcode::kRecv;
    }
  }
  EXPECT_EQ(sends, cross_edges);
  EXPECT_EQ(recvs, cross_edges);
}

TEST(Compiler, ExecutorAndCompilerAgreeOnSequences) {
  const PipelineSchedule s = build_1f1b_vocab(small_cost_model(8), 4, OutputAlgo::Alg2);
  const ScheduleExecutor ex(s);
  const auto seqs = program::device_sequences(ex.program());
  for (int d = 0; d < s.num_devices; ++d) {
    EXPECT_EQ(ex.device_sequence(d), seqs[static_cast<std::size_t>(d)]) << "device " << d;
  }
}

TEST(Compiler, RejectsUncertifiedSchedule) {
  PipelineSchedule s = build_1f1b(small_cost_model(4), 2, uniform_assignment(8, 2));
  s.ops.front().deps.push_back(s.ops.back().id);  // dependency cycle
  EXPECT_THROW((void)program::compile_schedule(s), CheckError);
}

TEST(Compiler, DisassemblyNamesKernelsAndTokens) {
  const PipelineSchedule s = build_1f1b(small_cost_model(4), 2, uniform_assignment(8, 2));
  const CompiledProgram prog = program::compile_schedule(s);
  const std::string listing = program::disassemble(prog);
  EXPECT_NE(listing.find("CALL"), std::string::npos);
  EXPECT_NE(listing.find("RECV"), std::string::npos);
  EXPECT_NE(listing.find("SEND"), std::string::npos);
  EXPECT_NE(listing.find("HALT"), std::string::npos);
  EXPECT_NE(listing.find("[lane 1]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Translation validation: every generator's compiled output re-proves clean,
// and the paper's closed forms survive compilation.
// ---------------------------------------------------------------------------

TEST(ProgramVerifier, CleanOnEveryGeneratorWithClosedForms) {
  for (const int p : {2, 4}) {
    for (const GenCase& c : generator_cases(p)) {
      const CompiledProgram prog = program::compile_schedule(c.schedule);
      const std::vector<ProgramDiagnostic> diags =
          program::verify_program(prog, &c.schedule);
      EXPECT_TRUE(diags.empty())
          << c.schedule.name << " (p=" << p << "):\n" << render(diags);
      // The compiled artifact must carry the schedule verifier's answers...
      EXPECT_EQ(prog.expected_peak_microbatches,
                analysis::activation_peak_microbatches(c.schedule))
          << c.schedule.name;
      // ...and its own instruction streams must recompute them.
      const std::vector<double> recomputed =
          program::program_activation_peak_microbatches(prog);
      double peak = 0.0;
      for (const double x : recomputed) peak = std::max(peak, x);
      if (c.closed_form > 0) {
        EXPECT_DOUBLE_EQ(peak, c.closed_form)
            << c.schedule.name << " (p=" << p
            << "): the p/p+1/p+2 closed form must survive compilation";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation suite: every class of compiler bug must be caught with the right
// check code, lane and pc.
// ---------------------------------------------------------------------------

CompiledProgram mutation_subject() {
  return program::compile_schedule(
      build_1f1b_vocab(small_cost_model(8), 4, OutputAlgo::Alg2));
}

TEST(ProgramMutation, DroppedRecvIsCaughtAtTheOrphanedSend) {
  CompiledProgram prog = mutation_subject();
  const Site recv = find_site(prog, [](const Instr& i) { return i.op == Opcode::kRecv; });
  ASSERT_GE(recv.lane, 0);
  const int tag = at(prog, recv).a;
  const Site send =
      find_site(prog, [&](const Instr& i) { return i.op == Opcode::kSend && i.a == tag; });
  ASSERT_GE(send.lane, 0);
  auto& code = prog.lanes[static_cast<std::size_t>(recv.lane)];
  code.erase(code.begin() + recv.pc);

  const auto diags = program::verify_program(prog);
  const ProgramDiagnostic* d = find_check(diags, ProgramCheck::TagMatching);
  ASSERT_NE(d, nullptr) << render(diags);
  EXPECT_EQ(d->lane, send.lane);
  EXPECT_EQ(d->pc, send.pc);
  EXPECT_NE(d->message.find("never received"), std::string::npos) << d->message;
}

TEST(ProgramMutation, RetargetedSendIsCaughtAndDeadlocks) {
  CompiledProgram prog = mutation_subject();
  const Site send = find_site(prog, [](const Instr& i) { return i.op == Opcode::kSend; });
  ASSERT_GE(send.lane, 0);
  const int tag = at(prog, send).a;
  const Site recv =
      find_site(prog, [&](const Instr& i) { return i.op == Opcode::kRecv && i.a == tag; });
  ASSERT_GE(recv.lane, 0);
  // Post the token into a mailbox that is neither the true destination nor
  // the sender's own lane.
  Instr& s = prog.lanes[static_cast<std::size_t>(send.lane)][static_cast<std::size_t>(send.pc)];
  for (int d = 0; d < prog.num_devices; ++d) {
    if (d != recv.lane && d != send.lane) {
      s.b = d;
      break;
    }
  }

  const auto diags = program::verify_program(prog);
  const ProgramDiagnostic* tm = find_check(diags, ProgramCheck::TagMatching);
  ASSERT_NE(tm, nullptr) << render(diags);
  EXPECT_EQ(tm->lane, send.lane);
  EXPECT_EQ(tm->pc, send.pc);
  // The starved RECV is a real deadlock, found by the model check at its pc.
  bool recv_blocked = false;
  for (const auto& d : diags) {
    if (d.check == ProgramCheck::Deadlock && d.lane == recv.lane && d.pc == recv.pc) {
      recv_blocked = true;
    }
  }
  EXPECT_TRUE(recv_blocked) << render(diags);
}

TEST(ProgramMutation, DuplicatedSendIsCaughtAtTheDuplicate) {
  CompiledProgram prog = mutation_subject();
  const Site send = find_site(prog, [](const Instr& i) { return i.op == Opcode::kSend; });
  ASSERT_GE(send.lane, 0);
  auto& code = prog.lanes[static_cast<std::size_t>(send.lane)];
  code.insert(code.begin() + send.pc + 1, at(prog, send));

  const auto diags = program::verify_program(prog);
  const ProgramDiagnostic* d = find_check(diags, ProgramCheck::TagMatching);
  ASSERT_NE(d, nullptr) << render(diags);
  EXPECT_EQ(d->lane, send.lane);
  EXPECT_EQ(d->pc, send.pc + 1);
  EXPECT_NE(d->message.find("2 times"), std::string::npos) << d->message;
}

TEST(ProgramMutation, SwappedCollectivesBreakOrderAgreement) {
  CompiledProgram prog = mutation_subject();
  // Swap the first two collective instructions on lane 0; every other lane
  // still issues the shared groups in the original order.
  std::vector<int> coll_pcs;
  auto& code = prog.lanes[0];
  for (std::size_t pc = 0; pc < code.size() && coll_pcs.size() < 2; ++pc) {
    if (code[pc].op == Opcode::kColl) coll_pcs.push_back(static_cast<int>(pc));
  }
  ASSERT_EQ(coll_pcs.size(), 2u) << "subject schedule must have >= 2 collectives on lane 0";
  std::swap(code[static_cast<std::size_t>(coll_pcs[0])],
            code[static_cast<std::size_t>(coll_pcs[1])]);

  const auto diags = program::verify_program(prog);
  const ProgramDiagnostic* d = find_check(diags, ProgramCheck::CollectiveOrder);
  ASSERT_NE(d, nullptr) << render(diags);
  EXPECT_EQ(d->lane, 0);
  EXPECT_EQ(d->pc, coll_pcs[0]);
}

TEST(ProgramMutation, DroppedFreeUnbalancesTheLane) {
  CompiledProgram prog = mutation_subject();
  const Site free_site =
      find_site(prog, [](const Instr& i) { return i.op == Opcode::kFree; });
  ASSERT_GE(free_site.lane, 0);
  auto& code = prog.lanes[static_cast<std::size_t>(free_site.lane)];
  code.erase(code.begin() + free_site.pc);

  const auto diags = program::verify_program(prog);
  const ProgramDiagnostic* d = find_check(diags, ProgramCheck::MemoryBalance);
  ASSERT_NE(d, nullptr) << render(diags);
  EXPECT_EQ(d->lane, free_site.lane);
}

TEST(ProgramMutation, DroppedAllocDivergesFromThePeakProof) {
  CompiledProgram prog = mutation_subject();
  const Site alloc =
      find_site(prog, [](const Instr& i) { return i.op == Opcode::kAlloc; });
  ASSERT_GE(alloc.lane, 0);
  auto& code = prog.lanes[static_cast<std::size_t>(alloc.lane)];
  code.erase(code.begin() + alloc.pc);

  const auto diags = program::verify_program(prog);
  EXPECT_TRUE(has_check(diags, ProgramCheck::MemoryBalance)) << render(diags);
  const ProgramDiagnostic* peak = find_check(diags, ProgramCheck::PeakMemory);
  ASSERT_NE(peak, nullptr) << render(diags);
  EXPECT_EQ(peak->lane, alloc.lane);
}

TEST(ProgramMutation, DroppedCallIsAKernelCoverageHole) {
  CompiledProgram prog = mutation_subject();
  const Site call = find_site(prog, [](const Instr& i) { return i.op == Opcode::kCall; });
  ASSERT_GE(call.lane, 0);
  const int kid = at(prog, call).a;
  auto& code = prog.lanes[static_cast<std::size_t>(call.lane)];
  code.erase(code.begin() + call.pc);

  const auto diags = program::verify_program(prog);
  const ProgramDiagnostic* d = find_check(diags, ProgramCheck::KernelCoverage);
  ASSERT_NE(d, nullptr) << render(diags);
  EXPECT_EQ(d->lane, call.lane);
  ASSERT_FALSE(d->kernels.empty());
  EXPECT_EQ(d->kernels.front(), kid);
  EXPECT_NE(d->message.find("0 time(s)"), std::string::npos) << d->message;
}

TEST(ProgramMutation, ReorderedPassesViolateSemanticOrder) {
  // 1F1B has F and B of the same microbatch on the same compute lane.
  const PipelineSchedule s = build_1f1b(small_cost_model(8), 2, uniform_assignment(8, 2));
  CompiledProgram prog = program::compile_schedule(s);
  Site fwd{}, bwd{};
  for (int d = 0; d < prog.num_devices && bwd.lane < 0; ++d) {
    const auto& code = prog.lanes[static_cast<std::size_t>(d)];
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
      if (code[pc].op != Opcode::kCall) continue;
      const program::KernelMeta& k = prog.kernels[static_cast<std::size_t>(code[pc].a)];
      if (k.microbatch != 0 || k.chunk != 0) continue;
      if (k.kind == OpKind::Forward) fwd = {d, static_cast<int>(pc)};
      if (k.kind == OpKind::BackwardFull && fwd.lane == d) {
        bwd = {d, static_cast<int>(pc)};
        break;
      }
    }
  }
  ASSERT_GE(bwd.lane, 0);
  auto& code = prog.lanes[static_cast<std::size_t>(bwd.lane)];
  std::swap(code[static_cast<std::size_t>(fwd.pc)], code[static_cast<std::size_t>(bwd.pc)]);

  const auto diags = program::verify_program(prog);
  const ProgramDiagnostic* d = find_check(diags, ProgramCheck::SemanticOrder);
  ASSERT_NE(d, nullptr) << render(diags);
  EXPECT_EQ(d->lane, bwd.lane);
  EXPECT_EQ(d->pc, fwd.pc);  // the backward now dispatches at the forward's old pc
}

TEST(ProgramMutation, TamperedPeakMetadataIsAProofDivergence) {
  {
    CompiledProgram prog = mutation_subject();
    prog.expected_peak_microbatches[0] += 1.0;
    const auto diags = program::verify_program(prog);
    const ProgramDiagnostic* d = find_check(diags, ProgramCheck::PeakActivation);
    ASSERT_NE(d, nullptr) << render(diags);
    EXPECT_EQ(d->lane, 0);
  }
  {
    CompiledProgram prog = mutation_subject();
    prog.expected_peak_bytes[1] *= 2.0;
    const auto diags = program::verify_program(prog);
    const ProgramDiagnostic* d = find_check(diags, ProgramCheck::PeakMemory);
    ASSERT_NE(d, nullptr) << render(diags);
    EXPECT_EQ(d->lane, 1);
  }
}

TEST(ProgramMutation, UnrealizedDependencyNeedsTheSourceSchedule) {
  // Drop a RECV *and* its SEND: tags still match (both gone), no deadlock —
  // only the dependency-realization check against the source can see the
  // missing edge.
  const PipelineSchedule s = build_1f1b_vocab(small_cost_model(8), 4, OutputAlgo::Alg2);
  CompiledProgram prog = program::compile_schedule(s);
  const Site recv = find_site(prog, [](const Instr& i) { return i.op == Opcode::kRecv; });
  const int tag = at(prog, recv).a;
  const Site send =
      find_site(prog, [&](const Instr& i) { return i.op == Opcode::kSend && i.a == tag; });
  {
    auto& code = prog.lanes[static_cast<std::size_t>(recv.lane)];
    code.erase(code.begin() + recv.pc);
  }
  {
    auto& code = prog.lanes[static_cast<std::size_t>(send.lane)];
    code.erase(code.begin() + send.pc);
  }
  EXPECT_FALSE(has_check(program::verify_program(prog), ProgramCheck::SourceDep));
  const auto diags = program::verify_program(prog, &s);
  EXPECT_TRUE(has_check(diags, ProgramCheck::SourceDep)) << render(diags);
}

// ---------------------------------------------------------------------------
// Serialization: round trip, stable content hash, corruption detection.
// ---------------------------------------------------------------------------

TEST(ProgramSerialization, RoundTripPreservesProgramAndHash) {
  const CompiledProgram prog = mutation_subject();
  const std::vector<std::uint8_t> bytes = program::serialize(prog);
  const CompiledProgram back = program::deserialize(bytes);
  EXPECT_EQ(back, prog);
  EXPECT_EQ(program::content_hash(back), program::content_hash(prog));
  // Hashing and serialization are deterministic within a process...
  EXPECT_EQ(program::serialize(prog), bytes);
  // ...and recompilation of the same schedule reproduces the same artifact.
  const CompiledProgram again = program::compile_schedule(
      build_1f1b_vocab(small_cost_model(8), 4, OutputAlgo::Alg2));
  EXPECT_EQ(program::content_hash(again), program::content_hash(prog));
}

TEST(ProgramSerialization, DetectsCorruptionAndTruncation) {
  const CompiledProgram prog = mutation_subject();
  std::vector<std::uint8_t> bytes = program::serialize(prog);
  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_THROW((void)program::deserialize(corrupt), CheckError);
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + 40);
  EXPECT_THROW((void)program::deserialize(truncated), CheckError);
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW((void)program::deserialize(bad_magic), CheckError);
}

TEST(ProgramSerialization, SaveLoadVerifyExecuteRoundTrip) {
  const PipelineSchedule s = build_1f1b_vocab(small_cost_model(8), 4, OutputAlgo::Alg2);
  const ScheduleExecutor ex(s);
  const std::string path = testing::TempDir() + "vocab_roundtrip.vpb";
  program::save(ex.program(), path);
  const CompiledProgram loaded = program::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded, ex.program());
  const std::uint64_t hash = program::content_hash(ex.program());
  EXPECT_EQ(program::content_hash(loaded), hash);
  program::verify_program_or_throw(loaded, &s);

  // The *loaded* artifact dispatches exactly the sequences the executor
  // runs — compile → save → load → verify, with the hash proving it is the
  // same program end to end.
  const auto loaded_sequences = program::device_sequences(loaded);
  for (int d = 0; d < s.num_devices; ++d) {
    EXPECT_EQ(loaded_sequences[static_cast<std::size_t>(d)], ex.device_sequence(d))
        << "device " << d;
  }
}

TEST(ProgramSerialization, LoadedProgramForWrongScheduleIsRejected) {
  const PipelineSchedule a = build_1f1b_vocab(small_cost_model(8), 4, OutputAlgo::Alg2);
  const PipelineSchedule b = build_1f1b_vocab(small_cost_model(8), 4, OutputAlgo::Alg1);
  EXPECT_FALSE(program::verify_program(program::compile_schedule(b), &a).empty());
}

}  // namespace
}  // namespace vocab
