// schedule_lint: run the static schedule verifier over every generator ×
// (p, vocabulary) configuration and print a diagnostics table — the CLI
// face of src/analysis and src/program. A clean run certifies, without
// simulating, that every shipped schedule is deadlock-free, semantically
// ordered, memory balanced, and that the vocabulary schedules hold the
// paper's peak activation closed forms (p / p+1 / p+2 microbatches; 1 for
// the synchronous naive schedule).
//
//   ./build/bench/schedule_lint            # table + nonzero exit on findings
//   ./build/bench/schedule_lint --csv      # machine-readable table
//   ./build/bench/schedule_lint --json     # machine-readable diagnostics
//   ./build/bench/schedule_lint --strict-streams   # also warn on sync
//                                          # collectives (flags interlaced)
//   ./build/bench/schedule_lint --compile  # lower every certified schedule
//                                          # to per-device bytecode (adds
//                                          # instruction-count/hash columns)
//   ./build/bench/schedule_lint --compile --verify-program
//                                          # translation validation: re-prove
//                                          # every invariant on the compiled
//                                          # artifact; nonzero exit on any
//                                          # program diagnostic
//   ./build/bench/schedule_lint --compile --disasm
//                                          # print each program's listing
//   ./build/bench/schedule_lint --search   # cost-model-driven schedule search
//                                          # over the Table-1 presets: ranked
//                                          # candidate table (predicted
//                                          # makespan/bubble/peak + winner);
//                                          # nonzero exit if any ranked
//                                          # schedule fails certification
//
// --json document shape (stable field names, one object per case):
//   {
//     "cases": [
//       {
//         "schedule": "<name>", "p": N, "vocab": N, "ops": N,
//         "peak_microbatches": X, "status": "ok|warn|FAIL",
//         "errors": N, "warnings": N,
//         "diagnostics": [
//           {"severity": "error|warning", "check": "<check-code>",
//            "ops": [ids...], "message": "..."}
//         ],
//         // present with --compile:
//         "program": {
//           "instructions": N, "content_hash": "<16 hex digits>",
//           // present with --verify-program:
//           "errors": N,
//           "diagnostics": [
//             {"severity": "...", "check": "<check-code>", "lane": N,
//              "pc": N, "kernels": [ids...], "message": "..."}
//           ]
//         }
//       }
//     ],
//     "total_errors": N, "total_warnings": N
//   }

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "common/table.h"
#include "cost/cost_model.h"
#include "program/bytecode.h"
#include "program/compiler.h"
#include "program/program_verifier.h"
#include "schedule/layer_assignment.h"
#include "schedule/ops.h"
#include "schedule/schedule_1f1b.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "schedule/schedule_gpipe.h"
#include "schedule/schedule_interlaced.h"
#include "schedule/schedule_vhalf.h"
#include "schedule/schedule_zb.h"
#include "search/schedule_search.h"

namespace {

using namespace vocab;

struct Case {
  PipelineSchedule schedule;
  double expected_peak = -1.0;  ///< paper closed form; < 0 when none applies
};

std::vector<Case> build_cases(int p, std::int64_t v) {
  const CostModel cm(preset_1f1b(p, 2048, v), HardwareModel{});
  const LayerAssignment uniform = uniform_assignment(cm.config().num_layers, p);
  std::vector<Case> cases;
  cases.push_back({build_1f1b(cm, p, uniform), static_cast<double>(p)});
  cases.push_back({build_1f1b(cm, p, redis_assignment(cm, p), "redis"), static_cast<double>(p)});
  cases.push_back({build_1f1b_vocab(cm, p, OutputAlgo::Alg1), static_cast<double>(p + 2)});
  cases.push_back({build_1f1b_vocab(cm, p, OutputAlgo::Alg2), static_cast<double>(p + 1)});
  // Zero-bubble family: w_delay=0 members hold the 1F1B-vocab closed forms
  // (p+2 / p+1); each +1 of w_delay defers one more BW cycle, +1/3 mb.
  cases.push_back({build_zb_vocab(cm, p, OutputAlgo::Alg1, "", ZbOptions{0, -1}),
                   static_cast<double>(p + 2)});
  cases.push_back({build_zb_vocab(cm, p, OutputAlgo::Alg2, "", ZbOptions{0, -1}),
                   static_cast<double>(p + 1)});
  cases.push_back({build_zb_vocab(cm, p, OutputAlgo::Alg1, "", ZbOptions{1, -1}),
                   p + 2 + 1.0 / 3.0});
  cases.push_back({build_zb_vocab(cm, p, OutputAlgo::Alg2, "", ZbOptions{2, -1}),
                   p + 1 + 2.0 / 3.0});
  cases.push_back({build_interlaced(cm, p, true), -1.0});
  cases.push_back({build_interlaced(cm, p, false), -1.0});
  cases.push_back({build_gpipe(cm, p, uniform), -1.0});
  cases.push_back({build_gpipe_vocab(cm, p, OutputAlgo::Alg1), -1.0});
  cases.push_back({build_gpipe_vocab(cm, p, OutputAlgo::Alg2), -1.0});
  // One microbatch in flight: the synchronous baseline holds one.
  cases.push_back({build_naive_vocab(cm, p, OutputAlgo::Alg1), 1.0});
  cases.push_back({build_naive_vocab(cm, p, OutputAlgo::Alg2), 1.0});
  if (p == 16 || p == 24 || p == 32) {  // the Table-2 presets
    const CostModel vh(preset_vhalf(p, 2048, v), HardwareModel{});
    cases.push_back({build_vhalf(vh, p), -1.0});
    cases.push_back({build_vhalf_vocab(vh, p), -1.0});
  }
  return cases;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string hash_hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string json_int_array(const std::vector<int>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

// --search: run the cost-model-driven schedule search (src/search) over the
// Table-1 presets and dump the ranked candidate table. Exit status is
// nonzero if ANY ranked schedule — winner or not — fails certification.
int run_search(bool csv, bool json) {
  Table table({"rank", "schedule", "p", "vocab", "pred ms", "pred bubble", "peak mb",
               "peak GB", "cert", "winner"});
  std::vector<std::string> json_rows;
  int uncertified = 0;

  for (const int p : {8, 16, 32}) {
    if (p != 8 && !json) table.add_separator();
    for (const std::int64_t v : {std::int64_t{32768}, std::int64_t{262144}}) {
      const CostModel cm(preset_1f1b(p, 2048, v), HardwareModel{});
      search::SearchRequest req;
      req.p = p;
      const search::SearchResult res = search::search_schedules(cm, req);
      const search::Candidate* best = res.best();
      int rank = 0;
      for (const auto& c : res.ranked) {
        ++rank;
        if (!c.certified) ++uncertified;
        const bool winner = best != nullptr && &c == best;
        table.add_row({std::to_string(rank), c.name, std::to_string(p), fmt_count(v),
                       fmt_f(c.predicted_makespan * 1e3, 2), fmt_f(c.predicted_bubble, 4),
                       fmt_f(c.peak_microbatches, 2), fmt_f(c.peak_bytes / 1e9, 2),
                       c.certified ? "yes" : "NO", winner ? "<--" : ""});
        if (json) {
          std::string row = "{\"rank\":" + std::to_string(rank) + ",\"schedule\":\"" +
                            json_escape(c.name) + "\",\"family\":\"" + json_escape(c.family) +
                            "\",\"p\":" + std::to_string(p) +
                            ",\"vocab\":" + std::to_string(v) +
                            ",\"w_delay\":" + std::to_string(c.w_delay) +
                            ",\"predicted_makespan\":" + fmt_f(c.predicted_makespan, 6) +
                            ",\"predicted_bubble\":" + fmt_f(c.predicted_bubble, 6) +
                            ",\"peak_microbatches\":" + fmt_f(c.peak_microbatches, 3) +
                            ",\"peak_bytes\":" + fmt_f(c.peak_bytes, 0) +
                            ",\"certified\":" + (c.certified ? "true" : "false") +
                            ",\"winner\":" + (winner ? "true" : "false");
          if (!c.failure.empty()) row += ",\"failure\":\"" + json_escape(c.failure) + "\"";
          row += "}";
          json_rows.push_back(std::move(row));
        }
      }
    }
  }

  if (json) {
    std::cout << "{\"search\":[";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      if (i) std::cout << ",";
      std::cout << "\n" << json_rows[i];
    }
    std::cout << "\n],\"total_uncertified\":" << uncertified << "}\n";
  } else {
    std::cout << (csv ? table.to_csv() : table.to_string());
    std::cout << "\nschedule_lint --search: " << uncertified << " uncertified candidate(s)\n";
  }
  return uncertified > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  bool json = false;
  bool strict_streams = false;
  bool compile = false;
  bool disasm = false;
  bool verify_program = false;
  bool do_search = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--search") == 0) {
      do_search = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--strict-streams") == 0) {
      strict_streams = true;
    } else if (std::strcmp(argv[i], "--compile") == 0) {
      compile = true;
    } else if (std::strcmp(argv[i], "--disasm") == 0) {
      disasm = true;
    } else if (std::strcmp(argv[i], "--verify-program") == 0) {
      verify_program = true;
    } else {
      std::cerr << "usage: schedule_lint [--csv|--json] [--strict-streams] [--compile] "
                   "[--disasm] [--verify-program] [--search]\n";
      return 2;
    }
  }
  // --disasm and --verify-program operate on compiled programs.
  compile = compile || disasm || verify_program;
  if (do_search) return run_search(csv, json);

  std::vector<std::string> header = {"schedule", "p",      "vocab",    "ops",
                                     "peak mb",  "errors", "warnings", "status"};
  if (compile) {
    header.insert(header.end() - 1, "instrs");
    header.insert(header.end() - 1, "hash");
    if (verify_program) header.insert(header.end() - 1, "prog errs");
  }
  Table table(header);
  std::vector<std::string> reports;
  std::vector<std::string> json_cases;
  int total_errors = 0;
  int total_warnings = 0;

  for (const int p : {8, 16, 32}) {
    if (p != 8 && !json) table.add_separator();
    for (const std::int64_t v : {std::int64_t{32768}, std::int64_t{262144}}) {
      for (const Case& c : build_cases(p, v)) {
        analysis::VerifyOptions opt;
        opt.require_comm_stream_collectives = strict_streams;
        opt.expected_peak_microbatches = c.expected_peak;
        const std::vector<analysis::Diagnostic> diags = analysis::verify(c.schedule, opt);
        int errors = 0, warnings = 0;
        for (const auto& d : diags) {
          (d.severity == analysis::Severity::Error ? errors : warnings)++;
        }
        const auto peaks = analysis::activation_peak_microbatches(c.schedule);
        double peak = 0.0;
        for (const double x : peaks) peak = std::max(peak, x);

        // Lowering + translation validation. Compilation requires a certified
        // source, so a schedule that already failed is reported as skipped.
        std::string instrs = "-";
        std::string hash = "-";
        int prog_errors = 0;
        std::vector<program::ProgramDiagnostic> prog_diags;
        std::string prog_json;
        if (compile && errors == 0) {
          const program::CompiledProgram prog = program::compile_schedule(c.schedule);
          instrs = std::to_string(prog.total_instructions());
          hash = hash_hex(program::content_hash(prog));
          prog_json = "\"program\":{\"instructions\":" + instrs + ",\"content_hash\":\"" +
                      hash + "\"";
          if (verify_program) {
            prog_diags = program::verify_program(prog, &c.schedule);
            for (const auto& d : prog_diags) {
              (d.severity == analysis::Severity::Error ? prog_errors : warnings)++;
            }
            prog_json += ",\"errors\":" + std::to_string(prog_errors) + ",\"diagnostics\":[";
            for (std::size_t i = 0; i < prog_diags.size(); ++i) {
              const auto& d = prog_diags[i];
              if (i) prog_json += ",";
              prog_json += std::string("{\"severity\":\"") +
                           analysis::to_string(d.severity) + "\",\"check\":\"" +
                           program::to_string(d.check) +
                           "\",\"lane\":" + std::to_string(d.lane) +
                           ",\"pc\":" + std::to_string(d.pc) +
                           ",\"kernels\":" + json_int_array(d.kernels) +
                           ",\"message\":\"" + json_escape(d.message) + "\"}";
            }
            prog_json += "]";
          }
          prog_json += "}";
          if (disasm) {
            reports.push_back("-- disassembly: " + c.schedule.name +
                              " (p=" + std::to_string(p) + ", V=" + std::to_string(v) +
                              ") --\n" + program::disassemble(prog));
          }
        }
        total_errors += errors + prog_errors;
        total_warnings += warnings;

        std::vector<std::string> row = {c.schedule.name, std::to_string(p), fmt_count(v),
                                        std::to_string(c.schedule.ops.size()),
                                        fmt_f(peak, 1), std::to_string(errors),
                                        std::to_string(warnings)};
        if (compile) {
          row.push_back(instrs);
          row.push_back(hash);
          if (verify_program) row.push_back(std::to_string(prog_errors));
        }
        row.push_back((diags.empty() && prog_diags.empty())
                          ? "ok"
                          : ((errors + prog_errors) ? "FAIL" : "warn"));
        table.add_row(row);

        if (json) {
          std::string jc = "{\"schedule\":\"" + json_escape(c.schedule.name) +
                           "\",\"p\":" + std::to_string(p) +
                           ",\"vocab\":" + std::to_string(v) +
                           ",\"ops\":" + std::to_string(c.schedule.ops.size()) +
                           ",\"peak_microbatches\":" + fmt_f(peak, 3) + ",\"status\":\"" +
                           ((diags.empty() && prog_diags.empty())
                                ? "ok"
                                : ((errors + prog_errors) ? "FAIL" : "warn")) +
                           "\",\"errors\":" + std::to_string(errors) +
                           ",\"warnings\":" + std::to_string(warnings) +
                           ",\"diagnostics\":[";
          for (std::size_t i = 0; i < diags.size(); ++i) {
            const auto& d = diags[i];
            if (i) jc += ",";
            jc += std::string("{\"severity\":\"") + analysis::to_string(d.severity) +
                  "\",\"check\":\"" + analysis::to_string(d.check) +
                  "\",\"ops\":" + json_int_array(d.ops) + ",\"message\":\"" +
                  json_escape(d.message) + "\"}";
          }
          jc += "]";
          if (!prog_json.empty()) jc += "," + prog_json;
          jc += "}";
          json_cases.push_back(std::move(jc));
        }

        if (!diags.empty() || !prog_diags.empty()) {
          // A single root cause repeated per op can produce thousands of
          // diagnostics; show the first few and the count of the rest.
          constexpr std::size_t kMaxShown = 8;
          std::string r = "-- " + c.schedule.name + " (p=" + std::to_string(p) +
                          ", V=" + std::to_string(v) + ") --\n";
          std::vector<analysis::Diagnostic> shown(
              diags.begin(), diags.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(diags.size(), kMaxShown)));
          r += analysis::render_report(shown);
          if (diags.size() > kMaxShown) {
            r += "  ... and " + std::to_string(diags.size() - kMaxShown) +
                 " more schedule diagnostic(s)\n";
          }
          std::vector<program::ProgramDiagnostic> pshown(
              prog_diags.begin(),
              prog_diags.begin() +
                  static_cast<std::ptrdiff_t>(std::min(prog_diags.size(), kMaxShown)));
          r += program::render_report(pshown);
          if (prog_diags.size() > kMaxShown) {
            r += "  ... and " + std::to_string(prog_diags.size() - kMaxShown) +
                 " more program diagnostic(s)\n";
          }
          reports.push_back(std::move(r));
        }
      }
    }
  }

  if (json) {
    std::cout << "{\"cases\":[";
    for (std::size_t i = 0; i < json_cases.size(); ++i) {
      if (i) std::cout << ",";
      std::cout << "\n" << json_cases[i];
    }
    std::cout << "\n],\"total_errors\":" << total_errors
              << ",\"total_warnings\":" << total_warnings << "}\n";
  } else {
    std::cout << (csv ? table.to_csv() : table.to_string());
    for (const std::string& r : reports) std::cout << "\n" << r;
    std::cout << "\nschedule_lint: " << total_errors << " error(s), " << total_warnings
              << " warning(s)\n";
  }
  return total_errors > 0 ? 1 : 0;
}
