#pragma once

// Cost-model-driven schedule search.
//
// Enumerates the repo's schedule building blocks — 1F1B-vocab, the
// zero-bubble family (zb-vocab with its controllable-memory w_delay dial),
// GPipe-vocab, and optionally the multi-chunk V-Half and interlaced
// baselines — for a given (p, m, V) model configuration, scores every
// candidate with the discrete-event simulator over the given cost model
// (A100 constants, or pass times measured on this machine), filters by a
// peak-memory cap, certifies the survivors through the static verifier AND
// the bytecode translation-validation pipeline, and ranks them by predicted
// makespan. The winner is what `PipelineFlavor::Auto` executes (over the
// measured model from its third iteration) and what `schedule_lint
// --search` prints.
//
// Objective: minimize predicted iteration makespan subject to
// max_d peak_bytes(d) <= memory_cap. Certification is a hard constraint —
// an uncertified schedule can never rank above a certified one, no matter
// its predicted speed.

#include <optional>
#include <string>
#include <vector>

#include "core/output_layer_shard.h"
#include "cost/cost_model.h"
#include "schedule/ops.h"

namespace vocab::search {

/// One scored (and possibly certified) schedule candidate.
struct Candidate {
  std::string name;    ///< schedule name, unique within one search
  std::string family;  ///< "1f1b-vocab" | "zb-vocab" | "gpipe-vocab" | "vhalf-vocab" | "interlaced"
  OutputAlgo algo = OutputAlgo::Alg1;
  int w_delay = 0;              ///< zb-vocab only: BW deferral in cycles
  int inserted_intervals = -1;  ///< generator default when -1
  /// PipelineTrainer can execute this schedule with its p-stage single-chunk
  /// vocabulary-sharded device layout (what Auto mode may pick).
  bool runtime_compatible = false;
  PipelineSchedule schedule;

  // Predicted scores (discrete-event simulation over the cost model).
  double predicted_makespan = 0.0;
  double predicted_bubble = 0.0;  ///< max over devices
  std::vector<double> predicted_bubble_per_device;
  double peak_bytes = 0.0;          ///< max over devices, incl. resident params
  double peak_microbatches = 0.0;   ///< symbolic activation peak (verifier scan)
  bool fits_cap = true;             ///< peak_bytes <= memory cap (if capped)
  bool certified = false;           ///< verifier + compile + verify-program clean
  std::string failure;              ///< first diagnostic when !certified
};

struct SearchRequest {
  int p = 0;                        ///< pipeline devices (required, >= 2)
  std::optional<OutputAlgo> algo;   ///< restrict to one output algorithm
  int max_w_delay = -1;             ///< zb sweep bound; -1 = min(p - 1, 3)
  double memory_cap_bytes = 0.0;    ///< 0 = uncapped
  bool runtime_only = false;        ///< only PipelineTrainer-executable families
  bool include_multi_chunk = true;  ///< V-Half / interlaced baselines in the table
};

struct SearchResult {
  /// Best first: certified + fitting candidates by predicted makespan, then
  /// everything else (still by makespan) for the ranked table.
  std::vector<Candidate> ranked;

  /// The winner: first certified candidate that fits the cap (and, when the
  /// request was runtime_only, is runtime compatible); nullptr if none.
  [[nodiscard]] const Candidate* best() const;
};

/// Enumerate, score, certify and rank. `cm.config()` supplies m, V and the
/// layer count; req.p must divide num_layers (and 2p must for the V-Half
/// candidates, which are skipped otherwise).
[[nodiscard]] SearchResult search_schedules(const CostModel& cm, const SearchRequest& req);

}  // namespace vocab::search
