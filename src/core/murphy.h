// MurphyDiagnoser — the end-to-end system of §4.
//
// diagnose() performs, in order:
//   1. relationship-graph construction from the symptom entity (§4.1);
//   2. online training of the MRF's per-entity conditionals on the request's
//      history window (§4.2 "Model training");
//   3. candidate pruning by threshold-guided BFS from the symptom;
//   4. counterfactual Gibbs-variant evaluation of every candidate (§4.2
//      "Inference algorithm") with a Welch t-test verdict;
//   5. ranking of accepted candidates by anomaly score;
//   6. explanation-chain generation via the label state machine (§4.3).
#pragma once

#include <functional>
#include <memory>

#include "src/core/anomaly.h"
#include "src/core/diagnosis.h"
#include "src/core/sampler.h"
#include "src/obs/hooks.h"

namespace murphy::core {

struct MurphyOptions {
  FactorTrainingOptions training;
  SamplerOptions sampler;
  CandidateSearchOptions search;
  Thresholds thresholds;
  // Maximum nodes in the relationship graph (§4.1's safety valve).
  std::size_t max_graph_nodes = 100000;
  std::uint64_t seed = 1;
  // Threads for the parallel phases (factor training, per-candidate
  // counterfactual evaluation, per-symptom batch diagnosis). 0 = one per
  // hardware core, 1 = the legacy serial path. The diagnosis output is
  // bitwise identical at every setting: each parallel work item draws from
  // its own RNG stream derived via mix_seed, never from a shared sequential
  // one. See DESIGN.md "Execution model".
  std::size_t num_threads = 0;
  // Observability sinks (DESIGN.md "Observability"): an optional span tracer
  // (flame-chart spans for every phase, per-factor fit and per-candidate
  // evaluation), an optional metrics registry (engine counters/histograms),
  // and the audit-trail switch that fills DiagnosisResult::audit. All null/
  // off by default — the null configuration adds only a handful of clock
  // reads per diagnosis.
  obs::ObsHooks obs;
  // Cooperative cancellation (the service's deadline enforcement, DESIGN.md
  // §9). When set, diagnose() polls it between phases; once it returns true
  // the remaining phases are abandoned and the result comes back with
  // `cancelled` set and no causes. Polling happens ONLY at phase boundaries,
  // so a completed diagnosis is bit-identical whether or not a hook was
  // attached — cancellation can stop work, never alter it.
  std::function<bool()> cancel;
};

// Start of the "recent" configuration-change window reported alongside a
// diagnosis: the last ~10% of the training range (at least one slice),
// ending at `now`, clamped at zero. Exposed for unit testing the underflow
// edge (now earlier than one window length).
[[nodiscard]] TimeIndex recent_config_window_begin(TimeIndex train_begin,
                                                   TimeIndex train_end,
                                                   TimeIndex now);

// Seed of the RNG stream diagnose() hands candidate `node`'s counterfactual
// test (MurphyOptions::seed as `seed`): one independent stream per
// candidate, so a verdict never depends on evaluation order or thread count.
[[nodiscard]] std::uint64_t candidate_stream_seed(std::uint64_t seed,
                                                  graph::NodeIndex node);

class MurphyDiagnoser final : public Diagnoser {
 public:
  explicit MurphyDiagnoser(MurphyOptions opts = {});

  [[nodiscard]] DiagnosisResult diagnose(
      const DiagnosisRequest& request) override;
  [[nodiscard]] std::string_view name() const override { return "murphy"; }

  [[nodiscard]] const MurphyOptions& options() const { return opts_; }
  MurphyOptions& mutable_options() { return opts_; }

 private:
  MurphyOptions opts_;
};

}  // namespace murphy::core
