// The counterfactual Gibbs-variant sampler of §4.2 ("Inference algorithm").
//
// To test whether candidate entity A explains the symptom at entity D:
//  1. set A's driver metric to a counterfactual value 2 sigma toward normal;
//  2. resample every entity on the shortest-path subgraph T(A -> D) in
//     increasing distance from A, using the learned conditionals;
//  3. repeat step 2 for W rounds (Gibbs re-visits propagate effects around
//     cycles);
//  4. collect the resulting sample of D's symptom metric; repeat to build
//     distributions d1 (counterfactual start) and d2 (factual start);
//  5. a one-sided Welch t-test decides whether the counterfactual moved the
//     symptom toward normal — if so, A is a root cause.
#pragma once

#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/core/factor_model.h"
#include "src/core/metric_space.h"

namespace murphy::core {

struct SamplerOptions {
  std::size_t gibbs_rounds = 4;   // W of the paper
  std::size_t num_samples = 500;  // per side; the paper's prototype uses 5000
  double significance = 0.01;     // t-test alpha
  double counterfactual_sigmas = 2.0;
  // Extra path length admitted into the resampled subgraph T beyond the
  // shortest src->dst distance. Slack 2 includes the "sibling" entities (a
  // service's container, a VM's host) whose pinned values would otherwise
  // absorb the counterfactual through collinear features.
  std::size_t path_slack = 2;
};

struct CounterfactualVerdict {
  bool is_root_cause = false;
  double p_value = 1.0;
  double mean_factual = 0.0;        // mean of d2
  double mean_counterfactual = 0.0; // mean of d1
  // Work accounting for the observability layer (deterministic: a function
  // of the graph and options, not of scheduling).
  std::size_t path_len = 0;         // resampled subgraph size, incl. endpoints
  std::size_t node_resamples = 0;   // resample_node calls across both sides
  // Flattened-kernel multiply-add slots evaluated (w * c terms) across both
  // sides — the sampler's arithmetic volume, again deterministic. The
  // reference counts the same grid, so the accounting is a function of the
  // request.
  std::size_t kernel_cells = 0;
};

class CounterfactualSampler {
 public:
  CounterfactualSampler(const graph::RelationshipGraph& graph,
                        const MetricSpace& space, const FactorSet& factors,
                        SamplerOptions opts);

  // Precomputes the backward BFS distance map for symptom node `dst`, so
  // that every subsequent evaluate(..., d == dst, ...) builds its path
  // subgraph with a single bounded forward BFS instead of two full ones.
  // Call once per diagnosis, BEFORE the parallel candidate loop: evaluate()
  // only reads the prepared map. Evaluating against a different symptom node
  // falls back to the self-contained two-BFS path. Purely a work-saving
  // cache — verdicts are bitwise identical either way.
  void prepare(graph::NodeIndex dst);

  // Evaluates candidate node A (driver variable `a_var`) against symptom
  // variable `d_var`. `state` holds the current (incident-time) values;
  // `symptom_high` says whether D's problem is an abnormally HIGH value
  // (true) or LOW (false) — it sets the t-test direction. The caller
  // supplies the RNG (one stream per candidate, derived via mix_seed), so
  // the verdict is a pure function of (request, stream): const and free of
  // shared mutable state, many threads may evaluate concurrently.
  //
  // Draws run through the inference kernel (DESIGN.md §5.1): the num_samples
  // independent chains are batched into lanes over a structure-of-arrays
  // state fed by Rng::fill_normal and the kernel's pre-divided weights.
  [[nodiscard]] CounterfactualVerdict evaluate(graph::NodeIndex a,
                                               VarIndex a_var,
                                               graph::NodeIndex d,
                                               VarIndex d_var,
                                               std::span<const double> state,
                                               bool symptom_high,
                                               Rng& rng) const;

  // The same test with every draw taken by resample_path over a fresh copy
  // of `state` per sample: the readable reference definition of steps 2-4.
  // The kernel's contract is statistical equivalence to this (same verdicts
  // and rankings, score deltas indistinguishable under a Welch t-test),
  // gated by bench_fast_equivalence; it is not bitwise, because draw order,
  // rounding and the normal generator differ.
  [[nodiscard]] CounterfactualVerdict evaluate_reference(
      graph::NodeIndex a, VarIndex a_var, graph::NodeIndex d, VarIndex d_var,
      std::span<const double> state, bool symptom_high, Rng& rng) const;

  // One resampling pass (steps 2-3): resample nodes of `path` (excluding the
  // first, which holds the pinned candidate value) for W rounds, returning
  // the final value of `d_var`. Also used directly by the Fig. 8b
  // cyclic-effects experiment for multi-hop prediction.
  [[nodiscard]] double resample_path(std::span<const graph::NodeIndex> path,
                                     VarIndex d_var,
                                     std::vector<double>& state, Rng& rng,
                                     std::size_t gibbs_rounds) const;

 private:
  CounterfactualVerdict evaluate_impl(graph::NodeIndex a, VarIndex a_var,
                                      graph::NodeIndex d, VarIndex d_var,
                                      std::span<const double> state,
                                      bool symptom_high, Rng& rng,
                                      bool reference) const;

  // The inference kernel for one candidate: packs the resample order into
  // SoA buffers once, then runs all num_samples chains of the
  // counterfactual side (pinned centered value `cent_a_cf`) into `d1` and of
  // the factual side into `d2`.
  void run_kernel(std::span<const VarIndex> order, VarIndex a_var,
                  VarIndex d_var, std::span<const double> cent0,
                  double cent_a_cf, Rng& rng, std::vector<double>& d1,
                  std::vector<double>& d2) const;

  const graph::RelationshipGraph& graph_;
  const MetricSpace& space_;
  const FactorSet& factors_;
  SamplerOptions opts_;
  // Backward distance map from prepare(); read-only during evaluation.
  std::vector<std::size_t> dist_to_;
  graph::NodeIndex prepared_dst_ = graph::kUnreachable;
};

}  // namespace murphy::core
