// Per-entity factors P_v of the MRF (§4.2, "Model" and "Model training").
//
// Each factor relates one metric of entity v in a time slice to the metrics
// of v's in-neighbors in the same slice. Following the paper: the top B = 10
// neighbor metrics are selected by correlation (the "one in ten" rule), a
// ridge regression (by default; the model family is pluggable per Fig. 8a)
// is fit on the training window, and the Gaussian residual sigma makes the
// conditional a sampling distribution rather than a point predictor.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/core/factor_cache.h"
#include "src/core/metric_space.h"
#include "src/obs/hooks.h"
#include "src/stats/predictor.h"
#include "src/stats/window_stats.h"

namespace murphy::core {

// The learned conditional for ONE variable (one metric of one entity).
class MetricConditional {
 public:
  // The model is shared-const: the cross-symptom FactorCache hands the same
  // fitted predictor to every FactorSet that hits the cache entry.
  MetricConditional(VarIndex target, std::vector<VarIndex> features,
                    std::shared_ptr<const stats::Predictor> model,
                    double hist_mean, double hist_sigma);

  // predict() and sample() are safe to call concurrently from many threads
  // (scratch space is thread-local); the setters are not.

  [[nodiscard]] VarIndex target() const { return target_; }
  [[nodiscard]] std::span<const VarIndex> features() const {
    return features_;
  }

  // Expected value given the current state.
  [[nodiscard]] double predict(std::span<const double> state) const;
  // Draw from N(predict(state), residual_sigma).
  [[nodiscard]] double sample(std::span<const double> state, Rng& rng) const;

  // Historical marginal statistics over the training window. Two flavors:
  // classic mean/stddev (used for the counterfactual magnitude — "2 standard
  // deviations away" of *recent* behavior, incident included), and robust
  // median/MAD (used for anomaly scoring and labeling, so that the incident
  // points inside the online-training window don't mask their own anomaly).
  [[nodiscard]] double hist_mean() const { return hist_mean_; }
  [[nodiscard]] double hist_sigma() const { return hist_sigma_; }
  [[nodiscard]] double robust_center() const { return robust_center_; }
  [[nodiscard]] double robust_sigma() const { return robust_sigma_; }
  void set_robust(double center, double sigma) {
    robust_center_ = center;
    robust_sigma_ = sigma;
  }
  // Sampling stddev: the model's residual sigma, or the historical sigma
  // when the variable had no usable features.
  [[nodiscard]] double residual_sigma() const {
    return model_ ? model_->residual_sigma() : hist_sigma_;
  }

  // The fitted model (nullptr when the variable had no usable features).
  // Exposed so FactorSet can flatten ridge conditionals into its sampling
  // kernel.
  [[nodiscard]] const stats::Predictor* model() const { return model_.get(); }

 private:
  VarIndex target_;
  std::vector<VarIndex> features_;
  std::shared_ptr<const stats::Predictor> model_;
  double hist_mean_;
  double hist_sigma_;
  double robust_center_ = 0.0;
  double robust_sigma_ = 0.0;
};

struct FactorTrainingOptions {
  // Top-B neighbor metrics by |Pearson correlation| ("one in ten" rule).
  std::size_t top_b = 10;
  stats::ModelKind model = stats::ModelKind::kRidge;
  // Telemetry features are heavily collinear (a service's request rate, its
  // container's CPU and its client's load all co-move); substantial ridge
  // regularization spreads weight across the collinear group instead of
  // letting sign-flipped pairs cancel, which would invert counterfactuals.
  stats::PredictorOptions predictor{.l2 = 25.0};
  // Recency-weighted "offline + online" hybrid training (§7, future work):
  // when > 0 (in slices) and the model is ridge, row r of the training
  // window is weighted 0.5^((last - r) / half_life), so long histories
  // inform the fit without drowning the freshest in-incident points.
  // 0 = uniform weighting (the paper's shipped configuration).
  double recency_half_life = 0.0;
  std::uint64_t seed = 1;
  // Threads for the per-variable fits (each fit is independent). 0 = one per
  // hardware core, 1 = serial. Any value yields bitwise-identical factors:
  // predictor seeds are derived per variable via mix_seed, not drawn from a
  // shared sequential stream.
  std::size_t num_threads = 1;
  // Optional observability sinks (null = off). `trace_parent` is the stable
  // span id the per-variable fit spans attach to — fits run on worker
  // threads whose span stacks are empty, so the parent must be explicit for
  // the trace to be identical at every thread count.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::uint64_t trace_parent = 0;
  // Optional training caches (null = train everything locally).
  //
  // window_stats: shared per-column moment cache (means/centered columns/
  // sums of squares); correlations against cached columns are single dot
  // products. factor_cache: cross-symptom factor reuse — each (entity, kind,
  // in-neighbor-set) conditional trains once and is shared. Both caches
  // yield bitwise-identical factors (see their headers for the proofs);
  // the factor cache only engages for ridge models (stochastic families
  // seed per VarIndex, which is graph-dependent). The CALLER owns validity:
  // reset() each cache with a fingerprint of (window, db data version,
  // options) before training — BatchDiagnoser does this per batch.
  stats::WindowStats* window_stats = nullptr;
  FactorCache* factor_cache = nullptr;
  // Fine-grained cache invalidation for long-running callers (the diagnosis
  // service, DESIGN.md §9). When set, per-series write epochs
  // (MetricStore::series_epoch) are mixed into both cache keys: the
  // WindowStats key covers the one series the column reads, the FactorCache
  // key covers the target plus every candidate-feature series (the metric
  // kinds of the target's entity and its sorted in-neighbor entities, so a
  // freshly appearing series changes the key too), as is the train window
  // (requests with different windows coexist within one generation). A
  // streaming append then retires exactly the entries that read the touched
  // series. The caller must pair this with a generation fingerprint over
  // MonitoringDb::structural_data_version() — NOT data_version(), which
  // would still invalidate everything — structural changes and erasures stay
  // whole-cache resets.
  bool epoch_keys = false;
};

// Flattened, allocation-free view of the trained conditionals, built once
// after training for the inference kernel (CounterfactualSampler).
//
// Ridge is the one model family whose predict() is a fixed arithmetic form,
//   mu = base + sum_j (w[j] * (x[j] - mean[j])) / scale[j],
// and because fit_weighted() computes each column's weighted mean with
// weights that depend only on the row index (never on the target), every
// conditional that uses variable f as a feature derives the bitwise-
// identical mean for it. The subtraction is therefore shareable: the kernel
// keeps one centered value c[v] = state[v] - mean[v] per variable and
// evaluates mu = base + sum_j wdiv[j] * c[f[j]] with the division folded
// into the weight — one FMA per slot, rounding differently from predict()
// (the kernel's contract with the reference is statistical, DESIGN.md §5.1).
// Conditionals that cannot be flattened (non-ridge models, or a bitwise
// mean mismatch, which build_kernel() checks defensively) stay non-flat;
// candidates whose path touches one draw through the reference instead.
struct SampleKernel {
  struct VarEntry {
    std::uint32_t begin = 0;  // offset into feat/wdiv
    std::uint32_t count = 0;
    bool flat = false;        // false -> the kernel cannot draw this var
    double base = 0.0;        // intercept (y_mean, or hist_mean if no model)
    double sigma = 0.0;       // sampling stddev (residual or historical)
  };
  std::vector<VarEntry> vars;
  std::vector<std::uint32_t> feat;  // feature VarIndex, contiguous per var
  // Pre-divided weight w[k] / scale[k] per slot (standardized-space ridge
  // weight over the feature's scale), folded once at build_kernel() time.
  std::vector<double> wdiv;
  // Shared per-variable centering; 0 for variables that never appear as a
  // feature of a flattened conditional.
  std::vector<double> mean;
};

// The MRF: one MetricConditional per variable, trained online.
class FactorSet {
 public:
  // Trains every conditional on the window [train_begin, train_end).
  // Training parallelizes over variables per opts.num_threads; the trained
  // set is immutable afterwards and safe for concurrent readers.
  FactorSet(const telemetry::MonitoringDb& db,
            const graph::RelationshipGraph& graph, const MetricSpace& space,
            TimeIndex train_begin, TimeIndex train_end,
            const FactorTrainingOptions& opts);

  [[nodiscard]] const MetricConditional& conditional(VarIndex v) const {
    return *conditionals_[v];
  }
  [[nodiscard]] std::size_t size() const { return conditionals_.size(); }

  // Resamples every metric of graph node `n` in place.
  void resample_node(graph::NodeIndex node, const MetricSpace& space,
                     std::vector<double>& state, Rng& rng) const;

  [[nodiscard]] const SampleKernel& kernel() const { return kernel_; }

  // Centered value of raw metric value x for variable v.
  [[nodiscard]] double center(VarIndex v, double x) const {
    return x - kernel_.mean[v];
  }

 private:
  void build_kernel();

  std::vector<std::unique_ptr<MetricConditional>> conditionals_;
  SampleKernel kernel_;
};

}  // namespace murphy::core
