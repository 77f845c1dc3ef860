// Per-entity factors P_v of the MRF (§4.2, "Model" and "Model training").
//
// Each factor relates one metric of entity v in a time slice to the metrics
// of v's in-neighbors in the same slice. Following the paper: the top B = 10
// neighbor metrics are selected by correlation (the "one in ten" rule), a
// ridge regression is fit on the training window, and the Gaussian residual
// sigma makes the conditional a sampling distribution rather than a point
// predictor. Every one of those quantities is read from one MomentBlock per
// target — the shifted cross-product moments of the target and all its
// candidates over the window (factor_cache.h) — so training is a
// row-sequential fold followed by a k x k solve, a window that grew by a
// few rows extends the stored block instead of refitting the history, and
// a block already fit at the window hands back its memoized factor. Ridge
// is the only factor family: Fig. 8a, which compares it against GMM, SVM
// and small neural nets on the same selected features, fits those families
// itself (bench/bench_fig8a_models.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/core/factor_cache.h"
#include "src/core/metric_space.h"
#include "src/obs/hooks.h"
#include "src/stats/ridge.h"

namespace murphy {
class ThreadPool;
}  // namespace murphy

namespace murphy::core {

// The learned conditional for ONE variable (one metric of one entity).
class MetricConditional {
 public:
  // The model is shared-const: a moment-store slot's memo hands the same
  // fitted regression to every FactorSet that trains the slot's target
  // problem at the memo's window.
  MetricConditional(VarIndex target, std::vector<VarIndex> features,
                    std::shared_ptr<const stats::RidgeRegression> model,
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
  // Exposed so FactorSet can flatten the conditionals into its sampling
  // kernel.
  [[nodiscard]] const stats::RidgeRegression* model() const {
    return model_.get();
  }

 private:
  VarIndex target_;
  std::vector<VarIndex> features_;
  std::shared_ptr<const stats::RidgeRegression> model_;
  double hist_mean_;
  double hist_sigma_;
  double robust_center_ = 0.0;
  double robust_sigma_ = 0.0;
};

struct FactorTrainingOptions {
  // Top-B neighbor metrics by |Pearson correlation| ("one in ten" rule).
  std::size_t top_b = 10;
  // Ridge L2 strength. Telemetry features are heavily collinear (a service's
  // request rate, its container's CPU and its client's load all co-move);
  // substantial regularization spreads weight across the collinear group
  // instead of letting sign-flipped pairs cancel, which would invert
  // counterfactuals.
  double l2 = 25.0;
  // Recency-weighted "offline + online" hybrid training (§7, future work):
  // when > 0 (in slices), row r of the training window is weighted
  // 0.5^((last - r) / half_life), so long histories inform the fit without
  // drowning the freshest in-incident points. 0 = uniform weighting (the
  // paper's shipped configuration).
  double recency_half_life = 0.0;
  // Threads for the per-variable fits (each fit is independent). 0 = one per
  // hardware core, 1 = serial. Any value yields bitwise-identical factors:
  // every fit is a pure function of its target's and candidates' histories.
  std::size_t num_threads = 1;
  // Non-owning executor for the per-variable fits; when set, num_threads is
  // ignored (see MurphyOptions::pool).
  ThreadPool* pool = nullptr;
  // Optional observability sinks (null = off). `trace_parent` is the stable
  // span id the per-variable fit spans attach to — fits run on worker
  // threads whose span stacks are empty, so the parent must be explicit for
  // the trace to be identical at every thread count.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::uint64_t trace_parent = 0;
  // Optional training cache (null = train everything cold), attached by
  // TrainingCaches::attach, which owns its invalidation (see
  // factor_cache.h): per-target sufficient statistics that a growing window
  // extends by its appended rows only, each with the last factor they
  // produced, reused across symptoms and requests. Its factors are bitwise
  // identical to a cold training. Fits through it are untraced.
  MomentStore* moment_store = nullptr;
};

// Flattened, allocation-free view of the trained conditionals, built once
// after training for the inference kernel (CounterfactualSampler).
//
// A ridge conditional's predict() is a fixed arithmetic form,
//   mu = base + sum_j (w[j] * (x[j] - mean[j])) / scale[j],
// and because fit_weighted() computes each column's weighted mean with
// weights that depend only on the row index (never on the target), every
// conditional that uses variable f as a feature derives the bitwise-
// identical mean for it. The subtraction is therefore shareable: the kernel
// keeps one centered value c[v] = state[v] - mean[v] per variable and
// evaluates mu = base + sum_j wdiv[j] * c[f[j]] with the division folded
// into the weight — one FMA per slot, rounding differently from predict()
// (the kernel's contract with the reference is statistical, DESIGN.md §5.1).
// build_kernel() still checks the shared mean bitwise: a conditional whose
// own feature mean differs from the shared one gets the exact correction
// wdiv[j] * (mean[f] - own_mean[j]) folded into its base, so every
// conditional is always drawable by the kernel.
struct SampleKernel {
  struct VarEntry {
    std::uint32_t begin = 0;  // offset into feat/wdiv
    std::uint32_t count = 0;
    double base = 0.0;   // intercept (y_mean, or hist_mean if no model)
    double sigma = 0.0;  // sampling stddev (residual or historical)
  };
  std::vector<VarEntry> vars;
  std::vector<std::uint32_t> feat;  // feature VarIndex, contiguous per var
  // Pre-divided weight w[k] / scale[k] per slot (standardized-space ridge
  // weight over the feature's scale), folded once at build_kernel() time.
  std::vector<double> wdiv;
  // Shared per-variable centering; 0 for variables that never appear as a
  // feature.
  std::vector<double> mean;
};

// The MRF: one MetricConditional per variable, trained online.
class FactorSet {
 public:
  // Trains every conditional on the window [train_begin, train_end).
  // Training parallelizes over variables on opts.pool, or else per
  // opts.num_threads; the trained set is immutable afterwards and safe for
  // concurrent readers.
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
