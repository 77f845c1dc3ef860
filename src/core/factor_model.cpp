#include "src/core/factor_model.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/common/thread_pool.h"
#include "src/stats/correlation.h"
#include "src/stats/summary.h"

namespace murphy::core {

MetricConditional::MetricConditional(
    VarIndex target, std::vector<VarIndex> features,
    std::shared_ptr<const stats::RidgeRegression> model, double hist_mean,
    double hist_sigma)
    : target_(target),
      features_(std::move(features)),
      model_(std::move(model)),
      hist_mean_(hist_mean),
      hist_sigma_(hist_sigma) {}

double MetricConditional::predict(std::span<const double> state) const {
  if (features_.empty() || model_ == nullptr) return hist_mean_;
  // Thread-local scratch: conditionals are shared read-only across sampler
  // threads, so a per-object buffer would race.
  thread_local std::vector<double> feature_buf;
  feature_buf.resize(features_.size());
  for (std::size_t i = 0; i < features_.size(); ++i)
    feature_buf[i] = state[features_[i]];
  return model_->predict(feature_buf);
}

double MetricConditional::sample(std::span<const double> state,
                                 Rng& rng) const {
  return predict(state) + residual_sigma() * rng.normal();
}

FactorSet::FactorSet(const telemetry::MonitoringDb& db,
                     const graph::RelationshipGraph& graph,
                     const MetricSpace& space, TimeIndex train_begin,
                     TimeIndex train_end, const FactorTrainingOptions& opts) {
  // Degenerate training windows (empty after a symptom at t=0, or inverted
  // after clock-skewed telemetry) are defined, not asserted: clamp to an
  // empty window, which trains flat hist-mean conditionals everywhere
  // (DESIGN.md §8, counter `train.empty_windows`).
  if (train_end < train_begin) train_end = train_begin;
  const std::size_t n_rows = train_end - train_begin;
  if (n_rows == 0 && opts.metrics != nullptr)
    opts.metrics->counter("train.empty_windows")->add(1);
  conditionals_.resize(space.size());

  // Per-variable window moments (mean, centered column, sum of squares):
  // pulled from the shared cross-symptom cache when one is attached,
  // materialized locally otherwise. Either way the feature-scoring loop
  // below does one dot product per candidate pair instead of a three-pass
  // mean/variance rescan.
  const std::uint64_t window_key =
      (static_cast<std::uint64_t>(train_begin) << 32) | train_end;
  std::vector<const stats::ColumnMoments*> col(space.size());
  std::vector<stats::ColumnMoments> local;
  if (opts.window_stats != nullptr) {
    for (VarIndex v = 0; v < space.size(); ++v) {
      const auto& var = space.var(v);
      // A write to this series changes its epoch, hence the key: the stale
      // column is simply never looked up again. The window rides in the key
      // too, so requests with different windows share one cache generation
      // (see factor_cache.h).
      const std::uint64_t key = hash_mix(
          hash_mix(hash_mix(0xE90C4B11u, window_key),
                   (static_cast<std::uint64_t>(var.entity.value()) << 32) |
                       var.kind.value()),
          db.metrics().series_epoch(var.entity, var.kind));
      col[v] = &opts.window_stats->get_or_build(key, [&] {
        return space.history(db, v, train_begin, train_end);
      });
    }
  } else {
    local.resize(space.size());
    for (VarIndex v = 0; v < space.size(); ++v) {
      local[v] = stats::build_column_moments(
          space.history(db, v, train_begin, train_end));
      col[v] = &local[v];
    }
  }

  // Observability: resolve instruments once, outside the hot loop (the
  // registry lookup takes a mutex; the updates below are lock-free atomics).
  obs::Counter* c_fits = nullptr;
  obs::Counter* c_pruned = nullptr;
  obs::Counter* c_corr_cells = nullptr;
  obs::Counter* c_cache_hits = nullptr;
  obs::Counter* c_cache_misses = nullptr;
  obs::Histogram* h_features = nullptr;
  if (opts.metrics != nullptr) {
    c_fits = opts.metrics->counter("train.factors_trained");
    c_pruned = opts.metrics->counter("train.features_pruned_one_in_ten");
    c_corr_cells = opts.metrics->counter("train.corr_cells");
    h_features = opts.metrics->histogram(
        "train.features_per_factor",
        {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0});
  }

  // Trains the factor of one target variable from the cached column moments,
  // in graph-independent (CachedFactor) form. Pure: everything it returns is
  // a function of the candidate histories and options alone, which is what
  // makes the result shareable across symptoms (see FactorCache).
  auto train_target = [&](VarIndex target, obs::Tracer* tracer) {
    obs::Span fit_span(tracer, "fit_factor", target, opts.trace_parent);
    const auto& tvar = space.var(target);
    const stats::ColumnMoments& ty = *col[target];

    CachedFactor cf;
    cf.hist_mean = ty.mean;    // == stats::mean(y)
    cf.hist_sigma = ty.sigma;  // == stats::stddev(y), bitwise (see WindowStats)

    // Candidate features: all metrics of in-neighbor nodes (the in_nbrs(v)
    // of the factor definition), plus the entity's OTHER own metrics, which
    // the paper's P_v(v | ...) treats jointly.
    std::vector<std::pair<double, VarIndex>> scored;
    std::uint64_t corr_cells = 0;
    auto consider = [&](VarIndex f) {
      if (f == target) return;
      const stats::ColumnMoments& fx = *col[f];
      const double c = std::abs(stats::pearson_centered(
          fx.centered, fx.sxx, fx.mean, ty.centered, ty.sxx, ty.mean));
      corr_cells += n_rows;
      if (c > 0.05) scored.emplace_back(c, f);
    };
    for (const graph::NodeIndex nb : graph.in_neighbors(tvar.node))
      for (const VarIndex f : space.vars_of(nb)) consider(f);
    for (const VarIndex f : space.vars_of(tvar.node)) consider(f);
    if (c_corr_cells != nullptr) c_corr_cells->add(corr_cells);

    std::sort(scored.begin(), scored.end(),
              [&](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                // Graph-invariant tiebreak: equal |pearson| resolves on
                // (entity, kind), never on VarIndex — a VarIndex order would
                // depend on the graph's node numbering and break factor
                // sharing across symptoms.
                const auto& va = space.var(a.second);
                const auto& vb = space.var(b.second);
                if (va.entity != vb.entity) return va.entity < vb.entity;
                return va.kind < vb.kind;
              });
    cf.considered = scored.size();
    if (scored.size() > opts.top_b) scored.resize(opts.top_b);

    std::vector<VarIndex> features;
    features.reserve(scored.size());
    for (const auto& [c, f] : scored) features.push_back(f);

    if (!features.empty()) {
      stats::Matrix x(n_rows, features.size());
      for (std::size_t r = 0; r < n_rows; ++r)
        for (std::size_t c = 0; c < features.size(); ++c)
          x.at(r, c) = col[features[c]]->values[r];
      // Uniform weights are exactly RidgeRegression::fit().
      stats::Vector weights(n_rows, 1.0);
      if (opts.recency_half_life > 0.0)
        for (std::size_t r = 0; r < n_rows; ++r)
          weights[r] = std::pow(
              0.5, static_cast<double>(n_rows - 1 - r) /
                       opts.recency_half_life);
      auto model = std::make_shared<stats::RidgeRegression>(opts.l2);
      model->fit_weighted(x, ty.values, weights);
      cf.model = std::move(model);
    }

    cf.features.reserve(features.size());
    for (const VarIndex f : features) {
      const auto& fv = space.var(f);
      cf.features.push_back(MetricRef{fv.entity, fv.kind});
    }
    cf.robust_center = stats::median(ty.values);
    cf.robust_sigma = stats::mad_sigma(ty.values);

    if (c_fits != nullptr) c_fits->add(1);
    if (fit_span.enabled()) {
      fit_span.arg("features",
                   static_cast<std::uint64_t>(cf.features.size()));
      fit_span.arg("rows", static_cast<std::uint64_t>(n_rows));
    }
    return cf;
  };

  // Rebinds a (possibly cache-shared) factor to this graph's VarIndex space.
  auto bind_factor = [&](VarIndex target, const CachedFactor& cf) {
    std::vector<VarIndex> features;
    features.reserve(cf.features.size());
    for (const MetricRef& m : cf.features) {
      const auto f = space.find(m.entity, m.kind);
      assert(f.has_value());  // cache key fixes the candidate entity set
      features.push_back(*f);
    }
    auto cond = std::make_unique<MetricConditional>(
        target, std::move(features), cf.model, cf.hist_mean, cf.hist_sigma);
    cond->set_robust(cf.robust_center, cf.robust_sigma);

    if (c_pruned != nullptr && cf.considered > cf.features.size())
      c_pruned->add(cf.considered - cf.features.size());
    if (h_features != nullptr)
      h_features->observe(static_cast<double>(cf.features.size()));
    conditionals_[target] = std::move(cond);
  };

  if (opts.factor_cache != nullptr && opts.metrics != nullptr) {
    c_cache_hits = opts.metrics->counter("cache.factor_hits");
    c_cache_misses = opts.metrics->counter("cache.factor_misses");
  }

  // One ridge fit per variable, all independent: parallelize over targets.
  // Each fit is a pure function of its histories and the options, so the
  // trained set is bitwise identical at any thread count.
  parallel_for(opts.num_threads, space.size(), [&](std::size_t t) {
    const VarIndex target = t;
    if (opts.factor_cache != nullptr) {
      const auto& tvar = space.var(target);
      std::uint64_t key = hash_mix(0x0FAC70C5u, tvar.entity.value());
      key = hash_mix(key, tvar.kind.value());
      // Sorted in-neighbor entity set: equal keys => identical candidate
      // feature set => identical selection and fit (see FactorCache).
      std::vector<std::uint32_t> nbrs;
      for (const graph::NodeIndex nb : graph.in_neighbors(tvar.node))
        nbrs.push_back(graph.entity_of(nb).value());
      std::sort(nbrs.begin(), nbrs.end());
      for (const std::uint32_t e : nbrs) key = hash_mix(key, e);
      // Fine-grained invalidation: the fit is a pure function of the target
      // and candidate-feature histories, so mix the (kind, epoch) vector of
      // every series the trainer may read — the target entity's and each
      // sorted in-neighbor's metric kinds. A write to any of them (or a
      // freshly appearing series) changes the key; everything else keeps
      // hitting (see factor_cache.h).
      const auto mix_entity_series = [&](std::uint32_t ev) {
        const EntityId e(ev);
        for (const MetricKindId k : db.metrics().kinds_of(e)) {
          key = hash_mix(key, (static_cast<std::uint64_t>(ev) << 32) |
                                  k.value());
          key = hash_mix(key, db.metrics().series_epoch(e, k));
        }
      };
      mix_entity_series(tvar.entity.value());
      for (const std::uint32_t e : nbrs) mix_entity_series(e);
      key = hash_mix(key, window_key);  // not in the generation fingerprint

      bool trained = false;
      // The cached trainer runs with tracing off: WHICH symptom pays the
      // miss is scheduling-dependent, and per-fit spans would make traces
      // vary run to run. Counter totals stay deterministic (misses = unique
      // keys, hits = lookups - misses).
      const CachedFactor& cf = opts.factor_cache->get_or_train(
          key, [&] { return train_target(target, nullptr); }, &trained);
      if (trained) {
        if (c_cache_misses != nullptr) c_cache_misses->add(1);
      } else if (c_cache_hits != nullptr) {
        c_cache_hits->add(1);
      }
      bind_factor(target, cf);
      return;
    }
    bind_factor(target, train_target(target, opts.tracer));
  });

  build_kernel();
}

void FactorSet::resample_node(graph::NodeIndex node, const MetricSpace& space,
                              std::vector<double>& state, Rng& rng) const {
  for (const VarIndex v : space.vars_of(node))
    state[v] = conditionals_[v]->sample(state, rng);
}

void FactorSet::build_kernel() {
  const std::size_t n = conditionals_.size();
  assert(n < std::numeric_limits<std::uint32_t>::max());
  kernel_.vars.assign(n, {});
  kernel_.mean.assign(n, 0.0);
  kernel_.feat.clear();
  kernel_.wdiv.clear();
  // Tracks which variables already have their shared mean pinned by an
  // earlier conditional. The serial ascending-v order makes the build
  // deterministic.
  std::vector<char> seen(n, 0);
  for (VarIndex v = 0; v < n; ++v) {
    const MetricConditional& c = *conditionals_[v];
    SampleKernel::VarEntry& e = kernel_.vars[v];
    // Sample sigma: the residual sigma when a model exists, the historical
    // sigma otherwise.
    e.sigma = c.residual_sigma();
    const stats::RidgeRegression* r = c.model();
    if (r == nullptr) {  // no usable features: predict() returns hist_mean
      e.base = c.hist_mean();
      continue;
    }
    const auto features = c.features();
    const stats::Vector& fm = r->feature_means();
    const stats::Vector& fs = r->feature_scales();
    const stats::Vector& w = r->standardized_weights();
    double base = r->intercept();
    e.begin = static_cast<std::uint32_t>(kernel_.feat.size());
    e.count = static_cast<std::uint32_t>(features.size());
    for (std::size_t j = 0; j < features.size(); ++j) {
      const VarIndex f = features[j];
      const double wd = w[j] / fs[j];
      if (seen[f] == 0) {
        seen[f] = 1;
        kernel_.mean[f] = fm[j];
      } else if (std::bit_cast<std::uint64_t>(kernel_.mean[f]) !=
                 std::bit_cast<std::uint64_t>(fm[j])) {
        // fit_weighted() makes every conditional derive the same mean for a
        // feature, so this is defensive. It is exact algebra:
        //   wd * (x - fm) = wd * (x - mean[f]) + wd * (mean[f] - fm).
        // Only differing bits fold, so agreeing kernels stay bit-for-bit.
        base += wd * (kernel_.mean[f] - fm[j]);
      }
      kernel_.feat.push_back(static_cast<std::uint32_t>(f));
      kernel_.wdiv.push_back(wd);
    }
    e.base = base;
  }
}

}  // namespace murphy::core
