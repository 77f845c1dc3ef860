#include "src/core/factor_model.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/common/thread_pool.h"
#include "src/stats/correlation.h"
#include "src/stats/summary.h"
#include "src/telemetry/monitoring_db.h"

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

namespace {

// Derives one target's factor from its moment block (column 0 the target,
// then its candidates in (entity, kind) order). `cs` are the block's
// series, read again only by the exact residual pass over [begin, end).
CachedFactor fit_block(const MomentBlock& blk,
                       std::span<const telemetry::TimeSeries* const> cs,
                       TimeIndex train_begin, TimeIndex train_end,
                       const FactorTrainingOptions& opts) {
  const std::size_t d = blk.cols.size();
  const stats::CrossMoments& pm = blk.plain;
  const auto n = static_cast<double>(pm.rows());
  const double cyy = pm.centered(0, 0);
  CachedFactor cf;
  cf.hist_mean = pm.mean(0);
  cf.hist_sigma = pm.rows() < 2 ? 0.0 : std::sqrt(cyy / (n - 1.0));

  // Candidates scored by |pearson| against the target, cut at 0.05.
  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t c = 1; c < d; ++c) {
    const double r = std::abs(stats::pearson_moments(
        pm.centered(0, c), cyy, pm.centered(c, c), n, pm.mean(0),
        pm.mean(c)));
    if (r > 0.05) scored.emplace_back(r, c);
  }
  // Equal |pearson| resolves on (entity, kind) — the column order —
  // never on VarIndex, which would depend on the graph's node numbering
  // and break factor sharing across symptoms.
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  cf.considered = scored.size();
  if (scored.size() > opts.top_b) scored.resize(opts.top_b);

  if (!scored.empty()) {
    std::vector<std::size_t> sel{0};
    for (const auto& [r, c] : scored) sel.push_back(c);
    const stats::CenteredMoments plain = pm.select(sel);
    auto model = std::make_shared<stats::RidgeRegression>(opts.l2);
    // The exact residual pass, for when the moment form cancels.
    const auto exact = [&](const stats::RidgeRegression& m) {
      const auto value = [&](std::size_t c, TimeIndex t) {
        return cs[c] == nullptr ? 0.0 : cs[c]->value_or(t, 0.0);
      };
      stats::OnlineStats resid;
      std::vector<double> x(sel.size() - 1);
      for (TimeIndex t = train_begin; t < train_end; ++t) {
        for (std::size_t j = 1; j < sel.size(); ++j)
          x[j - 1] = value(sel[j], t);
        resid.add(value(0, t) - m.predict(x));
      }
      return resid.count() >= 2 ? resid.stddev() : 0.0;
    };
    model->fit_moments(
        blk.decayed.dims() > 0 ? blk.decayed.select(sel) : plain, plain,
        exact);
    cf.model = std::move(model);
    cf.features.reserve(scored.size());
    for (const auto& [r, c] : scored) cf.features.push_back(blk.cols[c]);
  }
  cf.robust_center = stats::median_sorted(blk.sorted_target);
  cf.robust_sigma = stats::mad_sigma_sorted(blk.sorted_target,
                                            cf.hist_sigma);
  return cf;
}

}  // namespace

FactorSet::FactorSet(const telemetry::MonitoringDb& db,
                     const graph::RelationshipGraph& graph,
                     const MetricSpace& space, TimeIndex train_begin,
                     TimeIndex train_end, const FactorTrainingOptions& opts) {
  // Degenerate training windows (empty after a symptom at t=0, or inverted
  // after clock-skewed telemetry) are defined, not asserted: clamp to an
  // empty window, which trains flat hist-mean conditionals everywhere
  // (DESIGN.md §8, counter `train.empty_windows`).
  if (train_end < train_begin) train_end = train_begin;
  if (train_end == train_begin && opts.metrics != nullptr)
    opts.metrics->counter("train.empty_windows")->add(1);
  conditionals_.resize(space.size());
  const double decay = opts.recency_half_life > 0.0
                           ? std::pow(0.5, 1.0 / opts.recency_half_life)
                           : 1.0;

  // Each variable's series, read once: the block columns, their history ids
  // and append marks.
  std::vector<const telemetry::TimeSeries*> series(space.size());
  for (VarIndex v = 0; v < space.size(); ++v)
    series[v] = db.metrics().find(space.var(v).entity, space.var(v).kind);

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
#ifndef MURPHY_OBS_DISABLED
  static obs::Counter* const c_block_hits =
      obs::global_metrics().counter("cache.window_hits");
  static obs::Counter* const c_block_misses =
      obs::global_metrics().counter("cache.window_misses");
#endif

  // Trains the factor of one target variable from its moment block, in
  // graph-independent (CachedFactor) form. Pure: everything it returns is a
  // function of the candidate histories and options alone, which is what
  // makes the result shareable across symptoms (see FactorCache).
  auto train_target = [&](VarIndex target, obs::Tracer* tracer) {
    obs::Span fit_span(tracer, "fit_factor", target, opts.trace_parent);
    const auto& tvar = space.var(target);

    // Block columns: the target, then its candidate features — all metrics
    // of in-neighbor nodes (the in_nbrs(v) of the factor definition), plus
    // the entity's OTHER own metrics, which the paper's P_v(v | ...) treats
    // jointly — in (entity, kind) order.
    std::vector<VarIndex> cols{target};
    for (const graph::NodeIndex nb : graph.in_neighbors(tvar.node))
      for (const VarIndex f : space.vars_of(nb)) cols.push_back(f);
    for (const VarIndex f : space.vars_of(tvar.node))
      if (f != target) cols.push_back(f);
    const auto ref_of = [&](VarIndex v) {
      return MetricRef{space.var(v).entity, space.var(v).kind};
    };
    std::sort(cols.begin() + 1, cols.end(),
              [&](VarIndex a, VarIndex b) { return ref_of(a) < ref_of(b); });
    cols.erase(std::unique(cols.begin() + 1, cols.end()), cols.end());
    const std::size_t d = cols.size();

    std::vector<const telemetry::TimeSeries*> cs(d);
    std::vector<MetricRef> refs(d);
    std::vector<std::uint64_t> ids(d);
    TimeIndex min_mark = train_end;
    for (std::size_t c = 0; c < d; ++c) {
      cs[c] = series[cols[c]];
      refs[c] = ref_of(cols[c]);
      ids[c] = cs[c] == nullptr ? 0 : cs[c]->history_id();
      min_mark = std::min(min_mark,
                          cs[c] == nullptr ? TimeIndex{0}
                                           : cs[c]->append_mark());
    }
    const auto init = [&](MomentBlock& b) {
      b.begin = train_begin;
      b.cols = refs;
      b.history = ids;
      b.plain = stats::CrossMoments(d, 1.0);
      if (decay != 1.0) b.decayed = stats::CrossMoments(d, decay);
    };

    // The block: the store's, extended by the rows below every column's
    // append mark, or a transient one. Rows the store may not keep are
    // folded into a per-request copy; cold builds fold every row from zero.
    MomentBlock transient;
    const MomentBlock* blk = &transient;
    std::unique_lock<std::mutex> held;
    bool reused = false;
    if (opts.moment_store != nullptr) {
      std::uint64_t key = hash_mix(0xB10C4B11u, train_begin);
      key = hash_mix(key, std::bit_cast<std::uint64_t>(decay));
      for (std::size_t c = 0; c < d; ++c) {
        key = hash_mix(key, (static_cast<std::uint64_t>(
                                 refs[c].entity.value()) << 32) |
                                refs[c].kind.value());
        key = hash_mix(key, ids[c]);
      }
      MomentStore::Slot& slot = opts.moment_store->slot(key);
      held = std::unique_lock<std::mutex>(slot.mu);
      MomentBlock& b = slot.block;
      if (b.cols.empty()) init(b);
      if (b.cols == refs && b.history == ids && b.begin == train_begin &&
          b.end() <= train_end) {
        reused = b.rows() > 0;
        b.extend(cs, std::clamp(min_mark, train_begin, train_end));
        if (b.end() == train_end) {
          blk = &b;  // derived under the block's lock
        } else {
          transient = b;
          held.unlock();
        }
      } else {
        held.unlock();  // the window ends before the block's rows
        init(transient);
      }
    } else {
      init(transient);
    }
    if (blk == &transient) transient.extend(cs, train_end);
#ifndef MURPHY_OBS_DISABLED
    (reused ? c_block_hits : c_block_misses)->add(1);
#else
    (void)reused;
#endif

    CachedFactor cf = fit_block(*blk, cs, train_begin, train_end, opts);
    if (c_corr_cells != nullptr) c_corr_cells->add(d - 1);
    if (c_fits != nullptr) c_fits->add(1);
    if (fit_span.enabled()) {
      fit_span.arg("features",
                   static_cast<std::uint64_t>(cf.features.size()));
      fit_span.arg("rows", static_cast<std::uint64_t>(blk->rows()));
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

  // Factor-cache keys: one (kind, epoch) digest per graph node, computed
  // once here instead of once per target that reads the node.
  std::vector<std::uint64_t> node_digest;
  if (opts.factor_cache != nullptr) {
    if (opts.metrics != nullptr) {
      c_cache_hits = opts.metrics->counter("cache.factor_hits");
      c_cache_misses = opts.metrics->counter("cache.factor_misses");
    }
    node_digest.resize(graph.node_count());
    for (graph::NodeIndex nd = 0; nd < graph.node_count(); ++nd) {
      const EntityId e = graph.entity_of(nd);
      std::uint64_t h = hash_mix(0xD16E57u, e.value());
      for (const VarIndex v : space.vars_of(nd)) {
        const MetricKindId k = space.var(v).kind;
        h = hash_mix(h, k.value());
        h = hash_mix(h, db.metrics().series_epoch(e, k));
      }
      node_digest[nd] = h;
    }
  }
  const std::uint64_t window_key =
      (static_cast<std::uint64_t>(train_begin) << 32) | train_end;

  // One fit per variable, all independent: parallelize over targets. Each
  // fit is a pure function of its histories and the options, so the
  // trained set is bitwise identical at any thread count.
  parallel_for(opts.num_threads, space.size(), [&](std::size_t t) {
    const VarIndex target = t;
    if (opts.factor_cache != nullptr) {
      const auto& tvar = space.var(target);
      std::uint64_t key = hash_mix(0x0FAC70C5u, tvar.entity.value());
      key = hash_mix(key, tvar.kind.value());
      key = hash_mix(key, node_digest[tvar.node]);
      // Sorted in-neighbor entity set, each with its series digest: equal
      // keys => identical candidate feature set over identical histories
      // => identical selection and fit (see FactorCache).
      std::vector<std::pair<std::uint32_t, graph::NodeIndex>> nbrs;
      for (const graph::NodeIndex nb : graph.in_neighbors(tvar.node))
        nbrs.emplace_back(graph.entity_of(nb).value(), nb);
      std::sort(nbrs.begin(), nbrs.end());
      for (const auto& [e, nb] : nbrs) {
        key = hash_mix(key, e);
        key = hash_mix(key, node_digest[nb]);
      }
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
