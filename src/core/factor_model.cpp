#include "src/core/factor_model.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

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
    for (const auto& [r, c] : scored) cf.features.push_back(c);
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

  // Each variable's block column, read once: its series, (entity, kind)
  // ref, history id (0 = no series), append mark, a digest of (ref,
  // history id) for slot keys, and an independent one that also covers
  // the mark within the window for memo tags. Rows below the mark are
  // fixed by the history id and rows past it were never written, so
  // (history id, mark) fixes every value the window reads.
  struct Column {
    const telemetry::TimeSeries* series;
    MetricRef ref;
    std::uint64_t history;
    TimeIndex mark;
    std::uint64_t digest;
    std::uint64_t tag;
  };
  std::vector<Column> column(space.size());
  for (VarIndex v = 0; v < space.size(); ++v) {
    Column& c = column[v];
    c.ref = MetricRef{space.var(v).entity, space.var(v).kind};
    c.series = db.metrics().find(c.ref.entity, c.ref.kind);
    c.history = c.series == nullptr ? 0 : c.series->history_id();
    c.mark = c.series == nullptr ? 0 : c.series->append_mark();
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(c.ref.entity.value()) << 32) |
        c.ref.kind.value();
    c.digest = hash_mix(packed, c.history);
    c.tag = hash_mix(hash_mix(c.history ^ 0x7A65C0DEu, packed),
                     std::min(c.mark, train_end));
  }

  // Every variable in (entity, kind) order. A node's variables are one run
  // of it, so a target's block columns are the runs of its nodes taken in
  // entity order.
  std::vector<VarIndex> by_ref(space.size());
  std::iota(by_ref.begin(), by_ref.end(), VarIndex{0});
  std::sort(by_ref.begin(), by_ref.end(), [&](VarIndex a, VarIndex b) {
    return column[a].ref < column[b].ref;
  });
  std::vector<std::size_t> run_begin(graph.node_count());
  for (std::size_t i = by_ref.size(); i-- > 0;)
    run_begin[space.var(by_ref[i]).node] = i;

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
    if (opts.moment_store != nullptr) {
      c_cache_hits = opts.metrics->counter("cache.factor_hits");
      c_cache_misses = opts.metrics->counter("cache.factor_misses");
    }
  }
#ifndef MURPHY_OBS_DISABLED
  static obs::Counter* const c_block_hits =
      obs::global_metrics().counter("cache.window_hits");
  static obs::Counter* const c_block_misses =
      obs::global_metrics().counter("cache.window_misses");
#endif
  // Fits through a store run untraced: WHICH FactorSet pays the fit of a
  // shared slot is scheduling-dependent, and per-fit spans would make
  // traces vary run to run. The slot mutex serializes the first fit, so
  // over trainings at one window the totals stay deterministic (misses =
  // distinct target problems, hits = the rest).
  obs::Tracer* const tracer =
      opts.moment_store != nullptr ? nullptr : opts.tracer;

  // One factor per variable, all independent: parallelize over targets.
  // Each factor is a pure function of its histories and the options, so
  // the trained set is bitwise identical at any thread count.
  parallel_for(opts.pool, opts.num_threads, space.size(), [&](std::size_t t) {
    const VarIndex target = t;
    obs::Span fit_span(tracer, "fit_factor", target, opts.trace_parent);
    const auto& tvar = space.var(target);

    // Block columns: the target, then its candidate features — all metrics
    // of in-neighbor nodes (the in_nbrs(v) of the factor definition), plus
    // the entity's OTHER own metrics, which the paper's P_v(v | ...) treats
    // jointly — in (entity, kind) order.
    const auto in_nbrs = graph.in_neighbors(tvar.node);
    std::vector<graph::NodeIndex> nodes(in_nbrs.begin(), in_nbrs.end());
    nodes.push_back(tvar.node);
    std::sort(nodes.begin(), nodes.end(),
              [&](graph::NodeIndex a, graph::NodeIndex b) {
                return graph.entity_of(a) < graph.entity_of(b);
              });
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    std::vector<VarIndex> cols{target};
    for (const graph::NodeIndex n : nodes) {
      const std::size_t end = run_begin[n] + space.vars_of(n).size();
      for (std::size_t i = run_begin[n]; i < end; ++i)
        if (by_ref[i] != target) cols.push_back(by_ref[i]);
    }
    const std::size_t d = cols.size();
    TimeIndex min_mark = train_end;
    for (const VarIndex v : cols)
      min_mark = std::min(min_mark, column[v].mark);

    // The block's series, read only when rows are folded or fit.
    std::vector<const telemetry::TimeSeries*> cs;
    const auto series = [&] {
      if (cs.empty())
        for (const VarIndex v : cols) cs.push_back(column[v].series);
      return std::span<const telemetry::TimeSeries* const>(cs);
    };
    const auto init = [&](MomentBlock& b) {
      b.begin = train_begin;
      for (const VarIndex v : cols) {
        b.cols.push_back(column[v].ref);
        b.history.push_back(column[v].history);
      }
      b.plain = stats::CrossMoments(d, 1.0);
      if (decay != 1.0) b.decayed = stats::CrossMoments(d, decay);
    };
    // Guards against a slot-key collision: the block is this problem's.
    const auto owns = [&](const MomentBlock& b) {
      if (b.begin != train_begin || b.cols.size() != d) return false;
      for (std::size_t c = 0; c < d; ++c)
        if (!(b.cols[c] == column[cols[c]].ref) ||
            b.history[c] != column[cols[c]].history)
          return false;
      return true;
    };
    // `reused`: the block already held rows before this request.
    const auto fit = [&](const MomentBlock& blk, bool reused) {
#ifndef MURPHY_OBS_DISABLED
      (reused ? c_block_hits : c_block_misses)->add(1);
#else
      (void)reused;
#endif
      if (c_cache_misses != nullptr) c_cache_misses->add(1);
      if (c_corr_cells != nullptr) c_corr_cells->add(d - 1);
      if (c_fits != nullptr) c_fits->add(1);
      CachedFactor cf =
          fit_block(blk, series(), train_begin, train_end, opts);
      if (fit_span.enabled()) {
        fit_span.arg("features",
                     static_cast<std::uint64_t>(cf.features.size()));
        fit_span.arg("rows", static_cast<std::uint64_t>(blk.rows()));
      }
      return cf;
    };

    // The factor: the slot's memo when it was fit at train_end over the
    // same marks, else a fit of the block extended by the rows below every
    // column's append mark, plus a per-request copy for the rows the store
    // may not keep; that fit becomes the memo. A window that ends before
    // the block's rows gets a transient block built cold, whose fit is not
    // stored.
    const CachedFactor cf = [&] {
      MomentBlock transient;
      bool reused = false;
      if (opts.moment_store != nullptr) {
        const std::uint64_t decay_bits = std::bit_cast<std::uint64_t>(decay);
        std::uint64_t key =
            hash_mix(hash_mix(0xB10C4B11u, train_begin), decay_bits);
        std::uint64_t tag =
            hash_mix(hash_mix(0x7A65C0DEu, decay_bits), train_begin);
        for (const VarIndex v : cols) {
          key = hash_mix(key, column[v].digest);
          tag = hash_mix(tag, column[v].tag);
        }
        MomentStore::Slot& slot = opts.moment_store->slot(key);
        std::unique_lock<std::mutex> held(slot.mu);
        // The tag stands in for the block's column lists, which a hit
        // would otherwise read, and for the rows past any append mark.
        if (slot.memo.end == train_end && slot.memo.tag == tag) {
          if (c_cache_hits != nullptr) c_cache_hits->add(1);
          return slot.memo.factor;
        }
        MomentBlock& b = slot.block;
        if (b.cols.empty()) init(b);
        if (owns(b) && b.end() <= train_end) {
          reused = b.rows() > 0;
          b.extend(series(), std::clamp(min_mark, train_begin, train_end));
          const MomentBlock* blk = &b;
          if (b.end() < train_end) {
            transient = b;
            transient.extend(series(), train_end);
            blk = &transient;
          }
          slot.memo.factor = fit(*blk, reused);
          slot.memo.end = train_end;
          slot.memo.tag = tag;
          return slot.memo.factor;
        } else {
          init(transient);
        }
      } else {
        init(transient);
      }
      transient.extend(series(), train_end);
      return fit(transient, reused);
    }();

    // Bind the factor to this graph's VarIndex space: its features are
    // positions in `cols`.
    std::vector<VarIndex> features;
    features.reserve(cf.features.size());
    for (const std::size_t c : cf.features) features.push_back(cols[c]);
    auto cond = std::make_unique<MetricConditional>(
        target, std::move(features), cf.model, cf.hist_mean, cf.hist_sigma);
    cond->set_robust(cf.robust_center, cf.robust_sigma);
    if (c_pruned != nullptr && cf.considered > cf.features.size())
      c_pruned->add(cf.considered - cf.features.size());
    if (h_features != nullptr)
      h_features->observe(static_cast<double>(cf.features.size()));
    conditionals_[target] = std::move(cond);
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
