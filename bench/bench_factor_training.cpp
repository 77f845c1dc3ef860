// Factor-training microbenchmark: cross-symptom cache off vs on.
//
// A batch diagnosis trains one FactorSet per symptom, and the symptoms of
// one incident share most of their relationship-graph neighborhoods — so
// without sharing, the same (entity, kind, in-neighbor-set) conditional is
// re-scored and re-fit once per symptom. This bench isolates the training
// phase (graph build + MetricSpace + FactorSet) over a set of symptom seeds
// from one enterprise incident and times it three ways:
//
//   cold   — no caches (the pre-cache engine's behaviour);
//   shared — one TrainingCaches across the symptom set, as BatchDiagnoser
//            and DiagnosisService wire it (first pass trains misses);
//   warm   — a second pass over the same generation (everything hits, the
//            repeat-diagnosis case).
//
// The trained conditionals are bitwise identical in all three modes (the
// concurrency/cache tests assert this); only the work changes. Target:
// shared >= 5x over cold. A streaming-churn pass then rewrites one cell of
// ~1% of the series and checks that >= 80% of the factors are not refit. A
// growing-window pass last trains the symptoms' graphs at windows E, E+1,
// ..., E+32 through one TrainingCaches — each step extends the moment
// blocks by one row — and compares every factor with a cold training of
// the same window. The binary exits non-zero when retention is short or
// any extended factor differs from its cold twin in a single bit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/batch.h"
#include "src/core/factor_cache.h"
#include "src/core/symptom_finder.h"
#include "src/enterprise/incidents.h"

using namespace murphy;

namespace {

double train_all(const telemetry::MonitoringDb& db,
                 std::span<const core::Symptom> symptoms,
                 TimeIndex train_begin, TimeIndex train_end,
                 core::TrainingCaches* caches, std::size_t* factors_out,
                 obs::MetricsRegistry* metrics = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t factors = 0;
  for (const core::Symptom& symptom : symptoms) {
    const std::vector<EntityId> seed_vec{symptom.entity};
    const auto graph = graph::RelationshipGraph::build(db, seed_vec);
    const core::MetricSpace space(db, graph);
    core::FactorTrainingOptions topts;
    topts.metrics = metrics;  // cache.factor_hits / cache.factor_misses
    if (caches != nullptr) caches->attach(db, topts);
    const core::FactorSet factors_set(db, graph, space, train_begin,
                                      train_end, topts);
    factors += factors_set.size();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (factors_out != nullptr) *factors_out = factors;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// True when every conditional of `a` and `b` agrees to the bit.
bool same_bits(const core::FactorSet& a, const core::FactorSet& b) {
  if (a.size() != b.size()) return false;
  for (core::VarIndex v = 0; v < a.size(); ++v) {
    const core::MetricConditional& x = a.conditional(v);
    const core::MetricConditional& y = b.conditional(v);
    if (!std::equal(x.features().begin(), x.features().end(),
                    y.features().begin(), y.features().end()) ||
        x.hist_mean() != y.hist_mean() || x.hist_sigma() != y.hist_sigma() ||
        x.robust_center() != y.robust_center() ||
        x.robust_sigma() != y.robust_sigma() ||
        x.residual_sigma() != y.residual_sigma() ||
        (x.model() == nullptr) != (y.model() == nullptr))
      return false;
    if (x.model() != nullptr &&
        (x.model()->standardized_weights() !=
             y.model()->standardized_weights() ||
         x.model()->feature_means() != y.model()->feature_means() ||
         x.model()->feature_scales() != y.model()->feature_scales() ||
         x.model()->intercept() != y.model()->intercept()))
      return false;
  }
  return true;
}

// Streams one fresh value onto every series of ~`fraction` of the entities
// (collectors report all metrics of an entity together, so real churn is
// entity-clustered). Returns the number of series touched.
std::size_t churn_series(telemetry::MonitoringDb& db, double fraction,
                         TimeIndex t) {
  const auto entities = db.all_entities();
  const std::size_t stride = static_cast<std::size_t>(1.0 / fraction);
  std::size_t touched = 0;
  for (std::size_t i = 0; i < entities.size(); i += stride) {
    for (const MetricKindId kind : db.metrics().kinds_of(entities[i])) {
      const telemetry::TimeSeries* s = db.metrics().find(entities[i], kind);
      const double v = s->value_or(t, 0.0) + 0.125;  // bitwise-new value
      db.metrics().upsert_cell(entities[i], kind, t, v);
      ++touched;
    }
  }
  return touched;
}

}  // namespace

int main() {
  bench::print_header(
      "Factor-training microbench: cross-symptom factor reuse",
      "engineering experiment (no paper figure) — batch training cost with "
      "the moment store off vs shared");

  enterprise::IncidentDatasetOptions opts;
  if (!bench::full_scale()) {
    opts.topology.num_apps = 8;
    opts.topology.hosts = 12;
    opts.topology.tors = 3;
    opts.topology.ports_per_tor = 8;
    opts.topology.datastores = 4;
    opts.dynamics.slices = 168;
  }
  const auto incident = enterprise::make_incident(2, opts);
  bench::stamp_workload({"enterprise-incidents", opts.topology.num_apps,
                         opts.topology.hosts, opts.seed, "incident-2"});
  const telemetry::MonitoringDb& db = incident.topo.db;
  const TimeIndex train_end = incident.incident_end;
  const TimeIndex train_begin = 0;

  // Symptom list: whatever find_symptoms flags on the incident's app at the
  // incident window — the exact shape diagnose_app feeds into a batch run.
  // Several symptoms name the same entity (one noisy VM trips cpu_util,
  // mem_util, and net_* at once), and same-entity symptoms share identical
  // relationship graphs, which is where cross-symptom reuse pays off.
  const AppId app = db.entity(incident.symptom_entity).app;
  core::SymptomFinderOptions fopts;
  fopts.max_symptoms = 32;
  const auto symptoms =
      core::find_symptoms(db, app, incident.incident_end - 1, fopts);
  std::size_t distinct = 0;
  {
    std::vector<EntityId> ents;
    for (const auto& s : symptoms) ents.push_back(s.entity);
    std::sort(ents.begin(), ents.end());
    distinct = static_cast<std::size_t>(
        std::unique(ents.begin(), ents.end()) - ents.begin());
  }
  std::printf(
      "incident 2, %zu symptoms over %zu distinct entities, window "
      "[%zu, %zu)\n\n",
      symptoms.size(), distinct, static_cast<std::size_t>(train_begin),
      static_cast<std::size_t>(train_end));

  const std::size_t reps = bench::scaled(3, 5);
  double cold_ms = 1e300, shared_ms = 1e300, warm_ms = 1e300;
  std::size_t factors = 0;
  std::uint64_t shared_hits = 0, shared_misses = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    cold_ms = std::min(cold_ms, train_all(db, symptoms, train_begin,
                                          train_end, nullptr, &factors));

    core::TrainingCaches caches;
    obs::MetricsRegistry shared;
    shared_ms =
        std::min(shared_ms, train_all(db, symptoms, train_begin, train_end,
                                      &caches, nullptr, &shared));
    // Deterministic counts of the first shared pass: misses = fits of
    // distinct target problems, hits = cross-symptom memo reuse.
    shared_hits = shared.counter("cache.factor_hits")->value();
    shared_misses = shared.counter("cache.factor_misses")->value();
    warm_ms = std::min(warm_ms, train_all(db, symptoms, train_begin,
                                          train_end, &caches, nullptr));
    std::fprintf(stderr, "  rep %zu done\n", r + 1);
  }

  std::printf("conditionals trained per pass: %zu\n", factors);
  std::printf("cold   (no caches)      : %9.1f ms\n", cold_ms);
  std::printf("shared (first pass)     : %9.1f ms   %.1fx\n", shared_ms,
              cold_ms / shared_ms);
  std::printf("warm   (repeat pass)    : %9.1f ms   %.1fx\n", warm_ms,
              cold_ms / warm_ms);
  std::printf("shared pass factor memo  : %llu hits, %llu misses\n",
              static_cast<unsigned long long>(shared_hits),
              static_cast<unsigned long long>(shared_misses));
  std::printf("\ntarget: shared >= 5x cold\n");

  auto& m = obs::global_metrics();
  m.gauge("bench.cold_ms")->set(cold_ms);
  m.gauge("bench.shared_ms")->set(shared_ms);
  m.gauge("bench.warm_ms")->set(warm_ms);
  m.gauge("bench.shared_speedup")->set(cold_ms / shared_ms);
  m.gauge("bench.warm_speedup")->set(cold_ms / warm_ms);
  m.gauge("bench.shared_hits")->set(static_cast<double>(shared_hits));
  m.gauge("bench.shared_misses")->set(static_cast<double>(shared_misses));

  // --- streaming churn ------------------------------------------------------
  // The long-running service's case for per-series history ids: after ~1%
  // of series receive a rewritten value, only the factors whose block reads
  // a touched series retrain (a data_version() fingerprint would retrain
  // every one).
  std::printf("\nstreaming churn (~1%% of series written between passes):\n");
  double epoch_rate = 0.0;
  {
    telemetry::MonitoringDb churn_db = db;  // mutable copy, fresh uid
    core::TrainingCaches caches;
    obs::MetricsRegistry reg;
    const obs::Counter* hits = reg.counter("cache.factor_hits");
    const obs::Counter* misses = reg.counter("cache.factor_misses");
    train_all(churn_db, symptoms, train_begin, train_end, &caches, nullptr,
              &reg);
    // Every pass-1 miss is one unique factor; a pass-2 miss is a factor the
    // churn invalidated. retained = the fraction that did NOT retrain —
    // the raw hit rate would flatter it with intra-pass cross-symptom
    // reuse, which is not what invalidation granularity is about.
    const std::uint64_t unique = misses->value();
    const std::size_t touched = churn_series(churn_db, 0.01, train_end - 1);
    const std::uint64_t h0 = hits->value(), m0 = misses->value();
    train_all(churn_db, symptoms, train_begin, train_end, &caches, nullptr,
              &reg);
    const std::uint64_t h = hits->value() - h0, mm = misses->value() - m0;
    epoch_rate =
        unique == 0
            ? 0.0
            : 1.0 - static_cast<double>(mm) / static_cast<double>(unique);
    std::printf("  %zu series touched, %llu unique factors\n", touched,
                static_cast<unsigned long long>(unique));
    std::printf(
        "  %5.1f%% factors retained (%llu retrained), %5.1f%% lookup hits\n",
        100.0 * epoch_rate, static_cast<unsigned long long>(mm),
        100.0 * static_cast<double>(h) / static_cast<double>(h + mm));
  }
  std::printf("\ntarget: >= 80%% of factors retained at 1%% churn\n");
  m.gauge("bench.churn_epoch_retained")->set(epoch_rate);

  // --- growing window --------------------------------------------------------
  // The service's case for the moment store: every REPLAY tick grows the
  // window by one row, so every memo misses, and only the new row should
  // cost anything. One graph per distinct symptom entity.
  constexpr TimeIndex kSteps = 32;
  const TimeIndex grow_begin = train_end > kSteps ? train_end - kSteps : 0;
  std::vector<EntityId> grow_entities;
  for (const core::Symptom& s : symptoms)
    if (std::find(grow_entities.begin(), grow_entities.end(), s.entity) ==
        grow_entities.end())
      grow_entities.push_back(s.entity);
  struct Graph {
    graph::RelationshipGraph graph;
    core::MetricSpace space;
  };
  std::vector<Graph> graphs;
  for (const EntityId e : grow_entities) {
    auto g = graph::RelationshipGraph::build(db, std::vector<EntityId>{e});
    core::MetricSpace space(db, g);
    graphs.push_back(Graph{std::move(g), std::move(space)});
  }
  const auto train_step =
      [&](TimeIndex end, core::TrainingCaches* caches, double* ms) {
        std::vector<std::unique_ptr<core::FactorSet>> sets;
        const auto t0 = std::chrono::steady_clock::now();
        for (const Graph& g : graphs) {
          core::FactorTrainingOptions topts;
          if (caches != nullptr) caches->attach(db, topts);
          sets.push_back(std::make_unique<core::FactorSet>(
              db, g.graph, g.space, 0, end, topts));
        }
        *ms += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
        return sets;
      };
  double grow_cold_ms = 0.0, grow_extended_ms = 0.0;
  std::size_t mismatches = 0;
  {
    core::TrainingCaches caches;
    for (TimeIndex end = grow_begin; end <= grow_begin + kSteps; ++end) {
      const auto cold = train_step(end, nullptr, &grow_cold_ms);
      double first_ms = 0.0;
      const auto extended = train_step(
          end, &caches, end == grow_begin ? &first_ms : &grow_extended_ms);
      for (std::size_t i = 0; i < cold.size(); ++i)
        if (!same_bits(*cold[i], *extended[i])) ++mismatches;
    }
  }
  const double steps = static_cast<double>(kSteps + 1);
  std::printf(
      "\ngrowing window [0, %zu..%zu), %zu graphs:\n"
      "  cold     %8.2f ms per step\n"
      "  extended %8.2f ms per step (one appended row)\n"
      "  %zu factor sets differ from cold\n",
      static_cast<std::size_t>(grow_begin),
      static_cast<std::size_t>(grow_begin + kSteps), graphs.size(),
      grow_cold_ms / steps, grow_extended_ms / (steps - 1.0), mismatches);
  m.gauge("bench.grow_cold_ms")->set(grow_cold_ms / steps);
  m.gauge("bench.grow_extended_ms")->set(grow_extended_ms / (steps - 1.0));
  m.gauge("bench.grow_mismatches")->set(static_cast<double>(mismatches));

  bench::write_bench_json("factor_training");
  if (epoch_rate < 0.8) {
    std::fprintf(stderr, "FAIL: churn retention %.3f < 0.8\n", epoch_rate);
    return 1;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %zu extended factor sets differ from cold\n",
                 mismatches);
    return 1;
  }
  return 0;
}
