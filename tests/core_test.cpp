// Tests for the Murphy core: thresholds, metric space, factor training,
// counterfactual sampling, candidate search, labeling/explanations and the
// end-to-end diagnoser on both microservice and enterprise scenarios.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <new>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/anomaly.h"
#include "src/core/batch.h"
#include "src/core/explain.h"
#include "src/core/factor_cache.h"
#include "src/core/murphy.h"
#include "src/core/sampler.h"
#include "src/emulation/scenarios.h"
#include "src/obs/metrics.h"
#include "src/enterprise/incidents.h"
#include "src/telemetry/metric_catalog.h"
#include "src/stats/summary.h"

namespace murphy::core {
namespace {

namespace mk = telemetry::metrics;
using telemetry::EntityType;
using telemetry::MonitoringDb;
using telemetry::RelationKind;

TEST(Thresholds, PerKindRules) {
  const Thresholds t;
  EXPECT_TRUE(t.is_above(mk::kCpuUtil, 30.0));
  EXPECT_FALSE(t.is_above(mk::kCpuUtil, 20.0));
  EXPECT_TRUE(t.is_above(mk::kPacketDrops, 0.2));
  EXPECT_FALSE(t.is_above(mk::kPacketDrops, 0.05));
  EXPECT_TRUE(t.is_above(mk::kSessionCount, 60.0));
  EXPECT_TRUE(t.is_above(mk::kThroughput, 10.0));
  EXPECT_TRUE(t.is_above(mk::kLatency, 80.0));
  EXPECT_FALSE(t.is_above("unknown_metric", 1e9));
}

// A small chain A -> B -> C where B = 2A + noise, C = 3B + noise.
// Bidirectional edges make it cyclic, like real relationship graphs.
struct ChainFixture {
  MonitoringDb db;
  EntityId a, b, c;
  MetricKindId load;
  graph::RelationshipGraph graph;
  std::unique_ptr<MetricSpace> space;
  std::unique_ptr<FactorSet> factors;

  explicit ChainFixture(std::size_t slices = 200, double surge_at_end = 0.0) {
    a = db.add_entity(EntityType::kVm, "A");
    b = db.add_entity(EntityType::kVm, "B");
    c = db.add_entity(EntityType::kVm, "C");
    db.add_association(a, b, RelationKind::kGeneric);
    db.add_association(b, c, RelationKind::kGeneric);
    load = db.catalog().intern("cpu_util");
    db.metrics().set_axis(TimeAxis(0.0, 10.0, slices));

    Rng rng(77);
    std::vector<double> va(slices), vb(slices), vc(slices);
    for (std::size_t t = 0; t < slices; ++t) {
      double base = 5.0 + 3.0 * std::sin(0.07 * static_cast<double>(t)) +
                    rng.normal(0.0, 0.2);
      if (surge_at_end > 0.0 && t >= slices - slices / 10) base += surge_at_end;
      va[t] = base;
      vb[t] = 2.0 * va[t] + rng.normal(0.0, 0.3);
      vc[t] = 3.0 * vb[t] + rng.normal(0.0, 0.5);
    }
    db.metrics().put(a, load, va);
    db.metrics().put(b, load, vb);
    db.metrics().put(c, load, vc);

    const std::vector<EntityId> seeds{c};
    graph = graph::RelationshipGraph::build(db, seeds, 5);
    space = std::make_unique<MetricSpace>(db, graph);
    FactorTrainingOptions opts;
    factors = std::make_unique<FactorSet>(db, graph, *space, 0, slices, opts);
  }
};

TEST(MetricSpace, EnumeratesAllVariables) {
  ChainFixture f;
  EXPECT_EQ(f.space->size(), 3u);
  const auto v = f.space->find(f.b, f.load);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(f.space->var(*v).entity, f.b);
  EXPECT_FALSE(f.space->find(f.b, MetricKindId(99)).has_value());
}

TEST(MetricSpace, SnapshotReadsCurrentSlice) {
  ChainFixture f;
  const auto state = f.space->snapshot(f.db, 100);
  const auto va = f.space->find(f.a, f.load);
  const auto* ts = f.db.metrics().find(f.a, f.load);
  EXPECT_DOUBLE_EQ(state[*va], ts->value(100));
}

TEST(FactorModel, LearnsLinearNeighborRelationship) {
  ChainFixture f;
  const auto vb = *f.space->find(f.b, f.load);
  const auto va = *f.space->find(f.a, f.load);
  const auto vc = *f.space->find(f.c, f.load);
  auto state = f.space->snapshot(f.db, 150);

  // B's conditional shares weight between its collinear neighbors A and C;
  // set both coherently (B = 2A, C = 3B = 6A) and predict B ~ 2A.
  state[va] = 10.0;
  state[vc] = 60.0;
  const double pred = f.factors->conditional(vb).predict(state);
  EXPECT_NEAR(pred, 20.0, 2.5);
  state[va] = 4.0;
  state[vc] = 24.0;
  EXPECT_NEAR(f.factors->conditional(vb).predict(state), 8.0, 2.5);
}

TEST(FactorModel, ResidualSigmaIsSmallForCleanRelationship) {
  ChainFixture f;
  const auto vb = *f.space->find(f.b, f.load);
  EXPECT_LT(f.factors->conditional(vb).residual_sigma(), 1.5);
  EXPECT_GT(f.factors->conditional(vb).hist_sigma(), 2.0);  // marginal varies
}

TEST(FactorModel, HistoricalMomentsStored)  {
  ChainFixture f;
  const auto va = *f.space->find(f.a, f.load);
  EXPECT_NEAR(f.factors->conditional(va).hist_mean(), 5.0, 1.5);
}

TEST(FactorModel, ResampleNodeUpdatesAllItsMetrics) {
  ChainFixture f;
  const auto vb = *f.space->find(f.b, f.load);
  auto state = f.space->snapshot(f.db, 150);
  const auto va = *f.space->find(f.a, f.load);
  const auto vc = *f.space->find(f.c, f.load);
  // B's ridge conditional shares weight between its collinear neighbors A
  // and C (deliberately — see FactorTrainingOptions); move both coherently
  // (B = 2A, C = 3B) so the expected resample mean is well defined.
  state[va] = 12.0;
  state[vc] = 72.0;
  Rng rng(5);
  const auto node_b = *f.graph.index_of(f.b);
  stats::OnlineStats samples;
  for (int i = 0; i < 200; ++i) {
    auto s = state;
    f.factors->resample_node(node_b, *f.space, s, rng);
    samples.add(s[vb]);
  }
  EXPECT_NEAR(samples.mean(), 24.0, 2.5);
  EXPECT_GT(samples.stddev(), 0.05);  // it actually samples, not predicts
}

TEST(Sampler, CounterfactualPropagatesAcrossTwoHops) {
  // During a surge on A, counterfactualizing A back to normal should drop
  // C's sampled value: A is found to be a root cause of C's high metric.
  ChainFixture f(200, /*surge_at_end=*/15.0);
  const auto na = *f.graph.index_of(f.a);
  const auto nc = *f.graph.index_of(f.c);
  const auto va = *f.space->find(f.a, f.load);
  const auto vc = *f.space->find(f.c, f.load);
  const auto state = f.space->snapshot(f.db, 199);

  SamplerOptions opts;
  opts.num_samples = 300;
  CounterfactualSampler sampler(f.graph, *f.space, *f.factors, opts);
  Rng rng(1);
  const auto verdict =
      sampler.evaluate(na, va, nc, vc, state, /*symptom_high=*/true, rng);
  EXPECT_TRUE(verdict.is_root_cause);
  EXPECT_LT(verdict.mean_counterfactual, verdict.mean_factual - 1.0);
}

TEST(Sampler, DisconnectedEntityIsNeverRootCause) {
  // An entity with no path to the symptom cannot be a root cause: the
  // sampler must refuse without sampling. (Reverse-direction influence
  // through bidirectional edges, by contrast, is real in an MRF — the paper
  // is explicit that candidates are correlated, not proven causal.)
  MonitoringDb db;
  const auto a = db.add_entity(EntityType::kVm, "a");
  const auto b = db.add_entity(EntityType::kVm, "b");
  const auto d = db.add_entity(EntityType::kVm, "d");  // isolated
  db.add_association(a, b, RelationKind::kGeneric);
  const auto load = db.catalog().intern("cpu_util");
  db.metrics().set_axis(TimeAxis(0.0, 10.0, 50));
  Rng rng(4);
  for (const auto e : {a, b, d}) {
    std::vector<double> v(50);
    for (auto& x : v) x = rng.normal(10.0, 1.0);
    db.metrics().put(e, load, v);
  }
  const std::vector<EntityId> seeds{a, d};
  const auto g = graph::RelationshipGraph::build(db, seeds, 3);
  ASSERT_TRUE(g.index_of(d).has_value());
  MetricSpace space(db, g);
  FactorTrainingOptions topts;
  FactorSet factors(db, g, space, 0, 50, topts);
  const auto state = space.snapshot(db, 49);

  SamplerOptions opts;
  opts.num_samples = 50;
  CounterfactualSampler sampler(g, space, factors, opts);
  Rng sampler_rng(1);
  const auto verdict = sampler.evaluate(
      *g.index_of(d), *space.find(d, load), *g.index_of(a),
      *space.find(a, load), state, /*symptom_high=*/true, sampler_rng);
  EXPECT_FALSE(verdict.is_root_cause);
  EXPECT_DOUBLE_EQ(verdict.p_value, 1.0);
}

TEST(Anomaly, ScoresScaleWithDeviation) {
  ChainFixture f(200, 15.0);
  const auto va = *f.space->find(f.a, f.load);
  const auto state = f.space->snapshot(f.db, 199);
  const double high = variable_anomaly(*f.factors, va, state[va]);
  const auto calm_state = f.space->snapshot(f.db, 100);
  const double low = variable_anomaly(*f.factors, va, calm_state[va]);
  EXPECT_GT(high, low + 1.0);
}

TEST(Anomaly, NodeAnomalyPicksDriverAndDirection) {
  ChainFixture f(200, 15.0);
  const auto na = *f.graph.index_of(f.a);
  const auto state = f.space->snapshot(f.db, 199);
  const auto anomaly = node_anomaly(*f.factors, *f.space, na, state);
  EXPECT_TRUE(anomaly.high);
  EXPECT_EQ(f.space->var(anomaly.driver).entity, f.a);
}

TEST(CandidateSearch, PrunesCalmBranches) {
  ChainFixture f(200, 15.0);
  const auto nc = *f.graph.index_of(f.c);
  const auto state = f.space->snapshot(f.db, 199);
  CandidateSearchOptions opts;
  const auto candidates = candidate_search(f.db, f.graph, *f.space,
                                           *f.factors, state, nc, opts);
  // All three entities are implicated during the surge.
  EXPECT_EQ(candidates.size(), 3u);
  // In the calm slice only the symptom node remains.
  const auto calm = f.space->snapshot(f.db, 100);
  const auto calm_candidates = candidate_search(f.db, f.graph, *f.space,
                                                *f.factors, calm, nc, opts);
  EXPECT_EQ(calm_candidates.size(), 1u);
  EXPECT_EQ(calm_candidates[0], nc);
}

TEST(Explain, StateMachineRules) {
  using L = EntityLabel;
  EXPECT_TRUE(can_cause(L::kHeavyHitter, L::kHighDropRate));
  EXPECT_TRUE(can_cause(L::kHeavyHitter, L::kDegraded));
  EXPECT_TRUE(can_cause(L::kHeavyHitter, L::kHeavyHitter));
  EXPECT_TRUE(can_cause(L::kHighDropRate, L::kDegraded));
  EXPECT_TRUE(can_cause(L::kDegraded, L::kNonFunctional));
  EXPECT_FALSE(can_cause(L::kOkay, L::kDegraded));
  EXPECT_FALSE(can_cause(L::kDegraded, L::kHeavyHitter));
  EXPECT_FALSE(can_cause(L::kHighDropRate, L::kHeavyHitter));
}

TEST(Explain, LabelsFromThresholdsAndCollapse) {
  ChainFixture f(200, 40.0);  // big surge -> heavy hitter labels
  const auto state = f.space->snapshot(f.db, 199);
  const Thresholds th;
  const auto na = *f.graph.index_of(f.a);
  EXPECT_EQ(label_node(f.db, *f.space, *f.factors, na, state, th),
            EntityLabel::kHeavyHitter);
  const auto calm = f.space->snapshot(f.db, 100);
  EXPECT_EQ(label_node(f.db, *f.space, *f.factors, na, calm, th),
            EntityLabel::kOkay);
}

TEST(Explain, PathRespectsLabelsWhenPossible) {
  ChainFixture f(200, 40.0);
  const auto state = f.space->snapshot(f.db, 199);
  const Thresholds th;
  std::vector<EntityLabel> labels(f.graph.node_count());
  for (graph::NodeIndex n = 0; n < f.graph.node_count(); ++n)
    labels[n] = label_node(f.db, *f.space, *f.factors, n, state, th);
  const auto na = *f.graph.index_of(f.a);
  const auto nc = *f.graph.index_of(f.c);
  const auto path = explanation_path(f.graph, labels, na, nc);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), na);
  EXPECT_EQ(path.back(), nc);
  const auto text = render_explanation(f.db, f.graph, labels, path);
  EXPECT_NE(text.find("'A'"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
}

// --- end-to-end -------------------------------------------------------------

TEST(MurphyEndToEnd, ChainRootCauseRankedFirst) {
  ChainFixture f(200, 15.0);
  MurphyOptions mopts;
  mopts.sampler.num_samples = 200;
  MurphyDiagnoser murphy(mopts);
  DiagnosisRequest req;
  req.db = &f.db;
  req.symptom_entity = f.c;
  req.symptom_metric = "cpu_util";
  req.now = 199;
  req.train_begin = 0;
  req.train_end = 200;
  const auto result = murphy.diagnose(req);
  ASSERT_FALSE(result.causes.empty());
  EXPECT_GE(result.rank_of(f.a), 1u);
  EXPECT_LE(result.rank_of(f.a), 3u);
  EXPECT_EQ(result.causes.size(), result.explanations.size());
}

TEST(MurphyEndToEnd, InterferenceScenario) {
  emulation::InterferenceOptions iopts;
  iopts.slices = 240;
  iopts.ramp_at = 180;
  iopts.seed = 3;
  auto c = emulation::make_interference_case(iopts);

  MurphyOptions mopts;
  mopts.sampler.num_samples = 150;
  MurphyDiagnoser murphy(mopts);
  DiagnosisRequest req;
  req.db = &c.db;
  req.symptom_entity = c.symptom_entity;
  req.symptom_metric = c.symptom_metric;
  req.now = 239;
  req.train_begin = 0;
  req.train_end = 240;
  const auto result = murphy.diagnose(req);
  const auto rank = result.rank_of(c.root_cause);
  ASSERT_GE(rank, 1u) << "root cause not produced";
  EXPECT_LE(rank, 5u);
}

TEST(MurphyEndToEnd, EnterpriseCrawlerIncident) {
  enterprise::IncidentDatasetOptions opts;
  opts.topology.num_apps = 6;
  opts.topology.hosts = 8;
  opts.topology.tors = 2;
  opts.topology.ports_per_tor = 8;
  opts.topology.datastores = 3;
  opts.dynamics.slices = 168;
  const auto inc = enterprise::make_incident(2, opts);

  MurphyOptions mopts;
  mopts.sampler.num_samples = 150;
  MurphyDiagnoser murphy(mopts);
  DiagnosisRequest req;
  req.db = &inc.topo.db;
  req.symptom_entity = inc.symptom_entity;
  req.symptom_metric = inc.symptom_metric;
  req.now = inc.incident_end - 1;
  req.train_begin = 0;
  req.train_end = inc.incident_end;
  const auto result = murphy.diagnose(req);
  const auto rank = result.rank_of(inc.ground_truth[0]);
  ASSERT_GE(rank, 1u) << "crawler flow not produced";
  EXPECT_LE(rank, 5u);
}

TEST(MurphyEndToEnd, DeterministicAcrossRuns) {
  ChainFixture f(200, 15.0);
  MurphyOptions mopts;
  mopts.sampler.num_samples = 100;
  DiagnosisRequest req;
  req.db = &f.db;
  req.symptom_entity = f.c;
  req.symptom_metric = "cpu_util";
  req.now = 199;
  req.train_begin = 0;
  req.train_end = 200;
  MurphyDiagnoser m1(mopts), m2(mopts);
  const auto r1 = m1.diagnose(req);
  const auto r2 = m2.diagnose(req);
  ASSERT_EQ(r1.causes.size(), r2.causes.size());
  for (std::size_t i = 0; i < r1.causes.size(); ++i)
    EXPECT_EQ(r1.causes[i].entity, r2.causes[i].entity);
}

TEST(MurphyEndToEnd, HandlesMissingHistoryGracefully) {
  // Invalidate most of A's history; Murphy should still run (placeholder
  // defaults per §4.2 "Edge cases") and produce some result.
  ChainFixture f(200, 15.0);
  auto* ts = f.db.metrics().find_mutable(f.a, f.load);
  ts->invalidate_before(150);
  MurphyOptions mopts;
  mopts.sampler.num_samples = 100;
  MurphyDiagnoser murphy(mopts);
  DiagnosisRequest req;
  req.db = &f.db;
  req.symptom_entity = f.c;
  req.symptom_metric = "cpu_util";
  req.now = 199;
  req.train_begin = 0;
  req.train_end = 200;
  const auto result = murphy.diagnose(req);
  EXPECT_FALSE(result.causes.empty());
}

// --- recent-config-change window --------------------------------------------

TEST(ConfigWindow, CoversLastTenthOfTrainingRange) {
  // span 200 -> window 20 slices: [179, now].
  EXPECT_EQ(recent_config_window_begin(0, 200, 199), 179u);
  // A training range that does not start at zero has the same window length.
  EXPECT_EQ(recent_config_window_begin(100, 300, 299), 279u);
}

TEST(ConfigWindow, ClampsWhenNowPredatesOneWindowLength) {
  // now < span/10 must clamp to slice 0, never wrap the unsigned arithmetic.
  EXPECT_EQ(recent_config_window_begin(0, 200, 5), 0u);
  EXPECT_EQ(recent_config_window_begin(0, 200, 20), 0u);   // now == window
  EXPECT_EQ(recent_config_window_begin(0, 200, 21), 1u);
  EXPECT_EQ(recent_config_window_begin(0, 200, 0), 0u);
}

TEST(ConfigWindow, ShortTrainingRangeStillLooksBack) {
  // span < 10 used to yield a zero-length window ([now, now]) that hid every
  // earlier change; the window floor is one slice.
  EXPECT_EQ(recent_config_window_begin(0, 5, 4), 3u);
  EXPECT_EQ(recent_config_window_begin(0, 0, 4), 3u);  // degenerate range
}

TEST(ConfigWindow, DiagnosisSurfacesRecentChangesOnly) {
  ChainFixture f(200, 15.0);
  f.db.config_events().record(telemetry::ConfigEvent{
      telemetry::ConfigEventKind::kResourcesResized, f.a, 195, "recent"});
  f.db.config_events().record(telemetry::ConfigEvent{
      telemetry::ConfigEventKind::kConfigPushed, f.b, 20, "ancient"});
  MurphyOptions mopts;
  mopts.sampler.num_samples = 60;
  MurphyDiagnoser murphy(mopts);
  DiagnosisRequest req;
  req.db = &f.db;
  req.symptom_entity = f.c;
  req.symptom_metric = "cpu_util";
  req.now = 199;
  req.train_begin = 0;
  req.train_end = 200;
  const auto result = murphy.diagnose(req);
  ASSERT_EQ(result.recent_config_changes.size(), 1u);
  EXPECT_EQ(result.recent_config_changes[0].entity, f.a);
  EXPECT_EQ(result.recent_config_changes[0].at, 195u);
}

// --- malformed-telemetry hardening (DESIGN.md §8) ---------------------------

TEST(FactorModel, PoisonedSliceNoLongerNaNsEveryScore) {
  // The regression the ingest/kernel guards exist for: before them, one raw
  // NaN slice in one series flowed into the training moments and the ridge
  // Gram matrix, turning EVERY candidate's score into NaN. Now it degrades
  // to a missing value and the diagnosis stays finite and non-empty.
  ChainFixture f(200, 15.0);
  auto* ts = f.db.metrics().find_mutable(f.a, f.load);
  ts->set(60, std::numeric_limits<double>::quiet_NaN());
  ts->set(61, std::numeric_limits<double>::infinity());

  // Kernel level: retrained conditionals stay finite...
  FactorTrainingOptions topts;
  const FactorSet factors(f.db, f.graph, *f.space, 0, 200, topts);
  const auto state = f.space->snapshot(f.db, 150);
  for (VarIndex v = 0; v < f.space->size(); ++v) {
    EXPECT_TRUE(std::isfinite(factors.conditional(v).predict(state))) << v;
    EXPECT_TRUE(std::isfinite(factors.conditional(v).hist_mean())) << v;
  }

  // ...and so does the end-to-end ranking.
  MurphyOptions mopts;
  mopts.sampler.num_samples = 60;
  MurphyDiagnoser murphy(mopts);
  DiagnosisRequest req;
  req.db = &f.db;
  req.symptom_entity = f.c;
  req.symptom_metric = "cpu_util";
  req.now = 199;
  req.train_begin = 0;
  req.train_end = 200;
  const auto result = murphy.diagnose(req);
  EXPECT_FALSE(result.causes.empty());
  for (const auto& cause : result.causes)
    EXPECT_TRUE(std::isfinite(cause.score));
}

TEST(FactorModel, DegenerateTrainingWindowsAreDefined) {
  ChainFixture f(200, 15.0);
  const auto state = f.space->snapshot(f.db, 199);
  FactorTrainingOptions topts;
  // Empty, single-slice and inverted (clamped-to-empty) windows must train
  // flat-but-finite conditionals instead of asserting or dividing by zero.
  struct { TimeIndex begin, end; } windows[] = {{50, 50}, {50, 51}, {150, 50}};
  for (const auto [begin, end] : windows) {
    SCOPED_TRACE(std::to_string(begin) + ".." + std::to_string(end));
    const FactorSet factors(f.db, f.graph, *f.space, begin, end, topts);
    for (VarIndex v = 0; v < f.space->size(); ++v) {
      EXPECT_TRUE(std::isfinite(factors.conditional(v).predict(state)));
      EXPECT_TRUE(std::isfinite(factors.conditional(v).hist_sigma()));
    }
  }
}

TEST(MurphyEndToEnd, EmptyTrainingWindowProducesFiniteResult) {
  ChainFixture f(200, 15.0);
  MurphyOptions mopts;
  mopts.sampler.num_samples = 40;
  MurphyDiagnoser murphy(mopts);
  DiagnosisRequest req;
  req.db = &f.db;
  req.symptom_entity = f.c;
  req.symptom_metric = "cpu_util";
  req.now = 199;
  req.train_begin = 199;
  req.train_end = 199;  // no history at all
  const auto result = murphy.diagnose(req);
  for (const auto& cause : result.causes)
    EXPECT_TRUE(std::isfinite(cause.score));
}

namespace {

// Chain db for the ABA test: identical structure and mutation sequence
// (hence identical data_version), different payload values.
EntityId fill_chain_db(telemetry::MonitoringDb& db, double slope) {
  const auto a = db.add_entity(EntityType::kVm, "A");
  const auto b = db.add_entity(EntityType::kVm, "B");
  const auto c = db.add_entity(EntityType::kVm, "C");
  db.add_association(a, b, RelationKind::kGeneric);
  db.add_association(b, c, RelationKind::kGeneric);
  const auto load = db.catalog().intern("cpu_util");
  constexpr std::size_t kSlices = 100;
  db.metrics().set_axis(TimeAxis(0.0, 10.0, kSlices));
  Rng rng(5);
  std::vector<double> va(kSlices), vb(kSlices), vc(kSlices);
  for (std::size_t t = 0; t < kSlices; ++t) {
    va[t] = 5.0 + 2.0 * std::sin(0.1 * static_cast<double>(t)) +
            rng.normal(0.0, 0.2) + (t + 10 >= kSlices ? 8.0 : 0.0);
    vb[t] = slope * va[t] + rng.normal(0.0, 0.3);
    vc[t] = 1.5 * vb[t] + rng.normal(0.0, 0.3);
  }
  db.metrics().put(a, load, va);
  db.metrics().put(b, load, vb);
  db.metrics().put(c, load, vc);
  return c;
}

}  // namespace

void expect_same_causes(const std::vector<RankedRootCause>& got,
                        const std::vector<RankedRootCause>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].entity, want[i].entity) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

TEST(FactorCache, SameStorageDbWithEqualVersionIsNotAnAbaHit) {
  // The classic ABA: db1 is diagnosed (warming the BatchDiagnoser's
  // persistent training cache), destroyed, and db2 is constructed at the SAME
  // storage with the same structure — so the address matches and
  // data_version coincides — but different metric values. An address-based
  // fingerprint would serve db1's stale factors for db2; the process-unique
  // db uid must force a retrain instead.
  BatchOptions bopts;
  bopts.murphy.sampler.num_samples = 40;
  bopts.murphy.num_threads = 1;
  BatchDiagnoser batch(bopts);

  alignas(telemetry::MonitoringDb) unsigned char
      storage[sizeof(telemetry::MonitoringDb)];
  auto* db1 = new (storage) telemetry::MonitoringDb();
  const EntityId symptom1 = fill_chain_db(*db1, 2.0);
  const std::vector<Symptom> symptoms{Symptom{symptom1, "cpu_util", 0.0, 5.0}};
  (void)batch.diagnose_symptoms(*db1, symptoms, 99, 0, 100);
  const std::uint64_t version1 = db1->data_version();
  db1->~MonitoringDb();

  auto* db2 = new (storage) telemetry::MonitoringDb();
  const EntityId symptom2 = fill_chain_db(*db2, -1.5);
  ASSERT_EQ(symptom2, symptom1);
  // The ABA preconditions hold: same storage, coincidentally equal version.
  ASSERT_EQ(db2->data_version(), version1);

  const auto possibly_stale =
      batch.diagnose_symptoms(*db2, symptoms, 99, 0, 100);
  BatchDiagnoser cold(bopts);  // no cache to poison: the ground truth
  const auto expected = cold.diagnose_symptoms(*db2, symptoms, 99, 0, 100);

  expect_same_causes(possibly_stale.merged, expected.merged);
  db2->~MonitoringDb();
}

TEST(FactorCache, BatchChurnRetrainsOnlyTouchedFactors) {
  // History ids on the batch path: one fresh value written into one series
  // inside the window retires only the moment blocks (and their memoized
  // factors) that read that series, so a second call on the same
  // BatchDiagnoser misses fewer factors than exist — and still returns
  // exactly what a cold diagnoser computes.
  MonitoringDb db;
  const EntityId c = fill_chain_db(db, 2.0);
  const EntityId a = db.all_entities().front();
  const MetricKindId load = db.catalog().find("cpu_util");
  const std::vector<Symptom> symptoms{Symptom{c, "cpu_util", 0.0, 5.0},
                                      Symptom{a, "cpu_util", 0.0, 4.0}};

  obs::MetricsRegistry registry;
  BatchOptions bopts;
  bopts.murphy.sampler.num_samples = 40;
  bopts.murphy.num_threads = 1;
  bopts.murphy.obs.metrics = &registry;
  // The audit carries each candidate's p-value and sample means, which
  // move with any bit of a stale factor.
  bopts.murphy.obs.collect_audit = true;
  BatchDiagnoser batch(bopts);
  const obs::Counter* misses = registry.counter("cache.factor_misses");
  (void)batch.diagnose_symptoms(db, symptoms, 99, 0, 100);
  const std::uint64_t unique_factors = misses->value();

  db.metrics().upsert_cell(a, load, 50,
                           db.metrics().find(a, load)->value(50) + 0.5);
  const auto warm = batch.diagnose_symptoms(db, symptoms, 99, 0, 100);
  const std::uint64_t retrained = misses->value() - unique_factors;
  EXPECT_GT(retrained, 0u);
  EXPECT_LT(retrained, unique_factors);

  bopts.murphy.obs.metrics = nullptr;
  BatchDiagnoser cold(bopts);
  const auto expected = cold.diagnose_symptoms(db, symptoms, 99, 0, 100);
  expect_same_causes(warm.merged, expected.merged);
  for (std::size_t s = 0; s < symptoms.size(); ++s)
    EXPECT_EQ(obs::to_jsonl(warm.per_symptom[s].audit),
              obs::to_jsonl(expected.per_symptom[s].audit));
}

// --- incremental training: the moment store ---------------------------------

enterprise::EnterpriseIncident small_incident() {
  enterprise::IncidentDatasetOptions opts;
  opts.topology.num_apps = 6;
  opts.topology.hosts = 8;
  opts.topology.tors = 2;
  opts.topology.ports_per_tor = 8;
  opts.topology.datastores = 3;
  opts.dynamics.slices = 168;
  return enterprise::make_incident(2, opts);
}

// Every conditional of `a` and `b` agrees to the bit: selection, the fitted
// model, the historical and robust moments and the sampling sigma.
void expect_same_factors(const FactorSet& a, const FactorSet& b) {
  ASSERT_EQ(a.size(), b.size());
  std::size_t fitted = 0;
  for (VarIndex v = 0; v < a.size(); ++v) {
    SCOPED_TRACE("var " + std::to_string(v));
    const MetricConditional& x = a.conditional(v);
    const MetricConditional& y = b.conditional(v);
    ASSERT_TRUE(std::equal(x.features().begin(), x.features().end(),
                           y.features().begin(), y.features().end()));
    EXPECT_EQ(x.hist_mean(), y.hist_mean());
    EXPECT_EQ(x.hist_sigma(), y.hist_sigma());
    EXPECT_EQ(x.robust_center(), y.robust_center());
    EXPECT_EQ(x.robust_sigma(), y.robust_sigma());
    EXPECT_EQ(x.residual_sigma(), y.residual_sigma());
    ASSERT_EQ(x.model() == nullptr, y.model() == nullptr);
    if (x.model() == nullptr) continue;
    ++fitted;
    EXPECT_EQ(x.model()->standardized_weights(),
              y.model()->standardized_weights());
    EXPECT_EQ(x.model()->feature_means(), y.model()->feature_means());
    EXPECT_EQ(x.model()->feature_scales(), y.model()->feature_scales());
    EXPECT_EQ(x.model()->intercept(), y.model()->intercept());
  }
  EXPECT_GT(fitted, 0u);
}

struct IncidentSpace {
  enterprise::EnterpriseIncident inc = small_incident();
  graph::RelationshipGraph graph = graph::RelationshipGraph::build(
      inc.topo.db, std::vector<EntityId>{inc.symptom_entity});
  MetricSpace space{inc.topo.db, graph};

  FactorSet train(TimeIndex begin, TimeIndex end, MomentStore* store,
                  std::size_t threads = 1, double half_life = 0.0) const {
    FactorTrainingOptions opts;
    opts.num_threads = threads;
    opts.recency_half_life = half_life;
    opts.moment_store = store;
    return FactorSet(inc.topo.db, graph, space, begin, end, opts);
  }
};

TEST(MomentStore, FreshEqualsExtendedBitwise) {
  const IncidentSpace f;
  const TimeIndex end = f.inc.incident_end;
  for (const std::size_t threads : {1u, 8u}) {
    for (const double half_life : {0.0, 24.0}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " half-life " +
                   std::to_string(half_life));
      const FactorSet cold = f.train(0, end, nullptr, threads, half_life);
      MomentStore store;
      // Extend one row at a time from end - 6; every step equals its cold.
      for (TimeIndex e = end - 6; e <= end; ++e) {
        const FactorSet extended = f.train(0, e, &store, threads, half_life);
        if (e + 2 == end)
          expect_same_factors(extended,
                              f.train(0, e, nullptr, threads, half_life));
        if (e == end) expect_same_factors(extended, cold);
      }
    }
  }
}

TEST(MomentStore, NonStoreWindowsTrainBitwiseCold) {
  const IncidentSpace f;
  const TimeIndex end = f.inc.incident_end;
  MomentStore store;
  (void)f.train(0, end, &store);
  // The window ends before the stored rows: a transient cold block.
  expect_same_factors(f.train(0, end - 5, &store),
                      f.train(0, end - 5, nullptr));
  // A moved train_begin is a different block, built cold.
  expect_same_factors(f.train(12, end, &store), f.train(12, end, nullptr));
  // Recency weights ride their own decayed block.
  expect_same_factors(f.train(0, end, &store, 1, 30.0),
                      f.train(0, end, nullptr, 1, 30.0));
  // And the stored uniform block is still intact afterwards.
  expect_same_factors(f.train(0, end, &store), f.train(0, end, nullptr));
}

TEST(MomentStore, RewritesBelowTheAppendMarkInvalidateBlocks) {
  IncidentSpace f;
  const TimeIndex end = f.inc.incident_end;
  telemetry::MetricStore& ms = f.inc.topo.db.metrics();
  const EntityId e = f.inc.symptom_entity;
  const MetricKindId k = f.inc.topo.db.catalog().find(f.inc.symptom_metric);
  MomentStore store;
  (void)f.train(0, end, &store);

  // An ingest write below the append mark (a late or corrected sample).
  ms.upsert_cell(e, k, 40, ms.find(e, k)->value(40) + 3.0);
  expect_same_factors(f.train(0, end, &store), f.train(0, end, nullptr));

  // A raw write through find_mutable.
  ms.find_mutable(e, k)->set(41, 123.0);
  expect_same_factors(f.train(0, end, &store), f.train(0, end, nullptr));
}

TEST(MomentStore, RowsPastTheAppendMarkAreFoldedPerRequest) {
  // A streamed series that lags: written cell by cell up to end - 8, then
  // each odd slice arrives one step late. Blocks that read it keep only the
  // rows below its append mark; the rest of each window is folded per
  // request, so the late cell (written at the mark, which moves no history
  // id) is read fresh.
  auto inc = small_incident();
  MonitoringDb& db = inc.topo.db;
  const EntityId e = inc.symptom_entity;
  const MetricKindId lag = db.catalog().intern("lagging_metric");
  const TimeIndex end = inc.incident_end;
  for (TimeIndex t = 0; t + 8 < end; ++t)
    db.metrics().upsert_cell(e, lag, t, std::cos(0.2 * static_cast<double>(t)));
  const auto graph =
      graph::RelationshipGraph::build(db, std::vector<EntityId>{e});
  const MetricSpace space(db, graph);
  MomentStore store;
  const auto train = [&](TimeIndex to, MomentStore* s) {
    FactorTrainingOptions opts;
    opts.moment_store = s;
    return FactorSet(db, graph, space, 0, to, opts);
  };
  for (TimeIndex t = end - 8; t < end; ++t) {
    if (t % 2 == 0) {
      if (t > end - 8) db.metrics().upsert_cell(e, lag, t - 1, -0.5);
      db.metrics().upsert_cell(e, lag, t, 0.5);
    }
    expect_same_factors(train(t + 1, &store), train(t + 1, nullptr));
  }
}

TEST(MomentStore, CollinearTargetKeepsExactResidual) {
  // y = 2x + 3 exactly under a vanishing ridge: the residual quadratic form
  // cancels to noise, so the trainer must take the exact row pass.
  MonitoringDb db;
  const EntityId a = db.add_entity(EntityType::kVm, "A");
  const EntityId b = db.add_entity(EntityType::kVm, "B");
  db.add_association(a, b, RelationKind::kGeneric);
  const MetricKindId load = db.catalog().intern("cpu_util");
  constexpr std::size_t kSlices = 120;
  db.metrics().set_axis(TimeAxis(0.0, 10.0, kSlices));
  std::vector<double> xa(kSlices), yb(kSlices);
  for (std::size_t t = 0; t < kSlices; ++t) {
    xa[t] = 1e3 + 7.0 * std::sin(0.3 * static_cast<double>(t));
    yb[t] = 2.0 * xa[t] + 3.0;
  }
  db.metrics().put(a, load, xa);
  db.metrics().put(b, load, yb);
  const auto graph =
      graph::RelationshipGraph::build(db, std::vector<EntityId>{b});
  const MetricSpace space(db, graph);
  FactorTrainingOptions opts;
  opts.l2 = 1e-9;
  const obs::Counter* exact =
      obs::global_metrics().counter("train.residual_exact_passes");
  const std::uint64_t before = exact->value();
  const FactorSet factors(db, graph, space, 0, kSlices, opts);
#ifndef MURPHY_OBS_DISABLED
  EXPECT_GT(exact->value(), before);
#else
  (void)before;
#endif

  const VarIndex vb = *space.find(b, load);
  const MetricConditional& c = factors.conditional(vb);
  ASSERT_NE(c.model(), nullptr);
  // The two-pass residual stddev of the fitted model over the rows.
  std::vector<double> resid(kSlices);
  for (std::size_t t = 0; t < kSlices; ++t) {
    const double x[] = {xa[t]};
    resid[t] = yb[t] - c.model()->predict(x);
  }
  EXPECT_NEAR(c.residual_sigma(), stats::stddev(resid), 1e-9);
}

TEST(MomentStore, FoldedCellsPerDiagnosisFlatInAxisLength) {
  // After one appended row, an extended training folds the same number of
  // cells whatever the history length: the cost is the new row only.
#ifdef MURPHY_OBS_DISABLED
  GTEST_SKIP() << "counted through stats.ridge_cells, compiled out";
#endif
  const auto cells_after_one_row = [](std::size_t slices) {
    ChainFixture f(slices);
    MomentStore store;
    FactorTrainingOptions opts;
    opts.moment_store = &store;
    (void)FactorSet(f.db, f.graph, *f.space, 0, slices, opts);
    f.db.metrics().extend_axis(1);
    for (const EntityId e : {f.a, f.b, f.c})
      f.db.metrics().upsert_cell(e, f.load, slices, 1.0);
    const obs::Counter* cells =
        obs::global_metrics().counter("stats.ridge_cells");
    const std::uint64_t before = cells->value();
    (void)FactorSet(f.db, f.graph, *f.space, 0, slices + 1, opts);
    return cells->value() - before;
  };
  const std::uint64_t at_n = cells_after_one_row(150);
  EXPECT_GT(at_n, 0u);
  EXPECT_EQ(at_n, cells_after_one_row(300));
}

TEST(MomentStore, NonFiniteValuesDegradeToMissingFallback) {
  ChainFixture f(60);
  auto* ts = f.db.metrics().find_mutable(f.a, f.load);
  ts->set(10, std::numeric_limits<double>::quiet_NaN());
  ts->set(11, std::numeric_limits<double>::infinity());
  const telemetry::TimeSeries* raw = ts;
  std::vector<double> clean(raw->values().begin(), raw->values().end());
  clean[10] = clean[11] = 0.0;
  const telemetry::TimeSeries sanitized(clean);
  MomentBlock poisoned, expected;
  poisoned.cols = expected.cols = {MetricRef{f.a, f.load}};
  poisoned.plain = expected.plain = stats::CrossMoments(1, 1.0);
  const telemetry::TimeSeries* p[] = {raw};
  const telemetry::TimeSeries* q[] = {&sanitized};
  poisoned.extend(p, 60);
  expected.extend(q, 60);
  EXPECT_TRUE(std::isfinite(poisoned.plain.centered(0, 0)));
  EXPECT_EQ(poisoned.plain.mean(0), expected.plain.mean(0));
  EXPECT_EQ(poisoned.plain.centered(0, 0), expected.plain.centered(0, 0));
  EXPECT_EQ(poisoned.sorted_target, expected.sorted_target);
}

TEST(MomentStore, MemoHitIsBitwiseCold) {
  // A second training at the same window copies every slot's memo: the
  // features, weights, means, scales, sigmas and robust center/sigma are
  // the bits a cold training computes, and the model object is shared.
  const IncidentSpace f;
  const TimeIndex end = f.inc.incident_end;
  MomentStore store;
  obs::MetricsRegistry reg;
  const obs::Counter* hits = reg.counter("cache.factor_hits");
  const obs::Counter* misses = reg.counter("cache.factor_misses");
  const obs::Counter* fits = reg.counter("train.factors_trained");
  FactorTrainingOptions opts;
  opts.moment_store = &store;
  opts.metrics = &reg;
  const FactorSet first(f.inc.topo.db, f.graph, f.space, 0, end, opts);
  EXPECT_EQ(misses->value(), first.size());
  EXPECT_EQ(hits->value(), 0u);
  const FactorSet memo(f.inc.topo.db, f.graph, f.space, 0, end, opts);
  EXPECT_EQ(hits->value(), memo.size());
  EXPECT_EQ(misses->value(), first.size());
  EXPECT_EQ(fits->value(), first.size());
  expect_same_factors(memo, f.train(0, end, nullptr));
  for (VarIndex v = 0; v < memo.size(); ++v)
    EXPECT_EQ(memo.conditional(v).model(), first.conditional(v).model());
}

// Hit and miss deltas of one training, read off a registry's counters.
struct MemoCounts {
  obs::MetricsRegistry reg;
  const obs::Counter* hits = reg.counter("cache.factor_hits");
  const obs::Counter* misses = reg.counter("cache.factor_misses");
  template <typename F>
  std::pair<std::uint64_t, std::uint64_t> delta(F&& train) {
    const std::uint64_t h = hits->value(), m = misses->value();
    train();
    return {hits->value() - h, misses->value() - m};
  }
};

TEST(MomentStore, OlderWindowsRefitWithoutMemo) {
  // A window that ends before the block's rows is fit from a transient
  // block, every time, and leaves the memo of the longer window in place.
  const IncidentSpace f;
  const TimeIndex end = f.inc.incident_end;
  MemoCounts counts;
  MomentStore store;
  FactorTrainingOptions opts;
  opts.moment_store = &store;
  opts.metrics = &counts.reg;
  const auto train = [&](TimeIndex to) {
    return FactorSet(f.inc.topo.db, f.graph, f.space, 0, to, opts);
  };
  const std::uint64_t n = train(end).size();
  for (int repeat = 0; repeat < 2; ++repeat) {
    std::unique_ptr<FactorSet> shorter;
    EXPECT_EQ(counts.delta([&] {
      shorter = std::make_unique<FactorSet>(train(end - 5));
    }),
              std::pair(std::uint64_t{0}, n));
    expect_same_factors(*shorter, f.train(0, end - 5, nullptr));
  }
  EXPECT_EQ(counts.delta([&] { (void)train(end); }),
            std::pair(n, std::uint64_t{0}));
}

TEST(MomentStore, LaggingColumnMemoFollowsItsAppendMark) {
  // A column that lags behind the window: the blocks that read it fold the
  // rows past its append mark into a per-request copy. Those rows were
  // never written, so the memo of that fit holds until the mark moves; an
  // append at the mark refits exactly the targets that read the column.
  auto inc = small_incident();
  MonitoringDb& db = inc.topo.db;
  const EntityId e = inc.symptom_entity;
  const MetricKindId lag = db.catalog().intern("lagging_metric");
  const TimeIndex end = inc.incident_end;
  for (TimeIndex t = 0; t + 8 < end; ++t)
    db.metrics().upsert_cell(e, lag, t, std::cos(0.2 * static_cast<double>(t)));
  const auto graph =
      graph::RelationshipGraph::build(db, std::vector<EntityId>{e});
  const MetricSpace space(db, graph);
  MemoCounts counts;
  MomentStore store;
  FactorTrainingOptions opts;
  opts.moment_store = &store;
  opts.metrics = &counts.reg;
  FactorTrainingOptions cold_opts;
  std::unique_ptr<FactorSet> set;
  const auto train = [&] {
    set = std::make_unique<FactorSet>(db, graph, space, 0, end, opts);
  };
  const std::uint64_t n = space.size();
  EXPECT_EQ(counts.delta(train), std::pair(std::uint64_t{0}, n));
  EXPECT_EQ(counts.delta(train), std::pair(n, std::uint64_t{0}));
  expect_same_factors(*set, FactorSet(db, graph, space, 0, end, cold_opts));

  db.metrics().upsert_cell(e, lag, end - 8, 0.5);  // moves the mark only
  const auto [hits, lagging] = counts.delta(train);
  EXPECT_EQ(hits + lagging, n);
  EXPECT_GT(lagging, 0u);
  EXPECT_LT(lagging, n);
  expect_same_factors(*set, FactorSet(db, graph, space, 0, end, cold_opts));
  EXPECT_EQ(counts.delta(train), std::pair(n, std::uint64_t{0}));
}

TEST(MomentStore, TwelveThreadsOnOneSlotFitOnce) {
  // Twelve trainings of the same problem race for each slot; its mutex
  // serializes the first fit, so each slot is fit exactly once and the
  // other eleven copy the memo.
  ChainFixture f(120);
  MomentStore store;
  obs::MetricsRegistry reg;
  FactorTrainingOptions opts;
  opts.moment_store = &store;
  opts.metrics = &reg;
  constexpr std::size_t kThreads = 12;
  std::vector<std::unique_ptr<FactorSet>> sets(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      sets[i] = std::make_unique<FactorSet>(f.db, f.graph, *f.space, 0, 120,
                                            opts);
    });
  go.store(true);
  for (std::thread& t : threads) t.join();
  const std::uint64_t slots = f.space->size();
  EXPECT_EQ(store.size(), slots);
  EXPECT_EQ(reg.counter("cache.factor_misses")->value(), slots);
  EXPECT_EQ(reg.counter("train.factors_trained")->value(), slots);
  EXPECT_EQ(reg.counter("cache.factor_hits")->value(),
            (kThreads - 1) * slots);
  FactorTrainingOptions cold_opts;
  const FactorSet cold(f.db, f.graph, *f.space, 0, 120, cold_opts);
  for (const auto& set : sets) expect_same_factors(*set, cold);
}

TEST(MomentStore, GenerationResetAndPruneDropBlocks) {
  MomentStore store;
  store.reset(10);
  MomentStore::Slot& slot = store.slot(7);
  EXPECT_EQ(&store.slot(7), &slot);  // second lookup finds the same block
  store.reset(10);                    // same generation: kept
  EXPECT_EQ(store.size(), 1u);
  store.reset(11);                    // new generation: dropped
  EXPECT_EQ(store.size(), 0u);
  for (std::uint64_t key = 0; key < 3; ++key) (void)store.slot(key);
  const obs::Counter* prunes =
      obs::global_metrics().counter("cache.moment_prunes");
  const std::uint64_t before = prunes->value();
  store.prune(3);  // at the bound: kept
  EXPECT_EQ(store.size(), 3u);
  store.prune(2);
  EXPECT_EQ(store.size(), 0u);
#ifndef MURPHY_OBS_DISABLED
  EXPECT_EQ(prunes->value(), before + 1);
#else
  (void)before;
#endif
}

}  // namespace
}  // namespace murphy::core
