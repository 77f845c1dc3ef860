// Property-based tests: invariants that must hold across parameter sweeps —
// graph path-subgraph properties on random graphs, predictor contracts
// across model kinds and seeds, t-test calibration, and sampler monotonicity.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/batch.h"
#include "src/core/factor_model.h"
#include "src/core/metric_space.h"
#include "src/core/sampler.h"
#include "src/graph/relationship_graph.h"
#include "src/stats/predictor.h"
#include "src/stats/summary.h"
#include "src/stats/ttest.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy {
namespace {

using telemetry::EntityType;
using telemetry::MonitoringDb;
using telemetry::RelationKind;

// ---------- random-graph properties -----------------------------------------

class RandomGraphProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Random db with n entities and ~2n undirected associations.
  static MonitoringDb random_db(std::size_t n, Rng& rng) {
    MonitoringDb db;
    for (std::size_t i = 0; i < n; ++i)
      db.add_entity(EntityType::kVm, "vm-" + std::to_string(i));
    for (std::size_t e = 0; e < 2 * n; ++e) {
      const auto a = EntityId(static_cast<std::uint32_t>(rng.below(n)));
      const auto b = EntityId(static_cast<std::uint32_t>(rng.below(n)));
      if (a == b) continue;
      db.add_association(a, b, RelationKind::kGeneric);
    }
    return db;
  }
};

TEST_P(RandomGraphProperties, PathSubgraphInvariants) {
  Rng rng(GetParam());
  const auto db = random_db(30, rng);
  std::vector<EntityId> seeds{EntityId(0)};
  const auto g = graph::RelationshipGraph::build(db, seeds, 10);
  if (g.node_count() < 2) return;

  for (int trial = 0; trial < 20; ++trial) {
    const auto src = rng.below(g.node_count());
    const auto dst = rng.below(g.node_count());
    if (src == dst) continue;
    const auto path = g.shortest_path_subgraph(src, dst);
    const auto dist = g.distances_from(src);
    if (dist[dst] == graph::kUnreachable) {
      EXPECT_TRUE(path.empty());
      continue;
    }
    // Endpoints present, src first, dst last.
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    // Ordered by nondecreasing distance from src, all on shortest paths.
    const auto dist_to = g.distances_to(dst);
    for (std::size_t i = 0; i < path.size(); ++i) {
      EXPECT_EQ(dist[path[i]] + dist_to[path[i]], dist[dst]);
      if (i > 0 && path[i] != dst) {
        EXPECT_GE(dist[path[i]], dist[path[i - 1]]);
      }
    }
  }
}

TEST_P(RandomGraphProperties, SlackOnlyAddsNodes) {
  Rng rng(GetParam() ^ 0x1234);
  const auto db = random_db(25, rng);
  std::vector<EntityId> seeds{EntityId(0)};
  const auto g = graph::RelationshipGraph::build(db, seeds, 10);
  for (int trial = 0; trial < 10; ++trial) {
    const auto src = rng.below(g.node_count());
    const auto dst = rng.below(g.node_count());
    if (src == dst) continue;
    const auto strict = g.shortest_path_subgraph(src, dst, 0);
    const auto slack = g.shortest_path_subgraph(src, dst, 2);
    EXPECT_GE(slack.size(), strict.size());
    for (const auto n : strict)
      EXPECT_NE(std::find(slack.begin(), slack.end(), n), slack.end());
  }
}

TEST_P(RandomGraphProperties, CycleCensusConsistentWithDagCheck) {
  Rng rng(GetParam() ^ 0x9876);
  const auto db = random_db(15, rng);
  std::vector<EntityId> seeds{EntityId(0)};
  const auto g = graph::RelationshipGraph::build(db, seeds, 10);
  // Undirected associations -> every edge has its reverse -> any edge at all
  // means cycles, and the DAG check must agree with the census.
  if (g.count_2cycles() + g.count_3cycles() > 0) {
    EXPECT_FALSE(g.is_dag());
  }
  if (g.is_dag()) {
    EXPECT_EQ(g.count_2cycles(), 0u);
    EXPECT_EQ(g.count_3cycles(), 0u);
  }
}

TEST_P(RandomGraphProperties, RemovalNeverGrowsGraph) {
  Rng rng(GetParam() ^ 0x55AA);
  const auto db = random_db(20, rng);
  std::vector<EntityId> seeds{EntityId(0)};
  const auto g = graph::RelationshipGraph::build(db, seeds, 10);
  if (g.node_count() < 3 || g.edge_count() == 0) return;
  const auto& edge = g.edges()[rng.below(g.edge_count())];
  const auto g2 = g.without_edge(edge.src, edge.dst);
  EXPECT_EQ(g2.edge_count(), g.edge_count() - 1);
  EXPECT_EQ(g2.node_count(), g.node_count());
  const auto g3 = g.without_node(rng.below(g.node_count()));
  EXPECT_EQ(g3.node_count(), g.node_count() - 1);
  EXPECT_LE(g3.edge_count(), g.edge_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---------- predictor contracts ----------------------------------------------

struct PredictorCase {
  stats::ModelKind kind;
  std::uint64_t seed;
};

class PredictorContracts : public ::testing::TestWithParam<PredictorCase> {};

TEST_P(PredictorContracts, DeterministicForSeed) {
  const auto param = GetParam();
  Rng rng(77);
  stats::Matrix x(80, 3);
  stats::Vector y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x.at(i, j) = rng.uniform(0.0, 5.0);
    y[i] = x.at(i, 0) - x.at(i, 1) + rng.normal(0.0, 0.1);
  }
  stats::PredictorOptions opts;
  opts.seed = param.seed;
  auto m1 = stats::make_predictor(param.kind, opts);
  auto m2 = stats::make_predictor(param.kind, opts);
  m1->fit(x, y);
  m2->fit(x, y);
  const std::vector<double> probe{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(m1->predict(probe), m2->predict(probe));
  EXPECT_DOUBLE_EQ(m1->residual_sigma(), m2->residual_sigma());
}

TEST_P(PredictorContracts, FinitePredictionsOnDegenerateData) {
  const auto param = GetParam();
  // All-constant features and targets: the worst telemetry case.
  stats::Matrix x(20, 2, 3.0);
  stats::Vector y(20, 7.0);
  stats::PredictorOptions opts;
  opts.seed = param.seed;
  auto m = stats::make_predictor(param.kind, opts);
  m->fit(x, y);
  const double pred = m->predict(std::vector<double>{3.0, 3.0});
  EXPECT_TRUE(std::isfinite(pred));
  EXPECT_NEAR(pred, 7.0, 1.5);
  EXPECT_GE(m->residual_sigma(), 0.0);
  EXPECT_TRUE(std::isfinite(m->residual_sigma()));
}

TEST_P(PredictorContracts, SingleRowFitDoesNotCrash) {
  const auto param = GetParam();
  stats::Matrix x(1, 2);
  x.at(0, 0) = 1.0;
  x.at(0, 1) = 2.0;
  stats::Vector y{5.0};
  stats::PredictorOptions opts;
  opts.seed = param.seed;
  auto m = stats::make_predictor(param.kind, opts);
  m->fit(x, y);
  EXPECT_TRUE(std::isfinite(m->predict(std::vector<double>{1.0, 2.0})));
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, PredictorContracts,
    ::testing::Values(PredictorCase{stats::ModelKind::kRidge, 1},
                      PredictorCase{stats::ModelKind::kRidge, 99},
                      PredictorCase{stats::ModelKind::kGmm, 1},
                      PredictorCase{stats::ModelKind::kGmm, 99},
                      PredictorCase{stats::ModelKind::kSvr, 1},
                      PredictorCase{stats::ModelKind::kSvr, 99},
                      PredictorCase{stats::ModelKind::kMlp, 1},
                      PredictorCase{stats::ModelKind::kMlp, 99}),
    [](const auto& info) {
      return std::string(stats::model_kind_name(info.param.kind)) + "_s" +
             std::to_string(info.param.seed);
    });

// ---------- t-test calibration -----------------------------------------------

class TTestCalibration : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TTestCalibration, FalsePositiveRateNearAlpha) {
  // Under H0 (equal means), p_less < alpha should happen ~alpha of the time.
  Rng rng(GetParam());
  constexpr int kTrials = 400;
  constexpr double kAlpha = 0.05;
  int rejections = 0;
  std::vector<double> a(40), b(40);
  for (int t = 0; t < kTrials; ++t) {
    for (auto& v : a) v = rng.normal(0.0, 1.0);
    for (auto& v : b) v = rng.normal(0.0, 1.0);
    if (stats::welch_t_test(a, b).p_less < kAlpha) ++rejections;
  }
  const double rate = static_cast<double>(rejections) / kTrials;
  EXPECT_GT(rate, 0.01);
  EXPECT_LT(rate, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TTestCalibration,
                         ::testing::Values(11u, 22u, 33u));

// ---------- robust statistics -------------------------------------------------

TEST(RobustStats, MedianIgnoresQuarterOutliers) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.normal(10.0, 1.0));
  for (int i = 0; i < 100; ++i) xs.push_back(1000.0);  // 25% contamination
  EXPECT_NEAR(stats::median(xs), 10.0, 0.5);
  EXPECT_LT(stats::mad_sigma(xs), 3.0);      // robust scale barely moves
  EXPECT_GT(stats::stddev(xs), 100.0);       // classic scale explodes
}

TEST(RobustStats, MadSigmaMatchesStddevOnGaussian) {
  Rng rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal(0.0, 2.0));
  EXPECT_NEAR(stats::mad_sigma(xs), 2.0, 0.15);
}

TEST(RobustStats, MadSigmaFloorOnQuantizedData) {
  // >50% identical values would give MAD 0; the floor keeps it positive.
  std::vector<double> xs(80, 5.0);
  for (int i = 0; i < 20; ++i) xs.push_back(5.0 + i);
  EXPECT_GT(stats::mad_sigma(xs), 0.0);
}

// ---------- sampler properties -------------------------------------------------

class SamplerProperties : public ::testing::TestWithParam<std::size_t> {
 protected:
  // Chain A->B->C with a late surge; returns everything needed to sample.
  struct Env {
    MonitoringDb db;
    graph::RelationshipGraph graph;
    std::unique_ptr<core::MetricSpace> space;
    std::unique_ptr<core::FactorSet> factors;
    core::VarIndex va, vc;
    graph::NodeIndex na, nc;
  };

  static Env make_env() {
    Env e;
    const auto a = e.db.add_entity(EntityType::kVm, "A");
    const auto b = e.db.add_entity(EntityType::kVm, "B");
    const auto c = e.db.add_entity(EntityType::kVm, "C");
    e.db.add_association(a, b, RelationKind::kGeneric);
    e.db.add_association(b, c, RelationKind::kGeneric);
    const auto load = e.db.catalog().intern("cpu_util");
    e.db.metrics().set_axis(TimeAxis(0.0, 10.0, 200));
    Rng rng(3);
    std::vector<double> va(200), vb(200), vc(200);
    for (std::size_t t = 0; t < 200; ++t) {
      va[t] = 5.0 + 2.0 * std::sin(0.1 * t) + rng.normal(0.0, 0.3) +
              (t >= 180 ? 12.0 : 0.0);
      vb[t] = 2.0 * va[t] + rng.normal(0.0, 0.3);
      vc[t] = 1.5 * vb[t] + rng.normal(0.0, 0.4);
    }
    e.db.metrics().put(a, load, va);
    e.db.metrics().put(b, load, vb);
    e.db.metrics().put(c, load, vc);
    std::vector<EntityId> seeds{c};
    e.graph = graph::RelationshipGraph::build(e.db, seeds, 5);
    e.space = std::make_unique<core::MetricSpace>(e.db, e.graph);
    core::FactorTrainingOptions opts;
    e.factors =
        std::make_unique<core::FactorSet>(e.db, e.graph, *e.space, 0, 200, opts);
    e.va = *e.space->find(a, load);
    e.vc = *e.space->find(c, load);
    e.na = *e.graph.index_of(a);
    e.nc = *e.graph.index_of(c);
    return e;
  }
};

TEST_P(SamplerProperties, VerdictDeterministicAcrossConstructions) {
  const auto env = make_env();
  const auto state = env.space->snapshot(env.db, 199);
  core::SamplerOptions opts;
  opts.num_samples = 100;
  opts.gibbs_rounds = GetParam();
  core::CounterfactualSampler s1(env.graph, *env.space, *env.factors, opts);
  core::CounterfactualSampler s2(env.graph, *env.space, *env.factors, opts);
  Rng r1(1), r2(1);
  const auto v1 = s1.evaluate(env.na, env.va, env.nc, env.vc, state, true, r1);
  const auto v2 = s2.evaluate(env.na, env.va, env.nc, env.vc, state, true, r2);
  EXPECT_DOUBLE_EQ(v1.p_value, v2.p_value);
  EXPECT_DOUBLE_EQ(v1.mean_factual, v2.mean_factual);
}

TEST_P(SamplerProperties, CounterfactualAlwaysMovesTowardNormal) {
  const auto env = make_env();
  const auto state = env.space->snapshot(env.db, 199);
  core::SamplerOptions opts;
  opts.num_samples = 150;
  opts.gibbs_rounds = GetParam();
  core::CounterfactualSampler s(env.graph, *env.space, *env.factors, opts);
  Rng rng(1);
  const auto v = s.evaluate(env.na, env.va, env.nc, env.vc, state, true, rng);
  // During a high excursion the counterfactual start must not predict a
  // HIGHER symptom than the factual start, for any Gibbs round count.
  EXPECT_LE(v.mean_counterfactual, v.mean_factual + 0.5);
}

INSTANTIATE_TEST_SUITE_P(GibbsRounds, SamplerProperties,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ---------- reciprocal-rank-fusion merge properties -------------------------

// Synthetic per-symptom diagnosis naming `entities` in rank order.
core::DiagnosisResult ranking_of(std::initializer_list<std::uint32_t> ids) {
  core::DiagnosisResult r;
  double score = static_cast<double>(ids.size());
  for (const std::uint32_t id : ids)
    r.causes.push_back(core::RankedRootCause{EntityId(id), score--});
  return r;
}

core::Symptom symptom_at(std::uint32_t id) {
  return core::Symptom{EntityId(id), "cpu_util", 0.0, 1.0};
}

TEST(RrfMergeProperties, InvariantUnderSymptomPermutation) {
  // Three symptoms with overlapping suspect lists; the merge must not care
  // in which order the symptoms were diagnosed.
  std::vector<core::Symptom> symptoms{symptom_at(90), symptom_at(91),
                                      symptom_at(92)};
  std::vector<core::DiagnosisResult> results;
  results.push_back(ranking_of({1, 2, 3}));
  results.push_back(ranking_of({2, 1, 4}));
  results.push_back(ranking_of({3, 2, 5}));

  const auto baseline = core::fuse_reciprocal_rank(symptoms, results, 10);
  ASSERT_FALSE(baseline.empty());

  std::vector<std::size_t> perm{0, 1, 2};
  while (std::next_permutation(perm.begin(), perm.end())) {
    std::vector<core::Symptom> ps;
    std::vector<core::DiagnosisResult> pr;
    for (const std::size_t i : perm) {
      ps.push_back(symptoms[i]);
      pr.push_back(results[i]);
    }
    const auto merged = core::fuse_reciprocal_rank(ps, pr, 10);
    ASSERT_EQ(merged.size(), baseline.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].entity, baseline[i].entity) << "rank " << i;
      EXPECT_EQ(merged[i].score, baseline[i].score) << "rank " << i;
    }
  }
}

TEST(RrfMergeProperties, BreadthOfImplicationBeatsSinglePlacement) {
  // Entity 7 sits at rank 2 in three symptoms; entity 8 sits at rank 2 in
  // one. Equal per-appearance rank, broader implication -> 7 must outrank 8.
  std::vector<core::Symptom> symptoms{symptom_at(90), symptom_at(91),
                                      symptom_at(92)};
  std::vector<core::DiagnosisResult> results;
  results.push_back(ranking_of({1, 7, 3}));
  results.push_back(ranking_of({2, 7, 4}));
  results.push_back(ranking_of({5, 8, 7}));  // 8's single appearance

  const auto merged = core::fuse_reciprocal_rank(symptoms, results, 10);
  std::size_t rank7 = 0, rank8 = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].entity == EntityId(7)) rank7 = i + 1;
    if (merged[i].entity == EntityId(8)) rank8 = i + 1;
  }
  ASSERT_GT(rank7, 0u);
  ASSERT_GT(rank8, 0u);
  EXPECT_LT(rank7, rank8);
}

TEST(RrfMergeProperties, ExcludesSymptomEntitiesAndRespectsTopK) {
  // The symptom's own entity never enters the merge, and causes beyond
  // per_symptom_top_k contribute nothing.
  std::vector<core::Symptom> symptoms{symptom_at(1)};
  std::vector<core::DiagnosisResult> results;
  results.push_back(ranking_of({1, 2, 3, 4}));  // 1 is the symptom itself

  const auto merged = core::fuse_reciprocal_rank(symptoms, results, 3);
  ASSERT_EQ(merged.size(), 2u);  // 2 and 3 survive; 1 excluded, 4 beyond k
  EXPECT_EQ(merged[0].entity, EntityId(2));
  EXPECT_EQ(merged[1].entity, EntityId(3));
  // Scores keep the original (pre-exclusion) ranks: 1/2 and 1/3.
  EXPECT_DOUBLE_EQ(merged[0].score, 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(merged[1].score, 1.0 / 3.0);
}

}  // namespace
}  // namespace murphy
