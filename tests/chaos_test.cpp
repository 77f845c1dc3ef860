// Chaos-injection property harness (DESIGN.md §8).
//
// The engine's robustness contract against malformed telemetry, asserted
// over thousands of randomized corruption patterns from eval::apply_chaos:
//  * a diagnosis over a corrupted db NEVER crashes and NEVER emits a
//    non-finite score — defects degrade to documented fallbacks;
//  * clean inputs pass through every hardening guard bit-for-bit unchanged,
//    at any thread count;
//  * corruption itself is deterministic: one seed, one fault pattern, one
//    diagnosis result — a failing chaos ticket reproduces from its seed.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/batch.h"
#include "src/core/murphy.h"
#include "src/eval/chaos.h"
#include "src/obs/metrics.h"

namespace murphy {
namespace {

using telemetry::EntityType;
using telemetry::MonitoringDb;
using telemetry::RelationKind;

constexpr std::size_t kSlices = 96;

// A small two-tier service mesh: gateway -> {svc0, svc1, svc2} -> backing
// {db0, db1}, each entity exporting two correlated metrics. Big enough for
// multi-hop graphs and cross-entity features, small enough for thousands of
// diagnoses under sanitizers.
struct ChaosEnv {
  MonitoringDb db;
  std::vector<EntityId> entities;
  EntityId gateway;
  MetricKindId latency;
  MetricKindId load;
};

ChaosEnv make_env() {
  ChaosEnv e;
  e.gateway = e.db.add_entity(EntityType::kService, "gateway");
  std::vector<EntityId> svcs, backs;
  for (int i = 0; i < 3; ++i)
    svcs.push_back(
        e.db.add_entity(EntityType::kService, "svc" + std::to_string(i)));
  for (int i = 0; i < 2; ++i)
    backs.push_back(
        e.db.add_entity(EntityType::kVm, "db" + std::to_string(i)));
  for (const EntityId s : svcs) {
    e.db.add_association(e.gateway, s, RelationKind::kGeneric);
    for (const EntityId b : backs)
      e.db.add_association(s, b, RelationKind::kGeneric);
  }
  e.entities.push_back(e.gateway);
  e.entities.insert(e.entities.end(), svcs.begin(), svcs.end());
  e.entities.insert(e.entities.end(), backs.begin(), backs.end());

  e.latency = e.db.catalog().intern("latency_ms");
  e.load = e.db.catalog().intern("load");
  e.db.metrics().set_axis(TimeAxis(0.0, 10.0, kSlices));

  // backs drive svcs drive the gateway; a late surge at db0 propagates up.
  Rng rng(4242);
  std::vector<std::vector<double>> loads(e.entities.size(),
                                         std::vector<double>(kSlices));
  for (std::size_t t = 0; t < kSlices; ++t) {
    const double surge = t + 12 >= kSlices ? 9.0 : 0.0;
    for (std::size_t b = 0; b < backs.size(); ++b)
      loads[4 + b][t] = 5.0 + 2.0 * std::sin(0.1 * t + b) +
                        rng.normal(0.0, 0.3) + (b == 0 ? surge : 0.0);
    for (std::size_t s = 0; s < svcs.size(); ++s)
      loads[1 + s][t] = 0.7 * loads[4][t] + 0.5 * loads[5][t] +
                        rng.normal(0.0, 0.3);
    loads[0][t] =
        0.5 * (loads[1][t] + loads[2][t] + loads[3][t]) + rng.normal(0.0, 0.3);
  }
  for (std::size_t i = 0; i < e.entities.size(); ++i) {
    e.db.metrics().put(e.entities[i], e.load, loads[i]);
    std::vector<double> lat(kSlices);
    for (std::size_t t = 0; t < kSlices; ++t)
      lat[t] = 3.0 + 1.4 * loads[i][t] + rng.normal(0.0, 0.2);
    e.db.metrics().put(e.entities[i], e.latency, lat);
  }
  return e;
}

core::MurphyOptions tiny_opts(std::size_t num_threads = 1) {
  core::MurphyOptions opts;
  opts.sampler.num_samples = 12;
  opts.sampler.gibbs_rounds = 1;
  opts.num_threads = num_threads;
  return opts;
}

core::DiagnosisResult diagnose(const MonitoringDb& db, EntityId symptom,
                               TimeIndex now, TimeIndex train_begin,
                               TimeIndex train_end,
                               std::size_t num_threads = 1) {
  core::MurphyDiagnoser murphy(tiny_opts(num_threads));
  core::DiagnosisRequest req;
  req.db = &db;
  req.symptom_entity = symptom;
  req.symptom_metric = "latency_ms";
  req.now = now;
  req.train_begin = train_begin;
  req.train_end = train_end;
  return murphy.diagnose(req);
}

void expect_all_finite(const core::DiagnosisResult& r, std::uint64_t seed) {
  for (std::size_t i = 0; i < r.causes.size(); ++i) {
    EXPECT_TRUE(std::isfinite(r.causes[i].score))
        << "non-finite score at rank " << i << " for chaos seed " << seed;
  }
  EXPECT_EQ(r.explanations.size(), r.causes.size()) << "chaos seed " << seed;
}

void expect_bitwise_equal(const core::DiagnosisResult& x,
                          const core::DiagnosisResult& y) {
  ASSERT_EQ(x.causes.size(), y.causes.size());
  for (std::size_t i = 0; i < x.causes.size(); ++i) {
    EXPECT_EQ(x.causes[i].entity, y.causes[i].entity) << "rank " << i;
    EXPECT_EQ(x.causes[i].score, y.causes[i].score) << "rank " << i;
  }
  ASSERT_EQ(x.explanations.size(), y.explanations.size());
  for (std::size_t i = 0; i < x.explanations.size(); ++i)
    EXPECT_EQ(x.explanations[i], y.explanations[i]) << "rank " << i;
}

// ---------- the tentpole property: 1000+ corrupted tickets ----------------

TEST(Chaos, CorruptedTicketsNeverCrashOrEmitNonFinite) {
  constexpr std::uint64_t kTickets = 1000;
  const ChaosEnv base = make_env();
  // The symptom series stays clean so every ticket remains a diagnosable
  // incident; everything else is fair game.
  const std::vector<MetricRef> protect{{base.gateway, base.latency}};

  std::size_t corrupted_total = 0;
  for (std::uint64_t seed = 1; seed <= kTickets; ++seed) {
    ChaosEnv env = base;  // fresh copy; DbUid gives it a fresh identity
    eval::ChaosOptions copts;
    copts.seed = seed;
    copts.reingest = (seed % 3 == 0);  // exercise ingest AND read-path guards
    const eval::ChaosReport report = eval::apply_chaos(env.db, copts, protect);
    corrupted_total += report.total();

    // Window shapes cycle through the degenerate corners: the healthy
    // window, an empty one, a single slice, an inverted pair, and a `now`
    // beyond the time axis.
    TimeIndex now = kSlices - 1, begin = 0, end = kSlices;
    switch (seed % 5) {
      case 1: begin = end = 50; break;                 // empty
      case 2: begin = 50; end = 51; break;             // single slice
      case 3: begin = 60; end = 40; break;             // inverted
      case 4: now = kSlices + 37; end = kSlices; break;  // now off the axis
      default: break;
    }
    const auto result = diagnose(env.db, env.gateway, now, begin, end);
    expect_all_finite(result, seed);
  }
  // The mix must actually bite: on average more than one fault per ticket.
  EXPECT_GT(corrupted_total, kTickets);
}

// ---------- clean inputs: bit-for-bit through every guard ------------------

TEST(Chaos, CleanInputsBitwiseUnchangedAtAnyThreadCount) {
  const ChaosEnv env = make_env();
  const auto serial =
      diagnose(env.db, env.gateway, kSlices - 1, 0, kSlices, 1);
  ASSERT_FALSE(serial.causes.empty());
  expect_all_finite(serial, 0);

  // A zero-probability chaos pass must not perturb a single bit either.
  ChaosEnv zeroed = make_env();
  eval::ChaosOptions none;
  none.p_nan_slice = none.p_inf_slice = none.p_denormal_slice = 0.0;
  none.p_constant_column = none.p_near_constant_column = 0.0;
  none.p_huge_scale_column = none.p_drop_history = 0.0;
  none.p_duplicate_run = none.p_swap_slices = 0.0;
  none.self_loops = none.orphan_edges = none.strip_entities = 0;
  const eval::ChaosReport report = eval::apply_chaos(zeroed.db, none);
  EXPECT_EQ(report.total(), 0u);
  expect_bitwise_equal(
      serial, diagnose(zeroed.db, zeroed.gateway, kSlices - 1, 0, kSlices, 1));

  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_bitwise_equal(
        serial,
        diagnose(env.db, env.gateway, kSlices - 1, 0, kSlices, threads));
  }
}

TEST(Chaos, CorruptedInputsStayDeterministicAcrossThreadCounts) {
  // Determinism survives corruption: the degraded result is still bitwise
  // identical at every thread count (the guards never branch on scheduling).
  ChaosEnv env = make_env();
  eval::ChaosOptions copts;
  copts.seed = 77;
  eval::apply_chaos(env.db, copts, {});
  const auto serial = diagnose(env.db, env.gateway, kSlices - 1, 0, kSlices, 1);
  expect_all_finite(serial, 77);
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_bitwise_equal(serial, diagnose(env.db, env.gateway, kSlices - 1, 0,
                                          kSlices, threads));
  }
}

// ---------- the injector itself -------------------------------------------

TEST(Chaos, SameSeedSameFaultsSameDiagnosis) {
  ChaosEnv a = make_env();
  ChaosEnv b = make_env();
  eval::ChaosOptions copts;
  copts.seed = 123;
  const auto ra = eval::apply_chaos(a.db, copts, {});
  const auto rb = eval::apply_chaos(b.db, copts, {});
  EXPECT_EQ(ra.nan_slices, rb.nan_slices);
  EXPECT_EQ(ra.inf_slices, rb.inf_slices);
  EXPECT_EQ(ra.constant_columns, rb.constant_columns);
  EXPECT_EQ(ra.swapped_slices, rb.swapped_slices);
  EXPECT_EQ(ra.stripped_entities, rb.stripped_entities);
  EXPECT_EQ(ra.total(), rb.total());
  EXPECT_GT(ra.total(), 0u);
  expect_bitwise_equal(
      diagnose(a.db, a.gateway, kSlices - 1, 0, kSlices),
      diagnose(b.db, b.gateway, kSlices - 1, 0, kSlices));
}

TEST(Chaos, ProtectedSeriesAreNeverTouched) {
  const ChaosEnv base = make_env();
  ChaosEnv env = base;
  const std::vector<MetricRef> protect{{base.gateway, base.latency}};
  eval::ChaosOptions copts;
  copts.seed = 5;
  copts.p_nan_slice = copts.p_constant_column = 1.0;  // corrupt everything...
  copts.strip_entities = 3;
  eval::apply_chaos(env.db, copts, protect);
  const auto* before = base.db.metrics().find(base.gateway, base.latency);
  const auto* after = env.db.metrics().find(env.gateway, env.latency);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);  // ...except the protected symptom series
  ASSERT_EQ(before->size(), after->size());
  for (TimeIndex t = 0; t < before->size(); ++t)
    EXPECT_EQ(before->value(t), after->value(t)) << "slice " << t;
}

TEST(Chaos, StructuralFaultsAreDroppedAtIngestAndCounted) {
  ChaosEnv env = make_env();
  const std::size_t edges_before = env.db.association_count();
#ifndef MURPHY_OBS_DISABLED
  const auto selfloops_before =
      obs::global_metrics().counter("ingest.selfloop_edges_dropped")->value();
  const auto orphans_before =
      obs::global_metrics().counter("ingest.orphan_edges_dropped")->value();
#endif

  eval::ChaosOptions copts;
  copts.seed = 9;
  copts.p_nan_slice = copts.p_inf_slice = copts.p_denormal_slice = 0.0;
  copts.p_constant_column = copts.p_near_constant_column = 0.0;
  copts.p_huge_scale_column = copts.p_drop_history = 0.0;
  copts.p_duplicate_run = copts.p_swap_slices = 0.0;
  copts.strip_entities = 0;
  copts.self_loops = 4;
  copts.orphan_edges = 3;
  const auto report = eval::apply_chaos(env.db, copts, {});

  EXPECT_EQ(report.self_loops_offered, 4u);
  EXPECT_EQ(report.orphan_edges_offered, 3u);
  // Dropped at ingest: the association store never grew...
  EXPECT_EQ(env.db.association_count(), edges_before);
  // ...and the drops are observable (the ingest counters are compiled out
  // under MURPHY_OBS_DISABLED).
#ifndef MURPHY_OBS_DISABLED
  EXPECT_EQ(obs::global_metrics()
                .counter("ingest.selfloop_edges_dropped")
                ->value(),
            selfloops_before + 4);
  EXPECT_EQ(
      obs::global_metrics().counter("ingest.orphan_edges_dropped")->value(),
      orphans_before + 3);
#endif
}

TEST(Chaos, ValueDefectsSurfaceInCounters) {
  ChaosEnv env = make_env();
#ifndef MURPHY_OBS_DISABLED
  const auto reads_before =
      obs::global_metrics().counter("ingest.nonfinite_reads")->value();
  const auto cells_before =
      obs::global_metrics().counter("train.nonfinite_cells")->value();
#endif

  eval::ChaosOptions copts;
  copts.seed = 31;
  copts.p_nan_slice = copts.p_inf_slice = 1.0;  // raw writes, no reingest
  const auto report = eval::apply_chaos(env.db, copts, {});
  ASSERT_GT(report.nan_slices + report.inf_slices, 0u);

  const auto result =
      diagnose(env.db, env.gateway, kSlices - 1, 0, kSlices, 1);
  expect_all_finite(result, 31);
  // Raw non-finite payloads were seen and degraded somewhere observable:
  // either the read path (value_or) or a kernel boundary.
#ifndef MURPHY_OBS_DISABLED
  const auto reads_after =
      obs::global_metrics().counter("ingest.nonfinite_reads")->value();
  const auto cells_after =
      obs::global_metrics().counter("train.nonfinite_cells")->value();
  EXPECT_GT(reads_after + cells_after, reads_before + cells_before);
#endif
}

TEST(Chaos, ReingestedCorruptionIsAbsorbedAtIngest) {
  ChaosEnv env = make_env();
#ifndef MURPHY_OBS_DISABLED
  const auto dropped_before =
      obs::global_metrics().counter("ingest.nonfinite_dropped")->value();
#endif
  eval::ChaosOptions copts;
  copts.seed = 13;
  copts.p_nan_slice = copts.p_inf_slice = 1.0;
  copts.reingest = true;
  eval::apply_chaos(env.db, copts, {});
#ifndef MURPHY_OBS_DISABLED
  EXPECT_GT(
      obs::global_metrics().counter("ingest.nonfinite_dropped")->value(),
      dropped_before);
#endif
  // Post-ingest the store holds no valid non-finite slice at all.
  for (const EntityId e : env.db.all_entities()) {
    for (const MetricKindId k : env.db.metrics().kinds_of(e)) {
      const auto* ts = env.db.metrics().find(e, k);
      ASSERT_NE(ts, nullptr);
      for (TimeIndex t = 0; t < ts->size(); ++t) {
        if (ts->is_valid(t)) {
          EXPECT_TRUE(std::isfinite(ts->value(t)))
              << "entity " << e.value() << " slice " << t;
        }
      }
    }
  }
  expect_all_finite(diagnose(env.db, env.gateway, kSlices - 1, 0, kSlices, 1),
                    13);
}

// ---------- batch + shared caches under chaos ------------------------------

TEST(Chaos, BatchDiagnosisWithSharedCachesSurvivesCorruption) {
  ChaosEnv env = make_env();
  eval::ChaosOptions copts;
  copts.seed = 55;
  eval::apply_chaos(env.db, copts, {});

  core::BatchOptions bopts;
  bopts.murphy = tiny_opts(1);
  core::BatchDiagnoser batch(bopts);
  const std::vector<core::Symptom> symptoms{
      core::Symptom{env.gateway, "latency_ms", 0.0, 5.0},
      core::Symptom{env.entities[1], "latency_ms", 0.0, 4.0},
      core::Symptom{env.entities[4], "latency_ms", 0.0, 3.0},
  };
  const auto result =
      batch.diagnose_symptoms(env.db, symptoms, kSlices - 1, 0, kSlices);
  for (const auto& cause : result.merged)
    EXPECT_TRUE(std::isfinite(cause.score));
  for (const auto& per : result.per_symptom) expect_all_finite(per, 55);
}

}  // namespace
}  // namespace murphy
