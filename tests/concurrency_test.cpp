// The determinism-under-parallelism contract (DESIGN.md "Execution model"):
// every diagnosis output — ranked causes, explanation chains, merged batch
// results — is bitwise identical for any MurphyOptions::num_threads, because
// each parallel work item draws from its own mix_seed-derived RNG stream.
// Plus unit tests for the ThreadPool / parallel_for machinery itself.
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <future>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/batch.h"
#include "src/core/factor_cache.h"
#include "src/core/murphy.h"
#include "src/eval/matrix.h"

namespace murphy {
namespace {

using telemetry::ConfigEvent;
using telemetry::ConfigEventKind;
using telemetry::EntityType;
using telemetry::MonitoringDb;
using telemetry::RelationKind;

// ---------- thread-pool machinery -----------------------------------------

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ThreadPool pool(3);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 20; ++batch)
    pool.parallel_for(50, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, PropagatesFirstIterationException) {
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 13)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The loop drains rather than abandoning claimed iterations.
  EXPECT_EQ(ran.load(), 100u);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  std::size_t sum = 0;  // no atomics needed: inline on this thread
  pool.parallel_for(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
}

// Long enough never to fire on a healthy pool, short enough that a
// regression fails the test instead of hanging it.
constexpr auto kGuard = std::chrono::seconds(20);

TEST(ThreadPool, TaskParallelForCompletesWhileAnotherWorkerIsBlocked) {
  // The tasks share this state by value: on failure the pool is leaked
  // with its tasks still running, and they must not outlive the test.
  struct State {
    std::promise<void> release;
    std::promise<void> blocker_started;
    std::promise<std::size_t> loop_done;
  };
  const auto st = std::make_shared<State>();
  std::shared_future<void> released = st->release.get_future().share();
  std::future<void> started = st->blocker_started.get_future();
  std::future<std::size_t> done = st->loop_done.get_future();
  auto owned = std::make_unique<ThreadPool>(2);
  ThreadPool* const pool = owned.get();
  pool->submit([st, released] {
    st->blocker_started.set_value();
    released.wait_for(kGuard);
  });
  started.wait();
  // The other worker's loop must not wait for the blocked one.
  pool->submit([st, pool] {
    std::atomic<std::size_t> sum{0};
    pool->parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
    st->loop_done.set_value(sum.load());
  });
  const bool finished = done.wait_for(kGuard) == std::future_status::ready;
  st->release.set_value();
  if (!finished) {
    // A deadlocked pool can be neither drained nor joined: leak it, so the
    // suite reports the failure instead of hanging.
    (void)owned.release();
    FAIL() << "parallel_for waited for a busy worker";
  }
  pool->drain();
  EXPECT_EQ(done.get(), 4950u);
}

TEST(ThreadPool, ConcurrentParallelForsKeepTheirOwnResults) {
  constexpr std::size_t kTasks = 3;
  constexpr std::size_t kN = 2000;
  ThreadPool pool(kTasks);
  std::latch all_running(kTasks);
  std::vector<std::vector<std::size_t>> out(kTasks,
                                            std::vector<std::size_t>(kN));
  for (std::size_t k = 0; k < kTasks; ++k)
    pool.submit([&, k] {
      all_running.arrive_and_wait();  // the three loops overlap
      pool.parallel_for(kN, [&](std::size_t i) { out[k][i] = (k + 1) * i; });
    });
  pool.drain();
  for (std::size_t k = 0; k < kTasks; ++k)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(out[k][i], (k + 1) * i) << "task " << k << " index " << i;
}

TEST(ThreadPool, NestedParallelForOnTheSamePoolCompletes) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t i) {
    pool.parallel_for(kInner,
                      [&](std::size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ExceptionSurfacesOnlyAtItsOwnCaller) {
  ThreadPool pool(3);
  std::latch both_running(2);
  std::atomic<bool> failing_threw{false};
  std::atomic<bool> clean_threw{false};
  std::atomic<std::size_t> clean_ran{0};
  pool.submit([&] {
    both_running.arrive_and_wait();
    try {
      pool.parallel_for(500, [&](std::size_t i) {
        if (i == 7) throw std::runtime_error("job boom");
      });
    } catch (const std::runtime_error&) {
      failing_threw = true;
    }
  });
  pool.submit([&] {
    both_running.arrive_and_wait();
    try {
      pool.parallel_for(500, [&](std::size_t) { clean_ran.fetch_add(1); });
    } catch (...) {
      clean_threw = true;
    }
  });
  EXPECT_NO_THROW(pool.drain());  // both tasks caught what they saw
  EXPECT_TRUE(failing_threw.load());
  EXPECT_FALSE(clean_threw.load());
  EXPECT_EQ(clean_ran.load(), 500u);
}

TEST(ThreadPool, IdleWorkerHelpsARunningLoop) {
  // Whichever thread claims index 0 blocks until index 1 has run, so the
  // loop finishes in time only if a second thread claims index 1.
  ThreadPool pool(1);
  std::promise<void> one_ran;
  std::shared_future<void> one_done = one_ran.get_future().share();
  std::thread::id thread_of[2];
  bool released = false;
  pool.parallel_for(2, [&](std::size_t i) {
    thread_of[i] = std::this_thread::get_id();
    if (i == 1)
      one_ran.set_value();
    else
      released = one_done.wait_for(kGuard) == std::future_status::ready;
  });
  EXPECT_TRUE(released) << "no idle worker helped the loop";
  EXPECT_NE(thread_of[0], thread_of[1]);
}

TEST(ParallelFor, SerialPathMatchesParallelPath) {
  std::vector<double> serial(257), parallel(257);
  parallel_for(1, serial.size(),
               [&](std::size_t i) { serial[i] = std::sqrt(double(i)); });
  parallel_for(8, parallel.size(),
               [&](std::size_t i) { parallel[i] = std::sqrt(double(i)); });
  EXPECT_EQ(serial, parallel);
}

TEST(MixSeed, IndependentOfOrderAndDistinctPerStream) {
  // Same (seed, stream) -> same value; distinct streams -> distinct values.
  EXPECT_EQ(mix_seed(7, 42), mix_seed(7, 42));
  EXPECT_NE(mix_seed(7, 42), mix_seed(7, 43));
  EXPECT_NE(mix_seed(7, 42), mix_seed(8, 42));
  // Stream 0 must not collapse onto the bare seed.
  EXPECT_NE(mix_seed(7, 0), mix_seed(7, 1));
}

// ---------- diagnosis determinism -----------------------------------------

// Chain A -> B -> C -> D with a late surge injected at A that propagates
// down; D is the symptom. Rich enough to produce several candidates, an
// explanation chain, and recent config events.
struct ChainEnv {
  MonitoringDb db;
  EntityId a, b, c, d;
  MetricKindId load;
};

ChainEnv make_chain_env(std::size_t slices = 200) {
  ChainEnv e;
  e.a = e.db.add_entity(EntityType::kVm, "A");
  e.b = e.db.add_entity(EntityType::kVm, "B");
  e.c = e.db.add_entity(EntityType::kVm, "C");
  e.d = e.db.add_entity(EntityType::kVm, "D");
  e.db.add_association(e.a, e.b, RelationKind::kGeneric);
  e.db.add_association(e.b, e.c, RelationKind::kGeneric);
  e.db.add_association(e.c, e.d, RelationKind::kGeneric);
  e.load = e.db.catalog().intern("cpu_util");
  e.db.metrics().set_axis(TimeAxis(0.0, 10.0, slices));
  Rng rng(11);
  std::vector<double> va(slices), vb(slices), vc(slices), vd(slices);
  for (std::size_t t = 0; t < slices; ++t) {
    const double surge = t + 20 >= slices ? 14.0 : 0.0;
    va[t] = 6.0 + 2.0 * std::sin(0.07 * t) + rng.normal(0.0, 0.3) + surge;
    vb[t] = 1.6 * va[t] + rng.normal(0.0, 0.3);
    vc[t] = 1.2 * vb[t] + rng.normal(0.0, 0.4);
    vd[t] = 1.1 * vc[t] + rng.normal(0.0, 0.4);
  }
  e.db.metrics().put(e.a, e.load, va);
  e.db.metrics().put(e.b, e.load, vb);
  e.db.metrics().put(e.c, e.load, vc);
  e.db.metrics().put(e.d, e.load, vd);
  e.db.config_events().record(
      ConfigEvent{ConfigEventKind::kResourcesResized, e.b, slices - 5,
                  "vCPU 4 -> 8"});
  e.db.config_events().record(
      ConfigEvent{ConfigEventKind::kConfigPushed, e.a, 10, "ancient"});
  return e;
}

core::DiagnosisResult diagnose_chain(const ChainEnv& env,
                                     std::size_t num_threads) {
  core::MurphyOptions mopts;
  mopts.sampler.num_samples = 120;
  mopts.num_threads = num_threads;
  core::MurphyDiagnoser murphy(mopts);
  core::DiagnosisRequest req;
  req.db = &env.db;
  req.symptom_entity = env.d;
  req.symptom_metric = "cpu_util";
  req.now = 199;
  req.train_begin = 0;
  req.train_end = 200;
  return murphy.diagnose(req);
}

void expect_bitwise_equal(const core::DiagnosisResult& x,
                          const core::DiagnosisResult& y) {
  ASSERT_EQ(x.causes.size(), y.causes.size());
  for (std::size_t i = 0; i < x.causes.size(); ++i) {
    EXPECT_EQ(x.causes[i].entity, y.causes[i].entity) << "rank " << i;
    // EXPECT_EQ on double demands exact (bitwise for non-NaN) equality.
    EXPECT_EQ(x.causes[i].score, y.causes[i].score) << "rank " << i;
  }
  ASSERT_EQ(x.explanations.size(), y.explanations.size());
  for (std::size_t i = 0; i < x.explanations.size(); ++i)
    EXPECT_EQ(x.explanations[i], y.explanations[i]) << "rank " << i;
  ASSERT_EQ(x.recent_config_changes.size(), y.recent_config_changes.size());
  for (std::size_t i = 0; i < x.recent_config_changes.size(); ++i) {
    EXPECT_EQ(x.recent_config_changes[i].entity,
              y.recent_config_changes[i].entity);
    EXPECT_EQ(x.recent_config_changes[i].at, y.recent_config_changes[i].at);
  }
}

void expect_batch_bitwise_equal(const core::BatchResult& x,
                                const core::BatchResult& y) {
  ASSERT_EQ(x.merged.size(), y.merged.size());
  for (std::size_t i = 0; i < x.merged.size(); ++i) {
    EXPECT_EQ(x.merged[i].entity, y.merged[i].entity) << "rank " << i;
    EXPECT_EQ(x.merged[i].score, y.merged[i].score) << "rank " << i;
  }
  ASSERT_EQ(x.per_symptom.size(), y.per_symptom.size());
  for (std::size_t s = 0; s < x.per_symptom.size(); ++s) {
    SCOPED_TRACE("symptom " + std::to_string(s));
    expect_bitwise_equal(x.per_symptom[s], y.per_symptom[s]);
  }
}

TEST(Determinism, DiagnosisBitwiseIdenticalAcrossThreadCounts) {
  const auto env = make_chain_env();
  const auto serial = diagnose_chain(env, 1);
  // The scenario must actually exercise the parallel evaluation path.
  ASSERT_FALSE(serial.causes.empty());
  ASSERT_FALSE(serial.recent_config_changes.empty());
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = diagnose_chain(env, threads);
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_bitwise_equal(serial, parallel);
  }
}

TEST(Determinism, FactorTrainingBitwiseIdenticalAcrossThreadCounts) {
  const auto env = make_chain_env();
  const std::vector<EntityId> seeds{env.d};
  const auto g = graph::RelationshipGraph::build(env.db, seeds, 4);
  const core::MetricSpace space(env.db, g);
  const auto state = space.snapshot(env.db, 199);

  core::FactorTrainingOptions topts;
  topts.num_threads = 1;
  const core::FactorSet serial(env.db, g, space, 0, 200, topts);
  for (const std::size_t threads : {2u, 8u}) {
    topts.num_threads = threads;
    const core::FactorSet parallel(env.db, g, space, 0, 200, topts);
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ASSERT_EQ(serial.size(), parallel.size());
    for (core::VarIndex v = 0; v < serial.size(); ++v) {
      EXPECT_EQ(serial.conditional(v).predict(state),
                parallel.conditional(v).predict(state));
      EXPECT_EQ(serial.conditional(v).hist_mean(),
                parallel.conditional(v).hist_mean());
      EXPECT_EQ(serial.conditional(v).robust_sigma(),
                parallel.conditional(v).robust_sigma());
      EXPECT_EQ(serial.conditional(v).residual_sigma(),
                parallel.conditional(v).residual_sigma());
    }
  }
}

TEST(Determinism, BatchMergedBitwiseIdenticalAcrossThreadCounts) {
  const auto env = make_chain_env();
  const std::vector<core::Symptom> symptoms{
      core::Symptom{env.d, "cpu_util", 0.0, 5.0},
      core::Symptom{env.c, "cpu_util", 0.0, 4.0},
      core::Symptom{env.b, "cpu_util", 0.0, 3.0},
  };

  auto run = [&](std::size_t threads) {
    core::BatchOptions bopts;
    bopts.murphy.sampler.num_samples = 80;
    bopts.murphy.num_threads = threads;
    core::BatchDiagnoser batch(bopts);
    return batch.diagnose_symptoms(env.db, symptoms, 199, 0, 200);
  };

  const auto serial = run(1);
  ASSERT_FALSE(serial.merged.empty());
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_batch_bitwise_equal(serial, run(threads));
  }
}

TEST(Determinism, SharedTrainingCachesDoNotChangeBatchBits) {
  // The batch's training caches must be a pure wall-clock optimization: the
  // merged ranking and every per-symptom result carry the exact bits of
  // cache-free per-symptom diagnoses fused the same way, at any thread
  // count. The chain symptoms' 4-hop graphs all cover the same four nodes,
  // so the second and third symptoms are served almost entirely from cache.
  const auto env = make_chain_env();
  const std::vector<core::Symptom> symptoms{
      core::Symptom{env.d, "cpu_util", 0.0, 5.0},
      core::Symptom{env.c, "cpu_util", 0.0, 4.0},
      core::Symptom{env.b, "cpu_util", 0.0, 3.0},
  };
  core::BatchOptions bopts;
  bopts.murphy.sampler.num_samples = 80;
  bopts.murphy.num_threads = 1;

  core::BatchResult uncached{symptoms, {}, {}};
  for (const core::Symptom& symptom : symptoms) {
    core::MurphyDiagnoser murphy(bopts.murphy);
    core::DiagnosisRequest req;
    req.db = &env.db;
    req.symptom_entity = symptom.entity;
    req.symptom_metric = symptom.metric;
    req.now = 199;
    req.train_begin = 0;
    req.train_end = 200;
    uncached.per_symptom.push_back(murphy.diagnose(req));
  }
  uncached.merged = core::fuse_reciprocal_rank(
      symptoms, uncached.per_symptom, bopts.per_symptom_top_k);
  ASSERT_FALSE(uncached.merged.empty());

  for (const std::size_t threads : {1u, 8u}) {
    bopts.murphy.num_threads = threads;
    core::BatchDiagnoser batch(bopts);
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_batch_bitwise_equal(
        uncached, batch.diagnose_symptoms(env.db, symptoms, 199, 0, 200));
  }
}

TEST(Determinism, HardwareDefaultMatchesSerial) {
  // num_threads = 0 (one thread per core, whatever this machine has) must
  // still produce the serial bits.
  const auto env = make_chain_env();
  const auto serial = diagnose_chain(env, 1);
  const auto hw = diagnose_chain(env, 0);
  expect_bitwise_equal(serial, hw);
}

TEST(Timings, DiagnosisReportsWhereTimeGoes) {
  const auto env = make_chain_env();
  const auto result = diagnose_chain(env, 2);
  EXPECT_GT(result.timings.training_ms, 0.0);
  EXPECT_GT(result.timings.inference_ms, 0.0);
  EXPECT_GE(result.timings.total_ms,
            result.timings.training_ms + result.timings.inference_ms);
}

// ---------- instrumented-path determinism ----------------------------------

// A fully instrumented diagnosis: fresh tracer + registry per run, audit
// collection on. Returns the pieces the determinism contract covers.
struct InstrumentedRun {
  core::DiagnosisResult result;
  std::string trace_json;   // deterministic export mode
  std::string audit_jsonl;
  obs::MetricsRegistry::Snapshot metrics;
};

InstrumentedRun diagnose_chain_instrumented(const ChainEnv& env,
                                            std::size_t num_threads) {
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  core::MurphyOptions mopts;
  mopts.sampler.num_samples = 120;
  mopts.num_threads = num_threads;
  mopts.obs.tracer = &tracer;
  mopts.obs.metrics = &registry;
  mopts.obs.collect_audit = true;
  core::MurphyDiagnoser murphy(mopts);
  core::DiagnosisRequest req;
  req.db = &env.db;
  req.symptom_entity = env.d;
  req.symptom_metric = "cpu_util";
  req.now = 199;
  req.train_begin = 0;
  req.train_end = 200;
  InstrumentedRun run;
  run.result = murphy.diagnose(req);
  obs::TraceExportOptions topts;
  topts.deterministic = true;
  run.trace_json = tracer.to_chrome_json(topts);
  run.audit_jsonl = obs::to_jsonl(run.result.audit);
  run.metrics = registry.snapshot();
  return run;
}

TEST(Determinism, InstrumentedDiagnosisBitwiseIdenticalAcrossThreadCounts) {
  const auto env = make_chain_env();
  const auto serial = diagnose_chain_instrumented(env, 1);
  ASSERT_FALSE(serial.result.causes.empty());
  ASSERT_FALSE(serial.result.audit.empty());
  ASSERT_FALSE(serial.trace_json.empty());
  // Instrumentation must not change the diagnosis itself.
  expect_bitwise_equal(diagnose_chain(env, 1), serial.result);
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    const auto parallel = diagnose_chain_instrumented(env, threads);
    expect_bitwise_equal(serial.result, parallel.result);
    // The deterministic trace export and the audit JSONL are byte-identical.
    EXPECT_EQ(serial.trace_json, parallel.trace_json);
    EXPECT_EQ(serial.audit_jsonl, parallel.audit_jsonl);
    // Counter totals, histogram counts and bucket vectors are exact integer
    // functions of the work done; gauges are set from serial sections.
    // Two exemptions: histogram sums are float accumulations in scheduling
    // order, and the phase.*_ms histograms observe *wall-clock* durations —
    // both genuinely vary across runs and are NOT compared.
    ASSERT_EQ(serial.metrics.entries.size(), parallel.metrics.entries.size());
    for (std::size_t i = 0; i < serial.metrics.entries.size(); ++i) {
      const auto& a = serial.metrics.entries[i];
      const auto& b = parallel.metrics.entries[i];
      SCOPED_TRACE(a.name);
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.kind, b.kind);
      if (a.name.rfind("phase.", 0) == 0) {
        EXPECT_EQ(a.value, b.value);  // observation *count* still matches
        continue;
      }
      EXPECT_EQ(a.value, b.value);
      EXPECT_EQ(a.bucket_counts, b.bucket_counts);
    }
  }
}

TEST(Determinism, PValueHistogramSumBitwiseAcrossThreadsAndRuns) {
  // The p-value histogram is observed in candidate order after the parallel
  // join, so even its float sum is a pure function of the diagnosis.
  const auto env = make_chain_env();
  const auto p_value_sum = [](const InstrumentedRun& run) {
    for (const auto& e : run.metrics.entries)
      if (e.name == "infer.p_value") return std::make_pair(e.value, e.sum);
    return std::make_pair(-1.0, 0.0);
  };
  const auto serial = p_value_sum(diagnose_chain_instrumented(env, 1));
  ASSERT_GT(serial.first, 1.0);  // several candidates were tested
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::size_t threads : {1u, 8u}) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads));
      const auto run = p_value_sum(diagnose_chain_instrumented(env, threads));
      EXPECT_EQ(run.first, serial.first);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(run.second),
                std::bit_cast<std::uint64_t>(serial.second));
    }
  }
}

TEST(Determinism, ConcurrentBlockExtensionMatchesCold) {
  // Many trainings of growing windows race on one moment store (as service
  // workers do under the shared lock); every one of them must still carry
  // the bits of a cold training of its window.
  const auto env = make_chain_env();
  const std::vector<EntityId> seeds{env.d};
  const auto g = graph::RelationshipGraph::build(env.db, seeds, 4);
  const core::MetricSpace space(env.db, g);
  const auto state = space.snapshot(env.db, 199);
  core::MomentStore store;
  const auto train = [&](TimeIndex end, core::MomentStore* s,
                         std::size_t threads) {
    core::FactorTrainingOptions topts;
    topts.num_threads = threads;
    topts.moment_store = s;
    return core::FactorSet(env.db, g, space, 0, end, topts);
  };
  constexpr TimeIndex kFirst = 188;
  std::vector<std::unique_ptr<core::FactorSet>> shared(200 - kFirst);
  std::vector<std::thread> workers;
  for (TimeIndex end = kFirst; end < 200; ++end)
    workers.emplace_back([&, end] {
      shared[end - kFirst] =
          std::make_unique<core::FactorSet>(train(end, &store, 2));
    });
  for (std::thread& w : workers) w.join();
  for (TimeIndex end = kFirst; end < 200; ++end) {
    SCOPED_TRACE("end=" + std::to_string(end));
    const core::FactorSet cold = train(end, nullptr, 1);
    const core::FactorSet& got = *shared[end - kFirst];
    for (core::VarIndex v = 0; v < cold.size(); ++v) {
      EXPECT_EQ(cold.conditional(v).predict(state),
                got.conditional(v).predict(state));
      EXPECT_EQ(cold.conditional(v).residual_sigma(),
                got.conditional(v).residual_sigma());
      EXPECT_EQ(cold.conditional(v).robust_sigma(),
                got.conditional(v).robust_sigma());
      EXPECT_EQ(cold.conditional(v).hist_sigma(),
                got.conditional(v).hist_sigma());
    }
  }
}

TEST(Determinism, AuditRecordsMatchRankedCauses) {
  const auto env = make_chain_env();
  const auto run = diagnose_chain_instrumented(env, 2);
  const auto& audit = run.result.audit;
  EXPECT_EQ(audit.scheme, "murphy");
  EXPECT_EQ(audit.symptom_metric, "cpu_util");
  // Every ranked cause has exactly one accepted audit record at its rank.
  for (std::size_t r = 0; r < run.result.causes.size(); ++r) {
    const EntityId entity = run.result.causes[r].entity;
    bool found = false;
    for (const auto& c : audit.candidates) {
      if (c.entity != entity) continue;
      found = true;
      EXPECT_TRUE(c.accepted);
      EXPECT_EQ(c.rank, r + 1);
      EXPECT_FALSE(c.path.empty());
    }
    EXPECT_TRUE(found) << "rank " << r;
  }
  // Candidate records are sorted by entity id.
  for (std::size_t i = 1; i < audit.candidates.size(); ++i)
    EXPECT_LT(audit.candidates[i - 1].entity, audit.candidates[i].entity);
  // And the JSONL rendering parses back to the same number of records.
  obs::DiagnosisAudit parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_jsonl(run.audit_jsonl, parsed, &error)) << error;
  EXPECT_EQ(parsed.candidates.size(), audit.candidates.size());
}

// ---------- battle-matrix golden cell ---------------------------------------

// One small battle-matrix cell, pinned by seed. The harness path (topology
// generation -> incident planning -> simulation -> chaos -> diagnosis) must
// inherit the engine's determinism contract: identical ranked lists at any
// thread count, and identical bits whether Murphy runs directly or through
// the DiagnosisService's streamed-replay route.

eval::MatrixOptions golden_cell_options() {
  eval::MatrixOptions opts;
  eval::MatrixTopoLevel level;
  level.name = "golden-40";
  level.topo.services = 40;
  level.topo.applications = 1;
  level.topo.seed = 77;
  opts.topologies.push_back(level);
  opts.faults = {emulation::IncidentKind::kCorrelatedMultiRoot};
  opts.qualities = {{"clean", 0.0}};
  opts.cases_per_cell = 1;
  opts.seed = 5;
  opts.scenario.slices = 160;
  opts.murphy.sampler.num_samples = 60;
  opts.service_route_min_services = SIZE_MAX;  // direct unless overridden
  return opts;
}

void expect_case_runs_bitwise_equal(const eval::MatrixCellRuns& x,
                                    const eval::MatrixCellRuns& y) {
  ASSERT_EQ(x.runs.size(), y.runs.size());
  for (std::size_t i = 0; i < x.runs.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_EQ(x.runs[i].scheme, y.runs[i].scheme);
    expect_bitwise_equal(x.runs[i].result, y.runs[i].result);
    EXPECT_EQ(x.runs[i].outcome.rank, y.runs[i].outcome.rank);
    EXPECT_EQ(x.runs[i].outcome.relaxed_rank, y.runs[i].outcome.relaxed_rank);
  }
}

TEST(MatrixGolden, CellBitwiseIdenticalAcrossThreadCounts) {
  eval::MatrixOptions opts = golden_cell_options();
  auto run_at = [&](std::size_t threads) {
    opts.murphy.num_threads = threads;
    core::MurphyDiagnoser murphy(opts.murphy);
    core::Diagnoser* scheme = &murphy;
    return eval::run_matrix_cell(opts, std::span<core::Diagnoser* const>(
                                           &scheme, 1),
                                 0, 0, 0);
  };
  const auto serial = run_at(1);
  ASSERT_EQ(serial.runs.size(), 1u);
  ASSERT_FALSE(serial.runs[0].result.causes.empty());
  // The pinned cell must stay solvable — a generator change that breaks the
  // incident's diagnosability shows up here, not just as a bench regression.
  EXPECT_GE(serial.runs[0].outcome.rank, 1u);
  EXPECT_LE(serial.runs[0].outcome.rank, 3u);
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_case_runs_bitwise_equal(serial, run_at(threads));
  }
}

TEST(MatrixGolden, ServiceRouteMatchesDirectBitwise) {
  eval::MatrixOptions opts = golden_cell_options();
  core::MurphyDiagnoser murphy(opts.murphy);
  core::Diagnoser* scheme = &murphy;
  const std::span<core::Diagnoser* const> schemes(&scheme, 1);

  opts.service_route_min_services = SIZE_MAX;
  const auto direct = eval::run_matrix_cell(opts, schemes, 0, 0, 0);
  ASSERT_EQ(direct.runs.size(), 1u);
  EXPECT_FALSE(direct.runs[0].via_service);

  // Same cell, Murphy routed through the service: warm prefix + streamed
  // incident tail + priority queue. The kOk result carries the same bits.
  opts.service_route_min_services = 0;
  for (const std::size_t workers : {1u, 3u}) {
    SCOPED_TRACE("service_workers=" + std::to_string(workers));
    opts.service_workers = workers;
    const auto routed = eval::run_matrix_cell(opts, schemes, 0, 0, 0);
    ASSERT_EQ(routed.runs.size(), 1u);
    EXPECT_TRUE(routed.runs[0].via_service);
    expect_bitwise_equal(direct.runs[0].result, routed.runs[0].result);
  }
}

TEST(MatrixGolden, DegradedCellStillDeterministic) {
  // The chaos axis must not leak nondeterminism: corrupting the same case
  // twice (reingest on, symptom protected) yields identical ranked lists.
  eval::MatrixOptions opts = golden_cell_options();
  opts.qualities = {{"degraded", 0.5}};
  core::MurphyDiagnoser murphy(opts.murphy);
  core::Diagnoser* scheme = &murphy;
  const std::span<core::Diagnoser* const> schemes(&scheme, 1);
  const auto a = eval::run_matrix_cell(opts, schemes, 0, 0, 0);
  const auto b = eval::run_matrix_cell(opts, schemes, 0, 0, 0);
  ASSERT_EQ(a.runs.size(), 1u);
  ASSERT_FALSE(a.runs[0].result.causes.empty());
  expect_case_runs_bitwise_equal(a, b);
}

}  // namespace
}  // namespace murphy
