// Tests for the inference kernel (DESIGN.md §5.1) and its batched normal
// generator.
//
// The contract under test has three parts:
//  1. Rng::fill_normal is a correct N(0,1) sampler (moments, tails), is
//     chunking-invariant, and its mix_seed-derived streams are independent.
//     The integer xoshiro stream is pinned to golden values.
//  2. A diagnosis is deterministic: bitwise identical at any thread count,
//     with the work accounting (node_resamples / kernel_cells) pinned to
//     fixed values for a fixed request, the same for the kernel and the
//     reference, and the same serial or parallel.
//  3. The kernel agrees with the resample_path reference on verdicts, and
//     candidates whose conditionals cannot be flattened (non-ridge model
//     families) draw through that reference.
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/factor_model.h"
#include "src/core/metric_space.h"
#include "src/core/murphy.h"
#include "src/core/sampler.h"
#include "src/obs/metrics.h"

namespace murphy {
namespace {

using telemetry::ConfigEvent;
using telemetry::ConfigEventKind;
using telemetry::EntityType;
using telemetry::MonitoringDb;
using telemetry::RelationKind;

// ---------- the batched generator ------------------------------------------

TEST(FillNormal, GoldenU64StreamUnchanged) {
  // Every sampler stream rests on the raw xoshiro256** stream: pin it.
  // (splitmix64-seeded, values independent of platform).
  Rng rng(1);
  const std::uint64_t expected[] = {
      0xb3f2af6d0fc710c5ull, 0x853b559647364ceaull, 0x92f89756082a4514ull,
      0x642e1c7bc266a3a7ull, 0xb27a48e29a233673ull, 0x24c123126ffda722ull,
  };
  for (const std::uint64_t want : expected) EXPECT_EQ(rng(), want);
}

TEST(FillNormal, MomentsMatchStandardNormal) {
  constexpr std::size_t kN = 200000;
  Rng rng(42);
  std::vector<double> z(kN);
  rng.fill_normal(z);

  double sum = 0.0, sum2 = 0.0;
  std::size_t beyond196 = 0, beyond3 = 0;
  for (const double v : z) {
    sum += v;
    sum2 += v * v;
    if (std::abs(v) > 1.96) ++beyond196;
    if (std::abs(v) > 3.0) ++beyond3;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
  // P(|Z| > 1.96) = 0.05, P(|Z| > 3) = 0.0027 — the ziggurat tail path.
  EXPECT_NEAR(static_cast<double>(beyond196) / kN, 0.05, 0.005);
  EXPECT_NEAR(static_cast<double>(beyond3) / kN, 0.0027, 0.0015);
}

TEST(FillNormal, ChunkingInvariant) {
  // The kernel consumes lane-sized blocks whose width depends on how
  // many chains remain; the stream must not depend on the chunking.
  constexpr std::size_t kN = 1024;
  Rng whole_rng(9);
  std::vector<double> whole(kN);
  whole_rng.fill_normal(whole);

  Rng halves_rng(9);
  std::vector<double> halves(kN);
  halves_rng.fill_normal(std::span<double>(halves.data(), kN / 2));
  halves_rng.fill_normal(std::span<double>(halves.data() + kN / 2, kN / 2));
  EXPECT_EQ(whole, halves);

  Rng singles_rng(9);
  std::vector<double> singles(kN);
  for (std::size_t i = 0; i < kN; ++i)
    singles_rng.fill_normal(std::span<double>(singles.data() + i, 1));
  EXPECT_EQ(whole, singles);
}

TEST(FillNormal, DeterministicAndSeedSensitive) {
  std::vector<double> a(256), b(256), c(256);
  Rng ra(7), rb(7), rc(8);
  ra.fill_normal(a);
  rb.fill_normal(b);
  rc.fill_normal(c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FillNormal, MixSeedStreamsIndependent) {
  // Per-candidate streams are derived via mix_seed(seed, stream); adjacent
  // streams must be uncorrelated or parallel candidates would covary.
  constexpr std::size_t kN = 100000;
  Rng r1(mix_seed(5, 1)), r2(mix_seed(5, 2));
  std::vector<double> z1(kN), z2(kN);
  r1.fill_normal(z1);
  r2.fill_normal(z2);
  double dot = 0.0;
  for (std::size_t i = 0; i < kN; ++i) dot += z1[i] * z2[i];
  // Both sides ~N(0,1): corr ~= dot/N, stderr ~= 1/sqrt(N) ~= 0.003.
  EXPECT_LT(std::abs(dot / kN), 0.02);
}

// ---------- end-to-end fixture ---------------------------------------------

// Chain A -> B -> C -> D with a late surge at A propagating to the symptom
// at D (same construction as concurrency_test.cpp, so results here are
// comparable to the determinism suite's expectations).
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
  return e;
}

core::DiagnosisResult diagnose_chain(const ChainEnv& env,
                                     std::size_t num_threads,
                                     obs::MetricsRegistry* metrics = nullptr,
                                     stats::ModelKind model =
                                         stats::ModelKind::kRidge) {
  core::MurphyOptions mopts;
  mopts.sampler.num_samples = 120;
  mopts.num_threads = num_threads;
  mopts.training.model = model;
  mopts.obs.metrics = metrics;
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
    EXPECT_EQ(x.causes[i].score, y.causes[i].score) << "rank " << i;
  }
  ASSERT_EQ(x.explanations.size(), y.explanations.size());
  for (std::size_t i = 0; i < x.explanations.size(); ++i)
    EXPECT_EQ(x.explanations[i], y.explanations[i]) << "rank " << i;
}

// The sampler-level inputs of the chain request: candidate A against the
// symptom at D.
struct ChainSampler {
  graph::RelationshipGraph graph;
  std::unique_ptr<core::MetricSpace> space;
  std::unique_ptr<core::FactorSet> factors;
  std::vector<double> state;
  core::VarIndex a_var = 0, d_var = 0;
  graph::NodeIndex a_node = 0, d_node = 0;
};

ChainSampler make_chain_sampler(const ChainEnv& env,
                                stats::ModelKind model =
                                    stats::ModelKind::kRidge) {
  ChainSampler c;
  const std::vector<EntityId> seeds{env.d};
  c.graph = graph::RelationshipGraph::build(env.db, seeds, 4);
  c.space = std::make_unique<core::MetricSpace>(env.db, c.graph);
  c.state = c.space->snapshot(env.db, 199);
  core::FactorTrainingOptions topts;
  topts.model = model;
  c.factors = std::make_unique<core::FactorSet>(env.db, c.graph, *c.space, 0,
                                                200, topts);
  c.a_var = *c.space->find(env.a, env.load);
  c.d_var = *c.space->find(env.d, env.load);
  c.a_node = c.space->var(c.a_var).node;
  c.d_node = c.space->var(c.d_var).node;
  return c;
}

// ---------- determinism ----------------------------------------------------

TEST(FastInference, FastModeDeterministicAcrossThreadCounts) {
  const auto env = make_chain_env();
  const auto serial = diagnose_chain(env, 1);
  ASSERT_FALSE(serial.causes.empty());
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_bitwise_equal(serial, diagnose_chain(env, threads));
  }
}

// ---------- work accounting ------------------------------------------------

TEST(FastInference, WorkCountersIdenticalAcrossModes) {
  // node_resamples / kernel_cells are a function of the request, never of
  // the execution mode: the kernel resamples the same (sample, round,
  // variable) grid as the resample_path reference. Pinned so the per-cell
  // unit costs reported by benchmarks stay comparable across changes to
  // the kernel.
  const auto env = make_chain_env();
  const auto c = make_chain_sampler(env);
  core::SamplerOptions sopts;
  sopts.num_samples = 120;
  const core::CounterfactualSampler sampler(c.graph, *c.space, *c.factors,
                                            sopts);
  Rng kernel_rng(mix_seed(99, 1)), reference_rng(mix_seed(99, 1));
  const auto k = sampler.evaluate(c.a_node, c.a_var, c.d_node, c.d_var,
                                  c.state, /*symptom_high=*/true, kernel_rng);
  const auto r = sampler.evaluate_reference(c.a_node, c.a_var, c.d_node,
                                            c.d_var, c.state,
                                            /*symptom_high=*/true,
                                            reference_rng);
  EXPECT_EQ(k.path_len, 4u);
  EXPECT_EQ(k.node_resamples, 2880u);
  EXPECT_EQ(k.kernel_cells, 4800u);
  EXPECT_EQ(k.path_len, r.path_len);
  EXPECT_EQ(k.node_resamples, r.node_resamples);
  EXPECT_EQ(k.kernel_cells, r.kernel_cells);
  // Both verdicts must agree on the clear-cut root cause.
  EXPECT_TRUE(k.is_root_cause);
  EXPECT_EQ(k.is_root_cause, r.is_root_cause);
}

TEST(FastInference, RegistryCountersIdenticalAcrossModes) {
  // The registry totals of a diagnosis are pinned, and identical whether
  // candidates are evaluated serially or across a worker pool.
  const auto env = make_chain_env();
  obs::MetricsRegistry serial_reg, parallel_reg;
  (void)diagnose_chain(env, 1, &serial_reg);
  (void)diagnose_chain(env, 8, &parallel_reg);
  EXPECT_EQ(serial_reg.counter("infer.candidates_evaluated")->value(), 4u);
  EXPECT_EQ(serial_reg.counter("infer.gibbs_node_resamples")->value(), 7680u);
  EXPECT_EQ(serial_reg.counter("infer.kernel_cells")->value(), 11520u);
  for (const char* name :
       {"infer.candidates_evaluated", "infer.candidates_accepted",
        "infer.gibbs_node_resamples", "infer.kernel_cells"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(serial_reg.counter(name)->value(),
              parallel_reg.counter(name)->value());
  }
}

// ---------- agreement with the reference -----------------------------------

TEST(FastInference, VerdictAgreesWithReference) {
  // Statistical-equivalence smoke: every upstream candidate of the chain is
  // decided the same way by the kernel and by the reference, with the
  // counterfactual moving the symptom the same way. (The bench gate
  // t-tests the score deltas over many cases.)
  const auto env = make_chain_env();
  const auto c = make_chain_sampler(env);
  core::SamplerOptions sopts;
  sopts.num_samples = 200;
  core::CounterfactualSampler sampler(c.graph, *c.space, *c.factors, sopts);
  sampler.prepare(c.d_node);
  for (const EntityId e : {env.a, env.b, env.c}) {
    const core::VarIndex v = *c.space->find(e, env.load);
    const graph::NodeIndex n = c.space->var(v).node;
    Rng kernel_rng(mix_seed(5, n)), reference_rng(mix_seed(6, n));
    const auto k = sampler.evaluate(n, v, c.d_node, c.d_var, c.state,
                                    /*symptom_high=*/true, kernel_rng);
    const auto r = sampler.evaluate_reference(
        n, v, c.d_node, c.d_var, c.state, /*symptom_high=*/true,
        reference_rng);
    SCOPED_TRACE("candidate " + env.db.entity(e).name);
    EXPECT_EQ(k.is_root_cause, r.is_root_cause);
    EXPECT_EQ(k.kernel_cells, r.kernel_cells);
    EXPECT_LT(k.mean_counterfactual, k.mean_factual);
    EXPECT_LT(r.mean_counterfactual, r.mean_factual);
  }
}

// ---------- non-flat conditionals ------------------------------------------

TEST(FastInference, FallsBackPerCandidateForNonFlatModels) {
  // GMM conditionals cannot be flattened into the kernel, so the candidate
  // draws through the reference: evaluate() is then bitwise
  // evaluate_reference() on the same stream.
  const auto env = make_chain_env();
  const auto c = make_chain_sampler(env, stats::ModelKind::kGmm);
  core::SamplerOptions sopts;
  sopts.num_samples = 120;
  const core::CounterfactualSampler sampler(c.graph, *c.space, *c.factors,
                                            sopts);
  Rng rng1(mix_seed(3, 1)), rng2(mix_seed(3, 1));
  const auto k = sampler.evaluate(c.a_node, c.a_var, c.d_node, c.d_var,
                                  c.state, /*symptom_high=*/true, rng1);
  const auto r = sampler.evaluate_reference(c.a_node, c.a_var, c.d_node,
                                            c.d_var, c.state,
                                            /*symptom_high=*/true, rng2);
  EXPECT_GT(k.path_len, 0u);
  EXPECT_EQ(k.p_value, r.p_value);
  EXPECT_EQ(k.mean_factual, r.mean_factual);
  EXPECT_EQ(k.mean_counterfactual, r.mean_counterfactual);

  // ...and the whole GMM diagnosis gives the same verdicts at any thread
  // count.
  const auto serial = diagnose_chain(env, 1, nullptr, stats::ModelKind::kGmm);
  EXPECT_FALSE(serial.causes.empty());
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    expect_bitwise_equal(serial, diagnose_chain(env, threads, nullptr,
                                                stats::ModelKind::kGmm));
  }
}

}  // namespace
}  // namespace murphy
