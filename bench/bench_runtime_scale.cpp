// §6.7 — runtime and scale: google-benchmark measurements of Murphy's two
// cost components (online training, counterfactual inference) against the
// paper's complexity model O((N+M)T + (N+M)W), plus end-to-end diagnosis at
// growing relationship-graph sizes.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/factor_cache.h"
#include "src/core/factor_model.h"
#include "src/core/metric_space.h"
#include "src/core/murphy.h"
#include "src/core/sampler.h"
#include "src/emulation/topo_gen.h"
#include "src/enterprise/dynamics.h"
#include "src/enterprise/topology.h"
#include "src/eval/runner.h"

using namespace murphy;

namespace {

// Builds an enterprise environment whose relationship graph (4 hops from a
// symptom VM) has on the order of `apps * 60` entities.
enterprise::Topology make_env(std::size_t apps, std::size_t slices) {
  enterprise::TopologyOptions topt;
  topt.num_apps = apps;
  topt.hosts = std::max<std::size_t>(4, apps);
  topt.tors = 2;
  topt.ports_per_tor = 8;
  topt.datastores = 3;
  topt.seed = 5;
  auto topo = enterprise::generate_topology(topt);
  enterprise::DynamicsOptions dopt;
  dopt.slices = slices;
  dopt.seed = 6;
  enterprise::generate_dynamics(topo, {}, dopt);
  return topo;
}

// The perfbench fleet (320 services, 3 applications, topology seed 303, the
// cascade case of battle-matrix cell (2, 4, 0)): the graph from its symptom
// covers the whole db. `split` is the first window end the benchmarks
// train at, 50 slices before the incident onset.
struct Fleet {
  emulation::DiagnosisCase c;
  TimeIndex split = 0;
};

const Fleet& fleet() {
  static const Fleet f = [] {
    emulation::TopoGenOptions to;
    to.services = 320;
    to.applications = 3;
    to.seed = 303;
    emulation::TopologyCaseOptions co;
    co.fault = emulation::IncidentKind::kCascade;
    co.seed = mix_seed(mix_seed(1, 2 * 131 + 4), 0);
    Fleet out;
    out.c = emulation::make_topology_case(emulation::generate_topology(to), co);
    out.split = out.c.incident_start - 50;
    return out;
  }();
  return f;
}

// A DIAGNOSE's serial set-up on the fleet: relationship graph, variable
// space and the state snapshot.
void BM_RequestSetup(benchmark::State& state) {
  const Fleet& f = fleet();
  const std::vector<EntityId> seeds{f.c.symptom_entity};
  std::size_t nodes = 0, vars = 0;
  for (auto _ : state) {
    const auto graph =
        graph::RelationshipGraph::build(f.c.db, seeds, f.c.max_hops);
    const core::MetricSpace space(f.c.db, graph);
    const auto snapshot = space.snapshot(f.c.db, f.split);
    benchmark::DoNotOptimize(snapshot.data());
    nodes = graph.node_count();
    vars = space.size();
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["vars"] = static_cast<double>(vars);
}

// Training through a moment store at a window end one row past the last
// one, as under REPLAY churn: every block folds one row and every target
// refits. A fresh store is warmed (untimed) at `split` whenever the window
// reaches the end of the axis.
void BM_WarmTraining(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const Fleet& f = fleet();
  const auto graph = graph::RelationshipGraph::build(
      f.c.db, std::vector<EntityId>{f.c.symptom_entity}, f.c.max_hops);
  const core::MetricSpace space(f.c.db, graph);
  const TimeIndex axis_end = f.c.db.metrics().axis().size();
  ThreadPool pool(threads - 1);
  std::unique_ptr<core::MomentStore> store;
  core::FactorTrainingOptions opts;
  opts.pool = &pool;
  const auto train = [&](TimeIndex end) {
    const core::FactorSet factors(f.c.db, graph, space, 0, end, opts);
    benchmark::DoNotOptimize(&factors);
  };
  TimeIndex end = axis_end;
  for (auto _ : state) {
    if (end == axis_end) {
      state.PauseTiming();
      store = std::make_unique<core::MomentStore>();
      opts.moment_store = store.get();
      end = f.split;
      train(end);
      state.ResumeTiming();
    }
    train(++end);
  }
  state.counters["vars"] = static_cast<double>(space.size());
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_OnlineTraining(benchmark::State& state) {
  const std::size_t apps = static_cast<std::size_t>(state.range(0));
  const std::size_t slices = static_cast<std::size_t>(state.range(1));
  const std::size_t threads = static_cast<std::size_t>(state.range(2));
  const auto topo = make_env(apps, slices);
  const std::vector<EntityId> seeds{topo.vms[0]};
  const auto graph = graph::RelationshipGraph::build(topo.db, seeds, 4);
  const core::MetricSpace space(topo.db, graph);
  for (auto _ : state) {
    core::FactorTrainingOptions opts;
    opts.num_threads = threads;
    const core::FactorSet factors(topo.db, graph, space, 0, slices, opts);
    benchmark::DoNotOptimize(&factors);
  }
  state.counters["entities"] = static_cast<double>(graph.node_count());
  state.counters["vars"] = static_cast<double>(space.size());
  state.counters["T"] = static_cast<double>(slices);
  state.counters["threads"] = static_cast<double>(threads);
}

void BM_CounterfactualEvaluation(benchmark::State& state) {
  const std::size_t rounds = static_cast<std::size_t>(state.range(0));
  const auto topo = make_env(6, 168);
  const std::vector<EntityId> seeds{topo.vms[0]};
  const auto graph = graph::RelationshipGraph::build(topo.db, seeds, 4);
  const core::MetricSpace space(topo.db, graph);
  core::FactorTrainingOptions topts;
  const core::FactorSet factors(topo.db, graph, space, 0, 168, topts);
  const auto state_vec = space.snapshot(topo.db, 167);

  // Candidate: the in-graph flow farthest from the symptom VM that still
  // reaches it (so the sampler resamples a real multi-hop subgraph).
  const auto sym = *graph.index_of(topo.vms[0]);
  const auto dist_to_sym = graph.distances_to(sym);
  graph::NodeIndex cand = sym;
  std::size_t best = 0;
  for (graph::NodeIndex n = 0; n < graph.node_count(); ++n) {
    if (topo.db.entity(graph.entity_of(n)).type !=
        telemetry::EntityType::kFlow)
      continue;
    if (dist_to_sym[n] == graph::kUnreachable) continue;
    if (dist_to_sym[n] > best) {
      best = dist_to_sym[n];
      cand = n;
    }
  }
  const auto sym_var = space.vars_of(sym)[0];
  const auto cand_var = space.vars_of(cand)[0];

  core::SamplerOptions sopts;
  sopts.gibbs_rounds = rounds;
  sopts.num_samples = 100;
  core::CounterfactualSampler sampler(graph, space, factors, sopts);
  Rng rng(1);
  for (auto _ : state) {
    auto verdict = sampler.evaluate(cand, cand_var, sym, sym_var, state_vec,
                                    true, rng);
    benchmark::DoNotOptimize(verdict);
  }
  state.counters["W"] = static_cast<double>(rounds);
  state.counters["entities"] = static_cast<double>(graph.node_count());
}

void BM_EndToEndDiagnosis(benchmark::State& state) {
  const std::size_t apps = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const auto topo = make_env(apps, 168);
  core::MurphyOptions mopts;
  mopts.sampler.num_samples = 100;
  mopts.num_threads = threads;
  core::MurphyDiagnoser murphy(mopts);
  core::DiagnosisRequest req;
  req.db = &topo.db;
  req.symptom_entity = topo.vms[0];
  req.symptom_metric = "cpu_util";
  req.now = 167;
  req.train_begin = 0;
  req.train_end = 168;
  double train_ms = 0.0, infer_ms = 0.0;
  std::size_t iters = 0;
  for (auto _ : state) {
    auto result = murphy.diagnose(req);
    benchmark::DoNotOptimize(result);
    train_ms += result.timings.training_ms;
    infer_ms += result.timings.inference_ms;
    ++iters;
  }
  state.counters["db_entities"] = static_cast<double>(topo.entity_count());
  state.counters["threads"] = static_cast<double>(threads);
  if (iters > 0) {
    state.counters["train_ms"] = train_ms / static_cast<double>(iters);
    state.counters["infer_ms"] = infer_ms / static_cast<double>(iters);
  }
}

// Observability overhead on the same end-to-end diagnosis. Modes:
//   0 = null sink: no tracer/metrics attached (spans still read the clock
//       for PhaseTimings but record nothing);
//   1 = metrics only;
//   2 = fully enabled: tracer + metrics + per-candidate audit records.
// The compiled-out point needs a -DMURPHY_OBS_COMPILED_OUT=ON build of this
// same binary; mode 0 of that build is the "compiled out" row.
void BM_TracingOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const auto topo = make_env(6, 168);
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  core::MurphyOptions mopts;
  mopts.sampler.num_samples = 100;
  mopts.num_threads = 1;
  if (mode >= 1) mopts.obs.metrics = &registry;
  if (mode >= 2) {
    mopts.obs.tracer = &tracer;
    mopts.obs.collect_audit = true;
  }
  core::MurphyDiagnoser murphy(mopts);
  core::DiagnosisRequest req;
  req.db = &topo.db;
  req.symptom_entity = topo.vms[0];
  req.symptom_metric = "cpu_util";
  req.now = 167;
  req.train_begin = 0;
  req.train_end = 168;
  std::size_t spans = 0;
  for (auto _ : state) {
    auto result = murphy.diagnose(req);
    benchmark::DoNotOptimize(result);
    state.PauseTiming();
    spans = tracer.events().size();
    tracer.clear();
    registry.reset();
    state.ResumeTiming();
  }
  state.counters["mode"] = static_cast<double>(mode);
  state.counters["spans_per_run"] = static_cast<double>(spans);
}

}  // namespace

// Training cost ~ (N+M) * T: sweep graph size, history length, and threads
// (the speedup column; thread count 0 = one per hardware core).
BENCHMARK(BM_OnlineTraining)
    ->Args({2, 168, 1})
    ->Args({6, 168, 1})
    ->Args({12, 168, 1})
    ->Args({6, 84, 1})
    ->Args({6, 336, 1})
    ->Args({12, 168, 2})
    ->Args({12, 168, 4})
    ->Args({12, 168, 0})
    ->Unit(benchmark::kMillisecond);

// The per-request fixed costs of a fleet_live DIAGNOSE: serial set-up, and
// training with every block one row longer (1 thread and the service's 3).
BENCHMARK(BM_RequestSetup)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WarmTraining)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

// Inference cost ~ (N+M) * W: sweep Gibbs rounds.
BENCHMARK(BM_CounterfactualEvaluation)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// End to end at growing scale; at the largest scale point, sweep threads to
// measure the parallel-engine speedup over the serial (1-thread) path.
BENCHMARK(BM_EndToEndDiagnosis)
    ->Args({2, 1})
    ->Args({6, 1})
    ->Args({12, 1})
    ->Args({12, 2})
    ->Args({12, 4})
    ->Args({12, 0})
    ->Unit(benchmark::kMillisecond);

// Observability overhead sweep (EXPERIMENTS.md records the measured rows).
BENCHMARK(BM_TracingOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

namespace {

// Mirrors each run's adjusted real time into the global metrics registry so
// write_bench_json emits a self-contained, provenance-stamped baseline —
// BENCH_runtime_scale.json carries the timings, not just engine counters.
class MetricsMirrorReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      obs::global_metrics()
          .gauge("bench." + run.benchmark_name() + "_ms")
          ->set(run.GetAdjustedRealTime());
    }
  }
};

}  // namespace

// BENCHMARK_MAIN(), plus the machine-readable metrics dump every other
// bench binary emits (satellite: BENCH_<name>.json).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MetricsMirrorReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Environments are built per-benchmark by make_env(apps, slices); stamp
  // the family's largest point so the snapshot records what "apps=12"
  // means physically (hosts = max(4, apps), topology seed 5).
  murphy::bench::stamp_workload(
      {"enterprise-make_env", 12, 12, /*topology seed=*/5, ""});
  murphy::bench::write_bench_json("runtime_scale");
  return 0;
}
