// Figure 8b — verifying the existence of cyclic effects (§6.6.2 / App. A.2).
//
// For each application with a database-tier VM: pick the backend VM Q, pick
// the top-5 flows F most correlated with Q, take two time points t1/t2 where
// Q's metric differs significantly, set the flows' metrics to their t2
// values while every other entity keeps its t1 value, and run the
// resampling algorithm with W in {1, 2, 4, 8} Gibbs rounds. A scenario is
// "correctly predicted" when the resampled Q metric is (Delta, eps)-close
// to the real t2 value. More rounds propagating effects around cycles should
// predict more scenarios correctly.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/core/factor_model.h"
#include "src/core/metric_space.h"
#include "src/core/sampler.h"
#include "src/enterprise/metrics_dataset.h"
#include "src/eval/tables.h"
#include "src/graph/relationship_graph.h"
#include "src/stats/correlation.h"
#include "src/stats/summary.h"
#include "src/telemetry/metric_catalog.h"

using namespace murphy;

namespace {

// (Delta, eps)-closeness criterion of Appendix A.2.
bool close_enough(double predicted_delta, double actual_delta,
                  double metric_max) {
  constexpr double kDeltaFactor = 2.0;
  constexpr double kEps = 0.1;
  const double lo = std::min(actual_delta / kDeltaFactor,
                             actual_delta * kDeltaFactor);
  const double hi = std::max(actual_delta / kDeltaFactor,
                             actual_delta * kDeltaFactor);
  if (predicted_delta > lo && predicted_delta < hi) return true;
  return std::abs(predicted_delta - actual_delta) < kEps * metric_max;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 8b: Gibbs rounds vs correctly-predicted multi-hop scenarios",
      "more rounds propagate cyclic effects: accuracy rises 5-10% from W=1 "
      "to W=8, saturating around W=4 (the shipped default)");

  enterprise::MetricsDatasetOptions dopts;
  dopts.scale = bench::full_scale() ? 0.4 : 0.08;
  dopts.slices = 168;
  const auto topo = enterprise::make_metrics_dataset(dopts);
  bench::stamp_workload({"enterprise-metrics", topo.apps.size(),
                         topo.hosts.size(), dopts.seed, ""});
  const std::size_t napps =
      std::min<std::size_t>(topo.apps.size(), bench::scaled(12, 24));
  std::printf("dataset: %zu entities; evaluating %zu apps x multiple time "
              "pairs\n\n", topo.entity_count(), napps);

  namespace mk = telemetry::metrics;
  const auto m_cpu = topo.db.catalog().find(mk::kCpuUtil);
  const auto m_thr = topo.db.catalog().find(mk::kThroughput);

  struct Scenario {
    graph::RelationshipGraph graph;
    std::unique_ptr<core::MetricSpace> space;
    std::unique_ptr<core::FactorSet> factors;
    std::vector<core::VarIndex> flow_vars;  // vars to pin at t2
    core::VarIndex q_var = 0;               // backend VM cpu
    std::vector<graph::NodeIndex> resample_order;
    TimeIndex t1 = 0, t2 = 0;
    double q_max = 1.0;
  };

  std::vector<Scenario> scenarios;
  for (std::size_t a = 0; a < napps; ++a) {
    const auto vms = topo.vms_of_app(topo.apps[a]);
    if (vms.empty()) continue;
    // Backend "SQL" VM: last db-tier VM of the app.
    const auto& tier = topo.app_tiers[a];
    const std::size_t q_vm = tier.db.back();
    const EntityId q = topo.vms[q_vm];
    const auto* q_ts = topo.db.metrics().find(q, m_cpu);
    if (!q_ts) continue;

    // Top-5 flows of this app by |corr| with Q's cpu.
    std::vector<std::pair<double, std::size_t>> flow_scores;
    for (std::size_t f = 0; f < topo.flows.size(); ++f) {
      if (topo.vm_app[topo.flows[f].src_vm] != topo.apps[a]) continue;
      const auto* f_ts = topo.db.metrics().find(topo.flows[f].id, m_thr);
      if (!f_ts) continue;
      const double c = std::abs(stats::pearson(
          f_ts->values(), q_ts->values()));
      flow_scores.emplace_back(c, f);
    }
    if (flow_scores.size() < 2) continue;
    std::sort(flow_scores.rbegin(), flow_scores.rend());
    if (flow_scores.size() > 5) flow_scores.resize(5);

    // Two time points with significantly different Q metric.
    const auto values = q_ts->values();
    TimeIndex t1 = 0, t2 = 0;
    double best = 0.0;
    for (TimeIndex i = 10; i + 10 < values.size(); i += 7) {
      for (TimeIndex j = i + 12; j + 1 < values.size(); j += 7) {
        const double d = std::abs(values[j] - values[i]);
        if (d > best) {
          best = d;
          t1 = i;
          t2 = j;
        }
      }
    }
    if (best < 5.0) continue;  // no significant excursion for this app

    Scenario s;
    const std::vector<EntityId> seeds{q};
    s.graph = graph::RelationshipGraph::build(topo.db, seeds, 3);
    s.space = std::make_unique<core::MetricSpace>(topo.db, s.graph);
    core::FactorTrainingOptions topts;
    s.factors = std::make_unique<core::FactorSet>(topo.db, s.graph, *s.space,
                                                  0, dopts.slices, topts);
    const auto qv = s.space->find(q, m_cpu);
    if (!qv) continue;
    s.q_var = *qv;
    bool all_found = true;
    std::vector<graph::NodeIndex> flow_nodes;
    for (const auto& [c, f] : flow_scores) {
      const auto fv = s.space->find(topo.flows[f].id, m_thr);
      const auto fn = s.graph.index_of(topo.flows[f].id);
      if (!fv || !fn) {
        all_found = false;
        break;
      }
      s.flow_vars.push_back(*fv);
      flow_nodes.push_back(*fn);
    }
    if (!all_found || s.flow_vars.empty()) continue;
    // Resample order: union of path subgraphs from each pinned flow to Q,
    // first entry reserved as "pinned" by the sampler, so insert a dummy
    // front node (the first flow) and dedupe.
    const auto q_node = *s.graph.index_of(q);
    std::vector<graph::NodeIndex> order{flow_nodes[0]};
    for (const auto fn : flow_nodes) {
      for (const auto n : s.graph.shortest_path_subgraph(fn, q_node, 1)) {
        if (std::find(order.begin(), order.end(), n) == order.end() &&
            std::find(flow_nodes.begin(), flow_nodes.end(), n) ==
                flow_nodes.end())
          order.push_back(n);
      }
    }
    if (order.size() < 2) continue;
    s.resample_order = std::move(order);
    s.t1 = t1;
    s.t2 = t2;
    s.q_max = *std::max_element(values.begin(), values.end());
    scenarios.push_back(std::move(s));
  }
  std::printf("prepared %zu multi-hop prediction scenarios\n\n",
              scenarios.size());

  eval::Table table({"gibbs rounds (W)", "correctly predicted", "out of"});
  for (const std::size_t rounds : {1u, 2u, 4u, 8u}) {
    std::size_t correct = 0;
    for (const auto& s : scenarios) {
      auto state = s.space->snapshot(topo.db, s.t1);
      // Pin the flows to their t2 values.
      for (const core::VarIndex v : s.flow_vars) {
        const auto& var = s.space->var(v);
        const auto* ts = topo.db.metrics().find(var.entity, var.kind);
        state[v] = ts->value_or(s.t2, 0.0);
      }
      const double q_t1 = s.space->snapshot(topo.db, s.t1)[s.q_var];
      const auto* q_ts2 = topo.db.metrics().find(
          s.space->var(s.q_var).entity, s.space->var(s.q_var).kind);
      const double q_t2 = q_ts2->value_or(s.t2, 0.0);

      core::SamplerOptions sopts;
      sopts.num_samples = 64;
      core::CounterfactualSampler sampler(s.graph, *s.space, *s.factors,
                                          sopts);
      Rng rng(999);
      stats::OnlineStats pred;
      for (int k = 0; k < 64; ++k) {
        auto work = state;
        pred.add(sampler.resample_path(s.resample_order, s.q_var, work, rng,
                                       rounds));
      }
      if (close_enough(pred.mean() - q_t1, q_t2 - q_t1, s.q_max)) ++correct;
    }
    table.add_row({std::to_string(rounds), std::to_string(correct),
                   std::to_string(scenarios.size())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: correctly-predicted count increases with W "
              "and saturates near W=4 (cyclic effects are real and Gibbs "
              "re-visits propagate them)\n");

  // --- inference kernel vs reference (DESIGN.md §5.1) -----------------------
  // The counterfactual Gibbs loop is where Murphy spends nearly all of a
  // cache-hot diagnosis. Two microbenches: the normal generators alone (the
  // reference's polar Rng::normal vs the kernel's batched ziggurat), then
  // full counterfactual evaluations over this dataset's scenarios through
  // the kernel and through the resample_path reference.
  {
    std::printf("inference kernel vs reference:\n");
    constexpr std::size_t kDraws = 4'000'000;
    Rng polar_rng(42), zig_rng(42);
    double sink = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kDraws; ++i) sink += polar_rng.normal();
    const auto t1 = std::chrono::steady_clock::now();
    std::vector<double> block(256);
    for (std::size_t i = 0; i < kDraws; i += block.size()) {
      zig_rng.fill_normal(block);
      sink += block[0];
    }
    const auto t2 = std::chrono::steady_clock::now();
    const auto ms = [](auto a, auto b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    const double polar_rate = kDraws / ms(t0, t1) / 1e3;  // Mdraws/s
    const double zig_rate = kDraws / ms(t1, t2) / 1e3;
    std::printf("  normal draws: polar %.1f Mdraws/s, batched ziggurat "
                "%.1f Mdraws/s (%.2fx)  [sink %g]\n",
                polar_rate, zig_rate, zig_rate / polar_rate, sink);

    // Full evaluate: flow -> backend-VM counterfactuals per scenario, in
    // node resamples (draw work) per second.
    double eval_ms[2] = {0.0, 0.0};  // [kernel, reference]
    std::size_t resamples = 0, agree = 0;
    std::size_t vi = 0;
    for (const auto& s : scenarios) {
      core::SamplerOptions sopts;
      sopts.num_samples = bench::scaled(150, 500);
      core::CounterfactualSampler sampler(s.graph, *s.space, *s.factors,
                                          sopts);
      const auto state = s.space->snapshot(topo.db, s.t1);
      const auto q_node = s.space->var(s.q_var).node;
      const auto f_node = s.space->var(s.flow_vars[0]).node;
      Rng kernel_rng(mix_seed(1234, vi)), reference_rng(mix_seed(1234, vi));
      const auto b0 = std::chrono::steady_clock::now();
      const auto k = sampler.evaluate(f_node, s.flow_vars[0], q_node,
                                      s.q_var, state, true, kernel_rng);
      const auto b1 = std::chrono::steady_clock::now();
      const auto r = sampler.evaluate_reference(
          f_node, s.flow_vars[0], q_node, s.q_var, state, true,
          reference_rng);
      const auto b2 = std::chrono::steady_clock::now();
      eval_ms[0] += ms(b0, b1);
      eval_ms[1] += ms(b1, b2);
      resamples += k.node_resamples;
      if (k.is_root_cause == r.is_root_cause) ++agree;
      ++vi;
    }
    // Mresamples/s: node_resamples per microsecond.
    const auto rate = [&](double t) {
      return t > 0.0 ? static_cast<double>(resamples) / t / 1e3 : 0.0;
    };
    const double kernel_rate = rate(eval_ms[0]);
    const double reference_rate = rate(eval_ms[1]);
    const double kernel_speedup =
        reference_rate > 0.0 ? kernel_rate / reference_rate : 0.0;
    std::printf("  gibbs evaluate: kernel %.2f Mresamples/s (%.1f ms), "
                "reference %.2f Mresamples/s (%.1f ms), %.2fx; verdict "
                "agreement %zu/%zu\n\n",
                kernel_rate, eval_ms[0], reference_rate, eval_ms[1],
                kernel_speedup, agree, vi);

    auto* m = &obs::global_metrics();
    m->gauge("bench.normal_polar_mdraws_s")->set(polar_rate);
    m->gauge("bench.normal_ziggurat_mdraws_s")->set(zig_rate);
    m->gauge("bench.gibbs_kernel_mresamples_s")->set(kernel_rate);
    m->gauge("bench.gibbs_reference_mresamples_s")->set(reference_rate);
    m->gauge("bench.gibbs_kernel_speedup")->set(kernel_speedup);
    m->gauge("bench.gibbs_verdict_agree")->set(static_cast<double>(agree));
  }

  murphy::bench::write_bench_json("fig8b_gibbs");
  return 0;
}
