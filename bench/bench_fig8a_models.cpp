// Figure 8a — metric-prediction model comparison (§6.6.1).
//
// For a sample of entities from the enterprise metrics dataset, trains each
// candidate factor model (ridge / GMM / SVM / small neural network) to
// predict one entity metric from its neighbors' metrics, and prints the CDF
// of MASE errors across entities — the experiment that led the paper to
// ship ridge regression. The engine's FactorSet trains ridge only; the bench
// fits the other three families itself, on the exact features the ridge
// factor selected for each variable.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/core/factor_model.h"
#include "src/core/metric_space.h"
#include "src/enterprise/metrics_dataset.h"
#include "src/eval/ascii_chart.h"
#include "src/eval/tables.h"
#include "src/graph/relationship_graph.h"
#include "src/stats/predictor.h"
#include "src/stats/summary.h"

using namespace murphy;

int main() {
  bench::print_header(
      "Figure 8a: CDF of metric-prediction error across entities",
      "ridge lowest error, GMM/SVM worse, small neural nets worst on "
      "few-hundred-point histories (17K entities, 300 apps)");

  enterprise::MetricsDatasetOptions dopts;
  dopts.scale = bench::full_scale() ? 1.0 : 0.08;
  dopts.slices = bench::full_scale() ? 336 : 168;
  std::fprintf(stderr, "generating metrics dataset (scale %.2f)...\n",
               dopts.scale);
  const auto topo = enterprise::make_metrics_dataset(dopts);
  std::printf("dataset: %zu entities, %zu apps, %zu slices\n\n",
              topo.entity_count(), topo.apps.size(), dopts.slices);
  bench::stamp_workload({"enterprise-metrics", topo.apps.size(),
                         topo.hosts.size(), dopts.seed, ""});

  // One relationship graph over a sample of apps; entities sampled from it.
  std::vector<EntityId> seeds;
  const std::size_t seed_apps = std::min<std::size_t>(topo.apps.size(), 40);
  for (std::size_t a = 0; a < seed_apps; ++a) {
    const auto vms = topo.vms_of_app(topo.apps[a]);
    if (!vms.empty()) seeds.push_back(topo.vms[vms[0]]);
  }
  const auto graph = graph::RelationshipGraph::build(topo.db, seeds, 3);
  const core::MetricSpace space(topo.db, graph);
  std::fprintf(stderr, "graph: %zu nodes, %zu vars\n", graph.node_count(),
               space.size());

  // Held-out evaluation: train on the first 80% of the week, score each
  // variable's MASE on the final 20% — generalization, not training fit,
  // is what the diagnosis-time predictions depend on.
  const TimeIndex train_end = dopts.slices * 4 / 5;
  std::vector<std::vector<double>> held_out_states;
  for (TimeIndex t = train_end; t < dopts.slices; ++t)
    held_out_states.push_back(space.snapshot(topo.db, t));

  // Feature selection (top-B by |pearson|) is family-independent, so every
  // family is scored on the features of one ridge FactorSet.
  std::fprintf(stderr, "training ridge factors...\n");
  const core::FactorTrainingOptions topts;
  const core::FactorSet factors(topo.db, graph, space, 0, train_end, topts);

  const stats::ModelKind kinds[] = {stats::ModelKind::kRidge,
                                    stats::ModelKind::kGmm,
                                    stats::ModelKind::kSvr,
                                    stats::ModelKind::kMlp};
  eval::Table table({"model", "p10", "p25", "median", "p75", "p90", "p99"});
  std::vector<eval::Series> cdf_series;
  for (const auto kind : kinds) {
    if (kind != stats::ModelKind::kRidge)
      std::fprintf(stderr, "training %s factors...\n",
                   std::string(stats::model_kind_name(kind)).c_str());
    std::vector<double> errors;
    errors.reserve(space.size());
    std::vector<double> predicted(held_out_states.size());
    std::vector<double> actual(held_out_states.size());
    for (core::VarIndex v = 0; v < space.size(); ++v) {
      const auto& cond = factors.conditional(v);
      const auto features = cond.features();
      if (features.empty()) continue;  // isolated metric
      std::unique_ptr<stats::Predictor> model;  // null: the ridge factor
      if (kind != stats::ModelKind::kRidge) {
        stats::Matrix x(train_end, features.size());
        for (std::size_t c = 0; c < features.size(); ++c) {
          const auto column =
              space.history(topo.db, features[c], 0, train_end);
          for (std::size_t r = 0; r < train_end; ++r) x.at(r, c) = column[r];
        }
        stats::PredictorOptions popts;
        popts.l2 = topts.l2;
        popts.seed = mix_seed(1, v);
        popts.mlp_epochs = 120;
        model = stats::make_predictor(kind, popts);
        model->fit(x, space.history(topo.db, v, 0, train_end));
      }
      std::vector<double> row(features.size());
      for (std::size_t i = 0; i < held_out_states.size(); ++i) {
        const auto& state = held_out_states[i];
        for (std::size_t c = 0; c < features.size(); ++c)
          row[c] = state[features[c]];
        predicted[i] = model ? model->predict(row) : cond.predict(state);
        actual[i] = state[v];
      }
      errors.push_back(stats::mase(predicted, actual));
    }
    table.add_row({std::string(stats::model_kind_name(kind)),
                   format_double(stats::quantile(errors, 0.10), 3),
                   format_double(stats::quantile(errors, 0.25), 3),
                   format_double(stats::quantile(errors, 0.50), 3),
                   format_double(stats::quantile(errors, 0.75), 3),
                   format_double(stats::quantile(errors, 0.90), 3),
                   format_double(stats::quantile(errors, 0.99), 3)});
    // Clip the CDF plot at a generous error so one outlier doesn't squash
    // the readable range.
    eval::Series s{std::string(stats::model_kind_name(kind)), {}};
    for (const double e : errors) s.ys.push_back(std::min(e, 4.0));
    cdf_series.push_back(std::move(s));
  }
  std::printf("held-out MASE quantiles across metric variables (CDF series)\n%s\n",
              table.render().c_str());
  eval::ChartOptions copts;
  copts.x_label = "held-out MASE (clipped at 4)";
  copts.y_label = "CDF across entities";
  copts.height = 14;
  std::printf("%s\n", eval::cdf_chart(cdf_series, copts).c_str());
  std::printf("expected shape: ridge's CDF dominates (lowest quantiles); the "
              "neural network trails on few-hundred-point training sets\n");
  murphy::bench::write_bench_json("fig8a_models");
  return 0;
}
