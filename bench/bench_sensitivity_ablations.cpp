// §6.8 sensitivity analysis + ablations of Murphy's design choices.
//
// Sweeps, on a fixed mix of interference and contention scenarios:
//  * B   — top-B neighbor-metric feature selection (paper: 5/10/20 within 3%)
//  * W   — Gibbs rounds during diagnosis (paper Fig. 8b: W=4 is the knee)
//  * samples — t-test sample count per side (paper uses 5000; fewer samples
//              trade power for runtime)
//  * alpha   — t-test significance
//  * slack   — resampled-subgraph slack (0 = strict shortest paths; this
//              repo's default 2 also resamples sibling entities)
//  * cf sigma — counterfactual magnitude in historical stddevs (paper: 2)
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/emulation/scenarios.h"
#include "src/eval/metrics.h"
#include "src/eval/runner.h"
#include "src/eval/tables.h"

using namespace murphy;

namespace {

struct CaseSet {
  std::vector<emulation::DiagnosisCase> cases;
};

CaseSet build_cases(std::size_t n_each) {
  CaseSet set;
  for (const auto& opts : emulation::interference_sweep(n_each, 41))
    set.cases.push_back(emulation::make_interference_case(opts));
  for (const auto& opts : emulation::contention_sweep(
           emulation::ContentionOptions::App::kHotelReservation, n_each, 4,
           43))
    set.cases.push_back(emulation::make_contention_case(opts));
  return set;
}

double recall_at_5(const CaseSet& set, const core::MurphyOptions& opts) {
  core::MurphyDiagnoser murphy(opts);
  eval::Accuracy acc;
  for (const auto& c : set.cases) acc.add(eval::run_case(murphy, c));
  return acc.top_k(5);
}

}  // namespace

int main() {
  bench::print_header(
      "Sensitivity analysis & ablations (recall@5, mixed scenario set)",
      "B in {5,10,20} within ~3%; W=4 at the knee; accuracy saturates with "
      "sample count; Murphy robust to alpha around 0.01");

  const std::size_t n_each = bench::scaled(4, 16);
  std::fprintf(stderr, "building %zu cases...\n", 2 * n_each);
  const auto set = build_cases(n_each);
  bench::stamp_workload({"hotel-reservation",
                         set.cases.front().entities.services.size(),
                         set.cases.front().entities.nodes.size(),
                         /*sweep seed=*/41, "interference"});
  bench::stamp_workload({"hotel-reservation",
                         set.cases[n_each].entities.services.size(),
                         set.cases[n_each].entities.nodes.size(),
                         /*sweep seed=*/43, "contention"});
  const std::size_t samples = bench::full_scale() ? 400 : 120;

  core::MurphyOptions base;
  base.sampler.num_samples = samples;

  eval::Table table({"knob", "setting", "recall@5"});
  const auto sweep = [&](const char* knob, auto&& values, auto&& apply) {
    for (const auto v : values) {
      core::MurphyOptions opts = base;
      apply(opts, v);
      table.add_row({knob, format_double(static_cast<double>(v), 3),
                     format_double(recall_at_5(set, opts), 2)});
      std::fprintf(stderr, "  %s=%g done\n", knob, static_cast<double>(v));
    }
  };

  sweep("top-B features", std::vector<int>{5, 10, 20},
        [](core::MurphyOptions& o, int v) {
          o.training.top_b = static_cast<std::size_t>(v);
        });
  sweep("gibbs rounds W", std::vector<int>{1, 2, 4, 8},
        [](core::MurphyOptions& o, int v) {
          o.sampler.gibbs_rounds = static_cast<std::size_t>(v);
        });
  sweep("samples/side", std::vector<int>{30, 120, 400},
        [](core::MurphyOptions& o, int v) {
          o.sampler.num_samples = static_cast<std::size_t>(v);
        });
  sweep("t-test alpha", std::vector<double>{0.10, 0.01, 0.001},
        [](core::MurphyOptions& o, double v) { o.sampler.significance = v; });
  sweep("path slack", std::vector<int>{0, 1, 2, 4},
        [](core::MurphyOptions& o, int v) {
          o.sampler.path_slack = static_cast<std::size_t>(v);
        });
  sweep("counterfactual sigmas", std::vector<double>{1.0, 2.0, 4.0},
        [](core::MurphyOptions& o, double v) {
          o.sampler.counterfactual_sigmas = v;
        });
  sweep("ridge l2", std::vector<double>{1.0, 25.0, 100.0},
        [](core::MurphyOptions& o, double v) { o.training.l2 = v; });

  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: flat across top-B (a few %%); W>=2 needed for "
              "multi-hop causes; recall stable for alpha in [0.001, 0.1]; "
              "slack>=1 required when siblings share the signal; moderate "
              "ridge regularization beats near-zero (collinearity)\n");
  murphy::bench::write_bench_json("sensitivity_ablations");
  return 0;
}
