// Battle matrix: topology size x incident kind x telemetry quality, all
// four schemes per cell. This is the scenario-breadth harness — instead of
// the paper's two hand-built apps it sweeps generated enterprises from 60
// to 320 services, five incident shapes (single contention, correlated
// multi-root, slow burn, retry storm, cascade) and clean vs chaos-degraded
// telemetry, reporting top-K / MRR / latency per cell.
//
// Large topologies route Murphy through the long-running DiagnosisService
// (warm prefix + streamed incident tail + priority queue), so the matrix
// doubles as an end-to-end soak of the service path at scale.
//
// MURPHY_MATRIX_SMOKE=1 shrinks the grid to 3 cells on the small topology
// for the CI sanitizer job.
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "src/baselines/explainit.h"
#include "src/baselines/netmedic.h"
#include "src/baselines/sage.h"
#include "src/eval/matrix.h"

namespace {

using namespace murphy;

std::string fault_mix_string(const eval::MatrixOptions& opts) {
  std::string mix;
  for (const emulation::IncidentKind k : opts.faults) {
    if (!mix.empty()) mix += ",";
    mix += std::string(emulation::incident_kind_name(k));
  }
  return mix;
}

}  // namespace

int main() {
  bench::print_header(
      "Battle matrix: generated topologies x incident kinds x telemetry "
      "quality",
      "Table 1 / Table 2 methodology widened to 60-320 service enterprises "
      "and five incident shapes");

  eval::MatrixOptions opts = eval::default_matrix_options();
  const bool smoke = std::getenv("MURPHY_MATRIX_SMOKE") != nullptr;
  if (smoke) {
    // 3 cells, small topology, single quality: the CI sanitizer budget.
    opts.topologies.resize(1);
    opts.faults = {emulation::IncidentKind::kSingleContention,
                   emulation::IncidentKind::kRetryStorm,
                   emulation::IncidentKind::kCascade};
    opts.qualities = {{"clean", 0.0}};
    opts.cases_per_cell = 1;
  } else {
    opts.cases_per_cell = bench::scaled(2, 4);
  }

  // One engine configuration for both routes: the direct MurphyDiagnoser
  // below and the DiagnosisService the matrix spins up for large cells must
  // agree, or the via_service column would change the numbers.
  core::MurphyOptions mopts;
  mopts.sampler.num_samples = bench::scaled(64, 200);
  mopts.seed = 7;
  mopts.obs.metrics = &obs::global_metrics();
  opts.murphy = mopts;
  bench::stamp_murphy_options(mopts);

  core::MurphyDiagnoser murphy(mopts);
  baselines::SageOptions sopts;
  sopts.seed = 7;
  sopts.obs.metrics = &obs::global_metrics();
  baselines::Sage sage(sopts);
  baselines::NetMedicOptions nopts;
  nopts.obs.metrics = &obs::global_metrics();
  baselines::NetMedic netmedic(nopts);
  baselines::ExplainItOptions eopts;
  eopts.obs.metrics = &obs::global_metrics();
  baselines::ExplainIt explainit(eopts);
  const std::vector<core::Diagnoser*> schemes = {&murphy, &sage, &netmedic,
                                                 &explainit};

  const std::string mix = fault_mix_string(opts);
  for (const eval::MatrixTopoLevel& level : opts.topologies) {
    const emulation::GeneratedTopology topo =
        emulation::generate_topology(level.topo);
    bench::WorkloadInfo w;
    w.topology = level.name;
    w.services = topo.app.services.size();
    w.nodes = topo.app.nodes.size();
    w.seed = level.topo.seed;
    w.fault_mix = mix;
    bench::stamp_workload(std::move(w));
    std::printf("topology %-10s %4zu services  %3zu nodes  digest %016llx\n",
                level.name.c_str(), topo.app.services.size(),
                topo.app.nodes.size(),
                static_cast<unsigned long long>(
                    emulation::topology_digest(topo.app)));
  }
  std::printf("\n");

  const eval::MatrixReport report = eval::run_battle_matrix(opts, schemes);
  std::printf("%s\n", eval::matrix_table(report).c_str());

  // Per-scheme rollup across the whole grid, so the headline "who wins
  // overall" number is one line.
  for (const core::Diagnoser* scheme : schemes) {
    double top1 = 0.0, mrr = 0.0;
    std::size_t cells = 0;
    for (const eval::MatrixCell& cell : report.cells) {
      if (cell.scheme != scheme->name()) continue;
      top1 += cell.top1;
      mrr += cell.mrr;
      ++cells;
    }
    if (cells > 0)
      std::printf("overall %-10s top-1 %.2f  MRR %.2f  (%zu cells)\n",
                  std::string(scheme->name()).c_str(),
                  top1 / static_cast<double>(cells),
                  mrr / static_cast<double>(cells), cells);
  }

  eval::record_matrix_gauges(report);
  bench::write_bench_json("battle_matrix");
  return 0;
}
