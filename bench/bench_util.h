// Shared helpers for the benchmark harnesses.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation section. Absolute numbers differ (the substrate is a simulator,
// not the authors' testbed); what must hold is the *shape*: which scheme
// wins, by roughly what factor, and where crossovers fall. Each binary
// prints the paper's reported values alongside the measured ones.
//
// MURPHY_BENCH_SCALE=quick|full (default quick) controls workload sizes so
// the whole suite runs in minutes on one core; "full" approaches the paper's
// scenario counts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/baselines/explainit.h"
#include "src/baselines/netmedic.h"
#include "src/baselines/sage.h"
#include "src/common/thread_pool.h"
#include "src/core/murphy.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace murphy::bench {

inline bool full_scale() {
  const char* env = std::getenv("MURPHY_BENCH_SCALE");
  return env != nullptr && std::string(env) == "full";
}

// Scales a scenario count: `quick` in quick mode, `full` otherwise.
inline std::size_t scaled(std::size_t quick, std::size_t full) {
  return full_scale() ? full : quick;
}

// Threads the measured Murphy instances resolved to. make_schemes() records
// it, as do benches that build their own MurphyOptions, so the BENCH header
// stamps the configuration that ran rather than the host's core count.
inline std::optional<std::size_t>& ran_num_threads() {
  static std::optional<std::size_t> threads;
  return threads;
}

inline void stamp_murphy_options(const core::MurphyOptions& mopts) {
  ran_num_threads() = resolve_num_threads(mopts.num_threads);
}

struct SchemeSet {
  std::unique_ptr<core::MurphyDiagnoser> murphy;
  std::unique_ptr<baselines::Sage> sage;
  std::unique_ptr<baselines::NetMedic> netmedic;
  std::unique_ptr<baselines::ExplainIt> explainit;

  std::vector<core::Diagnoser*> all() {
    return {murphy.get(), sage.get(), netmedic.get(), explainit.get()};
  }
};

// Constructs all four schemes with bench-appropriate sampling effort. All
// four record engine internals into the process-global metrics registry so
// write_bench_json can snapshot them when the binary exits.
inline SchemeSet make_schemes(std::uint64_t seed = 1) {
  SchemeSet s;
  core::MurphyOptions mopts;
  mopts.sampler.num_samples = full_scale() ? 500 : 150;
  mopts.seed = seed;
  mopts.obs.metrics = &obs::global_metrics();
  stamp_murphy_options(mopts);
  s.murphy = std::make_unique<core::MurphyDiagnoser>(mopts);
  baselines::SageOptions sopts;
  sopts.seed = seed;
  sopts.obs.metrics = &obs::global_metrics();
  s.sage = std::make_unique<baselines::Sage>(sopts);
  baselines::NetMedicOptions nopts;
  nopts.obs.metrics = &obs::global_metrics();
  s.netmedic = std::make_unique<baselines::NetMedic>(nopts);
  baselines::ExplainItOptions eopts;
  eopts.obs.metrics = &obs::global_metrics();
  s.explainit = std::make_unique<baselines::ExplainIt>(eopts);
  return s;
}

// Workload provenance: which topology/scenario shape produced the numbers.
// Benches stamp one entry per distinct workload (topology level, app model,
// sweep...) before exiting; write_bench_json emits them under "workloads".
// Without the stamp a snapshot says *how fast* but not *on what* — two
// BENCH files with different node counts or fault mixes are not comparable.
struct WorkloadInfo {
  std::string topology;   // generator level or app-model name
  std::size_t services = 0;
  std::size_t nodes = 0;  // physical nodes hosting the containers
  std::uint64_t seed = 0;
  std::string fault_mix;  // comma-joined fault/incident kinds (may be empty)
};

inline std::vector<WorkloadInfo>& workload_stamps() {
  static std::vector<WorkloadInfo> stamps;
  return stamps;
}

inline void stamp_workload(WorkloadInfo info) {
  workload_stamps().push_back(std::move(info));
}

inline std::string workloads_json() {
  std::string out = "[";
  bool first = true;
  for (const WorkloadInfo& w : workload_stamps()) {
    if (!first) out += ",";
    first = false;
    out += "{\"topology\":";
    obs::json_append_escaped(out, w.topology);
    out += ",\"services\":" + std::to_string(w.services);
    out += ",\"nodes\":" + std::to_string(w.nodes);
    out += ",\"seed\":" + std::to_string(w.seed);
    out += ",\"fault_mix\":";
    obs::json_append_escaped(out, w.fault_mix);
    out += "}";
  }
  out += "]";
  return out;
}

// Provenance stamped into every snapshot (configure-time capture; see
// bench/CMakeLists.txt).
#ifndef MURPHY_GIT_SHA
#define MURPHY_GIT_SHA "unknown"
#endif
#ifndef MURPHY_BUILD_FLAGS
#define MURPHY_BUILD_FLAGS "unknown"
#endif

// Dumps the global metrics registry (engine internals plus the phase.*_ms
// timing histograms) as BENCH_<name>.json next to the binary's cwd, so runs
// are machine-readable in addition to the stdout tables. Each snapshot is
// stamped with the measurement's provenance: git SHA, build flags, and the
// thread count the measured Murphy instances ran with (null when the bench
// stamped no MurphyOptions) — numbers without that context can't be
// compared across machines or commits.
inline void write_bench_json(const char* name) {
  const std::string path = std::string("BENCH_") + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::string out = "{\"bench\":";
  obs::json_append_escaped(out, name);
  out += ",\"scale\":\"";
  out += full_scale() ? "full" : "quick";
  out += "\",\"git_sha\":\"" MURPHY_GIT_SHA "\"";
  out += ",\"build_flags\":";
  obs::json_append_escaped(out, MURPHY_BUILD_FLAGS);
  out += ",\"num_threads\":";
  out += ran_num_threads() ? std::to_string(*ran_num_threads()) : "null";
  if (!workload_stamps().empty()) {
    out += ",\"workloads\":";
    out += workloads_json();
  }
  out += ",\"metrics\":";
  out += obs::global_metrics().to_json();
  out += "}\n";
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("\n[metrics written to %s]\n", path.c_str());
}

inline void print_header(const char* experiment, const char* paper_summary) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_summary);
  std::printf("scale: %s (set MURPHY_BENCH_SCALE=full for paper-sized runs)\n",
              full_scale() ? "full" : "quick");
  std::printf("==================================================================\n\n");
}

}  // namespace murphy::bench
