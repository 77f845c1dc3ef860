// Statistical-equivalence gate for the inference kernel (DESIGN.md §5.1):
// the lane-batched SoA kernel against the resample_path reference.
//
// The kernel is not bitwise equal to the reference (different normal
// generator, draw order and rounding), so its correctness claim is
// statistical: on the same workloads it must produce the same DIAGNOSES.
// This harness runs Murphy (the kernel, as shipped) over (a) the Table-1
// enterprise incidents and (b) a battle-matrix smoke slice of generated
// topology cases. For every case it rebuilds the inputs diagnose() hands the
// sampler (graph, factors, state, candidates) and re-decides each candidate
// with CounterfactualSampler::evaluate_reference. Three gates:
//   1. identical top-1 root cause per case;
//   2. identical top-3 ranking per case;
//   3. a two-sided Welch t-test over the per-candidate counterfactual score
//      deltas (mean_cf - mean_factual) of kernel vs reference must NOT
//      reject equality at alpha = 0.01.
// Any violated gate exits non-zero, which is what CI keys on. The rebuilt
// inputs are checked against the diagnosis audit (same candidates, bitwise
// equal rank scores), so the reference always decides what the kernel
// decided.
//
// Borderline candidates — those whose acceptance p-value lands inside
// [alpha/20, 20*alpha] under EITHER sampler — are excluded from the
// top-1/top-3 identity checks. A candidate whose true p sits at the
// significance threshold flips verdicts under ANY stream change (a
// reseeded run flips the same incidents), so gating on it would only
// measure RNG coincidence. A systematic kernel bias still fails: it moves
// p-values of NON-borderline candidates across the threshold and shifts the
// paired score deltas the t-test watches. The exclusions themselves are
// gated where they bite: borderline entities that reach an unfiltered top-3
// must average at most one per case, so the band cannot silently swallow the
// ranking comparison.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/core/anomaly.h"
#include "src/core/factor_model.h"
#include "src/core/metric_space.h"
#include "src/core/sampler.h"
#include "src/emulation/topo_gen.h"
#include "src/enterprise/incidents.h"
#include "src/eval/runner.h"
#include "src/eval/tables.h"
#include "src/stats/ttest.h"

using namespace murphy;

namespace {

// The acceptance test runs at alpha = 0.01 (SamplerOptions::significance).
// A t-statistic re-estimated on a fresh stream moves by ~N(0,1); this band
// covers estimates within about one sigma of the acceptance threshold
// (t in [0.8, 3.3]), whose verdicts are stream-coin-flips.
constexpr double kBorderlineLo = 0.0005;  // alpha / 20
constexpr double kBorderlineHi = 0.2;     // alpha * 20

struct GateStats {
  std::size_t cases = 0;
  std::size_t top1_mismatch = 0;
  std::size_t top3_mismatch = 0;
  std::size_t input_mismatch = 0;   // rebuilt inputs disagree with the audit
  std::size_t borderline = 0;       // candidates excluded from top-k identity
  std::size_t top3_borderline = 0;  // ...of those, ones an unfiltered top-3
                                    // would have contained (the gated count)
  // Paired per-candidate counterfactual deltas, one entry per (case,
  // candidate) that both samplers evaluated.
  std::vector<double> kernel_scores;
  std::vector<double> reference_scores;
};

// One candidate as each sampler decided it.
struct Decision {
  std::uint32_t entity = 0;
  double rank_score = 0.0;
  bool evaluated = false;
  bool accepted = false;
  double p_value = 1.0;
  double delta = 0.0;
};

// Ranked entity ids: accepted decisions by rank score (diagnose()'s order).
std::vector<std::uint32_t> ranking(std::vector<Decision> ds) {
  std::erase_if(ds, [](const Decision& d) { return !d.accepted; });
  std::sort(ds.begin(), ds.end(), [](const Decision& a, const Decision& b) {
    if (a.rank_score != b.rank_score) return a.rank_score > b.rank_score;
    return a.entity < b.entity;
  });
  std::vector<std::uint32_t> ids;
  for (const Decision& d : ds) ids.push_back(d.entity);
  return ids;
}

// Re-decides every candidate of `kernel_result` (a kernel diagnosis of
// `req` with its audit) through the reference sampler, from the inputs
// diagnose() builds. Returns false when the rebuilt candidates or rank
// scores disagree with the audit.
bool reference_decisions(const core::MurphyOptions& mopts,
                         const core::DiagnosisRequest& req,
                         const core::DiagnosisResult& kernel_result,
                         std::vector<Decision>& out) {
  const telemetry::MonitoringDb& db = *req.db;
  const std::vector<EntityId> seeds{req.symptom_entity};
  const auto graph = graph::RelationshipGraph::build(
      db, seeds, req.max_hops, mopts.max_graph_nodes);
  const auto symptom_node = graph.index_of(req.symptom_entity);
  if (!symptom_node) return false;
  const core::MetricSpace space(db, graph);
  const auto symptom_var =
      space.find(req.symptom_entity, db.catalog().find(req.symptom_metric));
  if (!symptom_var) return false;
  core::FactorTrainingOptions topts = mopts.training;
  topts.num_threads = mopts.num_threads;
  const core::FactorSet factors(db, graph, space, req.train_begin,
                                req.train_end, topts);
  const auto state = space.snapshot(db, req.now);
  const bool symptom_high =
      state[*symptom_var] >=
      factors.conditional(*symptom_var).robust_center();
  core::CandidateSearchOptions sopts = mopts.search;
  sopts.thresholds = mopts.thresholds;
  const auto candidates = core::candidate_search(db, graph, space, factors,
                                                 state, *symptom_node, sopts);

  const auto& audit = kernel_result.audit.candidates;
  if (audit.size() != candidates.size()) return false;
  core::CounterfactualSampler sampler(graph, space, factors, mopts.sampler);
  sampler.prepare(*symptom_node);
  out.assign(candidates.size(), {});
  parallel_for(mopts.num_threads, candidates.size(), [&](std::size_t i) {
    const graph::NodeIndex cand = candidates[i];
    const core::NodeAnomaly anomaly =
        core::node_anomaly(factors, space, cand, state);
    Decision& d = out[i];
    d.entity = graph.entity_of(cand).value();
    d.rank_score = anomaly.rank_score;
    if (cand == *symptom_node) {
      d.accepted = anomaly.score > sopts.z_min;
      return;
    }
    // The candidate's own stream, the one diagnose() hands the kernel: any
    // divergence then comes from the draw algorithms, not stream choice.
    Rng rng(core::candidate_stream_seed(mopts.seed, cand));
    const auto v = sampler.evaluate_reference(
        cand, anomaly.driver, *symptom_node, *symptom_var, state,
        symptom_high, rng);
    d.evaluated = v.path_len > 0;
    d.accepted = v.is_root_cause;
    d.p_value = v.p_value;
    d.delta = v.mean_counterfactual - v.mean_factual;
  });
  // Audits are sorted by entity id; so is the rebuilt list after this sort.
  std::sort(out.begin(), out.end(), [](const Decision& a, const Decision& b) {
    return a.entity < b.entity;
  });
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i].entity != audit[i].entity.value() ||
        out[i].rank_score != audit[i].rank_score)
      return false;
  return true;
}

// Diagnoses one request with the kernel, re-decides it with the reference
// and scores the agreement.
void compare_case(core::MurphyDiagnoser& murphy,
                  const core::DiagnosisRequest& req, const std::string& name,
                  GateStats& gs) {
  const auto rk = murphy.diagnose(req);
  ++gs.cases;
  std::vector<Decision> ref;
  if (!reference_decisions(murphy.options(), req, rk, ref)) {
    ++gs.input_mismatch;
    std::printf("  INPUT MISMATCH %s: rebuilt candidates disagree with the "
                "audit\n",
                name.c_str());
    return;
  }
  std::vector<Decision> ker;
  for (const auto& c : rk.audit.candidates)
    ker.push_back({c.entity.value(), c.rank_score, c.evaluated, c.accepted,
                   c.p_value, c.counterfactual_delta});

  // Entities whose verdict is borderline under either sampler.
  std::vector<std::uint32_t> borderline;
  for (const auto* ds : {&ker, &ref})
    for (const Decision& d : *ds)
      if (d.evaluated && d.p_value >= kBorderlineLo &&
          d.p_value <= kBorderlineHi)
        borderline.push_back(d.entity);
  std::sort(borderline.begin(), borderline.end());
  borderline.erase(std::unique(borderline.begin(), borderline.end()),
                   borderline.end());
  gs.borderline += borderline.size();
  const auto is_borderline = [&](std::uint32_t id) {
    return std::binary_search(borderline.begin(), borderline.end(), id);
  };

  // The kernel's ranking is what diagnose() returned; the reference's is
  // the same ordering over the reference verdicts.
  std::vector<std::uint32_t> kernel_rank, ref_rank = ranking(ref);
  for (const auto& cause : rk.causes)
    kernel_rank.push_back(cause.entity.value());
  if (kernel_rank != ranking(ker)) ++gs.input_mismatch;

  auto top = [&](const std::vector<std::uint32_t>& ranked, std::size_t k) {
    std::vector<std::uint32_t> ids;
    for (const std::uint32_t id : ranked) {
      if (ids.size() >= k) break;
      if (!is_borderline(id)) ids.push_back(id);
    }
    return ids;
  };
  // How much would the band have eaten from an unfiltered top-3?
  std::vector<std::uint32_t> eaten;
  for (const auto* ranked : {&kernel_rank, &ref_rank})
    for (std::size_t i = 0; i < ranked->size() && i < 3; ++i)
      if (is_borderline((*ranked)[i])) eaten.push_back((*ranked)[i]);
  std::sort(eaten.begin(), eaten.end());
  eaten.erase(std::unique(eaten.begin(), eaten.end()), eaten.end());
  gs.top3_borderline += eaten.size();
  const bool top1_ok = top(kernel_rank, 1) == top(ref_rank, 1);
  const bool top3_ok = top(kernel_rank, 3) == top(ref_rank, 3);
  if (!top1_ok) ++gs.top1_mismatch;
  if (!top3_ok) ++gs.top3_mismatch;
  if (!top1_ok || !top3_ok) {
    std::printf("  MISMATCH %s: top1 %s top3 %s (kernel %zu causes, "
                "reference %zu)\n",
                name.c_str(), top1_ok ? "ok" : "DIFF",
                top3_ok ? "ok" : "DIFF", kernel_rank.size(), ref_rank.size());
    auto p_of = [](const std::vector<Decision>& ds, std::uint32_t id) {
      for (const Decision& d : ds)
        if (d.entity == id) return d.p_value;
      return -1.0;
    };
    auto dump = [&](const char* who, const std::vector<std::uint32_t>& r) {
      std::printf("    %s top3:", who);
      for (const std::uint32_t id : top(r, 3))
        std::printf(" e%u(pk=%.4g pr=%.4g)", id, p_of(ker, id),
                    p_of(ref, id));
      std::printf("\n");
    };
    dump("kernel   ", kernel_rank);
    dump("reference", ref_rank);
  }

  // Both lists are sorted by entity id and hold the same entities.
  for (std::size_t i = 0; i < ker.size(); ++i) {
    if (!ker[i].evaluated || !ref[i].evaluated) continue;
    gs.kernel_scores.push_back(ker[i].delta);
    gs.reference_scores.push_back(ref[i].delta);
  }
}

core::MurphyDiagnoser make_murphy(std::uint64_t seed) {
  core::MurphyOptions mopts;
  // More samples than the production default: the gate compares two
  // different random streams, so borderline p ~ alpha verdicts need tight
  // p-value estimates or membership flips would mask real regressions.
  mopts.sampler.num_samples = bench::full_scale() ? 2000 : 800;
  mopts.seed = seed;
  mopts.obs.metrics = &obs::global_metrics();
  mopts.obs.collect_audit = true;
  bench::stamp_murphy_options(mopts);
  return core::MurphyDiagnoser(mopts);
}

}  // namespace

int main() {
  bench::print_header(
      "Inference kernel vs reference: statistical equivalence gate",
      "the SoA kernel must reproduce the resample_path reference's "
      "verdicts: identical top-1/top-3 on Table-1 + battle-matrix smoke "
      "cases; Welch t-test on candidate score deltas not rejected at "
      "alpha=0.01");

  GateStats gs;

  // --- Table-1 enterprise incidents ----------------------------------------
  {
    enterprise::IncidentDatasetOptions opts;
    if (!bench::full_scale()) {
      opts.topology.num_apps = 8;
      opts.topology.hosts = 12;
      opts.topology.tors = 3;
      opts.topology.ports_per_tor = 8;
      opts.topology.datastores = 4;
      opts.dynamics.slices = 168;
    }
    std::fprintf(stderr, "building 13 incidents...\n");
    const auto dataset = enterprise::make_incident_dataset(opts);
    bench::stamp_workload({"enterprise-incidents", opts.topology.num_apps,
                           opts.topology.hosts, opts.seed,
                           "operator-incidents-1-13"});
    auto murphy = make_murphy(11);
    for (const auto& inc : dataset) {
      compare_case(murphy, eval::request_for(inc),
                   "incident-" + std::to_string(inc.number), gs);
      std::fprintf(stderr, "  incident %d done\n", inc.number);
    }
  }

  // --- battle-matrix smoke cells -------------------------------------------
  {
    emulation::TopoGenOptions topts;
    topts.services = 60;
    topts.applications = 2;
    topts.seed = 7;
    const auto topo = emulation::generate_topology(topts);
    bench::stamp_workload({"topo-gen-smoke", topts.services, 0, topts.seed,
                           "single_contention,correlated_multi_root,cascade"});
    auto murphy = make_murphy(7);
    const emulation::IncidentKind kinds[] = {
        emulation::IncidentKind::kSingleContention,
        emulation::IncidentKind::kCorrelatedMultiRoot,
        emulation::IncidentKind::kCascade,
    };
    for (const auto kind : kinds) {
      emulation::TopologyCaseOptions copts;
      copts.fault = kind;
      copts.seed = 21;
      const auto c = emulation::make_topology_case(topo, copts);
      compare_case(murphy, eval::request_for(c), c.name, gs);
      std::fprintf(stderr, "  case %s done\n", c.name.c_str());
    }
  }

  // --- gates -----------------------------------------------------------------
  const auto t = stats::welch_t_test(gs.kernel_scores, gs.reference_scores);
  const bool ttest_ok = t.p_two_sided >= 0.01;
  // The band must not hollow out the ranking comparison: across all cases,
  // at most one borderline entity per case may have reached a top-3.
  const bool borderline_ok = gs.top3_borderline <= gs.cases;

  eval::Table table({"gate", "result", "detail"});
  table.add_row({"reference inputs", gs.input_mismatch == 0 ? "PASS" : "FAIL",
                 std::to_string(gs.cases - gs.input_mismatch) + "/" +
                     std::to_string(gs.cases) +
                     " cases rebuilt as diagnose() ran them"});
  table.add_row({"top-1 identical", gs.top1_mismatch == 0 ? "PASS" : "FAIL",
                 std::to_string(gs.cases - gs.top1_mismatch) + "/" +
                     std::to_string(gs.cases) + " cases"});
  table.add_row({"top-3 identical", gs.top3_mismatch == 0 ? "PASS" : "FAIL",
                 std::to_string(gs.cases - gs.top3_mismatch) + "/" +
                     std::to_string(gs.cases) + " cases"});
  table.add_row({"score-delta t-test", ttest_ok ? "PASS" : "FAIL",
                 "p=" + format_double(t.p_two_sided, 4) + " over " +
                     std::to_string(gs.kernel_scores.size()) +
                     " paired candidates (reject below 0.01)"});
  table.add_row({"borderline in top-3", borderline_ok ? "PASS" : "FAIL",
                 std::to_string(gs.top3_borderline) + " excluded across " +
                     std::to_string(gs.cases) + " cases (<= 1 per case; " +
                     std::to_string(gs.borderline) +
                     " band-total among evaluated)"});
  std::printf("%s\n", table.render().c_str());

  auto* m = &obs::global_metrics();
  m->gauge("equiv.cases")->set(static_cast<double>(gs.cases));
  m->gauge("equiv.top1_mismatch")->set(static_cast<double>(gs.top1_mismatch));
  m->gauge("equiv.top3_mismatch")->set(static_cast<double>(gs.top3_mismatch));
  m->gauge("equiv.input_mismatch")
      ->set(static_cast<double>(gs.input_mismatch));
  m->gauge("equiv.paired_candidates")
      ->set(static_cast<double>(gs.kernel_scores.size()));
  m->gauge("equiv.ttest_p")->set(t.p_two_sided);
  m->gauge("equiv.borderline")->set(static_cast<double>(gs.borderline));
  m->gauge("equiv.top3_borderline")
      ->set(static_cast<double>(gs.top3_borderline));
  murphy::bench::write_bench_json("fast_equivalence");

  const bool ok = gs.input_mismatch == 0 && gs.top1_mismatch == 0 &&
                  gs.top3_mismatch == 0 && ttest_ok && borderline_ok;
  std::printf("%s\n", ok ? "equivalence gate PASSED"
                         : "equivalence gate FAILED");
  return ok ? 0 : 1;
}
