#include "src/core/murphy.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>

#include "src/common/thread_pool.h"
#include "src/core/explain.h"

namespace murphy::core {

namespace {

// Phase wall-clock goes into both PhaseTimings (always) and, when a metrics
// registry is attached, a per-phase histogram — so bench snapshots carry the
// timing distribution without separate plumbing.
void record_phase_ms(obs::MetricsRegistry* metrics, const char* phase,
                     double ms) {
  if (metrics == nullptr) return;
  metrics
      ->histogram(std::string("phase.") + phase + "_ms",
                  {0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0,
                   3000.0, 10000.0})
      ->observe(ms);
}

}  // namespace

TimeIndex recent_config_window_begin(TimeIndex train_begin,
                                     TimeIndex train_end, TimeIndex now) {
  const TimeIndex span = train_end > train_begin ? train_end - train_begin : 0;
  // ~10% of the training range, but never an empty window: with a short
  // range (span < 10) the old `span / 10` arithmetic degenerated to a
  // zero-length window that silently dropped every change before `now`.
  const TimeIndex window = std::max<TimeIndex>(1, span / 10);
  return now > window ? now - window : 0;  // clamp, TimeIndex is unsigned
}

std::uint64_t candidate_stream_seed(std::uint64_t seed,
                                   graph::NodeIndex node) {
  return mix_seed(seed ^ 0x5EEDULL, node);
}

MurphyDiagnoser::MurphyDiagnoser(MurphyOptions opts) : opts_(opts) {}

DiagnosisResult MurphyDiagnoser::diagnose(const DiagnosisRequest& request) {
  assert(request.db != nullptr);
  const telemetry::MonitoringDb& db = *request.db;
  const obs::ObsHooks& hooks = opts_.obs;
  DiagnosisResult result;

  obs::Span diag_span(hooks.tracer, "diagnose");
  if (diag_span.enabled()) {
    diag_span.arg("symptom_metric", request.symptom_metric);
    diag_span.arg("now", static_cast<std::uint64_t>(request.now));
  }
  if (hooks.metrics != nullptr) hooks.metrics->counter("diagnose.calls")->add(1);

  // Deadline enforcement polls only at phase boundaries: a phase always runs
  // to completion, so a completed diagnosis is bit-identical with or without
  // the hook, and a cancelled one is flagged rather than silently empty.
  const auto cancelled_at_checkpoint = [&]() -> bool {
    if (!opts_.cancel || !opts_.cancel()) return false;
    result.cancelled = true;
    if (hooks.metrics != nullptr)
      hooks.metrics->counter("diagnose.cancelled")->add(1);
    return true;
  };

  // 1. Relationship graph from the symptom entity.
  obs::Span graph_span(hooks.tracer, "graph_build");
  const std::vector<EntityId> seeds{request.symptom_entity};
  const auto graph = graph::RelationshipGraph::build(
      db, seeds, request.max_hops, opts_.max_graph_nodes);
  const auto symptom_node = graph.index_of(request.symptom_entity);
  if (!symptom_node) return result;

  const MetricSpace space(db, graph);
  const auto kind = db.catalog().find(request.symptom_metric);
  if (!kind.valid()) return result;
  const auto symptom_var = space.find(request.symptom_entity, kind);
  if (!symptom_var) return result;
  if (graph_span.enabled()) {
    graph_span.arg("nodes", static_cast<std::uint64_t>(graph.node_count()));
    graph_span.arg("vars", static_cast<std::uint64_t>(space.size()));
  }
  result.timings.graph_ms = graph_span.finish();
  record_phase_ms(hooks.metrics, "graph", result.timings.graph_ms);
  if (hooks.metrics != nullptr) {
    hooks.metrics->gauge("graph.nodes")
        ->set(static_cast<double>(graph.node_count()));
    hooks.metrics->gauge("graph.vars")->set(static_cast<double>(space.size()));
  }

  if (cancelled_at_checkpoint()) {
    result.timings.total_ms = diag_span.finish();
    return result;
  }

  // 2. Online training on [train_begin, train_end).
  obs::Span train_span(hooks.tracer, "train_factors");
  FactorTrainingOptions topts = opts_.training;
  topts.num_threads = opts_.num_threads;
  topts.pool = opts_.pool;
  topts.tracer = hooks.tracer;
  topts.metrics = hooks.metrics;
  topts.trace_parent = train_span.id();
  const FactorSet factors(db, graph, space, request.train_begin,
                          request.train_end, topts);
  result.timings.training_ms = train_span.finish();
  record_phase_ms(hooks.metrics, "training", result.timings.training_ms);

  if (cancelled_at_checkpoint()) {
    result.timings.total_ms = diag_span.finish();
    return result;
  }

  // 3. Candidate pruning.
  obs::Span search_span(hooks.tracer, "candidate_search");
  const auto state = space.snapshot(db, request.now);
  const bool symptom_high =
      state[*symptom_var] >=
      factors.conditional(*symptom_var).robust_center();

  CandidateSearchOptions sopts = opts_.search;
  sopts.thresholds = opts_.thresholds;
  const auto candidates = candidate_search(db, graph, space, factors, state,
                                           *symptom_node, sopts);
  if (search_span.enabled())
    search_span.arg("candidates", static_cast<std::uint64_t>(candidates.size()));
  result.timings.search_ms = search_span.finish();
  record_phase_ms(hooks.metrics, "search", result.timings.search_ms);

  if (cancelled_at_checkpoint()) {
    result.timings.total_ms = diag_span.finish();
    return result;
  }

  // 4. Counterfactual evaluation of each candidate. Candidates are
  // independent, so evaluate them in parallel; each gets its own RNG stream
  // derived from (seed, candidate), which makes the verdicts — and hence the
  // whole diagnosis — bitwise identical at every thread count.
  obs::Span infer_span(hooks.tracer, "counterfactual_inference");
  const std::uint64_t infer_span_id = infer_span.id();
  CounterfactualSampler sampler(graph, space, factors, opts_.sampler);
  // One backward BFS from the symptom, shared by every candidate's
  // shortest-path-subgraph computation in the parallel loop below.
  sampler.prepare(*symptom_node);

  obs::Counter* c_evaluated = nullptr;
  obs::Counter* c_accepted = nullptr;
  obs::Counter* c_resamples = nullptr;
  obs::Counter* c_kernel_cells = nullptr;
  obs::Histogram* h_pvalue = nullptr;
  if (hooks.metrics != nullptr) {
    c_evaluated = hooks.metrics->counter("infer.candidates_evaluated");
    c_accepted = hooks.metrics->counter("infer.candidates_accepted");
    c_resamples = hooks.metrics->counter("infer.gibbs_node_resamples");
    c_kernel_cells = hooks.metrics->counter("infer.kernel_cells");
    h_pvalue = hooks.metrics->histogram(
        "infer.p_value", {0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0});
  }

  struct Accepted {
    graph::NodeIndex node;
    double anomaly;
  };
  std::vector<std::optional<Accepted>> verdicts(candidates.size());
  // Observed in candidate order after the join: a histogram sum taken in
  // completion order would differ in its last bits from run to run.
  std::vector<std::optional<double>> p_values(candidates.size());
  std::vector<obs::CandidateAudit> audits(
      hooks.collect_audit ? candidates.size() : 0);
  parallel_for(opts_.pool, opts_.num_threads, candidates.size(),
               [&](std::size_t i) {
    const graph::NodeIndex cand = candidates[i];
    // Stable stream/parent ids keep the trace identical at any thread count.
    obs::Span cand_span(hooks.tracer, "evaluate_candidate", cand,
                        infer_span_id);
    const NodeAnomaly anomaly = node_anomaly(factors, space, cand, state);

    obs::CandidateAudit* aud =
        hooks.collect_audit ? &audits[i] : nullptr;
    if (aud != nullptr) {
      const EntityId entity = graph.entity_of(cand);
      aud->entity = entity;
      aud->entity_name = db.entity(entity).name;
      aud->driver_metric =
          std::string(db.catalog().name(space.var(anomaly.driver).kind));
      aud->anomaly_z = anomaly.score;
      aud->rank_score = anomaly.rank_score;
    }
    if (cand_span.enabled()) {
      cand_span.arg("entity", db.entity(graph.entity_of(cand)).name);
      cand_span.arg("anomaly_z", anomaly.score);
    }
    if (c_evaluated != nullptr) c_evaluated->add(1);

    if (cand == *symptom_node) {
      // The symptom entity itself is a root-cause candidate when its own
      // anomaly is strong (self-inflicted problems); counterfactualizing it
      // against itself is meaningless, so accept on anomaly alone.
      const bool self_accepted = anomaly.score > sopts.z_min;
      if (self_accepted) verdicts[i] = Accepted{cand, anomaly.rank_score};
      if (aud != nullptr) {
        aud->self_symptom = true;
        aud->accepted = self_accepted;
      }
      if (cand_span.enabled()) cand_span.arg("self_symptom", true);
      if (self_accepted && c_accepted != nullptr) c_accepted->add(1);
      return;
    }
    Rng rng(candidate_stream_seed(opts_.seed, cand));
    const auto verdict =
        sampler.evaluate(cand, anomaly.driver, *symptom_node, *symptom_var,
                         state, symptom_high, rng);
    if (verdict.is_root_cause)
      verdicts[i] = Accepted{cand, anomaly.rank_score};

    if (aud != nullptr) {
      aud->evaluated = verdict.path_len > 0;
      aud->accepted = verdict.is_root_cause;
      aud->p_value = verdict.p_value;
      aud->mean_factual = verdict.mean_factual;
      aud->mean_counterfactual = verdict.mean_counterfactual;
      aud->counterfactual_delta =
          verdict.mean_counterfactual - verdict.mean_factual;
      aud->path_len = verdict.path_len;
    }
    if (cand_span.enabled()) {
      cand_span.arg("p_value", verdict.p_value);
      cand_span.arg("accepted", verdict.is_root_cause);
    }
    if (c_resamples != nullptr) c_resamples->add(verdict.node_resamples);
    if (c_kernel_cells != nullptr) c_kernel_cells->add(verdict.kernel_cells);
    if (verdict.path_len > 0) p_values[i] = verdict.p_value;
    if (verdict.is_root_cause && c_accepted != nullptr) c_accepted->add(1);
  });
  if (h_pvalue != nullptr)
    for (const auto& p : p_values)
      if (p) h_pvalue->observe(*p);
  std::vector<Accepted> accepted;
  for (const auto& v : verdicts)
    if (v) accepted.push_back(*v);
  result.timings.inference_ms = infer_span.finish();
  record_phase_ms(hooks.metrics, "inference", result.timings.inference_ms);

  if (cancelled_at_checkpoint()) {
    result.timings.total_ms = diag_span.finish();
    return result;
  }

  // 5. Rank by anomaly score (most anomalous first).
  std::sort(accepted.begin(), accepted.end(),
            [](const Accepted& a, const Accepted& b) {
              if (a.anomaly != b.anomaly) return a.anomaly > b.anomaly;
              return a.node < b.node;
            });

  // 6. Labels + explanation chains.
  obs::Span explain_span(hooks.tracer, "explain");
  std::vector<EntityLabel> labels(graph.node_count());
  parallel_for(opts_.pool, opts_.num_threads, graph.node_count(),
               [&](std::size_t n) {
    labels[n] =
        label_node(db, space, factors, n, state, opts_.thresholds);
  });
  if (hooks.metrics != nullptr)
    hooks.metrics->counter("explain.nodes_labeled")->add(graph.node_count());

  // Audit lookup: candidate node -> its record, for rank and path fill-in.
  std::unordered_map<graph::NodeIndex, std::size_t> audit_of;
  if (hooks.collect_audit)
    for (std::size_t i = 0; i < candidates.size(); ++i)
      audit_of.emplace(candidates[i], i);

  for (const Accepted& a : accepted) {
    result.causes.push_back(
        RankedRootCause{graph.entity_of(a.node), a.anomaly});
    const auto path = explanation_path(graph, labels, a.node, *symptom_node);
    result.explanations.push_back(
        render_explanation(db, graph, labels, path));
    if (hooks.collect_audit) {
      obs::CandidateAudit& aud = audits[audit_of.at(a.node)];
      aud.rank = result.causes.size();  // 1-based: just pushed
      for (const graph::NodeIndex n : path)
        aud.path.push_back(db.entity(graph.entity_of(n)).name);
    }
  }
  result.timings.explain_ms = explain_span.finish();
  record_phase_ms(hooks.metrics, "explain", result.timings.explain_ms);

  // Surface configuration changes in the recent window (~10% of the
  // training range, i.e. the stretch that likely contains the incident).
  result.recent_config_changes = db.config_events().in_window(
      recent_config_window_begin(request.train_begin, request.train_end,
                                 request.now),
      request.now + 1);

  if (hooks.collect_audit) {
    result.audit.scheme = "murphy";
    result.audit.symptom_entity = db.entity(request.symptom_entity).name;
    result.audit.symptom_metric = request.symptom_metric;
    result.audit.now = request.now;
    result.audit.graph_nodes = graph.node_count();
    result.audit.variables = space.size();
    // Entity-id order: stable regardless of evaluation scheduling.
    std::sort(audits.begin(), audits.end(),
              [](const obs::CandidateAudit& a, const obs::CandidateAudit& b) {
                return a.entity < b.entity;
              });
    result.audit.candidates = std::move(audits);
  }

  if (diag_span.enabled())
    diag_span.arg("causes", static_cast<std::uint64_t>(result.causes.size()));
  result.timings.total_ms = diag_span.finish();
  record_phase_ms(hooks.metrics, "total", result.timings.total_ms);
  return result;
}

}  // namespace murphy::core
