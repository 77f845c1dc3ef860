// Structured diagnosis audit trail.
//
// Murphy's output is a ranked list; its *defense* is the per-candidate
// evidence behind every rank. The audit trail captures that evidence — one
// record per evaluated candidate with its anomaly-score components, the
// counterfactual verdict (p-value, factual vs counterfactual symptom means)
// and its path through the relationship graph — serialized as JSONL so a
// ranking can be replayed, diffed and explained long after the run. Every
// field is a deterministic function of the diagnosis inputs, so audit files
// are byte-identical across runs and thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"

namespace murphy::obs {

// The evidence for one candidate root cause.
struct CandidateAudit {
  EntityId entity;
  std::string entity_name;
  std::string driver_metric;   // the candidate's most anomalous metric
  double anomaly_z = 0.0;      // robust z of the driver metric
  double rank_score = 0.0;     // z scaled by relative excursion (ordering key)
  bool self_symptom = false;   // candidate == symptom entity
  bool evaluated = false;      // counterfactual sampler actually ran
  bool accepted = false;       // made the ranked list
  double p_value = 1.0;        // one-sided Welch t-test
  double mean_factual = 0.0;
  double mean_counterfactual = 0.0;
  // mean_counterfactual - mean_factual: how far nudging the candidate toward
  // normal moved the symptom metric.
  double counterfactual_delta = 0.0;
  std::uint64_t path_len = 0;  // resampled shortest-path-subgraph size
  std::uint64_t rank = 0;      // 1-based position in the result, 0 = absent
  // Explanation path root -> symptom (entity names), accepted candidates
  // only.
  std::vector<std::string> path;
};

// One full diagnosis: header context plus all candidate records, sorted by
// entity id (a stable order independent of evaluation scheduling).
struct DiagnosisAudit {
  std::string scheme;
  std::string symptom_entity;
  std::string symptom_metric;
  std::uint64_t now = 0;
  std::uint64_t graph_nodes = 0;
  std::uint64_t variables = 0;
  // Watchdog linkage: the incident this diagnosis was auto-enqueued for
  // (DESIGN.md §10). 0 = not incident-driven (the request-driven paths never
  // set it). The watchdog stamps this after the run completes, so one
  // incident's lifecycle journal and its per-candidate evidence join on id.
  std::uint64_t incident_id = 0;
  std::vector<CandidateAudit> candidates;

  [[nodiscard]] bool empty() const {
    return scheme.empty() && candidates.empty();
  }
};

// JSONL rendering: one {"type":"diagnosis",...} header line followed by one
// {"type":"candidate",...} line per record. Deterministic (numbers printed
// with round-trip precision, fixed key order).
[[nodiscard]] std::string to_jsonl(const DiagnosisAudit& audit);

// Parses to_jsonl output back (used by tests and offline tooling). Expects
// exactly one header line; candidate lines follow in file order.
[[nodiscard]] bool parse_jsonl(std::string_view text, DiagnosisAudit& out,
                               std::string* error = nullptr);

// ---------------------------------------------------------------------------
// Incident lifecycle journal (the always-on watchdog, DESIGN.md §10).
//
// Every incident state transition is one record; the journal is the
// append-only JSONL file murphyd writes alongside the per-candidate
// diagnosis audit, joined on incident_id. Every field is a deterministic
// function of the replayed telemetry (slice indices, never wall clocks), so
// the journal is byte-identical across ingest thread counts and service
// worker counts — the watchdog determinism harness diffs it directly.

struct IncidentEvent {
  std::uint64_t incident_id = 0;
  // "open" | "attach" | "enqueue" | "refire" | "diagnosed" |
  // "diagnosis_failed" | "resolve"
  std::string event;
  std::uint64_t slice = 0;  // axis slice the transition was observed at
  std::string entity;       // primary symptom entity (attach: the new member)
  std::string metric;       // driver metric of the firing series
  double severity = 0.0;    // max streaming |z| over the incident's members
  std::int64_t priority = 0;   // enqueue/refire: queue priority used
  std::uint64_t refires = 0;   // escalation count so far
  std::string state;           // incident state AFTER the transition
  // diagnosed: top-ranked root-cause entity names (best first).
  std::vector<std::string> causes;
};

// One JSON object per event, in order; deterministic rendering (fixed key
// order, round-trip number precision).
[[nodiscard]] std::string to_jsonl(std::span<const IncidentEvent> events);
[[nodiscard]] std::string to_json(const IncidentEvent& event);

// Parses to_jsonl output back; appends to `out` in file order.
[[nodiscard]] bool parse_incident_jsonl(std::string_view text,
                                        std::vector<IncidentEvent>& out,
                                        std::string* error = nullptr);

}  // namespace murphy::obs
