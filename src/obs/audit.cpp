#include "src/obs/audit.h"

#include "src/obs/json.h"

namespace murphy::obs {

namespace {

void append_kv(std::string& out, std::string_view key, std::string_view val) {
  json_append_escaped(out, key);
  out.push_back(':');
  json_append_escaped(out, val);
}

void append_kv(std::string& out, std::string_view key, double val) {
  json_append_escaped(out, key);
  out.push_back(':');
  out += json_number(val);
}

void append_kv(std::string& out, std::string_view key, std::uint64_t val) {
  json_append_escaped(out, key);
  out.push_back(':');
  out += json_number(val);
}

void append_kv(std::string& out, std::string_view key, bool val) {
  json_append_escaped(out, key);
  out.push_back(':');
  out += val ? "true" : "false";
}

double num_or(const JsonValue& obj, const char* key, double dflt) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : dflt;
}

std::string str_or(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->string : "";
}

bool bool_or(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kBool && v->boolean;
}

}  // namespace

std::string to_jsonl(const DiagnosisAudit& audit) {
  std::string out;
  out += "{\"type\":\"diagnosis\",";
  append_kv(out, "scheme", audit.scheme);
  out.push_back(',');
  append_kv(out, "symptom_entity", audit.symptom_entity);
  out.push_back(',');
  append_kv(out, "symptom_metric", audit.symptom_metric);
  out.push_back(',');
  append_kv(out, "now", audit.now);
  out.push_back(',');
  append_kv(out, "graph_nodes", audit.graph_nodes);
  out.push_back(',');
  append_kv(out, "variables", audit.variables);
  out.push_back(',');
  append_kv(out, "incident_id", audit.incident_id);
  out.push_back(',');
  append_kv(out, "candidates", static_cast<std::uint64_t>(audit.candidates.size()));
  out += "}\n";

  for (const CandidateAudit& c : audit.candidates) {
    out += "{\"type\":\"candidate\",";
    append_kv(out, "entity", static_cast<std::uint64_t>(c.entity.value()));
    out.push_back(',');
    append_kv(out, "entity_name", c.entity_name);
    out.push_back(',');
    append_kv(out, "driver_metric", c.driver_metric);
    out.push_back(',');
    append_kv(out, "anomaly_z", c.anomaly_z);
    out.push_back(',');
    append_kv(out, "rank_score", c.rank_score);
    out.push_back(',');
    append_kv(out, "self_symptom", c.self_symptom);
    out.push_back(',');
    append_kv(out, "evaluated", c.evaluated);
    out.push_back(',');
    append_kv(out, "accepted", c.accepted);
    out.push_back(',');
    append_kv(out, "p_value", c.p_value);
    out.push_back(',');
    append_kv(out, "mean_factual", c.mean_factual);
    out.push_back(',');
    append_kv(out, "mean_counterfactual", c.mean_counterfactual);
    out.push_back(',');
    append_kv(out, "counterfactual_delta", c.counterfactual_delta);
    out.push_back(',');
    append_kv(out, "path_len", c.path_len);
    out.push_back(',');
    append_kv(out, "rank", c.rank);
    out.push_back(',');
    json_append_escaped(out, "path");
    out += ":[";
    for (std::size_t i = 0; i < c.path.size(); ++i) {
      if (i > 0) out.push_back(',');
      json_append_escaped(out, c.path[i]);
    }
    out += "]}\n";
  }
  return out;
}

bool parse_jsonl(std::string_view text, DiagnosisAudit& out,
                 std::string* error) {
  out = DiagnosisAudit{};
  bool seen_header = false;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;

    JsonValue v;
    std::string perr;
    if (!json_parse(line, v, &perr) || !v.is_object()) {
      if (error != nullptr)
        *error = "line " + std::to_string(line_no) + ": " + perr;
      return false;
    }
    const std::string type = str_or(v, "type");
    if (type == "diagnosis") {
      if (seen_header) {
        if (error != nullptr) *error = "duplicate diagnosis header";
        return false;
      }
      seen_header = true;
      out.scheme = str_or(v, "scheme");
      out.symptom_entity = str_or(v, "symptom_entity");
      out.symptom_metric = str_or(v, "symptom_metric");
      out.now = static_cast<std::uint64_t>(num_or(v, "now", 0));
      out.graph_nodes = static_cast<std::uint64_t>(num_or(v, "graph_nodes", 0));
      out.variables = static_cast<std::uint64_t>(num_or(v, "variables", 0));
      out.incident_id = static_cast<std::uint64_t>(num_or(v, "incident_id", 0));
    } else if (type == "candidate") {
      CandidateAudit c;
      c.entity = EntityId(static_cast<std::uint32_t>(num_or(v, "entity", 0)));
      c.entity_name = str_or(v, "entity_name");
      c.driver_metric = str_or(v, "driver_metric");
      c.anomaly_z = num_or(v, "anomaly_z", 0.0);
      c.rank_score = num_or(v, "rank_score", 0.0);
      c.self_symptom = bool_or(v, "self_symptom");
      c.evaluated = bool_or(v, "evaluated");
      c.accepted = bool_or(v, "accepted");
      c.p_value = num_or(v, "p_value", 1.0);
      c.mean_factual = num_or(v, "mean_factual", 0.0);
      c.mean_counterfactual = num_or(v, "mean_counterfactual", 0.0);
      c.counterfactual_delta = num_or(v, "counterfactual_delta", 0.0);
      c.path_len = static_cast<std::uint64_t>(num_or(v, "path_len", 0));
      c.rank = static_cast<std::uint64_t>(num_or(v, "rank", 0));
      if (const JsonValue* p = v.find("path"); p != nullptr && p->is_array())
        for (const JsonValue& e : p->array)
          if (e.kind == JsonValue::Kind::kString) c.path.push_back(e.string);
      out.candidates.push_back(std::move(c));
    } else {
      if (error != nullptr)
        *error = "line " + std::to_string(line_no) + ": unknown type";
      return false;
    }
  }
  if (!seen_header) {
    if (error != nullptr) *error = "missing diagnosis header";
    return false;
  }
  return true;
}

std::string to_json(const IncidentEvent& e) {
  std::string out;
  out += "{\"type\":\"incident\",";
  append_kv(out, "incident_id", e.incident_id);
  out.push_back(',');
  append_kv(out, "event", e.event);
  out.push_back(',');
  append_kv(out, "slice", e.slice);
  out.push_back(',');
  append_kv(out, "entity", e.entity);
  out.push_back(',');
  append_kv(out, "metric", e.metric);
  out.push_back(',');
  append_kv(out, "severity", e.severity);
  out.push_back(',');
  json_append_escaped(out, "priority");
  out.push_back(':');
  out += json_number(e.priority);
  out.push_back(',');
  append_kv(out, "refires", e.refires);
  out.push_back(',');
  append_kv(out, "state", e.state);
  out.push_back(',');
  json_append_escaped(out, "causes");
  out += ":[";
  for (std::size_t i = 0; i < e.causes.size(); ++i) {
    if (i > 0) out.push_back(',');
    json_append_escaped(out, e.causes[i]);
  }
  out += "]}";
  return out;
}

std::string to_jsonl(std::span<const IncidentEvent> events) {
  std::string out;
  for (const IncidentEvent& e : events) {
    out += to_json(e);
    out.push_back('\n');
  }
  return out;
}

bool parse_incident_jsonl(std::string_view text, std::vector<IncidentEvent>& out,
                          std::string* error) {
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;

    JsonValue v;
    std::string perr;
    if (!json_parse(line, v, &perr) || !v.is_object()) {
      if (error != nullptr)
        *error = "line " + std::to_string(line_no) + ": " + perr;
      return false;
    }
    if (str_or(v, "type") != "incident") {
      if (error != nullptr)
        *error = "line " + std::to_string(line_no) + ": unknown type";
      return false;
    }
    IncidentEvent e;
    e.incident_id = static_cast<std::uint64_t>(num_or(v, "incident_id", 0));
    e.event = str_or(v, "event");
    e.slice = static_cast<std::uint64_t>(num_or(v, "slice", 0));
    e.entity = str_or(v, "entity");
    e.metric = str_or(v, "metric");
    e.severity = num_or(v, "severity", 0.0);
    e.priority = static_cast<std::int64_t>(num_or(v, "priority", 0));
    e.refires = static_cast<std::uint64_t>(num_or(v, "refires", 0));
    e.state = str_or(v, "state");
    if (const JsonValue* p = v.find("causes"); p != nullptr && p->is_array())
      for (const JsonValue& c : p->array)
        if (c.kind == JsonValue::Kind::kString) e.causes.push_back(c.string);
    out.push_back(std::move(e));
  }
  return true;
}

}  // namespace murphy::obs
