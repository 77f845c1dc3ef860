#include "src/core/metric_space.h"

#include <algorithm>
#include <cstdint>

namespace murphy::core {

MetricSpace::MetricSpace(const telemetry::MonitoringDb& db,
                         const graph::RelationshipGraph& graph) {
  const std::size_t n = graph.node_count();
  node_begin_.resize(n + 1);
  for (graph::NodeIndex node = 0; node < n; ++node) {
    node_begin_[node] = vars_.size();
    const EntityId entity = graph.entity_of(node);
    for (const MetricKindId kind : db.metrics().kinds_of(entity)) {
      vars_.push_back(Var{node, entity, kind});
      series_.push_back(db.metrics().find(entity, kind));
    }
  }
  node_begin_[n] = vars_.size();

  // (entity, kind) order: the nodes by entity, each node's run by kind.
  std::vector<std::uint64_t> keyed(n);
  for (graph::NodeIndex node = 0; node < n; ++node)
    keyed[node] =
        (static_cast<std::uint64_t>(graph.entity_of(node).value()) << 32) |
        node;
  std::sort(keyed.begin(), keyed.end());
  by_ref_.reserve(vars_.size());
  ref_begin_.resize(n);
  for (const std::uint64_t k : keyed) {
    const auto node = static_cast<graph::NodeIndex>(k & 0xFFFFFFFFu);
    ref_begin_[node] = by_ref_.size();
    for (const VarIndex v : vars_of(node)) by_ref_.push_back(v);
    std::sort(by_ref_.begin() + static_cast<std::ptrdiff_t>(ref_begin_[node]),
              by_ref_.end(), [&](VarIndex a, VarIndex b) {
                return vars_[a].kind < vars_[b].kind;
              });
  }
}

std::optional<VarIndex> MetricSpace::find(EntityId entity,
                                          MetricKindId kind) const {
  const MetricRef ref{entity, kind};
  const auto it = std::lower_bound(
      by_ref_.begin(), by_ref_.end(), ref, [&](VarIndex v, const MetricRef& r) {
        return MetricRef{vars_[v].entity, vars_[v].kind} < r;
      });
  if (it == by_ref_.end() || vars_[*it].entity != entity ||
      vars_[*it].kind != kind)
    return std::nullopt;
  return *it;
}

std::vector<double> MetricSpace::snapshot(const telemetry::MonitoringDb& db,
                                          TimeIndex t) const {
  (void)db;
  std::vector<double> out(vars_.size(), 0.0);
  for (VarIndex v = 0; v < vars_.size(); ++v)
    if (series_[v] != nullptr) out[v] = series_[v]->value_or(t, 0.0);
  return out;
}

std::vector<double> MetricSpace::history(const telemetry::MonitoringDb& db,
                                         VarIndex v, TimeIndex from,
                                         TimeIndex to) const {
  (void)db;
  // An inverted window (to < from) is a telemetry defect, not a caller bug:
  // unsigned subtraction below would request ~2^64 slices. Treat it as empty.
  if (to < from) return {};
  if (series_[v] == nullptr) return std::vector<double>(to - from, 0.0);
  return series_[v]->window(from, to, 0.0);
}

}  // namespace murphy::core
