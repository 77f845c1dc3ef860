// The flattened variable space of the MRF.
//
// The MRF's random variables are (entity, metric-kind) pairs over one
// relationship graph. MetricSpace assigns each such pair a dense VarIndex so
// samplers and factors can work on flat arrays, and snapshots the monitoring
// database's values at a time slice into a state vector.
//
// Everything is flat and built once per space: a node's variables are one
// contiguous VarIndex run, each variable's series is resolved to a pointer
// at construction, and the (entity, kind) order that lookups and factor
// training read is one permutation of the variables.
#pragma once

#include <cstddef>
#include <optional>
#include <ranges>
#include <span>
#include <vector>

#include "src/common/ids.h"
#include "src/graph/relationship_graph.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy::core {

using VarIndex = std::size_t;

class MetricSpace {
 public:
  // Enumerates every metric recorded for every node of `graph`, in node
  // order then the store's kind order for the entity (deterministic). The
  // space reads `db`'s series through pointers resolved here: `db` must
  // outlive it and erase none of those series while it is in use.
  MetricSpace(const telemetry::MonitoringDb& db,
              const graph::RelationshipGraph& graph);

  [[nodiscard]] std::size_t size() const { return vars_.size(); }

  struct Var {
    graph::NodeIndex node;
    EntityId entity;
    MetricKindId kind;
  };
  [[nodiscard]] const Var& var(VarIndex i) const { return vars_[i]; }
  [[nodiscard]] std::optional<VarIndex> find(EntityId entity,
                                             MetricKindId kind) const;
  // Variable indices belonging to one graph node: one contiguous run.
  [[nodiscard]] std::ranges::iota_view<VarIndex, VarIndex> vars_of(
      graph::NodeIndex node) const {
    return {node_begin_[node], node_begin_[node + 1]};
  }
  // The series variable v reads, null when the store has none.
  [[nodiscard]] const telemetry::TimeSeries* series(VarIndex v) const {
    return series_[v];
  }

  // Every variable in (entity, kind) order. Node n's variables are the run
  // starting at ref_begin(n), vars_of(n).size() long.
  [[nodiscard]] std::span<const VarIndex> by_ref() const { return by_ref_; }
  [[nodiscard]] std::size_t ref_begin(graph::NodeIndex node) const {
    return ref_begin_[node];
  }

  // Snapshot of all variable values at time slice t (missing -> 0, the
  // paper's placeholder default). `db` must be the space's own.
  [[nodiscard]] std::vector<double> snapshot(
      const telemetry::MonitoringDb& db, TimeIndex t) const;

  // Per-variable training matrix column: values over [from, to). `db` must
  // be the space's own.
  [[nodiscard]] std::vector<double> history(const telemetry::MonitoringDb& db,
                                            VarIndex v, TimeIndex from,
                                            TimeIndex to) const;

 private:
  std::vector<Var> vars_;
  std::vector<const telemetry::TimeSeries*> series_;
  std::vector<VarIndex> node_begin_;  // node n's run: [n], [n + 1])
  std::vector<VarIndex> by_ref_;
  std::vector<std::size_t> ref_begin_;
};

}  // namespace murphy::core
