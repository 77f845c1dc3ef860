// The relationship graph of §4.1 — the structure Murphy reasons over.
//
// Nodes are entities pulled from the MonitoringDb by recursive neighborhood
// expansion from a seed set; edges are the loose associations, materialized
// as directed edges in BOTH directions unless the association is known to be
// causal one way (caller -> callee). Cycles are therefore the norm, which is
// precisely the regime Murphy's MRF is designed for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "src/common/ids.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy::graph {

// Dense node index within one RelationshipGraph.
using NodeIndex = std::size_t;
inline constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();

struct GraphEdge {
  NodeIndex src;
  NodeIndex dst;
  telemetry::RelationKind kind;
};

class RelationshipGraph {
 public:
  // Builds by expanding `seeds` through the db's associations for at most
  // `max_hops` rounds (S = neighbors(S), per §4.1). `max_nodes` caps growth
  // for intractably large environments; expansion stops once exceeded.
  static RelationshipGraph build(const telemetry::MonitoringDb& db,
                                 std::span<const EntityId> seeds,
                                 std::size_t max_hops = 4,
                                 std::size_t max_nodes = 100000);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] EntityId entity_of(NodeIndex n) const { return nodes_[n]; }
  // O(1): a dense entity-indexed table kept from the build.
  [[nodiscard]] std::optional<NodeIndex> index_of(EntityId id) const;
  [[nodiscard]] std::span<const EntityId> entities() const { return nodes_; }

  // Outgoing / incoming neighbor node indices. `in_neighbors(v)` is the
  // in_nbrs(v) of the MRF factor definition.
  [[nodiscard]] std::span<const NodeIndex> out_neighbors(NodeIndex n) const {
    return out_.of(n);
  }
  [[nodiscard]] std::span<const NodeIndex> in_neighbors(NodeIndex n) const {
    return in_.of(n);
  }
  [[nodiscard]] std::span<const GraphEdge> edges() const { return edges_; }

  // BFS hop distances along out-edges from `src`; kUnreachable when not
  // reachable.
  [[nodiscard]] std::vector<std::size_t> distances_from(NodeIndex src) const;
  // BFS distances along *in*-edges (i.e. distance TO `dst`).
  [[nodiscard]] std::vector<std::size_t> distances_to(NodeIndex dst) const;

  // The shortest-path subgraph from `src` to `dst` (§4.2): every node lying
  // on a directed path of length <= dist(src,dst) + slack, ordered by
  // increasing distance from `src` (so `src` is first and `dst` last; ties
  // place `dst` after other nodes at its distance). slack = 0 gives the
  // strict shortest-path subgraph; a small slack also captures the
  // "sibling" entities (a service's container, a VM's host) through which
  // influence flows in parallel. Empty when unreachable.
  [[nodiscard]] std::vector<NodeIndex> shortest_path_subgraph(
      NodeIndex src, NodeIndex dst, std::size_t slack = 0) const;

  // Same subgraph, but reusing a precomputed `distances_to(dst)` map. A
  // diagnosis evaluates every candidate against ONE symptom node, so the
  // backward BFS is shared across candidates and only a forward search —
  // bounded at depth dist(src,dst) + slack, past which no node can satisfy
  // the membership inequality — runs per call. Returns the identical vector
  // the two-BFS overload produces.
  [[nodiscard]] std::vector<NodeIndex> shortest_path_subgraph(
      NodeIndex src, NodeIndex dst, std::size_t slack,
      std::span<const std::size_t> dist_to_dst) const;

  // Cycle census used by §2.2's statistics: directed cycles of length 2
  // (a->b->a) and 3 (a->b->c->a), counted once per node set.
  [[nodiscard]] std::size_t count_2cycles() const;
  [[nodiscard]] std::size_t count_3cycles() const;
  // True if node n lies on at least one directed cycle.
  [[nodiscard]] bool on_cycle(NodeIndex n) const;
  // True if the graph contains no directed cycle (then Sage can model it).
  [[nodiscard]] bool is_dag() const;

  // Topological order; nullopt when the graph is cyclic.
  [[nodiscard]] std::optional<std::vector<NodeIndex>> topological_order()
      const;

  // A copy without the directed edge src->dst (and, for bidirectional
  // associations, the paired reverse edge stays). For degradation tests.
  [[nodiscard]] RelationshipGraph without_edge(NodeIndex src,
                                               NodeIndex dst) const;
  // A copy without node n (all its edges removed; indices re-packed).
  [[nodiscard]] RelationshipGraph without_node(NodeIndex n) const;

 private:
  // Compressed adjacency: node n's neighbors are adj[off[n], off[n + 1]),
  // in edge order.
  struct Adjacency {
    std::vector<std::size_t> off;
    std::vector<NodeIndex> adj;
    [[nodiscard]] std::span<const NodeIndex> of(NodeIndex n) const {
      return {adj.data() + off[n], off[n + 1] - off[n]};
    }
  };

  // Builds out_/in_ from edges_.
  void finalize();
  // The node of entity `id`, kNoNode when it is not in the graph.
  [[nodiscard]] std::uint32_t node_of(EntityId id) const {
    return id.value() < index_.size() ? index_[id.value()] : kNoNode;
  }

  [[nodiscard]] bool has_edge(NodeIndex src, NodeIndex dst) const;

  std::vector<EntityId> nodes_;
  std::vector<GraphEdge> edges_;
  Adjacency out_;
  Adjacency in_;
  // Entity id -> node, dense over the db's entity ids.
  static constexpr std::uint32_t kNoNode =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> index_;
};

}  // namespace murphy::graph
