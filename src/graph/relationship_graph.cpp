#include "src/graph/relationship_graph.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace murphy::graph {

namespace {

// Counting sort of items [0, m) into n groups by key(i), in item order
// within each group; the group of k holds val(i) for every i with key k.
template <typename Adjacency, typename Key, typename Val>
Adjacency group_by(std::size_t n, std::size_t m, Key key, Val val) {
  Adjacency g;
  g.off.assign(n + 1, 0);
  for (std::size_t i = 0; i < m; ++i) ++g.off[key(i) + 1];
  for (std::size_t k = 0; k < n; ++k) g.off[k + 1] += g.off[k];
  g.adj.resize(m);
  // Fill through off[k] as each group's cursor, then shift the cursors
  // (now at each group's end) back into begin offsets.
  for (std::size_t i = 0; i < m; ++i) g.adj[g.off[key(i)]++] = val(i);
  for (std::size_t k = n; k > 0; --k) g.off[k] = g.off[k - 1];
  g.off[0] = 0;
  return g;
}

}  // namespace

RelationshipGraph RelationshipGraph::build(const telemetry::MonitoringDb& db,
                                           std::span<const EntityId> seeds,
                                           std::size_t max_hops,
                                           std::size_t max_nodes) {
  RelationshipGraph g;
  g.index_.assign(db.entity_count(), kNoNode);
  const auto intern = [&](EntityId id) {
    g.index_[id.value()] = static_cast<std::uint32_t>(g.nodes_.size());
    g.nodes_.push_back(id);
  };

  std::vector<EntityId> frontier;
  for (const EntityId seed : seeds) {
    if (!db.has_entity(seed)) continue;
    if (g.node_of(seed) == kNoNode) {
      intern(seed);
      frontier.push_back(seed);
    }
  }

  // S = neighbors(S) expansion (§4.1), bounded by hop count and node cap.
  // Neighbors come in association order; a repeat is already interned.
  std::vector<EntityId> next;
  for (std::size_t hop = 0; hop < max_hops && !frontier.empty(); ++hop) {
    next.clear();
    for (const EntityId cur : frontier) {
      for (const std::size_t i : db.association_indices(cur)) {
        const telemetry::Association& a = db.association(i);
        const EntityId nb = a.a == cur ? a.b : a.a;
        if (!db.has_entity(nb) || g.node_of(nb) != kNoNode) continue;
        if (g.nodes_.size() >= max_nodes) break;
        intern(nb);
        next.push_back(nb);
      }
    }
    std::swap(frontier, next);
  }

  // Materialize edges between included nodes, in association order.
  // Bidirectional unless the association carries a known causal direction.
  for (std::size_t i = 0; i < db.association_count(); ++i) {
    const telemetry::Association& a = db.association(i);
    const std::uint32_t ia = g.node_of(a.a);
    const std::uint32_t ib = g.node_of(a.b);
    if (ia == kNoNode || ib == kNoNode) continue;
    g.edges_.push_back(GraphEdge{ia, ib, a.kind});
    if (!a.directed) g.edges_.push_back(GraphEdge{ib, ia, a.kind});
  }
  // Keep the first of each (src, dst): within one source's edges, in edge
  // order, `last[dst] == src` marks a repeat.
  const std::size_t n = g.nodes_.size();
  const auto by_src = group_by<Adjacency>(
      n, g.edges_.size(), [&](std::size_t e) { return g.edges_[e].src; },
      [](std::size_t e) { return e; });
  std::vector<NodeIndex> last(n, kUnreachable);
  std::vector<char> repeat(g.edges_.size(), 0);
  for (NodeIndex src = 0; src < n; ++src)
    for (const std::size_t e : by_src.of(src)) {
      const NodeIndex dst = g.edges_[e].dst;
      if (last[dst] == src) repeat[e] = 1;
      last[dst] = src;
    }
  std::size_t kept = 0;
  for (std::size_t e = 0; e < g.edges_.size(); ++e)
    if (repeat[e] == 0) g.edges_[kept++] = g.edges_[e];
  g.edges_.resize(kept);

  g.finalize();
  return g;
}

void RelationshipGraph::finalize() {
  const std::size_t n = nodes_.size();
  out_ = group_by<Adjacency>(
      n, edges_.size(), [&](std::size_t e) { return edges_[e].src; },
      [&](std::size_t e) { return edges_[e].dst; });
  in_ = group_by<Adjacency>(
      n, edges_.size(), [&](std::size_t e) { return edges_[e].dst; },
      [&](std::size_t e) { return edges_[e].src; });
}

std::optional<NodeIndex> RelationshipGraph::index_of(EntityId id) const {
  const std::uint32_t n = node_of(id);
  if (n == kNoNode) return std::nullopt;
  return n;
}

namespace {

template <typename Adjacency>
std::vector<std::size_t> bfs(std::size_t start, std::size_t n,
                             const Adjacency& adjacency) {
  std::vector<std::size_t> dist(n, kUnreachable);
  std::deque<NodeIndex> queue;
  dist[start] = 0;
  queue.push_back(start);
  while (!queue.empty()) {
    const NodeIndex cur = queue.front();
    queue.pop_front();
    for (const NodeIndex nb : adjacency.of(cur)) {
      if (dist[nb] != kUnreachable) continue;
      dist[nb] = dist[cur] + 1;
      queue.push_back(nb);
    }
  }
  return dist;
}

}  // namespace

std::vector<std::size_t> RelationshipGraph::distances_from(
    NodeIndex src) const {
  return bfs(src, nodes_.size(), out_);
}

std::vector<std::size_t> RelationshipGraph::distances_to(NodeIndex dst) const {
  return bfs(dst, nodes_.size(), in_);
}

std::vector<NodeIndex> RelationshipGraph::shortest_path_subgraph(
    NodeIndex src, NodeIndex dst, std::size_t slack) const {
  const auto d_to = distances_to(dst);
  return shortest_path_subgraph(src, dst, slack, d_to);
}

std::vector<NodeIndex> RelationshipGraph::shortest_path_subgraph(
    NodeIndex src, NodeIndex dst, std::size_t slack,
    std::span<const std::size_t> dist_to_dst) const {
  assert(dist_to_dst.size() == nodes_.size());
  if (dist_to_dst[src] == kUnreachable) return {};  // A cannot reach D
  const std::size_t total = dist_to_dst[src];
  const std::size_t bound = total + slack;

  // Forward BFS from src, bounded at depth `bound`: a member n must satisfy
  // d_from[n] + d_to[n] <= bound with d_to[n] >= 0, hence d_from[n] <= bound
  // — so the bounded search computes the exact forward distance of every
  // possible member and only skips nodes the membership test would reject.
  std::vector<std::size_t> d_from(nodes_.size(), kUnreachable);
  std::deque<NodeIndex> queue;
  d_from[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    const NodeIndex cur = queue.front();
    queue.pop_front();
    if (d_from[cur] >= bound) continue;  // children would exceed the bound
    for (const NodeIndex nb : out_.of(cur)) {
      if (d_from[nb] != kUnreachable) continue;
      d_from[nb] = d_from[cur] + 1;
      queue.push_back(nb);
    }
  }

  std::vector<NodeIndex> members;
  for (NodeIndex n = 0; n < nodes_.size(); ++n) {
    if (d_from[n] == kUnreachable || dist_to_dst[n] == kUnreachable) continue;
    if (d_from[n] + dist_to_dst[n] <= bound) members.push_back(n);
  }
  std::sort(members.begin(), members.end(), [&](NodeIndex a, NodeIndex b) {
    // dst strictly last so the final resample yields its value.
    if ((a == dst) != (b == dst)) return b == dst;
    if (d_from[a] != d_from[b]) return d_from[a] < d_from[b];
    return a < b;  // stable tiebreak for determinism
  });
  return members;
}

bool RelationshipGraph::has_edge(NodeIndex src, NodeIndex dst) const {
  const auto o = out_.of(src);
  return std::find(o.begin(), o.end(), dst) != o.end();
}

std::size_t RelationshipGraph::count_2cycles() const {
  std::size_t count = 0;
  for (const GraphEdge& e : edges_) {
    if (e.src < e.dst && has_edge(e.dst, e.src)) ++count;
  }
  return count;
}

std::size_t RelationshipGraph::count_3cycles() const {
  // Count directed triangles a->b->c->a once per node set: require a to be
  // the smallest index on the cycle.
  std::size_t count = 0;
  for (NodeIndex a = 0; a < nodes_.size(); ++a) {
    for (const NodeIndex b : out_.of(a)) {
      if (b <= a) continue;
      for (const NodeIndex c : out_.of(b)) {
        if (c <= a || c == b) continue;
        if (has_edge(c, a)) ++count;
      }
    }
  }
  return count;
}

bool RelationshipGraph::on_cycle(NodeIndex n) const {
  // n lies on a directed cycle iff some in-neighbor of n is reachable from n
  // along out-edges.
  const auto d = distances_from(n);
  for (const NodeIndex pred : in_.of(n))
    if (d[pred] != kUnreachable) return true;
  return false;
}

std::optional<std::vector<NodeIndex>> RelationshipGraph::topological_order()
    const {
  std::vector<std::size_t> in_degree(nodes_.size(), 0);
  for (const GraphEdge& e : edges_) ++in_degree[e.dst];
  std::deque<NodeIndex> ready;
  for (NodeIndex n = 0; n < nodes_.size(); ++n)
    if (in_degree[n] == 0) ready.push_back(n);
  std::vector<NodeIndex> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const NodeIndex cur = ready.front();
    ready.pop_front();
    order.push_back(cur);
    for (const NodeIndex nb : out_.of(cur))
      if (--in_degree[nb] == 0) ready.push_back(nb);
  }
  if (order.size() != nodes_.size()) return std::nullopt;
  return order;
}

bool RelationshipGraph::is_dag() const {
  return topological_order().has_value();
}

RelationshipGraph RelationshipGraph::without_edge(NodeIndex src,
                                                  NodeIndex dst) const {
  RelationshipGraph g;
  g.nodes_ = nodes_;
  g.index_ = index_;
  for (const GraphEdge& e : edges_)
    if (!(e.src == src && e.dst == dst)) g.edges_.push_back(e);
  g.finalize();
  return g;
}

RelationshipGraph RelationshipGraph::without_node(NodeIndex n) const {
  RelationshipGraph g;
  g.index_.assign(index_.size(), kNoNode);
  std::vector<NodeIndex> remap(nodes_.size(), kUnreachable);
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (i == n) continue;
    remap[i] = g.nodes_.size();
    g.index_[nodes_[i].value()] = static_cast<std::uint32_t>(remap[i]);
    g.nodes_.push_back(nodes_[i]);
  }
  for (const GraphEdge& e : edges_) {
    if (e.src == n || e.dst == n) continue;
    g.edges_.push_back(GraphEdge{remap[e.src], remap[e.dst], e.kind});
  }
  g.finalize();
  return g;
}

}  // namespace murphy::graph
