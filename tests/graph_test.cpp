// Unit tests for the relationship graph: expansion semantics, bidirectional
// edge materialization, path subgraphs, cycle census and degradation copies.
#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "src/graph/relationship_graph.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy::graph {
namespace {

using telemetry::EntityType;
using telemetry::MonitoringDb;
using telemetry::RelationKind;

// Builds the Figure-1-like miniature: crawler -> flow1 -> frontend ->
// flow2/flow3 -> backends, VMs on hosts.
class Fig1Graph : public ::testing::Test {
 protected:
  void SetUp() override {
    crawler_ = db_.add_entity(EntityType::kVm, "crawler");
    frontend_ = db_.add_entity(EntityType::kVm, "frontend");
    backend1_ = db_.add_entity(EntityType::kVm, "backend1");
    backend2_ = db_.add_entity(EntityType::kVm, "backend2");
    flow1_ = db_.add_entity(EntityType::kFlow, "flow1");
    flow2_ = db_.add_entity(EntityType::kFlow, "flow2");
    flow3_ = db_.add_entity(EntityType::kFlow, "flow3");
    host_ = db_.add_entity(EntityType::kHost, "host");

    db_.add_association(flow1_, crawler_, RelationKind::kFlowEndpoint);
    db_.add_association(flow1_, frontend_, RelationKind::kFlowEndpoint);
    db_.add_association(flow2_, frontend_, RelationKind::kFlowEndpoint);
    db_.add_association(flow2_, backend1_, RelationKind::kFlowEndpoint);
    db_.add_association(flow3_, frontend_, RelationKind::kFlowEndpoint);
    db_.add_association(flow3_, backend2_, RelationKind::kFlowEndpoint);
    db_.add_association(backend1_, host_, RelationKind::kVmOnHost);
    db_.add_association(backend2_, host_, RelationKind::kVmOnHost);
  }

  MonitoringDb db_;
  EntityId crawler_, frontend_, backend1_, backend2_;
  EntityId flow1_, flow2_, flow3_, host_;
};

TEST_F(Fig1Graph, FullExpansionReachesEverything) {
  const EntityId seeds[] = {backend1_};
  const auto g = RelationshipGraph::build(db_, seeds, /*max_hops=*/5);
  EXPECT_EQ(g.node_count(), 8u);
  // Every undirected association became two directed edges.
  EXPECT_EQ(g.edge_count(), 16u);
}

TEST_F(Fig1Graph, HopBudgetLimitsExpansion) {
  const EntityId seeds[] = {crawler_};
  const auto g1 = RelationshipGraph::build(db_, seeds, /*max_hops=*/1);
  // crawler + flow1 only.
  EXPECT_EQ(g1.node_count(), 2u);
  const auto g2 = RelationshipGraph::build(db_, seeds, /*max_hops=*/2);
  EXPECT_EQ(g2.node_count(), 3u);  // + frontend
}

TEST_F(Fig1Graph, NodeCapStopsGrowth) {
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10, /*max_nodes=*/4);
  EXPECT_LE(g.node_count(), 4u);
}

TEST_F(Fig1Graph, ShortestPathSubgraphOrdersByDistance) {
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10);
  const auto src = g.index_of(crawler_);
  const auto dst = g.index_of(backend1_);
  ASSERT_TRUE(src && dst);
  const auto path = g.shortest_path_subgraph(*src, *dst);
  // crawler -> flow1 -> frontend -> flow2 -> backend1
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(g.entity_of(path.front()), crawler_);
  EXPECT_EQ(g.entity_of(path[1]), flow1_);
  EXPECT_EQ(g.entity_of(path[2]), frontend_);
  EXPECT_EQ(g.entity_of(path[3]), flow2_);
  EXPECT_EQ(g.entity_of(path.back()), backend1_);
}

TEST_F(Fig1Graph, ShortestPathSubgraphIncludesAllTiedPaths) {
  // host is reachable from frontend via backend1 or backend2: both length-3
  // paths should contribute their middle nodes.
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10);
  const auto src = g.index_of(frontend_);
  const auto dst = g.index_of(host_);
  const auto sub = g.shortest_path_subgraph(*src, *dst);
  // frontend, flow2, flow3, backend1, backend2, host
  EXPECT_EQ(sub.size(), 6u);
}

TEST_F(Fig1Graph, BidirectionalEdgesMakeCycles) {
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10);
  EXPECT_FALSE(g.is_dag());
  // Each bidirectional association is a 2-cycle.
  EXPECT_EQ(g.count_2cycles(), 8u);
  const auto n = g.index_of(frontend_);
  EXPECT_TRUE(g.on_cycle(*n));
}

TEST_F(Fig1Graph, UnreachableReturnsEmptySubgraph) {
  MonitoringDb db;
  const auto a = db.add_entity(EntityType::kVm, "a");
  const auto b = db.add_entity(EntityType::kVm, "b");
  db.add_association(a, b, RelationKind::kCallerCallee, /*directed=*/true);
  const EntityId seeds[] = {a, b};
  const auto g = RelationshipGraph::build(db, seeds, 3);
  const auto ia = g.index_of(a);
  const auto ib = g.index_of(b);
  EXPECT_TRUE(g.shortest_path_subgraph(*ib, *ia).empty());  // b cannot reach a
  EXPECT_EQ(g.shortest_path_subgraph(*ia, *ib).size(), 2u);
}

TEST(RelationshipGraph, DirectedDagHasTopologicalOrder) {
  MonitoringDb db;
  const auto a = db.add_entity(EntityType::kService, "a");
  const auto b = db.add_entity(EntityType::kService, "b");
  const auto c = db.add_entity(EntityType::kService, "c");
  db.add_association(a, b, RelationKind::kCallerCallee, true);
  db.add_association(b, c, RelationKind::kCallerCallee, true);
  db.add_association(a, c, RelationKind::kCallerCallee, true);
  const EntityId seeds[] = {a};
  const auto g = RelationshipGraph::build(db, seeds, 5);
  EXPECT_TRUE(g.is_dag());
  const auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(g.entity_of(order->front()), a);
  EXPECT_EQ(g.entity_of(order->back()), c);
  EXPECT_EQ(g.count_2cycles(), 0u);
  EXPECT_EQ(g.count_3cycles(), 0u);
}

TEST(RelationshipGraph, ThreeCycleCensus) {
  MonitoringDb db;
  const auto a = db.add_entity(EntityType::kVm, "a");
  const auto b = db.add_entity(EntityType::kVm, "b");
  const auto c = db.add_entity(EntityType::kVm, "c");
  db.add_association(a, b, RelationKind::kGeneric, true);
  db.add_association(b, c, RelationKind::kGeneric, true);
  db.add_association(c, a, RelationKind::kGeneric, true);
  const EntityId seeds[] = {a};
  const auto g = RelationshipGraph::build(db, seeds, 5);
  EXPECT_EQ(g.count_3cycles(), 1u);
  EXPECT_FALSE(g.is_dag());
}

TEST_F(Fig1Graph, WithoutEdgeRemovesOnlyThatDirection) {
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10);
  const auto f = *g.index_of(flow1_);
  const auto fe = *g.index_of(frontend_);
  const auto g2 = g.without_edge(f, fe);
  EXPECT_EQ(g2.edge_count(), g.edge_count() - 1);
  // Reverse direction survives.
  const auto in_f = g2.in_neighbors(f);
  bool has_rev = false;
  for (const auto n : in_f) has_rev |= (n == fe);
  EXPECT_TRUE(has_rev);
}

TEST_F(Fig1Graph, WithoutNodeRepacksIndices) {
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10);
  const auto f = *g.index_of(flow1_);
  const auto g2 = g.without_node(f);
  EXPECT_EQ(g2.node_count(), g.node_count() - 1);
  EXPECT_FALSE(g2.index_of(flow1_).has_value());
  // crawler is now isolated: no path to backend1.
  const auto src = g2.index_of(crawler_);
  const auto dst = g2.index_of(backend1_);
  ASSERT_TRUE(src && dst);
  EXPECT_TRUE(g2.shortest_path_subgraph(*src, *dst).empty());
}

TEST_F(Fig1Graph, PrecomputedDistanceOverloadMatchesTwoBfsEverywhere) {
  // The per-diagnosis BFS-reuse overload must return the identical vector
  // the self-contained overload produces, for every (src, dst, slack) —
  // including slacks far beyond the graph's diameter.
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10);
  for (NodeIndex dst = 0; dst < g.node_count(); ++dst) {
    const auto d_to = g.distances_to(dst);
    for (NodeIndex src = 0; src < g.node_count(); ++src) {
      for (const std::size_t slack : {0u, 1u, 2u, 7u, 100u}) {
        SCOPED_TRACE("src=" + std::to_string(src) + " dst=" +
                     std::to_string(dst) + " slack=" + std::to_string(slack));
        EXPECT_EQ(g.shortest_path_subgraph(src, dst, slack),
                  g.shortest_path_subgraph(src, dst, slack, d_to));
      }
    }
  }
}

TEST_F(Fig1Graph, CandidateEqualToSymptomIsSingletonAtZeroSlack) {
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10);
  const auto n = *g.index_of(frontend_);
  const auto sub = g.shortest_path_subgraph(n, n, 0);
  ASSERT_EQ(sub.size(), 1u);
  EXPECT_EQ(sub.front(), n);
  // With slack, the 2-cycles through frontend's neighbors qualify; the
  // dst-strictly-last ordering still holds even when src == dst.
  const auto wide = g.shortest_path_subgraph(n, n, 2);
  EXPECT_GT(wide.size(), 1u);
  EXPECT_EQ(wide.back(), n);
}

TEST(ShortestPathSubgraph, DisconnectedCandidateStaysEmptyUnderSlack) {
  // No amount of slack manufactures a path that does not exist: membership
  // requires reaching dst at all, so a disconnected candidate yields the
  // empty subgraph from both overloads.
  MonitoringDb db;
  const auto a = db.add_entity(EntityType::kVm, "a");
  const auto b = db.add_entity(EntityType::kVm, "b");
  db.add_association(a, b, RelationKind::kCallerCallee, /*directed=*/true);
  const EntityId seeds[] = {a, b};
  const auto g = RelationshipGraph::build(db, seeds, 3);
  const auto ia = *g.index_of(a);
  const auto ib = *g.index_of(b);
  EXPECT_TRUE(g.shortest_path_subgraph(ib, ia, 100).empty());
  const auto d_to = g.distances_to(ia);
  EXPECT_TRUE(g.shortest_path_subgraph(ib, ia, 100, d_to).empty());
}

TEST_F(Fig1Graph, SlackBeyondDiameterAdmitsEveryConnectedNode) {
  // All Fig-1 associations are bidirectional, so with slack far past the
  // diameter every node lies on some crawler -> backend1 walk within the
  // bound: the subgraph saturates at the full node set, src first (distance
  // 0) and dst strictly last.
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10);
  const auto src = *g.index_of(crawler_);
  const auto dst = *g.index_of(backend1_);
  const auto sub = g.shortest_path_subgraph(src, dst, 100);
  EXPECT_EQ(sub.size(), g.node_count());
  EXPECT_EQ(sub.front(), src);
  EXPECT_EQ(sub.back(), dst);
}

TEST_F(Fig1Graph, DistancesFromAndTo) {
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10);
  const auto d = g.distances_from(*g.index_of(crawler_));
  EXPECT_EQ(d[*g.index_of(flow1_)], 1u);
  EXPECT_EQ(d[*g.index_of(backend1_)], 4u);
  const auto dt = g.distances_to(*g.index_of(backend1_));
  EXPECT_EQ(dt[*g.index_of(crawler_)], 4u);
}

// --- the flat build against a hash-map reference ----------------------------

// Reference build over hash maps, nested adjacency vectors and a hash set
// for edge dedup: the oracle for node numbering and edge order.
struct ReferenceGraph {
  std::vector<EntityId> nodes;
  std::vector<GraphEdge> edges;
  std::vector<std::vector<NodeIndex>> out, in;
};

ReferenceGraph reference_build(const MonitoringDb& db,
                               std::span<const EntityId> seeds,
                               std::size_t max_hops, std::size_t max_nodes) {
  ReferenceGraph g;
  std::unordered_map<EntityId, NodeIndex> index;
  auto intern = [&](EntityId id) {
    index.emplace(id, g.nodes.size());
    g.nodes.push_back(id);
  };
  std::vector<EntityId> frontier;
  for (const EntityId seed : seeds) {
    if (!db.has_entity(seed)) continue;
    if (index.find(seed) == index.end()) {
      intern(seed);
      frontier.push_back(seed);
    }
  }
  for (std::size_t hop = 0; hop < max_hops && !frontier.empty(); ++hop) {
    std::vector<EntityId> next;
    for (const EntityId cur : frontier) {
      for (const EntityId nb : db.neighbors(cur)) {
        if (index.find(nb) != index.end()) continue;
        if (g.nodes.size() >= max_nodes) break;
        intern(nb);
        next.push_back(nb);
      }
    }
    frontier = std::move(next);
  }
  std::unordered_set<std::uint64_t> seen;
  auto key = [](NodeIndex s, NodeIndex d) {
    return (static_cast<std::uint64_t>(s) << 32) | static_cast<std::uint32_t>(d);
  };
  for (std::size_t i = 0; i < db.association_count(); ++i) {
    const telemetry::Association& a = db.association(i);
    const auto ia = index.find(a.a);
    const auto ib = index.find(a.b);
    if (ia == index.end() || ib == index.end()) continue;
    if (seen.insert(key(ia->second, ib->second)).second)
      g.edges.push_back(GraphEdge{ia->second, ib->second, a.kind});
    if (!a.directed && seen.insert(key(ib->second, ia->second)).second)
      g.edges.push_back(GraphEdge{ib->second, ia->second, a.kind});
  }
  g.out.assign(g.nodes.size(), {});
  g.in.assign(g.nodes.size(), {});
  for (const GraphEdge& e : g.edges) {
    g.out[e.src].push_back(e.dst);
    g.in[e.dst].push_back(e.src);
  }
  return g;
}

void expect_same_graph(const RelationshipGraph& g, const ReferenceGraph& r,
                       const MonitoringDb& db) {
  ASSERT_EQ(g.node_count(), r.nodes.size());
  for (NodeIndex n = 0; n < r.nodes.size(); ++n) {
    ASSERT_EQ(g.entity_of(n), r.nodes[n]) << "node " << n;
    const auto out = g.out_neighbors(n);
    const auto in = g.in_neighbors(n);
    EXPECT_EQ(std::vector<NodeIndex>(out.begin(), out.end()), r.out[n]);
    EXPECT_EQ(std::vector<NodeIndex>(in.begin(), in.end()), r.in[n]);
  }
  ASSERT_EQ(g.edge_count(), r.edges.size());
  for (std::size_t i = 0; i < r.edges.size(); ++i) {
    EXPECT_EQ(g.edges()[i].src, r.edges[i].src) << "edge " << i;
    EXPECT_EQ(g.edges()[i].dst, r.edges[i].dst) << "edge " << i;
    EXPECT_EQ(g.edges()[i].kind, r.edges[i].kind) << "edge " << i;
  }
  // index_of is the inverse of entity_of, and nullopt off the graph.
  for (std::uint32_t id = 0; id <= db.entity_count(); ++id) {
    const auto it = std::find(r.nodes.begin(), r.nodes.end(), EntityId(id));
    const auto n = g.index_of(EntityId(id));
    if (it == r.nodes.end()) {
      EXPECT_FALSE(n.has_value()) << "entity " << id;
    } else {
      ASSERT_TRUE(n.has_value()) << "entity " << id;
      EXPECT_EQ(*n, static_cast<NodeIndex>(it - r.nodes.begin()));
    }
  }
  EXPECT_FALSE(g.index_of(EntityId::invalid()).has_value());
}

TEST(RelationshipGraph, BuildMatchesHashMapReferenceOnRandomDbs) {
  // Random dbs with repeated pairs (same and reversed direction, directed
  // and undirected), removed associations and entities, under hop bounds
  // and node caps that cut the expansion mid-frontier.
  std::mt19937_64 rng(20231021);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  constexpr RelationKind kKinds[] = {RelationKind::kGeneric,
                                     RelationKind::kFlowEndpoint,
                                     RelationKind::kVmOnHost,
                                     RelationKind::kCallerCallee};
  std::size_t compared = 0;
  for (int trial = 0; trial < 60; ++trial) {
    MonitoringDb db;
    const std::size_t n = 2 + below(40);
    std::vector<EntityId> ids;
    for (std::size_t i = 0; i < n; ++i)
      ids.push_back(db.add_entity(EntityType::kVm, "e" + std::to_string(i)));
    const std::size_t m = below(3 * n);
    for (std::size_t i = 0; i < m; ++i) {
      const EntityId a = ids[below(n)];
      const EntityId b = ids[below(n)];
      const RelationKind kind = kKinds[below(4)];
      const bool directed = below(3) == 0;
      db.add_association(a, b, kind, directed);  // self-loops are dropped
      if (below(4) == 0) db.add_association(a, b, kind, !directed);
      if (below(4) == 0) db.add_association(b, a, kind, directed);
    }
    for (std::size_t i = below(3); i > 0 && db.association_count() > 0; --i)
      db.remove_association(below(db.association_count()));
    if (below(2) == 0) db.remove_entity(ids[below(n)]);

    std::vector<EntityId> seeds;
    for (std::size_t i = 1 + below(3); i > 0; --i) seeds.push_back(ids[below(n)]);
    if (below(4) == 0) seeds.push_back(seeds.front());  // a repeated seed
    for (const std::size_t hops : {0u, 1u, 2u, 4u}) {
      for (const std::size_t cap : {std::size_t{1}, std::size_t{3},
                                    n / 2 + 1, std::size_t{100000}}) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " hops " +
                     std::to_string(hops) + " cap " + std::to_string(cap));
        const auto g = RelationshipGraph::build(db, seeds, hops, cap);
        expect_same_graph(g, reference_build(db, seeds, hops, cap), db);
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 60u * 16u);
}

TEST_F(Fig1Graph, DegradedCopiesKeepTheEntityIndex) {
  const EntityId seeds[] = {crawler_};
  const auto g = RelationshipGraph::build(db_, seeds, 10);
  const auto cut = g.without_edge(*g.index_of(flow1_), *g.index_of(frontend_));
  for (NodeIndex n = 0; n < g.node_count(); ++n)
    EXPECT_EQ(cut.index_of(g.entity_of(n)), n);
  const auto less = g.without_node(*g.index_of(flow2_));
  for (NodeIndex n = 0; n < less.node_count(); ++n)
    EXPECT_EQ(less.index_of(less.entity_of(n)), n);
  EXPECT_FALSE(less.index_of(flow2_).has_value());
}

}  // namespace
}  // namespace murphy::graph
