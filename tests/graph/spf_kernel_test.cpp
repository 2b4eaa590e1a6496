// SPF kernel tests: CSR equivalence against the adjacency list, workspace
// reuse (including the generation-counter wrap), heap ordering under
// decrease-key, bit-identity against a linear-scan frontier, the Def. 2
// leaf rule under early stops, and the §V-A regression that pins the kernel
// to the seed's lazy-heap Dijkstra bit for bit.
#include "graph/spf_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "experiment/scenario.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "network/quantum_network.hpp"
#include "oracles/dijkstra_legacy.hpp"
#include "oracles/dijkstra_scan.hpp"

namespace muerp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A connected random graph with uniform random lengths.
graph::Graph random_graph(std::mt19937& rng, std::size_t nodes,
                          double extra_edge_probability) {
  graph::Graph g(nodes);
  std::uniform_real_distribution<double> length(0.1, 100.0);
  std::uniform_int_distribution<graph::NodeId> pick(0, 0);
  for (graph::NodeId v = 1; v < nodes; ++v) {
    // Random spanning tree first: connect v to an earlier vertex.
    pick.param(decltype(pick)::param_type(0, v - 1));
    g.add_edge(v, pick(rng), length(rng));
  }
  std::bernoulli_distribution flip(extra_edge_probability);
  for (graph::NodeId a = 0; a < nodes; ++a) {
    for (graph::NodeId b = a + 1; b < nodes; ++b) {
      if (!g.has_edge(a, b) && flip(rng)) g.add_edge(a, b, length(rng));
    }
  }
  return g;
}

TEST(Csr, MatchesAdjacencyOnRandomTopologies) {
  std::mt19937 rng(7);
  for (int round = 0; round < 10; ++round) {
    const std::size_t nodes = 2 + round * 7;
    const graph::Graph g = random_graph(rng, nodes, 0.15);
    graph::spf::Csr csr;
    csr.build_from(g);
    ASSERT_EQ(csr.node_count(), g.node_count());
    ASSERT_EQ(csr.arc_count(), 2 * g.edge_count());
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const auto row = g.neighbors(v);
      ASSERT_EQ(csr.offsets[v + 1] - csr.offsets[v], row.size());
      for (std::size_t i = 0; i < row.size(); ++i) {
        const std::size_t slot = csr.offsets[v] + i;
        EXPECT_EQ(csr.target(slot), row[i].node);
        EXPECT_EQ(csr.edge_id(slot), row[i].edge);
        EXPECT_EQ(csr.value(slot), g.edge(row[i].edge).length_km);
      }
    }
  }
}

TEST(Csr, EmptyAndEdgelessGraphs) {
  graph::spf::Csr csr;
  csr.build_from(graph::Graph{});
  EXPECT_EQ(csr.node_count(), 0u);
  EXPECT_EQ(csr.arc_count(), 0u);
  csr.build_from(graph::Graph{5});
  EXPECT_EQ(csr.node_count(), 5u);
  EXPECT_EQ(csr.arc_count(), 0u);
}

TEST(Context, CachesViewsPerTopologyVersion) {
  auto& ctx = graph::spf::thread_context();
  std::mt19937 rng(11);
  graph::Graph g = random_graph(rng, 12, 0.2);
  const graph::spf::Csr* first = &ctx.csr_for(g);
  EXPECT_EQ(first, &ctx.csr_for(g)) << "same topology must hit the cache";

  const graph::spf::Csr* affine = &ctx.affine_csr_for(g, 2.0, 1.0);
  EXPECT_EQ(affine, &ctx.affine_csr_for(g, 2.0, 1.0));
  EXPECT_NE(affine, &ctx.affine_csr_for(g, 2.0, 1.5))
      << "a different metric needs its own view";
  for (std::size_t slot = 0; slot < affine->arc_count(); ++slot) {
    EXPECT_EQ(affine->value(slot), 2.0 * first->value(slot) + 1.0);
  }

  // Mutation changes the version: the cached view must be rebuilt. The new
  // edge joins node 0 to the first node it is not yet adjacent to.
  graph::NodeId other = 1;
  while (other < g.node_count() && g.has_edge(0, other)) ++other;
  ASSERT_LT(other, g.node_count());
  g.add_edge(0, other, 3.0);
  const graph::spf::Csr& rebuilt = ctx.csr_for(g);
  EXPECT_EQ(rebuilt.arc_count(), 2 * g.edge_count());
}

TEST(SpfWorkspace, ReuseAcrossSizesAndQueries) {
  std::mt19937 rng(23);
  graph::spf::SpfWorkspace ws;
  // Alternate between a large and a small graph through one workspace; every
  // result must match a fresh single-use workspace bit for bit.
  const graph::Graph big = random_graph(rng, 60, 0.1);
  const graph::Graph small = random_graph(rng, 9, 0.3);
  graph::spf::Csr big_csr, small_csr;
  big_csr.build_from(big);
  small_csr.build_from(small);
  auto value_weight = [](const graph::spf::Csr& csr) {
    return [&csr](std::size_t slot) { return csr.value(slot); };
  };
  auto all = [](graph::NodeId) { return true; };
  for (int round = 0; round < 6; ++round) {
    const bool use_big = (round % 2) == 0;
    const graph::Graph& g = use_big ? big : small;
    const graph::spf::Csr& csr = use_big ? big_csr : small_csr;
    const auto source = static_cast<graph::NodeId>(round % g.node_count());
    graph::spf::run(csr, ws, source, value_weight(csr), all);
    graph::spf::SpfWorkspace fresh;
    graph::spf::run(csr, fresh, source, value_weight(csr), all);
    ASSERT_EQ(ws.node_count(), g.node_count());
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(ws.dist(v), fresh.dist(v));
      EXPECT_EQ(ws.parent(v), fresh.parent(v));
    }
  }
}

TEST(SpfWorkspace, GenerationRolloverCannotResurrectStaleEntries) {
  std::mt19937 rng(31);
  const graph::Graph g = random_graph(rng, 20, 0.2);
  graph::spf::Csr csr;
  csr.build_from(g);
  auto weight = [&](std::size_t slot) { return csr.value(slot); };
  auto all = [](graph::NodeId) { return true; };

  graph::spf::SpfWorkspace ws;
  // Populate stamps with a full query, then fast-forward to the wrap point:
  // the next begin() must hard-reset the stamps, so entries written under
  // the old generation can never read as reached in the new one.
  graph::spf::run(csr, ws, 0, weight, all);
  ws.debug_set_generation(std::numeric_limits<std::uint32_t>::max());
  ws.begin(g.node_count());
  EXPECT_EQ(ws.generation(), 1u);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_FALSE(ws.reached(v));
    EXPECT_EQ(ws.dist(v), kInf);
    EXPECT_EQ(ws.parent(v), graph::kInvalidEdge);
  }
  // And a full query straight through the wrap still gives exact results.
  ws.debug_set_generation(std::numeric_limits<std::uint32_t>::max());
  graph::spf::run(csr, ws, 3, weight, all);
  graph::spf::SpfWorkspace fresh;
  graph::spf::run(csr, fresh, 3, weight, all);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(ws.dist(v), fresh.dist(v));
    EXPECT_EQ(ws.parent(v), fresh.parent(v));
  }
}

TEST(SpfWorkspace, IndexedHeapPopsInDistanceNodeOrderUnderDecreaseKey) {
  // Property test against the heap's contract: after a burst of pushes and
  // random decrease-keys, pops come out in ascending (distance, id) order.
  std::mt19937 rng(47);
  std::uniform_real_distribution<double> key(0.0, 50.0);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 40;
    graph::spf::SpfWorkspace ws;
    ws.begin(n);
    ws.seed(0);
    for (graph::NodeId v = 1; v < n; ++v) {
      ws.relax(v, 0, key(rng));
    }
    // Decrease a random subset (relax adopts strictly better keys only).
    std::uniform_int_distribution<graph::NodeId> pick(1, n - 1);
    for (int i = 0; i < 25; ++i) {
      const graph::NodeId v = pick(rng);
      if (!ws.settled(v)) ws.relax(v, 1, ws.dist(v) * 0.5);
    }
    double last_dist = -1.0;
    graph::NodeId last_node = graph::kInvalidNode;
    std::size_t pops = 0;
    while (!ws.heap_empty()) {
      const graph::NodeId v = ws.heap_pop_min();
      const double d = ws.dist(v);
      if (pops > 0) {
        EXPECT_TRUE(d > last_dist || (d == last_dist && v > last_node))
            << "heap order violated at pop " << pops;
      }
      last_dist = d;
      last_node = v;
      ++pops;
    }
    EXPECT_EQ(pops, n);
  }
}

/// The kernel's indexed heap against the linear-scan oracle: both settle in
/// (distance, id) order, so they agree on every node's dist and parent —
/// leaves, which the heap never holds, included.
TEST(SpfKernel, ScanAndHeapFrontiersAreBitIdentical) {
  std::mt19937 rng(59);
  for (int round = 0; round < 20; ++round) {
    const std::size_t nodes = 3 + round * 5;
    const graph::Graph g = random_graph(rng, nodes, 0.2);
    graph::spf::Csr csr;
    csr.build_from(g);
    auto weight = [&](std::size_t slot) { return csr.value(slot); };
    // A stable pseudo-random expansion gate (mirrors the relay rule).
    auto gate = [](graph::NodeId v) { return (v * 2654435761u) % 8u != 0; };
    const auto source = static_cast<graph::NodeId>(round % nodes);

    graph::spf::SpfWorkspace heap_ws;
    EXPECT_TRUE(graph::spf::run(csr, heap_ws, source, weight, gate));
    const graph::ShortestPaths scan = graph::dijkstra_scan(
        g, source, [&](graph::EdgeId e) { return g.edge(e).length_km; },
        gate);
    for (graph::NodeId v = 0; v < nodes; ++v) {
      EXPECT_EQ(heap_ws.dist(v), scan.distance[v]);
      EXPECT_EQ(heap_ws.parent(v), scan.parent_edge[v]);
    }
  }
}

TEST(SpfKernel, SettleTargetStopsEarlyWithExactDistance) {
  std::mt19937 rng(61);
  const graph::Graph g = random_graph(rng, 30, 0.15);
  graph::spf::Csr csr;
  csr.build_from(g);
  auto weight = [&](std::size_t slot) { return csr.value(slot); };
  auto all = [](graph::NodeId) { return true; };
  graph::spf::SpfWorkspace full, targeted;
  graph::spf::run(csr, full, 0, weight, all);
  for (graph::NodeId target = 1; target < g.node_count(); ++target) {
    graph::spf::run(csr, targeted, 0, weight, all, target);
    EXPECT_EQ(targeted.dist(target), full.dist(target));
    EXPECT_EQ(targeted.parent(target), full.parent(target));
  }
}

/// Def. 2 leaves: a settle target that fails the expansion gate (a user
/// endpoint) still enters the frontier, so the search stops as soon as it
/// settles, with the full run's dist and parent.
TEST(SpfKernel, NonExpandableTargetStopsEarlyWithExactDistance) {
  std::mt19937 rng(67);
  const graph::Graph g = random_graph(rng, 40, 0.12);
  graph::spf::Csr csr;
  csr.build_from(g);
  auto weight = [&](std::size_t slot) { return csr.value(slot); };
  auto gate = [](graph::NodeId v) { return v % 3 != 0; };
  graph::spf::SpfWorkspace full, targeted;
  std::uint64_t full_pops = 0;
  EXPECT_TRUE(graph::spf::run(csr, full, 1, weight, gate, graph::kInvalidNode,
                              &full_pops));
  std::size_t stopped_early = 0;
  for (graph::NodeId target = 3; target < g.node_count(); target += 3) {
    if (!full.reached(target)) continue;
    std::uint64_t pops = 0;
    EXPECT_FALSE(
        graph::spf::run(csr, targeted, 1, weight, gate, target, &pops));
    EXPECT_TRUE(targeted.settled(target));
    EXPECT_EQ(targeted.dist(target), full.dist(target)) << target;
    EXPECT_EQ(targeted.parent(target), full.parent(target)) << target;
    if (pops < full_pops) ++stopped_early;
  }
  EXPECT_GT(stopped_early, 0u);
}

/// The countdown form: every target that settles before the last one is
/// settled but not expanded (it fails the gate), so paths to later targets
/// never run through it and match the full run exactly. Leaves are never
/// settled; a run to the end leaves them with their final dist and parent.
TEST(SpfKernel, TargetCountdownKeepsNonExpandableTargetsClosed) {
  std::mt19937 rng(71);
  for (int round = 0; round < 8; ++round) {
    const graph::Graph g = random_graph(rng, 30 + round * 9, 0.1);
    graph::spf::Csr csr;
    csr.build_from(g);
    auto weight = [&](std::size_t slot) { return csr.value(slot); };
    auto gate = [](graph::NodeId v) { return v % 4 != 0; };
    const graph::NodeId source = 1;
    const graph::ShortestPaths legacy = graph::dijkstra_legacy(
        g, source, [&](graph::EdgeId e) { return g.edge(e).length_km; },
        gate);
    // Targets the gate leaves unreachable never settle, so the countdown
    // covers the reachable ones only.
    auto is_target = [](graph::NodeId v) { return v % 8 == 0; };
    std::size_t target_count = 0;
    for (graph::NodeId v = 0; v < g.node_count(); v += 8) {
      if (legacy.distance[v] < kInf) ++target_count;
    }
    graph::spf::SpfWorkspace ws;
    EXPECT_FALSE(graph::spf::run(csr, ws, source, weight, gate, is_target,
                                 target_count));
    for (graph::NodeId v = 0; v < g.node_count(); v += 8) {
      EXPECT_EQ(ws.settled(v), legacy.distance[v] < kInf);
      EXPECT_EQ(ws.dist(v), legacy.distance[v]) << "round " << round;
      EXPECT_EQ(ws.parent(v), legacy.parent_edge[v]);
    }
    // One more target than can settle: the frontier drains instead.
    EXPECT_TRUE(graph::spf::run(csr, ws, source, weight, gate, is_target,
                                target_count + 1));
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(ws.dist(v), legacy.distance[v]) << "round " << round;
      EXPECT_EQ(ws.parent(v), legacy.parent_edge[v]);
      if (v != source && !gate(v) && !is_target(v)) {
        EXPECT_FALSE(ws.settled(v)) << "leaf " << v << " was settled";
      }
    }
  }
}

/// The tentpole's contract on the paper's own workload: on §V-A default
/// instances, the kernel (through the graph::dijkstra shim) reproduces the
/// seed's lazy-heap Dijkstra bit for bit — distances AND parent edges —
/// under the routing metric and the Def. 2 relay gate.
TEST(SpfKernel, BitIdenticalToLegacyOnSectionVADefaults) {
  experiment::Scenario scenario;  // §V-A defaults
  for (std::size_t rep : {0u, 7u, 19u}) {
    const experiment::Instance inst =
        experiment::instantiate(scenario, rep);
    const net::QuantumNetwork& network = inst.network;
    const graph::Graph& g = network.graph();
    net::CapacityState capacity(network);
    auto weight = [&](graph::EdgeId e) {
      return network.edge_routing_weight(e);
    };
    auto relay_gate = [&](graph::NodeId v) {
      return network.is_switch(v) && capacity.free_qubits(v) >= 2;
    };
    for (const net::NodeId source : inst.users) {
      const graph::ShortestPaths legacy =
          graph::dijkstra_legacy(g, source, weight, relay_gate);
      const graph::ShortestPaths kernel =
          graph::dijkstra(g, source, weight, relay_gate);
      ASSERT_EQ(kernel.distance.size(), legacy.distance.size());
      for (graph::NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(kernel.distance[v], legacy.distance[v])
            << "rep " << rep << " source " << source << " node " << v;
        EXPECT_EQ(kernel.parent_edge[v], legacy.parent_edge[v]);
      }
    }
  }
}

}  // namespace
}  // namespace muerp
