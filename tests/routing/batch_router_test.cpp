#include "routing/batch_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "extensions/multigroup.hpp"
#include "network/channel.hpp"
#include "network/network_builder.hpp"
#include "network/rate.hpp"
#include "oracles/dijkstra_legacy.hpp"
#include "oracles/dijkstra_scan.hpp"
#include "oracles/multigroup_reference.hpp"
#include "routing/router.hpp"
#include "support/rng.hpp"
#include "topology/waxman.hpp"

namespace muerp::routing {

/// Reads and drives BatchRouter's slab cache directly (a friend of it).
struct BatchRouterTestPeer {
  static void begin_scope(BatchRouter& router) { router.begin_scope(); }
  static std::size_t tree_for(BatchRouter& router, net::NodeId source,
                              std::span<const net::NodeId> pending,
                              const net::CapacityState& capacity) {
    return router.tree_for(source, pending, capacity);
  }
  static bool complete(const BatchRouter& router, std::size_t slot) {
    return router.slab_meta_[slot].complete;
  }
  static const std::vector<net::NodeId>& targets(const BatchRouter& router,
                                                 std::size_t slot) {
    return router.slab_meta_[slot].targets;
  }
  static double dist(const BatchRouter& router, std::size_t slot,
                     net::NodeId v) {
    return router.slab_dist_[slot * router.node_count_ + v];
  }
  static graph::EdgeId parent(const BatchRouter& router, std::size_t slot,
                              net::NodeId v) {
    return router.slab_parent_[slot * router.node_count_ + v];
  }
  static std::vector<net::NodeId> path(const BatchRouter& router,
                                       std::size_t slot, net::NodeId source,
                                       net::NodeId dest) {
    return router.extract_channel(slot, source, dest).path;
  }
};

namespace {

using net::NodeId;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Random Waxman instance with `user_count` users split into `group_count`
/// disjoint groups (round-robin) — the standard contention workload.
struct Workload {
  net::QuantumNetwork network;
  std::vector<std::vector<NodeId>> groups;

  std::vector<BatchRequest> requests() const {
    std::vector<BatchRequest> out;
    for (const auto& g : groups) out.push_back({g});
    return out;
  }

  std::vector<ext::GroupRequest> ext_requests() const {
    std::vector<ext::GroupRequest> out;
    for (const auto& g : groups) {
      ext::GroupRequest r;
      r.users = g;
      out.push_back(std::move(r));
    }
    return out;
  }
};

Workload make_workload(std::uint64_t seed, std::size_t user_count = 9,
                       std::size_t group_count = 3, int qubits = 4) {
  support::Rng rng(seed);
  topology::WaxmanParams params;
  params.node_count = 40;
  auto topo = topology::generate_waxman(params, rng);
  Workload w{net::assign_random_users(std::move(topo), user_count, qubits,
                                      {1e-4, 0.9}, rng),
             {}};
  w.groups.resize(group_count);
  for (std::size_t i = 0; i < user_count; ++i) {
    w.groups[i % group_count].push_back(w.network.users()[i]);
  }
  return w;
}

/// Bit-identity against the sequential reference, all three orders, many
/// seeds. route_groups already delegates to BatchRouter, so the comparison
/// pits the kernel against the preserved reference implementation.
class BatchOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchOracle, SequentialPoliciesMatchReference) {
  const Workload w = make_workload(GetParam());
  const auto groups = w.ext_requests();
  for (ext::GroupOrder order :
       {ext::GroupOrder::kGivenOrder, ext::GroupOrder::kSmallestFirst,
        ext::GroupOrder::kLargestFirst}) {
    support::Rng r1(GetParam() * 97 + 5);
    support::Rng r2(GetParam() * 97 + 5);
    const auto expected =
        ext::route_groups_reference(w.network, groups, order, r1);
    const auto actual = ext::route_groups(w.network, groups, order, r2);
    ASSERT_EQ(expected.outcomes.size(), actual.outcomes.size());
    EXPECT_EQ(expected.groups_served, actual.groups_served);
    EXPECT_EQ(expected.served_product_rate, actual.served_product_rate);
    for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
      EXPECT_EQ(expected.outcomes[i].request_index,
                actual.outcomes[i].request_index);
      EXPECT_EQ(expected.outcomes[i].tree.feasible,
                actual.outcomes[i].tree.feasible);
      EXPECT_EQ(expected.outcomes[i].tree.rate, actual.outcomes[i].tree.rate);
      ASSERT_EQ(expected.outcomes[i].tree.channels.size(),
                actual.outcomes[i].tree.channels.size());
      for (std::size_t c = 0; c < expected.outcomes[i].tree.channels.size();
           ++c) {
        EXPECT_EQ(expected.outcomes[i].tree.channels[c].path,
                  actual.outcomes[i].tree.channels[c].path);
      }
    }
  }
}

TEST_P(BatchOracle, FairShareMatchesInterleavedReference) {
  const Workload w = make_workload(GetParam() + 1000);
  const auto groups = w.ext_requests();
  support::Rng r1(GetParam() * 31 + 7);
  support::Rng r2(GetParam() * 31 + 7);
  const auto expected =
      ext::route_groups_interleaved_reference(w.network, groups, r1);
  const auto actual = ext::route_groups_interleaved(w.network, groups, r2);
  ASSERT_EQ(expected.outcomes.size(), actual.outcomes.size());
  EXPECT_EQ(expected.groups_served, actual.groups_served);
  EXPECT_EQ(expected.served_product_rate, actual.served_product_rate);
  for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
    EXPECT_EQ(expected.outcomes[i].tree.feasible,
              actual.outcomes[i].tree.feasible);
    EXPECT_EQ(expected.outcomes[i].tree.rate, actual.outcomes[i].tree.rate);
    ASSERT_EQ(expected.outcomes[i].tree.channels.size(),
              actual.outcomes[i].tree.channels.size());
    for (std::size_t c = 0; c < expected.outcomes[i].tree.channels.size();
         ++c) {
      EXPECT_EQ(expected.outcomes[i].tree.channels[c].path,
                actual.outcomes[i].tree.channels[c].path);
    }
  }
}

/// The router's heap-kernel trees against the linear-scan oracle, on the
/// residual capacity a fair-share batch leaves behind: the relays it drained
/// are Def. 2 leaves, and a complete slab must still hold the scan
/// frontier's dist and parent at every node.
TEST_P(BatchOracle, ScanAndHeapModesAgree) {
  const Workload w = make_workload(GetParam() + 2000);
  BatchOptions options;
  options.policy = BatchPolicy::kFairShare;
  support::Rng rng(GetParam() + 3);
  BatchRouter batch(w.network);
  const BatchResult result = batch.route(w.requests(), options, rng);

  net::CapacityState capacity(w.network);
  for (const BatchGroupOutcome& outcome : result.outcomes) {
    for (const net::Channel& channel : outcome.tree.channels) {
      capacity.commit_channel(channel.path);
    }
  }
  const graph::Graph& g = w.network.graph();
  BatchRouter router(w.network);
  BatchRouterTestPeer::begin_scope(router);
  for (const NodeId source : w.network.users()) {
    const std::size_t slot =
        BatchRouterTestPeer::tree_for(router, source, {}, capacity);
    ASSERT_TRUE(BatchRouterTestPeer::complete(router, slot));
    const graph::ShortestPaths scan = graph::dijkstra_scan(
        g, source,
        [&](graph::EdgeId e) { return w.network.edge_routing_weight(e); },
        [&](NodeId v) {
          return w.network.is_switch(v) && capacity.free_qubits(v) >= 2;
        });
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(BatchRouterTestPeer::dist(router, slot, v), scan.distance[v])
          << "source " << source << " node " << v;
      EXPECT_EQ(BatchRouterTestPeer::parent(router, slot, v),
                scan.parent_edge[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchOracle,
                         ::testing::Range<std::uint64_t>(1, 13));

/// Concurrent batches on separate threads reproduce the serial result:
/// the SPF thread context and the router's slab state are per-instance /
/// per-thread, so nothing leaks across.
TEST(BatchRouter, DeterministicAcrossThreadCounts) {
  const Workload w = make_workload(42);
  const auto requests = w.requests();
  BatchOptions options;
  options.policy = BatchPolicy::kGivenOrder;

  support::Rng serial_rng(7);
  BatchRouter serial_router(w.network);
  const BatchResult serial = serial_router.route(requests, options, serial_rng);

  for (int threads : {2, 4}) {
    std::vector<BatchResult> results(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        support::Rng rng(7);
        BatchRouter router(w.network);
        results[t] = router.route(requests, options, rng);
      });
    }
    for (auto& th : pool) th.join();
    for (const BatchResult& r : results) {
      ASSERT_EQ(r.outcomes.size(), serial.outcomes.size());
      EXPECT_EQ(r.served_product_rate, serial.served_product_rate);
      for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        EXPECT_EQ(r.outcomes[i].tree.rate, serial.outcomes[i].tree.rate);
        ASSERT_EQ(r.outcomes[i].tree.channels.size(),
                  serial.outcomes[i].tree.channels.size());
        for (std::size_t c = 0; c < r.outcomes[i].tree.channels.size(); ++c) {
          EXPECT_EQ(r.outcomes[i].tree.channels[c].path,
                    serial.outcomes[i].tree.channels[c].path);
        }
      }
    }
  }
}

/// Two 2-user groups whose only routes share one hub switch.
struct SharedHub {
  net::QuantumNetwork network;
  std::vector<NodeId> g1, g2;
};

SharedHub shared_hub(int hub_qubits) {
  net::NetworkBuilder b;
  const NodeId a0 = b.add_user({0, 0});
  const NodeId a1 = b.add_user({200, 0});
  const NodeId b0 = b.add_user({0, 200});
  const NodeId b1 = b.add_user({200, 200});
  const NodeId hub = b.add_switch({100, 100}, hub_qubits);
  for (NodeId u : {a0, a1, b0, b1}) b.connect_euclidean(u, hub);
  return {std::move(b).build({1e-4, 0.9}), {a0, a1}, {b0, b1}};
}

TEST(BatchRouter, EmptyAndSingletonGroups) {
  SharedHub fx = shared_hub(4);
  const std::vector<NodeId> solo{fx.g1[0]};
  const std::vector<NodeId> none;
  const std::vector<BatchRequest> requests{{none}, {solo}, {fx.g2}};
  for (BatchPolicy policy :
       {BatchPolicy::kGivenOrder, BatchPolicy::kSmallestFirst,
        BatchPolicy::kLargestFirst, BatchPolicy::kGreedy,
        BatchPolicy::kFairShare}) {
    support::Rng rng(9);
    BatchRouter router(fx.network);
    BatchOptions options;
    options.policy = policy;
    const BatchResult result = router.route(requests, options, rng);
    ASSERT_EQ(result.outcomes.size(), 3u) << batch_policy_name(policy);
    EXPECT_TRUE(result.all_served) << batch_policy_name(policy);
    for (const BatchGroupOutcome& outcome : result.outcomes) {
      EXPECT_TRUE(outcome.tree.feasible);
      if (outcome.request_index == 0 || outcome.request_index == 1) {
        // Empty and singleton groups: trivial tree, rate 1, no channels.
        EXPECT_TRUE(outcome.tree.channels.empty());
        EXPECT_DOUBLE_EQ(outcome.tree.rate, 1.0);
      }
    }
  }
}

TEST(BatchRouter, EmptyRequestListTriviallyServed) {
  SharedHub fx = shared_hub(4);
  support::Rng rng(10);
  BatchRouter router(fx.network);
  const BatchResult result = router.route({}, {}, rng);
  EXPECT_TRUE(result.all_served);
  EXPECT_EQ(result.groups_served, 0u);
  EXPECT_DOUBLE_EQ(result.served_product_rate, 1.0);
}

TEST(BatchRouter, SharedCapacityDeductsFromCallerPool) {
  SharedHub fx = shared_hub(4);
  net::CapacityState capacity(fx.network);
  const NodeId hub = fx.network.switches()[0];
  support::Rng rng(11);
  BatchRouter router(fx.network);
  const std::vector<BatchRequest> requests{{fx.g1}, {fx.g2}};
  const BatchResult result = router.route_shared(requests, {}, rng, capacity);
  EXPECT_TRUE(result.all_served);
  // Two channels through the hub: all 4 qubits pledged in the caller pool.
  EXPECT_EQ(capacity.free_qubits(hub), 0);
}

TEST(BatchRouter, ReleaseOnFailureLeavesNothingHeld) {
  SharedHub fx = shared_hub(2);  // one channel slot for two groups
  net::CapacityState capacity(fx.network);
  const NodeId hub = fx.network.switches()[0];
  support::Rng rng(12);
  BatchRouter router(fx.network);
  BatchOptions options;
  options.release_on_failure = true;
  const std::vector<BatchRequest> requests{{fx.g1}, {fx.g2}};
  const BatchResult result =
      router.route_shared(requests, options, rng, capacity);
  EXPECT_EQ(result.groups_served, 1u);
  // The served group holds the hub's 2 qubits; the failed group holds none.
  EXPECT_EQ(capacity.free_qubits(hub), 0);
  capacity.release_channel(result.outcomes[0].tree.channels[0].path);
  EXPECT_EQ(capacity.free_qubits(hub), 2);
}

TEST(BatchRouter, GreedyAdmitsCheapestFirst) {
  // Greedy on the hub with one slot: both pairs are symmetric, so exactly
  // one is served; with ample capacity both are.
  SharedHub tight = shared_hub(2);
  support::Rng r1(13);
  BatchRouter router1(tight.network);
  BatchOptions options;
  options.policy = BatchPolicy::kGreedy;
  const std::vector<BatchRequest> requests{{tight.g1}, {tight.g2}};
  const BatchResult starved = router1.route(requests, options, r1);
  EXPECT_EQ(starved.groups_served, 1u);

  SharedHub ample = shared_hub(4);
  support::Rng r2(13);
  BatchRouter router2(ample.network);
  const std::vector<BatchRequest> requests2{{ample.g1}, {ample.g2}};
  const BatchResult served = router2.route(requests2, options, r2);
  EXPECT_TRUE(served.all_served);
}

TEST(BatchRouter, GreedyPrefersShorterTree) {
  // One distant pair and one close pair contend for a single hub slot:
  // greedy admits the close (cheaper) pair regardless of request order.
  net::NetworkBuilder b;
  const NodeId far0 = b.add_user({0, 0});
  const NodeId far1 = b.add_user({4000, 0});
  const NodeId near0 = b.add_user({1990, 200});
  const NodeId near1 = b.add_user({2010, 200});
  const NodeId hub = b.add_switch({2000, 100}, 2);
  for (NodeId u : {far0, far1, near0, near1}) b.connect_euclidean(u, hub);
  const auto network = std::move(b).build({1e-4, 0.9});

  const std::vector<NodeId> far{far0, far1};
  const std::vector<NodeId> near{near0, near1};
  const std::vector<BatchRequest> requests{{far}, {near}};
  support::Rng rng(14);
  BatchRouter router(network);
  BatchOptions options;
  options.policy = BatchPolicy::kGreedy;
  const BatchResult result = router.route(requests, options, rng);
  EXPECT_EQ(result.groups_served, 1u);
  // Admission order: the near pair (request 1) first.
  EXPECT_EQ(result.outcomes[0].request_index, 1u);
  EXPECT_TRUE(result.outcomes[0].tree.feasible);
  EXPECT_FALSE(result.outcomes[1].tree.feasible);
}

TEST(BatchRouter, AdmitLatencySinkFilledPerGroup) {
  SharedHub fx = shared_hub(4);
  std::vector<double> admit_us;
  BatchOptions options;
  options.admit_us = &admit_us;
  support::Rng rng(15);
  BatchRouter router(fx.network);
  const std::vector<BatchRequest> requests{{fx.g1}, {fx.g2}};
  router.route(requests, options, rng);
  ASSERT_EQ(admit_us.size(), 2u);
  for (double us : admit_us) EXPECT_GE(us, 0.0);
}

TEST(BatchPolicyNames, RoundTrip) {
  for (BatchPolicy policy :
       {BatchPolicy::kGivenOrder, BatchPolicy::kSmallestFirst,
        BatchPolicy::kLargestFirst, BatchPolicy::kGreedy,
        BatchPolicy::kFairShare}) {
    BatchPolicy parsed;
    ASSERT_TRUE(parse_batch_policy(batch_policy_name(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  BatchPolicy unused = BatchPolicy::kGreedy;
  EXPECT_FALSE(parse_batch_policy("round-robin", &unused));
  EXPECT_EQ(unused, BatchPolicy::kGreedy);  // untouched on failure
}

// --- Router registry integration -----------------------------------------

TEST(RouterBatch, Alg4BatchMatchesKernel) {
  const Workload w = make_workload(77);
  const auto requests = w.requests();

  support::Rng r1(21);
  BatchRouter kernel(w.network);
  BatchOptions options;
  options.policy = BatchPolicy::kFairShare;
  const BatchResult direct = kernel.route(requests, options, r1);

  support::Rng r2(21);
  BatchRoutingRequest request;
  request.network = &w.network;
  request.groups = requests;
  request.batch = options;
  request.rng = &r2;
  const BatchResult via_router =
      RouterRegistry::instance().at("alg4").route_batch_trees(request);

  ASSERT_EQ(direct.outcomes.size(), via_router.outcomes.size());
  EXPECT_EQ(direct.served_product_rate, via_router.served_product_rate);
  for (std::size_t i = 0; i < direct.outcomes.size(); ++i) {
    EXPECT_EQ(direct.outcomes[i].tree.rate, via_router.outcomes[i].tree.rate);
    ASSERT_EQ(direct.outcomes[i].tree.channels.size(),
              via_router.outcomes[i].tree.channels.size());
    for (std::size_t c = 0; c < direct.outcomes[i].tree.channels.size(); ++c) {
      EXPECT_EQ(direct.outcomes[i].tree.channels[c].path,
                via_router.outcomes[i].tree.channels[c].path);
    }
  }
}

TEST(RouterBatch, GenericPassRespectsCapacity) {
  const Workload w = make_workload(78);
  const auto requests = w.requests();
  for (const char* name : {"alg3", "eqcast"}) {
    support::Rng rng(22);
    net::CapacityState capacity(w.network);
    BatchRoutingRequest request;
    request.network = &w.network;
    request.groups = requests;
    request.rng = &rng;
    request.capacity = &capacity;
    const BatchResult result =
        RouterRegistry::instance().at(name).route_batch_trees(request);
    ASSERT_EQ(result.outcomes.size(), requests.size()) << name;
    // Combined commits never exceed any switch budget.
    std::vector<int> used(w.network.node_count(), 0);
    for (const auto& outcome : result.outcomes) {
      if (!outcome.tree.feasible) continue;
      for (const auto& ch : outcome.tree.channels) {
        for (std::size_t i = 1; i + 1 < ch.path.size(); ++i) {
          used[ch.path[i]] += 2;
        }
      }
    }
    for (NodeId sw : w.network.switches()) {
      EXPECT_LE(used[sw], w.network.qubits(sw)) << name << " switch " << sw;
      EXPECT_EQ(capacity.free_qubits(sw), w.network.qubits(sw) - used[sw]);
    }
  }
}

TEST(RouterBatch, GenericGreedyOrdersByProbeCost) {
  const Workload w = make_workload(79);
  const auto requests = w.requests();
  support::Rng rng(23);
  BatchRoutingRequest request;
  request.network = &w.network;
  request.groups = requests;
  request.batch.policy = BatchPolicy::kGreedy;
  request.rng = &rng;
  const BatchResult result =
      RouterRegistry::instance().at("eqcast").route_batch_trees(request);
  ASSERT_EQ(result.outcomes.size(), requests.size());
  // Outcomes form a permutation of the request indices.
  std::vector<bool> seen(requests.size(), false);
  for (const auto& outcome : result.outcomes) {
    ASSERT_LT(outcome.request_index, requests.size());
    EXPECT_FALSE(seen[outcome.request_index]);
    seen[outcome.request_index] = true;
  }
}

TEST(RouterBatch, GenericFairShareThrows) {
  const Workload w = make_workload(80);
  const auto requests = w.requests();
  support::Rng rng(24);
  BatchRoutingRequest request;
  request.network = &w.network;
  request.groups = requests;
  request.batch.policy = BatchPolicy::kFairShare;
  request.rng = &rng;
  EXPECT_THROW(
      RouterRegistry::instance().at("eqcast").route_batch_trees(request),
      std::invalid_argument);
}

TEST(RouterBatch, NullNetworkThrows) {
  BatchRoutingRequest request;
  EXPECT_THROW(
      RouterRegistry::instance().at("alg4").route_batch_trees(request),
      std::invalid_argument);
}

TEST(RouterBatch, RouteBatchReportsElapsed) {
  const Workload w = make_workload(81);
  const auto requests = w.requests();
  support::Rng rng(25);
  BatchRoutingRequest request;
  request.network = &w.network;
  request.groups = requests;
  request.rng = &rng;
  const BatchRoutingOutcome outcome =
      RouterRegistry::instance().at("alg4").route_batch(request);
  EXPECT_EQ(outcome.result.outcomes.size(), requests.size());
  EXPECT_GE(outcome.elapsed_ms, 0.0);
}

// --- Slab cache under the Def. 2 leaf rule ---------------------------------

/// A leaf-rich random network: 40 switches with 1–4 qubits (so some never
/// relay), 10 users on 1–2 switches each, and one isolated user that no
/// search reaches — a tree whose pending set holds it runs to the end.
struct LeafNet {
  net::QuantumNetwork network;
  std::vector<NodeId> users;  // connected users, ascending
  NodeId isolated = 0;
};

LeafNet leaf_net(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 1000.0);
  net::NetworkBuilder b;
  std::vector<NodeId> switches;
  for (int i = 0; i < 40; ++i) {
    const NodeId s =
        b.add_switch({coord(rng), coord(rng)}, 1 + static_cast<int>(rng() % 4));
    std::set<NodeId> peers;
    for (int k = 0; k < 3 && k < static_cast<int>(switches.size()); ++k) {
      peers.insert(switches[rng() % switches.size()]);
    }
    for (const NodeId peer : peers) b.connect_euclidean(s, peer);
    switches.push_back(s);
  }
  std::vector<NodeId> users;
  for (int i = 0; i < 10; ++i) {
    const NodeId u = b.add_user({coord(rng), coord(rng)});
    std::set<NodeId> peers{switches[rng() % switches.size()],
                           switches[rng() % switches.size()]};
    for (const NodeId peer : peers) b.connect_euclidean(u, peer);
    users.push_back(u);
  }
  const NodeId isolated = b.add_user({coord(rng), coord(rng)});
  return {std::move(b).build({1e-4, 0.9}), users, isolated};
}

/// The legacy oracle's full run under the Def. 2 relay gate.
graph::ShortestPaths legacy_tree(const net::QuantumNetwork& network,
                                 const net::CapacityState& capacity,
                                 NodeId source) {
  return graph::dijkstra_legacy(
      network.graph(), source,
      [&](graph::EdgeId e) { return network.edge_routing_weight(e); },
      [&](graph::NodeId v) {
        return network.is_switch(v) && capacity.free_qubits(v) >= 2;
      });
}

/// Leaves hold only dist and parent, never a frontier slot; a complete slab
/// must still hold the full run's answer at every node — non-pending users
/// and relay-less switches included.
TEST(BatchRouterSlab, CompleteSlabMatchesLegacyAtEveryNode) {
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    const LeafNet fx = leaf_net(seed);
    const graph::Graph& g = fx.network.graph();
    net::CapacityState capacity(fx.network);
    BatchRouter router(fx.network);
    BatchRouterTestPeer::begin_scope(router);
    for (std::size_t i = 0; i + 1 < fx.users.size(); i += 2) {
      const NodeId source = fx.users[i];
      std::vector<NodeId> pending{fx.users[i + 1], fx.isolated};
      std::sort(pending.begin(), pending.end());
      const std::size_t slot =
          BatchRouterTestPeer::tree_for(router, source, pending, capacity);
      ASSERT_TRUE(BatchRouterTestPeer::complete(router, slot));
      const graph::ShortestPaths legacy =
          legacy_tree(fx.network, capacity, source);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(BatchRouterTestPeer::dist(router, slot, v),
                  legacy.distance[v])
            << "seed " << seed << " source " << source << " node " << v;
        EXPECT_EQ(BatchRouterTestPeer::parent(router, slot, v),
                  legacy.parent_edge[v]);
      }
    }
  }
}

/// Commits synthetic channels (a, s, b) until `s` can no longer relay.
void drain(net::CapacityState& capacity, NodeId s, NodeId a, NodeId b) {
  const std::vector<NodeId> path{a, s, b};
  while (capacity.free_qubits(s) >= 2) capacity.commit_channel(path);
}

/// An early-exit slab keeps only its settled prefix. Reused for a subset of
/// its targets after relay losses (on or off its paths) and relay gains
/// (switches that were leaves when it was built), it must answer exactly
/// like a tree rebuilt from scratch.
TEST(BatchRouterSlab, IncompleteSlabReusedAfterRelayFlipsMatchesRebuild) {
  std::size_t reused = 0;
  std::size_t rebuilt = 0;
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    const LeafNet fx = leaf_net(seed);
    net::CapacityState capacity(fx.network);
    const NodeId a = fx.users[1];
    const NodeId b = fx.users[2];
    // Every other relaying switch starts drained, so the flips below are
    // gains as well as losses.
    std::vector<NodeId> to_drain;
    std::vector<NodeId> to_release;
    for (const NodeId s : fx.network.switches()) {
      if (capacity.free_qubits(s) < 2) continue;
      if (to_release.size() == to_drain.size()) {
        drain(capacity, s, a, b);
        to_release.push_back(s);
      } else {
        to_drain.push_back(s);
      }
    }

    const NodeId source = fx.users[0];
    const graph::ShortestPaths initial =
        legacy_tree(fx.network, capacity, source);
    std::vector<NodeId> pending;
    for (const NodeId u : fx.users) {
      if (u != source && initial.distance[u] < kInfinity) pending.push_back(u);
    }
    if (pending.size() < 2) continue;
    const std::vector<NodeId> subset(pending.begin() + 1, pending.end());

    BatchRouter router(fx.network);
    BatchRouterTestPeer::begin_scope(router);
    const std::size_t slot =
        BatchRouterTestPeer::tree_for(router, source, pending, capacity);
    ASSERT_FALSE(BatchRouterTestPeer::complete(router, slot));

    const std::size_t flips = 2 * std::max(to_drain.size(), to_release.size());
    for (std::size_t k = 0; k < flips; ++k) {
      if (k % 2 == 0 && k / 2 < to_release.size()) {
        const std::vector<NodeId> path{a, to_release[k / 2], b};
        capacity.release_channel(path);  // a gain
      } else if (k % 2 == 1 && k / 2 < to_drain.size()) {
        drain(capacity, to_drain[k / 2], a, b);  // a loss
      } else {
        continue;
      }

      const std::size_t reuse =
          BatchRouterTestPeer::tree_for(router, source, subset, capacity);
      // A rebuild records `subset` as the slab's targets; a reuse keeps
      // the build-time `pending`.
      const bool was_reused =
          BatchRouterTestPeer::targets(router, reuse) == pending;
      (was_reused ? reused : rebuilt) += 1;

      BatchRouter fresh(fx.network);
      BatchRouterTestPeer::begin_scope(fresh);
      const std::size_t truth =
          BatchRouterTestPeer::tree_for(fresh, source, subset, capacity);
      for (const NodeId u : subset) {
        const double d = BatchRouterTestPeer::dist(fresh, truth, u);
        ASSERT_EQ(BatchRouterTestPeer::dist(router, reuse, u), d)
            << "seed " << seed << " flip " << k << " user " << u;
        if (d < kInfinity) {
          EXPECT_EQ(BatchRouterTestPeer::path(router, reuse, source, u),
                    BatchRouterTestPeer::path(fresh, truth, source, u));
        }
      }
      if (!was_reused) {
        // Start over from an early-exit slab for all of `pending`.
        BatchRouterTestPeer::begin_scope(router);
        const std::size_t again =
            BatchRouterTestPeer::tree_for(router, source, pending, capacity);
        if (BatchRouterTestPeer::complete(router, again)) break;
      }
    }
  }
  EXPECT_GT(reused, 0u);
  EXPECT_GT(rebuilt, 0u);
}

// --- ResidualNetworkView ---------------------------------------------------

TEST(ResidualNetworkView, SyncTracksCapacity) {
  SharedHub fx = shared_hub(4);
  const NodeId hub = fx.network.switches()[0];
  net::ResidualNetworkView view(fx.network);
  net::CapacityState capacity(fx.network);
  EXPECT_EQ(view.sync(capacity).qubits(hub), 4);

  const std::vector<NodeId> path{fx.g1[0], hub, fx.g1[1]};
  capacity.commit_channel(path);
  EXPECT_EQ(view.sync(capacity).qubits(hub), 2);
  capacity.release_channel(path);
  EXPECT_EQ(view.sync(capacity).qubits(hub), 4);
  // The view shares the base topology version, so SPF CSR caches persist.
  EXPECT_EQ(view.network().graph().topology_version(),
            fx.network.graph().topology_version());
}

}  // namespace
}  // namespace muerp::routing
