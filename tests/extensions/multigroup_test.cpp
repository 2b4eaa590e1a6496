#include "extensions/multigroup.hpp"

#include <gtest/gtest.h>

#include "network/channel.hpp"
#include "network/network_builder.hpp"
#include "oracles/multigroup_reference.hpp"
#include "support/rng.hpp"
#include "topology/waxman.hpp"

namespace muerp::ext {
namespace {

using net::NodeId;

/// Two 2-user groups whose only routes share one hub switch.
struct SharedHub {
  net::QuantumNetwork net;
  GroupRequest g1, g2;
};

SharedHub shared_hub(int hub_qubits) {
  net::NetworkBuilder b;
  const NodeId a0 = b.add_user({0, 0});
  const NodeId a1 = b.add_user({200, 0});
  const NodeId b0 = b.add_user({0, 200});
  const NodeId b1 = b.add_user({200, 200});
  const NodeId hub = b.add_switch({100, 100}, hub_qubits);
  for (NodeId u : {a0, a1, b0, b1}) b.connect_euclidean(u, hub);
  SharedHub fixture{std::move(b).build({1e-4, 0.9}), {}, {}};
  fixture.g1.users = {a0, a1};
  fixture.g2.users = {b0, b1};
  return fixture;
}

TEST(MultiGroup, BothServedWithAmpleCapacity) {
  auto fx = shared_hub(4);  // 2 channels fit
  support::Rng rng(1);
  const std::vector<GroupRequest> groups{fx.g1, fx.g2};
  const auto result =
      route_groups(fx.net, groups, GroupOrder::kGivenOrder, rng);
  EXPECT_TRUE(result.all_served);
  EXPECT_EQ(result.groups_served, 2u);
  ASSERT_EQ(result.outcomes.size(), 2u);
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.tree.feasible);
    EXPECT_GT(outcome.tree.rate, 0.0);
  }
  EXPECT_GT(result.served_product_rate, 0.0);
  EXPECT_LT(result.served_product_rate, 1.0);
}

TEST(MultiGroup, CapacityContentionDropsSecondGroup) {
  auto fx = shared_hub(2);  // only 1 channel fits
  support::Rng rng(2);
  const std::vector<GroupRequest> groups{fx.g1, fx.g2};
  const auto result =
      route_groups(fx.net, groups, GroupOrder::kGivenOrder, rng);
  EXPECT_FALSE(result.all_served);
  EXPECT_EQ(result.groups_served, 1u);
  EXPECT_TRUE(result.outcomes[0].tree.feasible);   // admitted first
  EXPECT_FALSE(result.outcomes[1].tree.feasible);  // starved
}

TEST(MultiGroup, GivenOrderRespectsRequestSequence) {
  auto fx = shared_hub(2);
  support::Rng rng(3);
  // Swap the order: now g2 gets the hub.
  const std::vector<GroupRequest> groups{fx.g2, fx.g1};
  const auto result =
      route_groups(fx.net, groups, GroupOrder::kGivenOrder, rng);
  EXPECT_EQ(result.outcomes[0].request_index, 0u);
  EXPECT_TRUE(result.outcomes[0].tree.feasible);
  EXPECT_FALSE(result.outcomes[1].tree.feasible);
}

TEST(MultiGroup, SmallestFirstAdmitsSmallGroupFirst) {
  // A 3-user group and a 2-user group contending for a Q=4 hub: smallest-
  // first serves the pair before the triple.
  net::NetworkBuilder b;
  const NodeId a0 = b.add_user({0, 0});
  const NodeId a1 = b.add_user({200, 0});
  const NodeId a2 = b.add_user({100, 170});
  const NodeId c0 = b.add_user({0, 300});
  const NodeId c1 = b.add_user({200, 300});
  const NodeId hub = b.add_switch({100, 100}, 4);
  for (NodeId u : {a0, a1, a2, c0, c1}) b.connect_euclidean(u, hub);
  const auto net = std::move(b).build({1e-4, 0.9});

  GroupRequest triple;
  triple.users = {a0, a1, a2};
  GroupRequest pair;
  pair.users = {c0, c1};
  const std::vector<GroupRequest> groups{triple, pair};

  support::Rng rng(4);
  const auto smallest =
      route_groups(net, groups, GroupOrder::kSmallestFirst, rng);
  // Pair (index 1) admitted first and served; triple needs 2 channels but
  // only 1 hub slot remains.
  EXPECT_EQ(smallest.outcomes[0].request_index, 1u);
  EXPECT_TRUE(smallest.outcomes[0].tree.feasible);
  EXPECT_FALSE(smallest.outcomes[1].tree.feasible);

  support::Rng rng2(4);
  const auto largest =
      route_groups(net, groups, GroupOrder::kLargestFirst, rng2);
  EXPECT_EQ(largest.outcomes[0].request_index, 0u);
  EXPECT_TRUE(largest.outcomes[0].tree.feasible);
  EXPECT_FALSE(largest.outcomes[1].tree.feasible);
}

TEST(MultiGroup, EmptyRequestListTriviallyServed) {
  auto fx = shared_hub(4);
  support::Rng rng(5);
  const auto result = route_groups(fx.net, {}, GroupOrder::kGivenOrder, rng);
  EXPECT_TRUE(result.all_served);
  EXPECT_EQ(result.groups_served, 0u);
  EXPECT_DOUBLE_EQ(result.served_product_rate, 1.0);
}

TEST(MultiGroup, SingletonGroupAlwaysServed) {
  auto fx = shared_hub(2);
  GroupRequest solo;
  solo.users = {fx.g1.users[0]};
  support::Rng rng(6);
  const std::vector<GroupRequest> groups{solo};
  const auto result =
      route_groups(fx.net, groups, GroupOrder::kGivenOrder, rng);
  EXPECT_TRUE(result.all_served);
  EXPECT_DOUBLE_EQ(result.outcomes[0].tree.rate, 1.0);
}

TEST(MultiGroup, OrderNames) {
  EXPECT_STREQ(group_order_name(GroupOrder::kGivenOrder), "given-order");
  EXPECT_STREQ(group_order_name(GroupOrder::kSmallestFirst), "smallest-first");
  EXPECT_STREQ(group_order_name(GroupOrder::kLargestFirst), "largest-first");
}

TEST(MultiGroupInterleaved, BothServedWithAmpleCapacity) {
  auto fx = shared_hub(4);
  support::Rng rng(11);
  const std::vector<GroupRequest> groups{fx.g1, fx.g2};
  const auto result = route_groups_interleaved(fx.net, groups, rng);
  EXPECT_TRUE(result.all_served);
  EXPECT_EQ(result.groups_served, 2u);
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.tree.feasible);
  }
}

TEST(MultiGroupInterleaved, ContentionDropsOneGroup) {
  auto fx = shared_hub(2);  // one channel slot for two groups
  support::Rng rng(12);
  const std::vector<GroupRequest> groups{fx.g1, fx.g2};
  const auto result = route_groups_interleaved(fx.net, groups, rng);
  EXPECT_EQ(result.groups_served, 1u);
  EXPECT_FALSE(result.all_served);
}

TEST(MultiGroupInterleaved, SingletonAndEmptyGroups) {
  auto fx = shared_hub(4);
  GroupRequest solo;
  solo.users = {fx.g1.users[0]};
  GroupRequest empty;
  support::Rng rng(13);
  const std::vector<GroupRequest> groups{solo, empty};
  const auto result = route_groups_interleaved(fx.net, groups, rng);
  EXPECT_TRUE(result.all_served);
  EXPECT_EQ(result.groups_served, 2u);
}

TEST(MultiGroupInterleaved, FairnessVersusSequentialOnAsymmetricLoad) {
  // A big group and a small group contend for a hub that can serve both
  // only partially. Interleaving cannot serve fewer groups than sequential
  // can here, and its min served rate is defined (sanity of the metric).
  auto fx = shared_hub(4);
  support::Rng r1(14);
  support::Rng r2(14);
  const std::vector<GroupRequest> groups{fx.g1, fx.g2};
  const auto sequential =
      route_groups(fx.net, groups, GroupOrder::kGivenOrder, r1);
  const auto interleaved = route_groups_interleaved(fx.net, groups, r2);
  EXPECT_EQ(interleaved.groups_served, sequential.groups_served);
  if (interleaved.groups_served > 0) {
    EXPECT_GT(min_served_rate(interleaved), 0.0);
    EXPECT_LE(min_served_rate(interleaved), 1.0);
  }
}

TEST(MultiGroupInterleaved, LongChainSurvivesRateUnderflow) {
  // Regression: two users joined only by a chain so lossy that the Eq. (1)
  // rate underflows to exactly 0.0. The interleaved scheduler used to
  // select candidates by `rate > best.rate` with best.rate initialized to
  // 0.0 — an underflowed (but real) channel never beat the "no channel"
  // sentinel and the group failed spuriously. Selection now compares
  // neg_log_rate (finite for any found channel, +inf for none), matching
  // the sequential path's underflow fix.
  net::NetworkBuilder b;
  const NodeId u0 = b.add_user({0, 0});
  const NodeId u1 = b.add_user({100, 0});
  NodeId prev = u0;
  for (int i = 0; i < 20; ++i) {
    const NodeId sw = b.add_switch({10.0 * (i + 1), 0}, 2);
    b.connect(prev, sw, 5.0e5);  // 500k km per hop: alpha*L = 50 per edge
    prev = sw;
  }
  b.connect(prev, u1, 5.0e5);
  const auto network = std::move(b).build({1e-4, 0.9});

  GroupRequest pair;
  pair.users = {u0, u1};
  const std::vector<GroupRequest> groups{pair};

  support::Rng r1(21);
  const auto reference =
      route_groups_interleaved_reference(network, groups, r1);
  EXPECT_TRUE(reference.outcomes[0].tree.feasible);
  EXPECT_EQ(reference.groups_served, 1u);
  EXPECT_EQ(reference.outcomes[0].tree.rate, 0.0);  // underflowed, yet served

  support::Rng r2(21);
  const auto batched = route_groups_interleaved(network, groups, r2);
  EXPECT_TRUE(batched.outcomes[0].tree.feasible);
  EXPECT_EQ(batched.groups_served, 1u);
  EXPECT_EQ(batched.outcomes[0].tree.rate, 0.0);

  // The sequential path (fixed in an earlier change) agrees.
  support::Rng r3(21);
  const auto sequential =
      route_groups(network, groups, GroupOrder::kGivenOrder, r3);
  EXPECT_TRUE(sequential.outcomes[0].tree.feasible);
}

TEST(MultiGroupInterleaved, MinServedRateMatchesOutcomes) {
  auto fx = shared_hub(4);
  support::Rng rng(15);
  const std::vector<GroupRequest> groups{fx.g1, fx.g2};
  const auto result = route_groups_interleaved(fx.net, groups, rng);
  double expected = 1.0;
  for (const auto& outcome : result.outcomes) {
    if (outcome.tree.feasible) {
      expected = std::min(expected, outcome.tree.rate);
    }
  }
  EXPECT_DOUBLE_EQ(min_served_rate(result), expected);
}

/// Property: interleaved routing also never over-commits combined capacity.
class MultiGroupInterleavedProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiGroupInterleavedProperty, CombinedCapacityRespected) {
  support::Rng rng(GetParam() + 300);
  topology::WaxmanParams params;
  params.node_count = 40;
  auto topo = topology::generate_waxman(params, rng);
  const auto net =
      net::assign_random_users(std::move(topo), 9, 4, {1e-4, 0.9}, rng);
  std::vector<GroupRequest> groups(3);
  for (std::size_t i = 0; i < 9; ++i) {
    groups[i % 3].users.push_back(net.users()[i]);
  }
  const auto result = route_groups_interleaved(net, groups, rng);
  std::vector<int> used(net.node_count(), 0);
  for (const auto& outcome : result.outcomes) {
    if (outcome.tree.feasible) {
      const auto& users = groups[outcome.request_index].users;
      EXPECT_EQ(net::validate_tree(net, users, outcome.tree), "");
    }
    for (const auto& ch : outcome.tree.channels) {
      for (std::size_t i = 1; i + 1 < ch.path.size(); ++i) {
        used[ch.path[i]] += 2;
      }
    }
  }
  for (net::NodeId sw : net.switches()) {
    EXPECT_LE(used[sw], net.qubits(sw));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiGroupInterleavedProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

/// Property: on random networks, served trees are valid and capacity is
/// never over-committed across groups combined.
class MultiGroupProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiGroupProperty, CombinedCapacityRespected) {
  support::Rng rng(GetParam());
  topology::WaxmanParams params;
  params.node_count = 40;
  auto topo = topology::generate_waxman(params, rng);
  const auto net =
      net::assign_random_users(std::move(topo), 8, 4, {1e-4, 0.9}, rng);

  // Split the 8 users into two disjoint groups of 4.
  GroupRequest g1;
  GroupRequest g2;
  for (std::size_t i = 0; i < 8; ++i) {
    (i < 4 ? g1 : g2).users.push_back(net.users()[i]);
  }
  const std::vector<GroupRequest> groups{g1, g2};
  const auto result =
      route_groups(net, groups, GroupOrder::kGivenOrder, rng);

  // Per-group validity.
  for (const auto& outcome : result.outcomes) {
    if (outcome.tree.feasible) {
      const auto& users = groups[outcome.request_index].users;
      EXPECT_EQ(net::validate_tree(net, users, outcome.tree), "");
    }
  }
  // Combined capacity: sum of per-switch channel relays across all groups.
  std::vector<int> used(net.node_count(), 0);
  for (const auto& outcome : result.outcomes) {
    for (const auto& ch : outcome.tree.channels) {
      for (std::size_t i = 1; i + 1 < ch.path.size(); ++i) {
        used[ch.path[i]] += 2;
      }
    }
  }
  for (net::NodeId sw : net.switches()) {
    EXPECT_LE(used[sw], net.qubits(sw)) << "switch " << sw;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiGroupProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace muerp::ext
