#include "oracles/multigroup_reference.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "network/channel.hpp"
#include "routing/channel_finder.hpp"
#include "routing/plan.hpp"
#include "routing/prim_based.hpp"

namespace muerp::ext {

MultiGroupResult route_groups_reference(const net::QuantumNetwork& network,
                                        std::span<const GroupRequest> groups,
                                        GroupOrder order, support::Rng& rng) {
  std::vector<std::size_t> admission(groups.size());
  std::iota(admission.begin(), admission.end(), std::size_t{0});
  switch (order) {
    case GroupOrder::kGivenOrder:
      break;
    case GroupOrder::kSmallestFirst:
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return groups[l].users.size() < groups[r].users.size();
                       });
      break;
    case GroupOrder::kLargestFirst:
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return groups[l].users.size() > groups[r].users.size();
                       });
      break;
  }

  MultiGroupResult result;
  net::CapacityState capacity(network);
  for (std::size_t idx : admission) {
    const GroupRequest& group = groups[idx];
    GroupOutcome outcome;
    outcome.request_index = idx;
    if (group.users.empty()) {
      outcome.tree = net::EntanglementTree{{}, 1.0, true};
    } else {
      const auto seed =
          static_cast<std::size_t>(rng.uniform_index(group.users.size()));
      // Shared capacity: this group's channels deduct from the same pool the
      // earlier groups drew from. A failed group may leave partial
      // deductions behind — deliberate: in the offline §II-B process those
      // qubits were already promised before the failure was discovered.
      outcome.tree = routing::prim_based_shared(network, group.users, seed,
                                                capacity);
    }
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    result.outcomes.push_back(std::move(outcome));
  }
  result.all_served = result.groups_served == groups.size();
  if (result.groups_served == 0) result.served_product_rate = 1.0;
  return result;
}

namespace {

/// Per-group growth state for the interleaved scheduler.
struct GrowingGroup {
  std::size_t request_index = 0;
  std::vector<net::NodeId> connected;            // U1
  std::unordered_set<net::NodeId> pending;       // U2
  std::vector<net::Channel> committed;
  bool failed = false;

  bool finished() const { return pending.empty() || failed; }
};

}  // namespace

MultiGroupResult route_groups_interleaved_reference(
    const net::QuantumNetwork& network, std::span<const GroupRequest> groups,
    support::Rng& rng) {
  MultiGroupResult result;
  net::CapacityState capacity(network);
  const routing::ChannelFinder finder(network);

  std::vector<GrowingGroup> growing;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    GrowingGroup state;
    state.request_index = g;
    const auto& users = groups[g].users;
    if (!users.empty()) {
      const auto seed =
          static_cast<std::size_t>(rng.uniform_index(users.size()));
      state.connected.push_back(users[seed]);
      for (std::size_t i = 0; i < users.size(); ++i) {
        if (i != seed) state.pending.insert(users[i]);
      }
    }
    growing.push_back(std::move(state));
  }

  // Rounds: each unfinished group commits its single best channel in turn.
  // Candidates compare on neg_log_rate (finite for every found channel,
  // infinity for the default-constructed "none yet"): an extremely lossy
  // channel whose Eq. (1) rate underflowed to 0 still beats "no channel",
  // so long chains stay feasible.
  bool any_unfinished = true;
  while (any_unfinished) {
    any_unfinished = false;
    for (GrowingGroup& group : growing) {
      if (group.finished()) continue;
      net::Channel best;
      for (net::NodeId source : group.connected) {
        for (net::Channel& candidate :
             finder.find_best_channels(source, capacity)) {
          if (!group.pending.contains(candidate.destination())) continue;
          if (candidate.neg_log_rate < best.neg_log_rate) {
            best = std::move(candidate);
          }
        }
      }
      if (std::isinf(best.neg_log_rate)) {
        group.failed = true;
        continue;
      }
      capacity.commit_channel(best.path);
      group.pending.erase(best.destination());
      group.connected.push_back(best.destination());
      group.committed.push_back(std::move(best));
      if (!group.finished()) any_unfinished = true;
    }
  }

  for (GrowingGroup& group : growing) {
    GroupOutcome outcome;
    outcome.request_index = group.request_index;
    outcome.tree =
        routing::make_tree(std::move(group.committed), !group.failed);
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    result.outcomes.push_back(std::move(outcome));
  }
  result.all_served = result.groups_served == groups.size();
  if (result.groups_served == 0) result.served_product_rate = 1.0;
  return result;
}

}  // namespace muerp::ext
