#include "extensions/multigroup.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "routing/batch_router.hpp"

namespace muerp::ext {

const char* group_order_name(GroupOrder order) noexcept {
  switch (order) {
    case GroupOrder::kGivenOrder:
      return "given-order";
    case GroupOrder::kSmallestFirst:
      return "smallest-first";
    case GroupOrder::kLargestFirst:
      return "largest-first";
  }
  return "?";
}

namespace {

#ifndef NDEBUG
void assert_disjoint(const net::QuantumNetwork& network,
                     std::span<const GroupRequest> groups) {
  std::unordered_set<net::NodeId> seen;
  for (const GroupRequest& g : groups) {
    for (net::NodeId u : g.users) {
      assert(network.is_user(u));
      assert(seen.insert(u).second && "groups must be disjoint");
    }
  }
}
#endif

routing::BatchPolicy to_batch_policy(GroupOrder order) noexcept {
  switch (order) {
    case GroupOrder::kSmallestFirst:
      return routing::BatchPolicy::kSmallestFirst;
    case GroupOrder::kLargestFirst:
      return routing::BatchPolicy::kLargestFirst;
    case GroupOrder::kGivenOrder:
      break;
  }
  return routing::BatchPolicy::kGivenOrder;
}

/// Routes `groups` through the batch kernel under `policy` and repackages
/// the result in the extension-layer shape (the structs are field-for-field
/// mirrors; only the namespaces differ).
MultiGroupResult route_batched(const net::QuantumNetwork& network,
                               std::span<const GroupRequest> groups,
                               routing::BatchPolicy policy,
                               support::Rng& rng) {
  std::vector<routing::BatchRequest> requests;
  requests.reserve(groups.size());
  for (const GroupRequest& group : groups) {
    requests.push_back({std::span<const net::NodeId>(group.users)});
  }
  routing::BatchRouter router(network);
  routing::BatchOptions options;
  options.policy = policy;
  routing::BatchResult batch = router.route(requests, options, rng);

  MultiGroupResult result;
  result.outcomes.reserve(batch.outcomes.size());
  for (routing::BatchGroupOutcome& outcome : batch.outcomes) {
    result.outcomes.push_back(
        {outcome.request_index, std::move(outcome.tree)});
  }
  result.groups_served = batch.groups_served;
  result.served_product_rate = batch.served_product_rate;
  result.all_served = batch.all_served;
  return result;
}

}  // namespace

MultiGroupResult route_groups(const net::QuantumNetwork& network,
                              std::span<const GroupRequest> groups,
                              GroupOrder order, support::Rng& rng) {
#ifndef NDEBUG
  assert_disjoint(network, groups);
#endif
  return route_batched(network, groups, to_batch_policy(order), rng);
}

MultiGroupResult route_groups_interleaved(const net::QuantumNetwork& network,
                                          std::span<const GroupRequest> groups,
                                          support::Rng& rng) {
  return route_batched(network, groups, routing::BatchPolicy::kFairShare,
                       rng);
}

double min_served_rate(const MultiGroupResult& result) {
  double min_rate = 1.0;
  for (const GroupOutcome& outcome : result.outcomes) {
    if (outcome.tree.feasible) min_rate = std::min(min_rate, outcome.tree.rate);
  }
  return min_rate;
}

}  // namespace muerp::ext
