#include "routing/multipath.hpp"

#include <cassert>
#include <cmath>

#include "routing/channel_finder.hpp"

namespace muerp::routing {

double bundle_success(std::span<const net::Channel> channels) noexcept {
  // log(1 - P_edge) = sum log(1 - P_i); computed with log1p for accuracy
  // when individual rates are tiny.
  double log_all_fail = 0.0;
  for (const net::Channel& ch : channels) {
    if (ch.rate >= 1.0) return 1.0;
    log_all_fail += std::log1p(-ch.rate);
  }
  return -std::expm1(log_all_fail);
}

MultipathPlan provision_multipath(const net::QuantumNetwork& network,
                                  const net::EntanglementTree& tree,
                                  const MultipathOptions& options) {
  MultipathPlan plan;
  if (!tree.feasible) return plan;  // infeasible in, infeasible (rate 0) out
  plan.feasible = true;
  plan.bundles.resize(tree.channels.size());

  net::CapacityState capacity(network);
  for (std::size_t i = 0; i < tree.channels.size(); ++i) {
    capacity.commit_channel(tree.channels[i].path);
    plan.bundles[i].channels.push_back(tree.channels[i]);
    plan.bundles[i].bundle_rate = tree.channels[i].rate;
  }

  CachedChannelFinder finder(network);
  // Greedy marginal-gain loop: each iteration adds the single redundant
  // channel (over all edges) with the largest ln(rate) improvement.
  while (true) {
    double best_gain = 0.0;
    std::size_t best_edge = plan.bundles.size();
    std::optional<net::Channel> best_channel;

    for (std::size_t i = 0; i < plan.bundles.size(); ++i) {
      ChannelBundle& bundle = plan.bundles[i];
      if (bundle.channels.size() > options.max_redundancy) continue;
      const net::Channel& primary = bundle.channels.front();
      auto candidate = finder.find_best_channel(
          primary.source(), primary.destination(), capacity);
      if (!candidate) continue;
      // Gain in log space: log(new bundle rate) - log(old bundle rate).
      std::vector<net::Channel> with_candidate = bundle.channels;
      with_candidate.push_back(*candidate);
      const double boosted = bundle_success(with_candidate);
      const double gain =
          std::log(boosted) - std::log(bundle.bundle_rate);
      if (gain > best_gain + 1e-15) {
        best_gain = gain;
        best_edge = i;
        best_channel = std::move(candidate);
      }
    }

    if (!best_channel) break;  // no edge can improve
    capacity.commit_channel(best_channel->path);
    ChannelBundle& bundle = plan.bundles[best_edge];
    bundle.channels.push_back(std::move(*best_channel));
    bundle.bundle_rate = bundle_success(bundle.channels);
    ++plan.redundant_channels;
  }

  plan.rate = 1.0;
  for (const ChannelBundle& bundle : plan.bundles) {
    plan.rate *= bundle.bundle_rate;
  }
  return plan;
}

}  // namespace muerp::routing
