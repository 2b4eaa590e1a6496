// Test-side reference for SessionService: the per-arrival admission loop the
// service ran before every arrival went through the batch routing kernel.
//
// One Bernoulli arrival per slot, routed on its own:
//   * built-in admission ("" algorithm): draw the seed user, then
//     routing::prim_based_shared against the live capacity, rolling a
//     failed tree's partial commits back;
//   * a registry algorithm: rebuild the residual QuantumNetwork from scratch
//     (switch budgets = qubits currently free), route_tree on it, refuse a
//     tree that does not fit the free qubits, then commit. No seed draw —
//     the registry path draws only what the router itself draws.
// Execution windows and timeouts follow the service step for step, so the
// per-slot SlotReports, the metrics and the Rng stream are comparable
// bitwise against SessionService at arrival_burst 1.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "network/channel.hpp"
#include "network/quantum_network.hpp"
#include "routing/plan.hpp"
#include "routing/prim_based.hpp"
#include "routing/router.hpp"
#include "simulation/protocol.hpp"
#include "simulation/session_service.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace muerp::sim::reference {

class ReferenceSessionLoop {
 public:
  ReferenceSessionLoop(const net::QuantumNetwork& network,
                       ProtocolParams params, const std::string& algorithm,
                       routing::RouterOptions options, support::Rng& rng)
      : network_(&network),
        params_(params),
        router_(algorithm.empty()
                    ? nullptr
                    : &routing::RouterRegistry::instance().at(algorithm)),
        options_(std::move(options)),
        rng_(&rng),
        capacity_(network) {
    for (const net::NodeId sw : network.switches()) {
      total_switch_qubits_ += network.qubits(sw);
    }
  }

  SlotReport step() {
    SlotReport report;
    report.slot = ++slot_;
    if (rng_->bernoulli(params_.arrival_prob_per_slot)) {
      report.arrived = true;
      report.arrivals = 1;
      ++totals_.sessions_arrived;
      const std::size_t size =
          params_.min_group_size +
          rng_->uniform_index(params_.max_group_size - params_.min_group_size +
                              1);
      std::vector<net::NodeId> group;
      for (const std::size_t idx :
           rng_->sample_indices(network_->users().size(), size)) {
        group.push_back(network_->users()[idx]);
      }
      net::EntanglementTree tree = admit(group);
      if (tree.feasible) {
        report.admitted = true;
        report.admissions = 1;
        report.admitted_rate = tree.rate;
        report.admitted_rate_sum = tree.rate;
        ++totals_.sessions_admitted;
        active_.push_back({std::move(tree), slot_});
      } else {
        ++totals_.sessions_rejected;
      }
    }

    for (std::size_t i = 0; i < active_.size();) {
      Active& session = active_[i];
      const bool success = rng_->bernoulli(session.tree.rate);
      const bool timed_out = !success && slot_ - session.admitted_slot >=
                                             params_.session_timeout_slots;
      if (!success && !timed_out) {
        ++i;
        continue;
      }
      if (success) {
        ++report.completed;
        ++totals_.sessions_completed;
        completion_slots_.add(
            static_cast<double>(slot_ - session.admitted_slot + 1));
      } else {
        ++report.timed_out;
        ++totals_.sessions_timed_out;
      }
      for (const net::Channel& ch : session.tree.channels) {
        capacity_.release_channel(ch.path);
      }
      active_[i] = std::move(active_.back());
      active_.pop_back();
    }

    report.active_sessions = active_.size();
    report.qubit_utilization = utilization();
    utilization_sum_ += report.qubit_utilization;
    return report;
  }

  ProtocolMetrics metrics() const {
    ProtocolMetrics m = totals_;
    m.sessions_in_flight = active_.size();
    m.mean_completion_slots = completion_slots_.mean();
    m.mean_qubit_utilization =
        slot_ == 0 ? 0.0 : utilization_sum_ / static_cast<double>(slot_);
    return m;
  }

 private:
  struct Active {
    net::EntanglementTree tree;
    std::uint64_t admitted_slot = 0;
  };

  net::EntanglementTree admit(const std::vector<net::NodeId>& group) {
    if (router_ == nullptr) {
      const auto seed =
          static_cast<std::size_t>(rng_->uniform_index(group.size()));
      net::EntanglementTree tree =
          routing::prim_based_shared(*network_, group, seed, capacity_);
      if (!tree.feasible) {
        for (const net::Channel& ch : tree.channels) {
          capacity_.release_channel(ch.path);
        }
      }
      return tree;
    }
    std::vector<net::NodeKind> kinds(network_->node_count());
    std::vector<int> qubits(network_->node_count());
    for (std::size_t i = 0; i < network_->node_count(); ++i) {
      const auto v = static_cast<net::NodeId>(i);
      kinds[i] = network_->kind(v);
      qubits[i] = network_->is_switch(v) ? capacity_.free_qubits(v)
                                         : network_->qubits(v);
    }
    const net::QuantumNetwork residual(
        network_->graph(),
        std::vector<support::Point2D>(network_->positions().begin(),
                                      network_->positions().end()),
        std::move(kinds), std::move(qubits), network_->physical());
    routing::RoutingRequest request;
    request.network = &residual;
    request.users = group;
    request.rng = rng_;
    request.options = options_;
    net::EntanglementTree tree = router_->route_tree(request);
    if (tree.feasible &&
        !routing::tree_fits_capacity(*network_, tree, capacity_)) {
      tree.feasible = false;
    }
    if (tree.feasible) {
      for (const net::Channel& ch : tree.channels) {
        capacity_.commit_channel(ch.path);
      }
    }
    return tree;
  }

  double utilization() const {
    if (total_switch_qubits_ <= 0) return 0.0;
    int held = 0;
    for (const net::NodeId sw : network_->switches()) {
      held += network_->qubits(sw) - capacity_.free_qubits(sw);
    }
    return static_cast<double>(held) /
           static_cast<double>(total_switch_qubits_);
  }

  const net::QuantumNetwork* network_;
  ProtocolParams params_;
  const routing::Router* router_;
  routing::RouterOptions options_;
  support::Rng* rng_;
  net::CapacityState capacity_;
  std::vector<Active> active_;
  ProtocolMetrics totals_;
  support::Accumulator completion_slots_;
  std::uint64_t slot_ = 0;
  int total_switch_qubits_ = 0;
  double utilization_sum_ = 0.0;
};

}  // namespace muerp::sim::reference
