#include "simulation/session_service.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "support/telemetry/telemetry.hpp"

namespace muerp::sim {

namespace {

/// Admission-time fields common to every record of an arrival. The
/// recorder assigns id/lane/seq; the caller fills verdict fields.
support::telemetry::SessionRecord make_record_draft(
    std::uint64_t slot, const std::vector<net::NodeId>& group,
    const std::string& algorithm, const char* policy) {
  support::telemetry::SessionRecord draft;
  draft.arrival_slot = slot;
  draft.group.assign(group.begin(), group.end());
  draft.algorithm = algorithm.empty() ? "prim-shared" : algorithm;
  draft.policy = policy;
  return draft;
}

/// Satellite: per-reason rejection counters, one OpenMetrics family per
/// RejectReason (muerp_muerpd_rejects_<reason> after sanitization).
void count_reject_reason(support::telemetry::RejectReason reason) {
  using support::telemetry::RejectReason;
  switch (reason) {
    case RejectReason::kNoFeasibleTree:
      MUERP_COUNTER_INC("muerpd/rejects/no_feasible_tree");
      break;
    case RejectReason::kCapacityGuard:
      MUERP_COUNTER_INC("muerpd/rejects/capacity_guard");
      break;
    case RejectReason::kContentionLoss:
      MUERP_COUNTER_INC("muerpd/rejects/contention_loss");
      break;
    case RejectReason::kNone:
      break;
  }
}

}  // namespace

std::vector<int> ledger_edge_capacity(const net::QuantumNetwork& network) {
  std::vector<int> capacity;
  capacity.reserve(network.graph().edge_count());
  for (const auto& e : network.graph().edges()) {
    int cap = std::numeric_limits<int>::max();
    if (network.is_switch(e.a)) {
      cap = std::min(cap, network.channel_capacity(e.a));
    }
    if (network.is_switch(e.b)) {
      cap = std::min(cap, network.channel_capacity(e.b));
    }
    // A user-to-user fiber carries at most the one direct channel the pair
    // shares (§II-D); switch-less edges would otherwise report 0 forever.
    if (cap == std::numeric_limits<int>::max()) cap = 1;
    capacity.push_back(std::max(cap, 1));
  }
  return capacity;
}

std::vector<int> ledger_switch_capacity(const net::QuantumNetwork& network) {
  std::vector<int> capacity;
  capacity.reserve(network.switches().size());
  for (const net::NodeId sw : network.switches()) {
    capacity.push_back(network.qubits(sw));
  }
  return capacity;
}

SessionService::SessionService(const net::QuantumNetwork& network,
                               SessionServiceConfig config, support::Rng& rng)
    : network_(&network),
      config_(std::move(config)),
      rng_(&rng),
      capacity_(network) {
  assert(config_.params.min_group_size >= 2);
  assert(config_.params.max_group_size >= config_.params.min_group_size);
  assert(config_.params.max_group_size <= network_->users().size());
  assert(config_.arrival_burst >= 1);
  if (!config_.algorithm.empty()) {
    router_ = &routing::RouterRegistry::instance().at(config_.algorithm);
  }
  std::string error;
  if (!set_arrival_prob(config_.params.arrival_prob_per_slot, &error)) {
    throw std::invalid_argument("SessionServiceConfig: " + error);
  }
  if (!validate_batch_combination(config_.algorithm, config_.batch_policy,
                                  config_.arrival_burst, &error)) {
    // Fail at construction, not mid-simulation: the generic batch pass
    // would throw on the first burst anyway.
    throw std::invalid_argument("SessionServiceConfig: " + error);
  }
  ensure_admission_state();
  for (net::NodeId sw : network_->switches()) {
    total_switch_qubits_ += network_->qubits(sw);
  }
  if (config_.ledger != nullptr) {
    switch_ordinal_.assign(network_->node_count(), -1);
    for (std::size_t s = 0; s < network_->switches().size(); ++s) {
      switch_ordinal_[network_->switches()[s]] = static_cast<std::int32_t>(s);
    }
  }
}

support::telemetry::TreeTouch SessionService::make_touch(
    const net::EntanglementTree& tree) const {
  support::telemetry::TreeTouch touch;
  if (config_.ledger == nullptr) return touch;
  for (const net::Channel& ch : tree.channels) {
    const auto& path = ch.path;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto edge = network_->graph().find_edge(path[i], path[i + 1]);
      if (edge) touch.edges.push_back(static_cast<std::uint32_t>(*edge));
    }
    // Interior vertices pledge 2 qubits each (CapacityState::commit_channel).
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      const std::int32_t ordinal = switch_ordinal_[path[i]];
      if (ordinal >= 0) {
        touch.switches.push_back(static_cast<std::uint32_t>(ordinal));
      }
    }
  }
  return touch;
}

bool SessionService::validate_batch_combination(const std::string& algorithm,
                                                routing::BatchPolicy policy,
                                                std::size_t burst,
                                                std::string* error) const {
  if (burst > 1 && policy == routing::BatchPolicy::kFairShare &&
      !algorithm.empty() && algorithm != "alg4") {
    if (error != nullptr) {
      *error =
          "fair-share burst admission needs the batch-native kernel "
          "(algorithm \"\" or \"alg4\"), not '" +
          algorithm + "'";
    }
    return false;
  }
  return true;
}

void SessionService::ensure_admission_state() {
  if (router_ != nullptr) {
    if (!residual_view_) residual_view_.emplace(*network_);
  } else if (!batch_router_) {
    batch_router_.emplace(*network_);
  }
}

bool SessionService::set_arrival_prob(double prob, std::string* error) {
  if (!(prob >= 0.0 && prob <= 1.0)) {  // also rejects NaN
    if (error != nullptr) {
      *error = "arrival probability must be in [0, 1]";
    }
    return false;
  }
  config_.params.arrival_prob_per_slot = prob;
  return true;
}

bool SessionService::set_arrival_burst(std::size_t burst,
                                       std::string* error) {
  if (burst < 1) {
    if (error != nullptr) *error = "arrival burst must be >= 1";
    return false;
  }
  if (!validate_batch_combination(config_.algorithm, config_.batch_policy,
                                  burst, error)) {
    return false;
  }
  config_.arrival_burst = burst;
  return true;
}

bool SessionService::set_batch_policy(routing::BatchPolicy policy,
                                      std::string* error) {
  if (!validate_batch_combination(config_.algorithm, policy,
                                  config_.arrival_burst, error)) {
    return false;
  }
  config_.batch_policy = policy;
  return true;
}

bool SessionService::set_algorithm(const std::string& algorithm,
                                   std::string* error) {
  const routing::Router* router = nullptr;
  if (!algorithm.empty()) {
    router = routing::RouterRegistry::instance().find(algorithm);
    if (router == nullptr) {
      if (error != nullptr) {
        *error = "unknown algorithm '" + algorithm + "' (known: " +
                 routing::RouterRegistry::instance().known_names(", ") +
                 ", or \"\" for the built-in shared-Prim pass)";
      }
      return false;
    }
  }
  if (!validate_batch_combination(algorithm, config_.batch_policy,
                                  config_.arrival_burst, error)) {
    return false;
  }
  config_.algorithm = algorithm;
  router_ = router;
  ensure_admission_state();
  return true;
}

double SessionService::qubit_utilization() const noexcept {
  if (total_switch_qubits_ <= 0) return 0.0;
  int held = 0;
  for (net::NodeId sw : network_->switches()) {
    held += network_->qubits(sw) - capacity_.free_qubits(sw);
  }
  return static_cast<double>(held) / static_cast<double>(total_switch_qubits_);
}

void SessionService::admit_batch(SlotReport& report) {
  const std::size_t burst = batch_groups_.size();
  report.arrived = true;
  report.arrivals += static_cast<std::uint32_t>(burst);
  totals_.sessions_arrived += burst;
  MUERP_COUNTER_ADD("session/arrived", burst);

  batch_requests_.clear();
  for (const std::vector<net::NodeId>& group : batch_groups_) {
    batch_requests_.push_back({std::span<const net::NodeId>(group)});
  }
  // A lone arrival (arrival_burst 1) is admitted in given order: the policy
  // is documented as ignored there, and greedy or fair-share on a batch of
  // one would change tie-breaks against the historical per-arrival pass.
  const bool single = config_.arrival_burst == 1;
  routing::BatchOptions options;
  options.policy =
      single ? routing::BatchPolicy::kGivenOrder : config_.batch_policy;
  // Service semantics: a rejected session holds nothing.
  options.release_on_failure = true;
  if (config_.admit_us != nullptr) {
    options.admit_us = &admit_us_scratch_;  // kernel clears it per call
  }

  const bool recording = config_.recorder != nullptr;
  const auto work_before = recording
                               ? support::telemetry::capture_routing_work()
                               : support::telemetry::RoutingWork{};

  routing::BatchResult result;
  if (router_ == nullptr) {
    result = batch_router_->route_shared(batch_requests_, options, *rng_,
                                         capacity_);
  } else {
    routing::BatchRoutingRequest request;
    request.network = network_;
    request.groups = batch_requests_;
    request.batch = options;
    request.rng = rng_;
    request.options = config_.router_options;
    request.capacity = &capacity_;
    request.residual_view = &*residual_view_;
    result = router_->route_batch_trees(request);
  }

  // One routing call admits the whole slot, so every record of the batch
  // carries the same batch-level work delta (documented on RoutingWork).
  const auto batch_work =
      recording ? support::telemetry::routing_work_delta(
                      work_before, support::telemetry::capture_routing_work())
                : support::telemetry::RoutingWork{};
  if (config_.admit_us != nullptr) {
    config_.admit_us->insert(config_.admit_us->end(), admit_us_scratch_.begin(),
                             admit_us_scratch_.end());
  }

  // Per-session accounting in admission order. A rejection is a CAPACITY
  // GUARD refusal when the router's tree did not fit the free qubits, and a
  // CONTENTION loss when batch siblings were served this slot — the policy
  // granted them the capacity this group was refused; with nothing served
  // (or a batch of one) the residual network simply had no feasible tree.
  const bool contended = batch_groups_.size() > 1 && result.groups_served > 0;
  const char* policy_label =
      single ? "single" : routing::batch_policy_name(options.policy);
  for (routing::BatchGroupOutcome& outcome : result.outcomes) {
    const std::vector<net::NodeId>& group =
        batch_groups_[outcome.request_index];
    net::EntanglementTree& tree = outcome.tree;
    if (tree.feasible) {
      if (!report.admitted) {
        report.admitted = true;
        report.admitted_rate = tree.rate;
      }
      report.admitted_rate_sum += tree.rate;
      ++report.admissions;
      ++totals_.sessions_admitted;
      MUERP_COUNTER_INC("session/admitted");
      MUERP_HISTOGRAM_OBSERVE("session/admitted_rate_ppm", tree.rate * 1e6);
      std::uint64_t record_id = 0;
      if (recording) {
        auto draft = make_record_draft(slot_, group, config_.algorithm,
                                       policy_label);
        draft.work = batch_work;
        draft.tree_rate = tree.rate;
        draft.tree_channels = static_cast<std::uint32_t>(tree.channels.size());
        record_id = config_.recorder->open(std::move(draft));
      }
      auto touch = make_touch(tree);
      if (config_.ledger != nullptr) {
        config_.ledger->record_admit(touch, slot_);
      }
      active_.push_back({std::move(tree), slot_, record_id, std::move(touch)});
    } else {
      ++totals_.sessions_rejected;
      const double utilization = qubit_utilization();
      MUERP_COUNTER_INC("session/rejected");
      // Rejection with most of the qubit pool pledged is saturation (the
      // switch fabric, not the topology, refused the session).
      if (utilization >= 0.9) {
        MUERP_COUNTER_INC("session/switch_saturation");
      }
      using support::telemetry::RejectReason;
      RejectReason reason = RejectReason::kNoFeasibleTree;
      if (outcome.capacity_guard) {
        reason = RejectReason::kCapacityGuard;
      } else if (contended) {
        reason = RejectReason::kContentionLoss;
      }
      count_reject_reason(reason);
      if (recording) {
        auto draft = make_record_draft(slot_, group, config_.algorithm,
                                       policy_label);
        draft.work = batch_work;
        draft.reject_reason = reason;
        draft.saturated = utilization >= 0.9;
        config_.recorder->reject(std::move(draft));
      }
      if (config_.ledger != nullptr) {
        config_.ledger->record_reject(
            make_touch(tree), reason == RejectReason::kContentionLoss, slot_);
      }
    }
  }
}

SlotReport SessionService::step() {
  SlotReport report;
  report.slot = ++slot_;

  // 1. Arrivals: the central node routes against residual capacity. The
  //    enabled check comes first so a draining service (arrivals off) skips
  //    the draw. Every group of the slot is drawn before any routing, then
  //    the whole slot is admitted as one batch; at arrival_burst 1 that is
  //    the historical draw sequence (bernoulli, size, members, then the
  //    kernel's uniform_index seed).
  if (arrivals_enabled_) {
    batch_groups_.clear();
    for (std::size_t a = 0; a < config_.arrival_burst; ++a) {
      if (!rng_->bernoulli(config_.params.arrival_prob_per_slot)) continue;
      const std::size_t size =
          config_.params.min_group_size +
          rng_->uniform_index(config_.params.max_group_size -
                              config_.params.min_group_size + 1);
      std::vector<net::NodeId> group;
      for (std::size_t idx :
           rng_->sample_indices(network_->users().size(), size)) {
        group.push_back(network_->users()[idx]);
      }
      batch_groups_.push_back(std::move(group));
    }
    if (!batch_groups_.empty()) admit_batch(report);
  }

  // 2. Execution windows: every active session attempts its whole tree;
  //    per-window success probability is exactly Eq. (2).
  for (std::size_t i = 0; i < active_.size();) {
    ActiveSession& session = active_[i];
    const bool success = rng_->bernoulli(session.tree.rate);
    const bool timed_out = !success && slot_ - session.admitted_slot >=
                                           config_.params.session_timeout_slots;
    if (success || timed_out) {
      const std::uint64_t held_slots = slot_ - session.admitted_slot + 1;
      if (success) {
        ++report.completed;
        ++totals_.sessions_completed;
        completion_slots_.add(static_cast<double>(held_slots));
        MUERP_COUNTER_INC("session/completed");
        MUERP_HISTOGRAM_OBSERVE("session/completion_slots", held_slots);
      } else {
        ++report.timed_out;
        ++totals_.sessions_timed_out;
        MUERP_COUNTER_INC("session/timed_out");
      }
      if (config_.recorder != nullptr && session.record_id != 0) {
        config_.recorder->close(
            session.record_id,
            success ? support::telemetry::SessionState::kCompleted
                    : support::telemetry::SessionState::kTimedOut,
            slot_, held_slots);
      }
      for (const net::Channel& ch : session.tree.channels) {
        capacity_.release_channel(ch.path);
      }
      if (config_.ledger != nullptr) {
        config_.ledger->record_release(session.touch, slot_);
      }
      active_[i] = std::move(active_.back());
      active_.pop_back();
    } else {
      ++i;
    }
  }

  report.active_sessions = active_.size();
  report.qubit_utilization = qubit_utilization();
  utilization_sum_ += report.qubit_utilization;
  MUERP_GAUGE_SET("session/active", active_.size());
  MUERP_GAUGE_SET("session/qubit_utilization", report.qubit_utilization);
  return report;
}

ProtocolMetrics SessionService::metrics() const {
  ProtocolMetrics m = totals_;
  m.sessions_in_flight = active_.size();
  m.mean_completion_slots = completion_slots_.mean();
  m.mean_qubit_utilization =
      slot_ == 0 ? 0.0 : utilization_sum_ / static_cast<double>(slot_);
  return m;
}

}  // namespace muerp::sim
