#include "routing/router.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "baselines/eqcast.hpp"
#include "network/rate.hpp"
#include "routing/conflict_free.hpp"
#include "routing/local_search.hpp"
#include "routing/optimal_tree.hpp"
#include "routing/plan.hpp"
#include "routing/prim_based.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::routing {

Router::Router(std::string name, std::string display_name)
    : name_(std::move(name)),
      display_name_(std::move(display_name)),
      span_(support::telemetry::intern_span("router/" + name_)) {}

net::EntanglementTree Router::route_tree(const RoutingRequest& request) const {
  if (request.network == nullptr) {
    throw std::invalid_argument("RoutingRequest.network is null");
  }
  const std::span<const net::NodeId> users =
      request.users.empty() ? request.network->users() : request.users;
  if (users.empty()) {
    throw std::invalid_argument("RoutingRequest has no users");
  }
  // A private deterministic stream when the caller passes none: one-shot
  // calls stay reproducible without threading an Rng everywhere.
  support::Rng fallback(request.network->node_count());
  support::Rng& rng = request.rng != nullptr ? *request.rng : fallback;
  const support::telemetry::ScopedSpan span(span_);
  return route_impl(*request.network, users, rng, request.options);
}

RoutingOutcome Router::route(const RoutingRequest& request) const {
  namespace tel = support::telemetry;
  RoutingOutcome outcome;
  const tel::Snapshot before = tel::capture_thread();
  const auto start = std::chrono::steady_clock::now();
  outcome.tree = route_tree(request);
  const auto stop = std::chrono::steady_clock::now();
  outcome.elapsed_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  outcome.telemetry = tel::capture_thread();
  outcome.telemetry.subtract(before);
  return outcome;
}

BatchResult Router::route_batch_trees(const BatchRoutingRequest& request) const {
  if (request.network == nullptr) {
    throw std::invalid_argument("BatchRoutingRequest.network is null");
  }
  support::Rng fallback(request.network->node_count());
  support::Rng& rng = request.rng != nullptr ? *request.rng : fallback;
  std::optional<net::CapacityState> local_capacity;
  net::CapacityState* capacity = request.capacity;
  if (capacity == nullptr) {
    local_capacity.emplace(*request.network);
    capacity = &*local_capacity;
  }
  const support::telemetry::ScopedSpan span(span_);
  return route_batch_impl(*request.network, request.groups, request.batch, rng,
                          request.options, *capacity, request.residual_view);
}

BatchRoutingOutcome Router::route_batch(const BatchRoutingRequest& request) const {
  namespace tel = support::telemetry;
  BatchRoutingOutcome outcome;
  const tel::Snapshot before = tel::capture_thread();
  const auto start = std::chrono::steady_clock::now();
  outcome.result = route_batch_trees(request);
  const auto stop = std::chrono::steady_clock::now();
  outcome.elapsed_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  outcome.telemetry = tel::capture_thread();
  outcome.telemetry.subtract(before);
  return outcome;
}

// Generic batch pass for algorithms without a batch-native kernel: order the
// requests, then for each one sync the residual view, run the per-group
// route_impl, guard with tree_fits_capacity and commit. release_on_failure
// is trivially satisfied here — route_impl never touches `capacity`, so a
// failed group holds nothing to release.
BatchResult Router::route_batch_impl(const net::QuantumNetwork& network,
                                     std::span<const BatchRequest> groups,
                                     const BatchOptions& batch,
                                     support::Rng& rng,
                                     const RouterOptions& options,
                                     net::CapacityState& capacity,
                                     net::ResidualNetworkView* residual) const {
  if (batch.policy == BatchPolicy::kFairShare) {
    throw std::invalid_argument(
        "router '" + name_ +
        "' cannot run the fair-share batch policy (interleaved growth needs "
        "a batch-native kernel; use \"alg4\")");
  }
  std::optional<net::ResidualNetworkView> local_view;
  if (residual == nullptr) {
    local_view.emplace(network);
    residual = &*local_view;
  }

  std::vector<std::size_t> admission(groups.size());
  std::iota(admission.begin(), admission.end(), std::size_t{0});
  switch (batch.policy) {
    case BatchPolicy::kGivenOrder:
    case BatchPolicy::kFairShare:
      break;
    case BatchPolicy::kSmallestFirst:
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return groups[l].users.size() < groups[r].users.size();
                       });
      break;
    case BatchPolicy::kLargestFirst:
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return groups[l].users.size() > groups[r].users.size();
                       });
      break;
    case BatchPolicy::kGreedy: {
      // Probe each group standalone against the *current* residuals (no
      // commits yet, so one sync serves the whole probe pass) and admit
      // cheapest-first by total neg-log channel cost. Empty groups keep
      // cost 0: trivially admissible.
      const net::QuantumNetwork& view = residual->sync(capacity);
      std::vector<double> cost(groups.size(), 0.0);
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].users.empty()) continue;
        const net::EntanglementTree probe =
            route_impl(view, groups[g].users, rng, options);
        if (!probe.feasible ||
            !tree_fits_capacity(network, probe, capacity)) {
          cost[g] = std::numeric_limits<double>::infinity();
          continue;
        }
        double c = 0.0;
        for (const net::Channel& ch : probe.channels) {
          c += net::channel_neg_log_rate(network, ch.path);
        }
        cost[g] = c;
      }
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return cost[l] < cost[r];
                       });
      break;
    }
  }

  BatchResult result;
  result.outcomes.reserve(groups.size());
  for (std::size_t idx : admission) {
    const BatchRequest& group = groups[idx];
    const std::uint64_t admit_start =
        batch.admit_us != nullptr ? support::telemetry::monotonic_now_ns() : 0;
    BatchGroupOutcome outcome;
    outcome.request_index = idx;
    if (group.users.empty()) {
      outcome.tree = net::EntanglementTree{{}, 1.0, true};
    } else {
      const net::QuantumNetwork& view = residual->sync(capacity);
      outcome.tree = route_impl(view, group.users, rng, options);
      // Admission guard: a capacity-oblivious algorithm may return a tree
      // the residual pool cannot host. Such a group is deferred, not
      // trimmed, and flagged so a service can name the reason.
      if (outcome.tree.feasible &&
          !tree_fits_capacity(network, outcome.tree, capacity)) {
        outcome.tree.feasible = false;
        outcome.tree.rate = 0.0;
        outcome.capacity_guard = true;
      }
      if (outcome.tree.feasible) {
        for (const net::Channel& ch : outcome.tree.channels) {
          capacity.commit_channel(ch.path);
        }
      }
    }
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    if (batch.admit_us != nullptr) {
      batch.admit_us->push_back(
          static_cast<double>(support::telemetry::monotonic_now_ns() -
                              admit_start) /
          1e3);
    }
    result.outcomes.push_back(std::move(outcome));
  }
  result.all_served = result.groups_served == groups.size();
  if (result.groups_served == 0) result.served_product_rate = 1.0;
  MUERP_COUNTER_ADD("batch/groups", groups.size());
  MUERP_COUNTER_ADD("batch/served", result.groups_served);
  MUERP_COUNTER_ADD("batch/deferred", groups.size() - result.groups_served);
  return result;
}

namespace {

class Alg2Router final : public Router {
 public:
  Alg2Router() : Router("alg2", "Alg-2") {}

 private:
  net::EntanglementTree route_impl(const net::QuantumNetwork& network,
                                   std::span<const net::NodeId> users,
                                   support::Rng&,
                                   const RouterOptions& options) const final {
    if (!options.pin_alg2_sufficient) {
      return optimal_special_case(network, users);
    }
    const net::QuantumNetwork boosted = net::with_uniform_switch_qubits(
        network, 2 * static_cast<int>(users.size()));
    return optimal_special_case(boosted, users);
  }
};

class Alg3Router final : public Router {
 public:
  Alg3Router() : Router("alg3", "Alg-3") {}

 private:
  net::EntanglementTree route_impl(const net::QuantumNetwork& network,
                                   std::span<const net::NodeId> users,
                                   support::Rng&,
                                   const RouterOptions&) const final {
    return conflict_free(network, users);
  }
};

class Alg4Router final : public Router {
 public:
  Alg4Router() : Router("alg4", "Alg-4") {}

 private:
  net::EntanglementTree route_impl(const net::QuantumNetwork& network,
                                   std::span<const net::NodeId> users,
                                   support::Rng& rng,
                                   const RouterOptions&) const final {
    return prim_based(network, users, rng);
  }

  // Batch-native: the BatchRouter kernel shares the CSR / slab state across
  // the whole batch and tracks residuals through `capacity` directly (so
  // the residual view is unused). Supports every BatchPolicy including
  // fair-share.
  BatchResult route_batch_impl(const net::QuantumNetwork& network,
                               std::span<const BatchRequest> groups,
                               const BatchOptions& batch, support::Rng& rng,
                               const RouterOptions&,
                               net::CapacityState& capacity,
                               net::ResidualNetworkView*) const final {
    BatchRouter router(network);
    return router.route_shared(groups, batch, rng, capacity);
  }
};

class EqcastRouter final : public Router {
 public:
  EqcastRouter() : Router("eqcast", "E-Q-CAST") {}

 private:
  net::EntanglementTree route_impl(const net::QuantumNetwork& network,
                                   std::span<const net::NodeId> users,
                                   support::Rng&,
                                   const RouterOptions&) const final {
    return baselines::extended_qcast(network, users);
  }
};

class NFusionRouter final : public Router {
 public:
  NFusionRouter() : Router("nfusion", "N-Fusion") {}

 private:
  net::EntanglementTree route_impl(const net::QuantumNetwork& network,
                                   std::span<const net::NodeId> users,
                                   support::Rng&,
                                   const RouterOptions& options) const final {
    baselines::FusionPlan plan =
        baselines::n_fusion(network, users, options.nfusion);
    // The star is a legitimate EntanglementTree; its rate is the fusion-model
    // GHZ rate rather than the product of channel rates, so validate_tree's
    // rate identity does not apply (same convention as the fig8 benches).
    net::EntanglementTree tree;
    tree.channels = std::move(plan.channels);
    tree.rate = plan.rate;
    tree.feasible = plan.feasible;
    return tree;
  }
};

class Alg4LocalSearchRouter final : public Router {
 public:
  Alg4LocalSearchRouter() : Router("alg4ls", "Alg-4+LS") {}

 private:
  net::EntanglementTree route_impl(const net::QuantumNetwork& network,
                                   std::span<const net::NodeId> users,
                                   support::Rng& rng,
                                   const RouterOptions& options) const final {
    net::EntanglementTree tree = prim_based(network, users, rng);
    improve_tree(network, users, tree, options.local_search_max_sweeps);
    return tree;
  }
};

class AnnealingRouter final : public Router {
 public:
  AnnealingRouter() : Router("annealing", "Alg-4+SA") {}

 private:
  net::EntanglementTree route_impl(const net::QuantumNetwork& network,
                                   std::span<const net::NodeId> users,
                                   support::Rng& rng,
                                   const RouterOptions& options) const final {
    net::EntanglementTree tree = prim_based(network, users, rng);
    anneal_tree(network, users, tree, options.annealing, rng);
    return tree;
  }
};

}  // namespace

RouterRegistry& RouterRegistry::instance() {
  static RouterRegistry registry;
  return registry;
}

// Built-ins are registered here rather than via per-TU static initializers:
// muerp is a static library, and the linker drops initializers living in
// otherwise-unreferenced objects.
RouterRegistry::RouterRegistry() {
  add("alg2", [] { return std::make_unique<Alg2Router>(); });
  add("alg3", [] { return std::make_unique<Alg3Router>(); });
  add("alg4", [] { return std::make_unique<Alg4Router>(); });
  add("eqcast", [] { return std::make_unique<EqcastRouter>(); });
  add("nfusion", [] { return std::make_unique<NFusionRouter>(); });
  add("alg4ls", [] { return std::make_unique<Alg4LocalSearchRouter>(); });
  add("annealing", [] { return std::make_unique<AnnealingRouter>(); });
}

void RouterRegistry::add(std::string name, Factory factory) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& e : entries_) {
    if (e.name == name) {
      throw std::invalid_argument("router '" + name + "' already registered");
    }
  }
  entries_.push_back({std::move(name), std::move(factory), nullptr});
}

const Router& RouterRegistry::materialize(const Entry& entry) const {
  // Caller holds mutex_.
  if (!entry.router) {
    entry.router = entry.factory();
  }
  return *entry.router;
}

const Router* RouterRegistry::find(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& e : entries_) {
    if (e.name == name) return &materialize(e);
  }
  return nullptr;
}

const Router& RouterRegistry::at(std::string_view name) const {
  if (const Router* router = find(name)) return *router;
  throw std::out_of_range("unknown router '" + std::string(name) +
                          "' (known: " + known_names(" ") + ")");
}

bool RouterRegistry::contains(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

std::vector<std::string> RouterRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

std::string RouterRegistry::known_names(std::string_view separator) const {
  std::string out;
  for (const std::string& name : names()) {
    if (!out.empty()) out += separator;
    out += name;
  }
  return out;
}

}  // namespace muerp::routing
