// Unified routing entry point and the algorithm registry.
//
// The algorithms grew as free functions with inconsistent shapes —
// prim_based takes an Rng, optimal_special_case wants a pre-boosted
// network, n_fusion returns a FusionPlan — which forced every consumer
// (runner, benches, muerpctl) to hard-code per-algorithm glue. Router
// normalizes them behind one call:
//
//   const Router& r = RouterRegistry::instance().at("alg4");
//   RoutingOutcome out = r.route({.network = &network, .users = users});
//
// route() additionally captures wall time and a telemetry snapshot of the
// work done (this-thread counter/span deltas); route_tree() is the bare
// hot-path variant the experiment runner uses, with zero overhead beyond
// the legacy free function it wraps. Outcomes are bit-identical to calling
// the free functions directly — the Router only fixes argument plumbing.
//
// The registry maps stable string names to lazily constructed Router
// instances. Seven algorithms are built in:
//
//   alg2       Alg-2       optimal_special_case (switches pinned at 2|U|)
//   alg3       Alg-3       conflict_free
//   alg4       Alg-4       prim_based (random seed user from the Rng)
//   eqcast     E-Q-CAST    extended_qcast baseline
//   nfusion    N-Fusion    n_fusion star baseline (tree = star channels)
//   alg4ls     Alg-4+LS    prim_based then improve_tree
//   annealing  Alg-4+SA    prim_based then anneal_tree
//
// The first five are the paper's evaluation set, in plotting order; their
// display names match experiment::algorithm_name(). add() registers custom
// routers (e.g. ablations) under new names.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/nfusion.hpp"
#include "network/channel.hpp"
#include "network/quantum_network.hpp"
#include "routing/annealing.hpp"
#include "routing/batch_router.hpp"
#include "support/rng.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"

namespace muerp::routing {

/// Per-call knobs. Defaults reproduce the paper's configuration; the
/// experiment runner forwards its RunnerOptions here.
struct RouterOptions {
  baselines::NFusionParams nfusion;
  AnnealingParams annealing;
  /// Sweeps cap for the "alg4ls" router's improve_tree pass.
  std::size_t local_search_max_sweeps = 16;
  /// Evaluate "alg2" on a copy with switches pinned at 2|U| qubits (its
  /// sufficient condition, as the paper's figures do). When false the
  /// algorithm runs on the network as given and is only optimal if
  /// sufficient_condition_holds().
  bool pin_alg2_sufficient = true;
};

struct RoutingRequest {
  const net::QuantumNetwork* network = nullptr;
  /// Users to connect; empty means network->users().
  std::span<const net::NodeId> users;
  /// Stream for randomized routers (alg4 seed user, annealing proposals).
  /// Null gives a deterministic private Rng — fine for one-shot calls, but
  /// pass a stream when reproducing a sequence of calls.
  support::Rng* rng = nullptr;
  RouterOptions options;
};

struct RoutingOutcome {
  net::EntanglementTree tree;
  double elapsed_ms = 0.0;
  /// This-thread telemetry delta attributed to the call (counters, spans;
  /// empty in MUERP_TELEMETRY=OFF builds).
  support::telemetry::Snapshot telemetry;
};

/// A batch of concurrent group requests contending for one capacity pool —
/// the first-class entry point to the batch routing kernel.
struct BatchRoutingRequest {
  const net::QuantumNetwork* network = nullptr;
  /// One entry per group; spans must outlive the call. Empty groups get a
  /// trivial feasible tree without consuming randomness.
  std::span<const BatchRequest> groups;
  /// Contention resolution: admission policy plus failure semantics (and
  /// the optional per-group admission-latency sink).
  BatchOptions batch;
  /// Stream for randomized routers; null gives a deterministic private Rng.
  support::Rng* rng = nullptr;
  RouterOptions options;
  /// Residual pool the batch draws from. Null routes against a private
  /// full-capacity pool; non-null lets a service admit bursts against its
  /// live state (committed channels deduct from it in place).
  net::CapacityState* capacity = nullptr;
  /// Caller-owned residual-network cache for routers whose route_impl runs
  /// on a residual copy (every non-batch-native registry algorithm). Null
  /// builds a throwaway view per call; a long-lived caller passes its own
  /// so successive batches amortize the copy.
  net::ResidualNetworkView* residual_view = nullptr;
};

struct BatchRoutingOutcome {
  BatchResult result;
  double elapsed_ms = 0.0;
  /// This-thread telemetry delta attributed to the call.
  support::telemetry::Snapshot telemetry;
};

class Router {
 public:
  explicit Router(std::string name, std::string display_name);
  virtual ~Router() = default;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Stable registry key ("alg4").
  const std::string& name() const noexcept { return name_; }
  /// Human/plot label ("Alg-4"), matching experiment::algorithm_name() for
  /// the paper's five.
  const std::string& display_name() const noexcept { return display_name_; }

  /// Routes under a "router/<name>" span; no capture, no timing — the
  /// hot-path variant for tight experiment loops.
  net::EntanglementTree route_tree(const RoutingRequest& request) const;

  /// route_tree plus wall time and a this-thread telemetry delta.
  RoutingOutcome route(const RoutingRequest& request) const;

  /// Routes a batch of group requests under one "router/<name>" span.
  /// Batch-native routers ("alg4") run the BatchRouter kernel directly;
  /// every other algorithm gets the generic per-group pass: admission
  /// ordering by policy, route_impl on the synced residual view, a
  /// tree_fits_capacity admission guard, then commit. The generic pass
  /// rejects BatchPolicy::kFairShare (interleaved growth needs kernel
  /// cooperation) with std::invalid_argument.
  BatchResult route_batch_trees(const BatchRoutingRequest& request) const;

  /// route_batch_trees plus wall time and a this-thread telemetry delta.
  BatchRoutingOutcome route_batch(const BatchRoutingRequest& request) const;

 private:
  virtual net::EntanglementTree route_impl(const net::QuantumNetwork& network,
                                           std::span<const net::NodeId> users,
                                           support::Rng& rng,
                                           const RouterOptions& options)
      const = 0;

  /// Batch hook; the default is the generic per-group pass described at
  /// route_batch_trees. `capacity` is always valid (the public entry
  /// substitutes a private full pool when the request leaves it null).
  /// `residual` may be null — the generic pass then builds a throwaway view
  /// over `network`; batch-native overrides ignore it entirely, which is
  /// why the public entry does not eagerly build one.
  virtual BatchResult route_batch_impl(const net::QuantumNetwork& network,
                                       std::span<const BatchRequest> groups,
                                       const BatchOptions& batch,
                                       support::Rng& rng,
                                       const RouterOptions& options,
                                       net::CapacityState& capacity,
                                       net::ResidualNetworkView* residual)
      const;

  std::string name_;
  std::string display_name_;
  support::telemetry::SpanId span_;
};

class RouterRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Router>()>;

  /// The process-wide registry, with the seven built-ins pre-registered.
  static RouterRegistry& instance();

  /// Registers `factory` under `name` (constructed lazily on first use).
  /// Throws std::invalid_argument if the name is taken.
  void add(std::string name, Factory factory);

  /// Nullptr when unknown.
  const Router* find(std::string_view name) const;

  /// Throws std::out_of_range (listing the known names) when unknown.
  const Router& at(std::string_view name) const;

  bool contains(std::string_view name) const;

  /// All registered names in registration order — the paper's five first.
  std::vector<std::string> names() const;

  /// names() joined with `separator`, for usage and error text.
  std::string known_names(std::string_view separator = "|") const;

 private:
  RouterRegistry();

  struct Entry {
    std::string name;
    Factory factory;
    mutable std::unique_ptr<Router> router;  // built on first lookup
  };

  const Router& materialize(const Entry& entry) const;

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace muerp::routing
