// Simulated-annealing refinement of entanglement trees.
//
// The local-search exchange pass (local_search.hpp) only accepts strict
// improvements, so it stops at the nearest local optimum. This metaheuristic
// explores further: each step removes a random channel from the tree,
// splitting the users in two, and proposes a reconnection drawn from the
// k best channels of a random cross-side pair under the freed capacity;
// worse trees are accepted with the Metropolis probability
// exp(delta_log_rate / T) under a geometric cooling schedule, and the best
// tree ever visited is returned (so the result never regresses below the
// input). Deterministic for a given RNG state.
//
// Practical role: Algorithms 3/4 already sit at ~99-100% of optimal on
// solvable instances (see bench/optimality_gap); annealing is the tool for
// the residual tail — capacity-starved instances where greedy commits
// early mistakes — and doubles as evidence that the heuristics' remaining
// gap is thin.
#pragma once

#include <cstdint>
#include <span>

#include "network/channel.hpp"
#include "network/quantum_network.hpp"
#include "support/rng.hpp"

namespace muerp::routing {

struct AnnealingParams {
  std::uint32_t iterations = 400;
  /// Initial temperature in ln(rate) units (a move this much worse is
  /// accepted with probability 1/e at the start).
  double initial_temperature = 0.5;
  /// Geometric cooling factor per iteration, in (0, 1].
  double cooling = 0.99;
  /// Candidate channels considered per proposed reconnection.
  std::size_t k_candidates = 3;
};

struct AnnealingStats {
  std::uint32_t proposals = 0;
  std::uint32_t accepted = 0;
  std::uint32_t improved_best = 0;
};

/// Refines `tree` in place (must be feasible; infeasible input is returned
/// untouched). The result is always a valid tree with rate >= the input's.
AnnealingStats anneal_tree(const net::QuantumNetwork& network,
                           std::span<const net::NodeId> users,
                           net::EntanglementTree& tree,
                           const AnnealingParams& params, support::Rng& rng);

}  // namespace muerp::routing
