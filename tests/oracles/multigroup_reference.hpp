// Test oracles for the multi-group entry points (extensions/multigroup.hpp):
// the pre-BatchRouter implementations of ext::route_groups and
// ext::route_groups_interleaved, kept as straight-line code the batch
// kernel is asserted bit-identical against (same Rng draw sequence, same
// admission order, same channels and rates). bench/batch_routing runs them
// as its reference arm. Lives with the tests, not in the shipped library.
#pragma once

#include <span>

#include "extensions/multigroup.hpp"
#include "network/quantum_network.hpp"
#include "support/rng.hpp"

namespace muerp::ext {

/// Pre-BatchRouter route_groups: one group at a time, each paying its own
/// routing::prim_based_shared pass and full Dijkstras.
MultiGroupResult route_groups_reference(const net::QuantumNetwork& network,
                                        std::span<const GroupRequest> groups,
                                        GroupOrder order, support::Rng& rng);

/// Pre-BatchRouter route_groups_interleaved (the oracle for the kFairShare
/// policy). Candidate channels compare on neg_log_rate — finite for every
/// found channel — not on the underflow-prone `rate`: an extremely lossy
/// but feasible channel must still beat "no channel" (the rate == 0.0
/// sentinel this code once shipped with falsely failed whole groups on long
/// chains).
MultiGroupResult route_groups_interleaved_reference(
    const net::QuantumNetwork& network, std::span<const GroupRequest> groups,
    support::Rng& rng);

}  // namespace muerp::ext
