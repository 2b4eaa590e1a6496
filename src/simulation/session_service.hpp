// Stepped multi-user session service — the §II-B control loop as a
// long-lived object.
//
// ProtocolSimulator::run() scores a whole horizon in one call; a daemon
// (tools/muerpd.cpp) and incremental tests need the same loop advanced one
// execution window at a time while the process keeps serving /metrics.
// SessionService extracts that loop: each step() plays exactly one slot —
// Bernoulli arrival, admission routing against residual switch capacity,
// one execution attempt per active session at its tree rate (Eq. (2)),
// timeout expiry — and reports what happened. ProtocolSimulator delegates
// to it verbatim (same Rng call sequence, so seeded results are unchanged).
//
// Every arrival takes one admission path: the slot's arrivals are handed to
// the routing kernel as one batch (a batch of one at arrival_burst 1). The
// default empty `algorithm` routes through the service's persistent
// routing::BatchRouter — Algorithm 4's capacity-sharing Prim growth, bit-
// identical in decisions and Rng draws to routing::prim_based_shared with
// rollback. Naming a routing::RouterRegistry entry ("alg3", "eqcast", ...)
// instead routes through Router::route_batch_trees over a cached residual-
// capacity view, after which a returned tree is admitted only if it fits
// the qubits actually free — so even a capacity-oblivious baseline cannot
// oversubscribe a switch.
//
// Every step emits session/* counters, gauges for active sessions and qubit
// utilization and a completion-slots histogram. The per-session trail (slot,
// group, rate, channels, held slots, reject reason) is the optional flight
// recorder's SessionRecord; the service writes no per-session log events.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "network/channel.hpp"
#include "network/quantum_network.hpp"
#include "routing/router.hpp"
#include "simulation/protocol.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/telemetry/flight_recorder.hpp"
#include "support/telemetry/link_ledger.hpp"

namespace muerp::sim {

struct SessionServiceConfig {
  ProtocolParams params;
  /// RouterRegistry name used for admission routing; empty selects the
  /// built-in capacity-sharing Prim pass (the ProtocolSimulator default).
  std::string algorithm;
  /// Forwarded to the registry router when `algorithm` is non-empty.
  routing::RouterOptions router_options;
  /// Arrival attempts per slot. Each slot draws up to `arrival_burst`
  /// independent Bernoulli arrivals, generates every group, then admits
  /// them as ONE batch through the routing kernel. At 1 (the default) this
  /// is the historical draw order — bernoulli, size, members, then the
  /// kernel's seed user — so ProtocolSimulator's seeded results are
  /// unchanged.
  std::size_t arrival_burst = 1;
  /// Contention-resolution policy for burst admission (ignored when
  /// arrival_burst <= 1, where a lone arrival is admitted in given order).
  /// kFairShare requires the batch-native kernel: empty `algorithm` or
  /// "alg4".
  routing::BatchPolicy batch_policy = routing::BatchPolicy::kGivenOrder;
  /// Optional admission-latency sink: when set, every routed arrival
  /// appends its admission wall time in microseconds (admitted or not, in
  /// admission order). The vector is appended to, never cleared — callers
  /// own its lifetime and reset.
  std::vector<double>* admit_us = nullptr;
  /// Optional flight recorder: when set, every arrival opens (or finalizes,
  /// for rejections) a SessionRecord and every terminal event closes it.
  /// The recorder never touches the Rng, so admission decisions and the
  /// draw sequence are bit-identical with and without it — tests assert it.
  /// Must outlive the service.
  support::telemetry::SessionRecorder* recorder = nullptr;
  /// Optional link ledger: when set, every admission outcome records the
  /// edges/switches its routed tree touched and every commit/release
  /// updates per-link occupancy. Like the recorder, the ledger never
  /// touches the Rng, so admission decisions and the draw sequence are
  /// bit-identical with and without it — tests assert it. Build it with
  /// ledger_edge_capacity() / ledger_switch_capacity() over the SAME
  /// network this service routes on; must outlive the service.
  support::telemetry::LinkLedger* ledger = nullptr;
};

/// Per-edge channel capacities for a LinkLedger over `network`: the
/// smallest channel_capacity() among an edge's switch endpoints, and 1 for
/// a user-to-user fiber (one direct channel saturates it — the paper's
/// "adequate fiber capacity" assumption keeps fibers otherwise unbounded).
std::vector<int> ledger_edge_capacity(const net::QuantumNetwork& network);

/// Per-switch qubit budgets for a LinkLedger over `network`, in
/// network.switches() order (the ledger's switch ordinal space).
std::vector<int> ledger_switch_capacity(const net::QuantumNetwork& network);

/// What one step() observed — the per-slot feed a daemon exports.
struct SlotReport {
  std::uint64_t slot = 0;
  bool arrived = false;
  bool admitted = false;
  /// Arrival/admission counts this slot (0 or 1 when arrival_burst <= 1;
  /// up to arrival_burst under burst intake).
  std::uint32_t arrivals = 0;
  std::uint32_t admissions = 0;
  /// Entanglement rate of the first tree admitted this slot (0 when none).
  double admitted_rate = 0.0;
  /// Sum of the rates of ALL trees admitted this slot. Equal to
  /// admitted_rate when at most one session is admitted per slot; under
  /// burst intake this is the field that sees every admission (satellite
  /// fix: admitted_rate alone truncated burst telemetry to the first tree).
  double admitted_rate_sum = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  /// Sessions holding qubits after this slot's expiries.
  std::size_t active_sessions = 0;
  /// Fraction of all switch qubits pledged after this slot.
  double qubit_utilization = 0.0;

  bool operator==(const SlotReport&) const = default;
};

class SessionService {
 public:
  /// `network` and `rng` must outlive the service; the rng is advanced by
  /// every step() in a deterministic order. Throws std::invalid_argument
  /// for a config the setters below would refuse: an arrival probability
  /// outside [0, 1], or fair-share bursts on a non-batch-native algorithm.
  SessionService(const net::QuantumNetwork& network,
                 SessionServiceConfig config, support::Rng& rng);

  /// Plays the next execution window. Call freely forever — the horizon in
  /// config.params bounds ProtocolSimulator, not the service.
  SlotReport step();

  std::uint64_t slot() const noexcept { return slot_; }
  std::size_t active_sessions() const noexcept { return active_.size(); }

  /// Gates the Bernoulli arrival draw. While enabled (the default) the Rng
  /// call sequence is exactly the historical one — ProtocolSimulator's
  /// seeded results depend on that. Disabling skips the draw entirely:
  /// active sessions keep playing execution windows but nothing new is
  /// admitted, which is how muerpd drains in-flight work on SIGTERM.
  void set_arrivals_enabled(bool enabled) noexcept {
    arrivals_enabled_ = enabled;
  }
  bool arrivals_enabled() const noexcept { return arrivals_enabled_; }

  // -------------------------------------------------------------------------
  // Runtime mutators for the live control plane (`muerpctl ctl set ...`).
  //
  // Safe only BETWEEN step() calls — muerpd applies them through its
  // tick-boundary mailbox. They mutate intake configuration, never Rng
  // state or active sessions, so a run whose changed knob is not exercised
  // stays bit-identical. The bool setters return false (message in *error
  // when non-null) instead of throwing: a bad live request must not take
  // the daemon down.

  /// Bernoulli arrival probability per slot. Rejects values outside [0, 1].
  bool set_arrival_prob(double prob, std::string* error = nullptr);
  double arrival_prob() const noexcept {
    return config_.params.arrival_prob_per_slot;
  }

  /// Arrival attempts per slot (>= 1). Later slots draw and admit exactly
  /// as if the service had been constructed with the new value.
  bool set_arrival_burst(std::size_t burst, std::string* error = nullptr);
  std::size_t arrival_burst() const noexcept { return config_.arrival_burst; }

  /// Burst contention policy. Rejects fair-share when the current
  /// algorithm lacks the batch-native kernel.
  bool set_batch_policy(routing::BatchPolicy policy,
                        std::string* error = nullptr);
  routing::BatchPolicy batch_policy() const noexcept {
    return config_.batch_policy;
  }

  /// Admission algorithm by registry name ("" = built-in shared Prim).
  /// Rejects unknown names and combinations the batch policy forbids.
  /// Active sessions keep the trees their admission-time algorithm built.
  bool set_algorithm(const std::string& algorithm,
                     std::string* error = nullptr);
  const std::string& algorithm() const noexcept { return config_.algorithm; }

  /// Fraction of all switch qubits currently pledged to sessions.
  double qubit_utilization() const noexcept;

  /// Totals so far with the mean/in-flight fields computed — the same
  /// numbers ProtocolSimulator::run() returns after the full horizon.
  ProtocolMetrics metrics() const;

 private:
  struct ActiveSession {
    net::EntanglementTree tree;
    std::uint64_t admitted_slot = 0;
    /// Flight-recorder id (0 when no recorder is attached).
    std::uint64_t record_id = 0;
    /// Ledger indices this tree occupies (empty when no ledger is
    /// attached); released with the tree.
    support::telemetry::TreeTouch touch;
  };

  /// Admits the arrivals staged in batch_groups_ as one batch through the
  /// routing kernel against capacity_, then applies the per-session
  /// counters, flight records and ledger entries in admission order.
  void admit_batch(SlotReport& report);

  /// (Re)creates the residual view / batch kernel the current algorithm
  /// needs — shared by the constructor and set_algorithm().
  void ensure_admission_state();

  /// Ledger indices of every channel traversal (edges) and 2-qubit relay
  /// pledge (switch ordinals) of `tree` — empty when no ledger is attached.
  support::telemetry::TreeTouch make_touch(
      const net::EntanglementTree& tree) const;

  /// The constructor-time fair-share validation, reusable by the setters;
  /// returns false with *error when the combination is invalid.
  bool validate_batch_combination(const std::string& algorithm,
                                  routing::BatchPolicy policy,
                                  std::size_t burst,
                                  std::string* error) const;

  const net::QuantumNetwork* network_;
  SessionServiceConfig config_;
  support::Rng* rng_;
  const routing::Router* router_ = nullptr;  // null => shared-Prim admission
  bool arrivals_enabled_ = true;

  /// Cached residual-network copy for registry admission: each batch
  /// patches only the switch budgets that changed since the last one.
  std::optional<net::ResidualNetworkView> residual_view_;
  /// Persistent batch kernel for the built-in shared-Prim admission (slab
  /// arrays survive across slots).
  std::optional<routing::BatchRouter> batch_router_;
  /// Scratch: this slot's arrival groups and their request views.
  std::vector<std::vector<net::NodeId>> batch_groups_;
  std::vector<routing::BatchRequest> batch_requests_;
  /// Scratch for per-route admission latencies (BatchOptions::admit_us is
  /// cleared per route call; config_.admit_us accumulates across slots).
  std::vector<double> admit_us_scratch_;

  net::CapacityState capacity_;
  /// NodeId -> ledger switch ordinal (-1 for non-switches); built only
  /// when a ledger is attached.
  std::vector<std::int32_t> switch_ordinal_;
  std::vector<ActiveSession> active_;
  ProtocolMetrics totals_;
  support::Accumulator completion_slots_;
  std::uint64_t slot_ = 0;
  int total_switch_qubits_ = 0;
  double utilization_sum_ = 0.0;
};

}  // namespace muerp::sim
