// Sharded session plane: many SessionService lanes, stepped in parallel,
// merged deterministically.
//
// One SessionService advances every session under a single Rng and a single
// capacity pool — one core's worth of throughput no matter how many cores
// the host has. This service scales that loop out the same way
// run_scenario_parallel scales repetitions: split the work into independent
// deterministic streams, run them on however many workers are available,
// and merge in a fixed order so the result does not depend on the worker
// count.
//
// The unit of determinism is the LANE, not the thread. A lane is a fixed
// logical partition of the traffic: its own support::Rng stream (split from
// the service seed, the scenario.cpp idiom), its own slice of every
// switch's qubit budget, and its own embedded SessionService, which admits
// through its own persistent routing kernel. SHARDS are merely the worker
// threads that step the lanes — ThreadPool::parallel_for strides lanes
// across at most shard_count workers. Because the lane decomposition never changes and the
// merge walks lanes in index order, every metric and every admission
// decision is bit-identical across shard counts: 1 worker, 2 workers and 8
// workers produce the same merged totals (tests assert it), and a
// lane_count == 1 service is bit-identical to a plain SessionService on the
// same seed.
//
// Capacity is partitioned, not shared: lane l of L owns
// Q/L + (l < Q%L ? 1 : 0) qubits of a switch with budget Q. That is what
// makes lanes embarrassingly parallel — no cross-lane locking on the hot
// path — at the documented cost that a lane cannot borrow a sibling's idle
// qubits. Arrival streams are per-lane too: L lanes model L independent
// traffic partitions, so the aggregate arrival rate scales with lane count.
//
// Telemetry: lanes report into the per-shard families
// muerpd/shard/<k>/{slots,admitted,completed,slot_us} with k = lane %
// shard_count (folded modulo kMaxShardFamilies so the registry's instrument
// caps cannot overflow); counters are thread-sharded and commutative, so
// exported totals are deterministic as well.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "network/quantum_network.hpp"
#include "simulation/protocol.hpp"
#include "simulation/session_service.hpp"
#include "support/rng.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::sim {

struct ShardedSessionServiceConfig {
  /// Per-lane service configuration. `admit_us` must be null — the sharded
  /// service owns one latency sink per lane (record_admit_us below);
  /// sharing one vector across worker threads would race.
  SessionServiceConfig base;
  /// Fixed logical partition count — the determinism unit. Results depend
  /// on lane_count (it defines the traffic and capacity split), never on
  /// shard_count.
  std::size_t lane_count = 1;
  /// Worker threads stepping the lanes (clamped to the pool size at run
  /// time). Purely a performance knob.
  std::size_t shard_count = 1;
  /// Give every lane an admission-latency sink (microseconds per routed
  /// arrival, admission order); read back via lane_admit_us().
  bool record_admit_us = false;
  /// Give every lane its own flight recorder (base.recorder must be null —
  /// one recorder shared across worker threads would interleave seq
  /// assignment nondeterministically). Queried back through
  /// session_records() / find_session_record() / session_record_stats(),
  /// which merge lanes in a fixed order so results are bit-identical across
  /// shard counts.
  bool record_sessions = false;
  /// Per-lane record retention (SessionRecorderOptions::capacity).
  std::size_t recorder_capacity = 512;
  /// Happy-path keep rate in 1/1024ths (SessionRecorderOptions).
  std::uint32_t recorder_happy_keep_per_1024 = 128;
  /// Give every lane its own link ledger over its capacity slice
  /// (base.ledger must be null — one ledger shared across worker threads
  /// would interleave window accumulation nondeterministically). Queried
  /// back through link_stats() / explain_session(), which merge lanes in
  /// index order so documents are bit-identical across shard counts.
  bool record_links = false;
  /// Tumbling-window width for per-link windowed utilization.
  std::uint64_t ledger_window_slots = 64;
  /// Saturation-transition events retained per lane ledger.
  std::size_t ledger_event_capacity = 4096;
};

/// Merged outcome of one run_slots() call, lane-order deterministic.
struct ShardTickReport {
  /// Slots each lane advanced (lanes move in lockstep).
  std::uint64_t slots = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t admissions = 0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  /// Sum of every admitted tree's rate (see SlotReport::admitted_rate_sum).
  double admitted_rate_sum = 0.0;
  /// Sessions holding qubits across all lanes after the last slot.
  std::size_t active_sessions = 0;
  /// Qubit-weighted utilization across lanes after the last slot.
  double qubit_utilization = 0.0;
};

class ShardedSessionService {
 public:
  /// `network` must outlive the service. Lane l routes on a private copy
  /// whose switch budgets are its slice of `network`'s, seeded with
  /// Rng(seed) when lane_count == 1 (SessionService bit-identity) and
  /// Rng(seed).split(l) otherwise.
  ShardedSessionService(const net::QuantumNetwork& network,
                        ShardedSessionServiceConfig config,
                        std::uint64_t seed);
  ~ShardedSessionService();

  ShardedSessionService(const ShardedSessionService&) = delete;
  ShardedSessionService& operator=(const ShardedSessionService&) = delete;

  /// Advances every lane `n` slots on up to shard_count workers and merges
  /// the per-lane tallies in lane order. One call is one parallel dispatch,
  /// so an event-driven caller catching up on a batch of due slots pays the
  /// fork/join once, not per slot.
  ShardTickReport run_slots(std::uint64_t n);

  /// run_slots(1).
  ShardTickReport step() { return run_slots(1); }

  /// Slots played so far (identical for every lane). Safe to read while a
  /// tick runs on another thread; it then still names the previous tick.
  std::uint64_t slot() const noexcept {
    return slot_.load(std::memory_order_relaxed);
  }

  std::size_t lane_count() const noexcept { return lanes_.size(); }
  std::size_t shard_count() const noexcept { return config_.shard_count; }

  /// Sessions currently holding qubits, summed over lanes.
  std::size_t active_sessions() const noexcept;

  /// Gates arrivals in every lane (drain switch). Call between run_slots
  /// invocations only.
  void set_arrivals_enabled(bool enabled) noexcept;

  bool arrivals_enabled() const noexcept;

  // -------------------------------------------------------------------------
  // Runtime mutators, forwarded to every lane (ctl plane; call between
  // run_slots invocations only). All-or-nothing: the new value is validated
  // against lane 0 first, so a rejection leaves every lane unchanged.
  // Getters read lane 0 — lanes always share one configuration.

  bool set_arrival_prob(double prob, std::string* error = nullptr);
  double arrival_prob() const noexcept;
  bool set_arrival_burst(std::size_t burst, std::string* error = nullptr);
  std::size_t arrival_burst() const noexcept;
  bool set_batch_policy(routing::BatchPolicy policy,
                        std::string* error = nullptr);
  routing::BatchPolicy batch_policy() const noexcept;
  bool set_algorithm(const std::string& algorithm,
                     std::string* error = nullptr);
  const std::string& algorithm() const noexcept;

  /// Qubit-weighted utilization across lanes.
  double qubit_utilization() const noexcept;

  /// Lane-order deterministic merge of every lane's ProtocolMetrics:
  /// counters sum; mean_completion_slots weights lane means by completed
  /// sessions; mean_qubit_utilization weights by each lane's switch-qubit
  /// slice.
  ProtocolMetrics metrics() const;

  /// Metrics of one lane's embedded service.
  ProtocolMetrics lane_metrics(std::size_t lane) const;

  /// Admission latencies recorded by lane (empty unless record_admit_us).
  std::span<const double> lane_admit_us(std::size_t lane) const;

  // -------------------------------------------------------------------------
  // Flight-recorder queries (empty / no-ops unless record_sessions). Safe
  // while lanes run — each recorder takes its own short lock.

  /// Records matching `filter`, merged into one timeline: finalized records
  /// by end slot, then active ones by arrival slot, ties broken by lane
  /// index (each lane keeps its own order), so the result is deterministic
  /// across shard counts. filter.limit keeps the last n of that timeline;
  /// each lane copies at most n.
  std::vector<support::telemetry::SessionRecord> session_records(
      const support::telemetry::SessionFilter& filter = {}) const;

  /// A record by id (`lane << 32 | seq`) — routed straight to its lane.
  std::optional<support::telemetry::SessionRecord> find_session_record(
      std::uint64_t id) const;

  /// Lane-order merge of every lane recorder's Stats.
  support::telemetry::SessionRecorder::Stats session_record_stats() const;

  /// Finalizes every still-open record as drained at its lane's current
  /// slot (daemon shutdown). Call between run_slots invocations only.
  void finalize_session_records();

  // -------------------------------------------------------------------------
  // Link-ledger queries (empty unless record_links). Safe while lanes run —
  // each ledger takes its own short lock.

  /// Every link's merged view (edges first, then switches, index order):
  /// counts and capacity summed over lanes, utilizations capacity-weighted,
  /// endpoints (`a`/`b` / switch node id) filled from the base topology.
  /// Lane-order merge — bit-identical across shard counts.
  std::vector<support::telemetry::LinkStat> link_stats() const;

  /// A flight record joined with the links of ITS lane's capacity slice
  /// that were saturated at its admission slot — the explain document.
  /// nullopt when the id is unknown (or recording is off).
  struct ExplainedSession {
    support::telemetry::SessionRecord record;
    support::telemetry::SaturatedLinks saturated;
  };
  std::optional<ExplainedSession> explain_session(std::uint64_t id) const;

  /// Lane-order merge of every lane ledger's Stats.
  support::telemetry::LinkLedger::Stats link_ledger_stats() const;

  /// Per-shard instrument families registered (min(shard_count, 8) — the
  /// fold keeps the registry's fixed instrument caps safe at any shard
  /// count).
  static constexpr std::size_t kMaxShardFamilies = 8;

 private:
  struct Lane;
  struct ShardInstruments {
    support::telemetry::Counter slots;
    support::telemetry::Counter admitted;
    support::telemetry::Counter completed;
    support::telemetry::Histogram slot_us;
  };

  /// Steps lane `lane` by `n` slots, filling lane_ticks_[lane].
  void step_lane(std::size_t lane, std::uint64_t n);

  ShardedSessionServiceConfig config_;
  /// Base topology (outlives the service per the constructor contract);
  /// link_stats() reads endpoints from it.
  const net::QuantumNetwork* network_ = nullptr;
  /// unique_ptr: SessionService keeps pointers to its lane's network and
  /// rng, so Lane addresses must be stable.
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Per-lane partial reports for the current run_slots call; each worker
  /// writes only its own lanes' slots, the merge reads them after the join.
  std::vector<ShardTickReport> lane_ticks_;
  std::vector<ShardInstruments> shard_instruments_;
  std::atomic<std::uint64_t> slot_{0};
  int total_switch_qubits_ = 0;
};

}  // namespace muerp::sim
