// The muerpd daemon: the paper's §II-B admission loop as a long-running
// service with its observability and control planes.
//
// A Daemon steps a ShardedSessionService on a fixed slot grid
// (SlotScheduler) and serves, over one HttpExporter, the metrics pages,
// the sampler's time-series history, the flight recorder, the link ledger,
// the SLO alert table and the versioned command API (POST /api/v1/ctl).
// Every JSON page that mirrors a ctl verb runs that verb, so curl and
// `muerpctl ctl` see the same documents and the same argument checks.
//
// Threads: run() is the loop thread and the only one that touches the
// session service's mutable state. Control mutations reach it through a
// ControlMailbox drained at tick boundaries, so a setter never races a
// routing pass and a paused-then-resumed run plays the same slots as one
// that never paused. Reads (/healthz, `ctl status`, `ctl get`) copy the
// snapshot the loop thread publishes after every tick and every mutation;
// they never wait for a routing pass.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ctl/command_registry.hpp"
#include "ctl/history.hpp"
#include "ctl/mailbox.hpp"
#include "daemon/settings.hpp"
#include "network/quantum_network.hpp"
#include "simulation/sharded_session_service.hpp"
#include "support/json.hpp"
#include "support/scheduler.hpp"
#include "support/table.hpp"
#include "support/telemetry/alerts.hpp"
#include "support/telemetry/http_exporter.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/sampler.hpp"
#include "support/telemetry/timeseries.hpp"

namespace muerp::daemon {

class Daemon {
 public:
  /// Builds the served network and every plane from checked settings.
  /// Throws std::invalid_argument with the reason when the configuration
  /// is refused: an unreadable network file, group sizes the network
  /// cannot hold, a history file that cannot be opened, or a combination
  /// the session service refuses.
  explicit Daemon(DaemonConfig config);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Publishes the slot-0 snapshot, binds the HTTP plane and starts the
  /// sampler. False (with *error set) when the endpoint cannot be bound.
  bool start(std::string* error);

  /// The bound HTTP port; valid after start().
  std::uint16_t port() const noexcept { return exporter_.port(); }

  /// Plays slots on the calling thread until --slots slots were played, a
  /// `ctl drain` finished, or `stop` turned non-zero: 1 stops arrivals and
  /// lets in-flight sessions finish (bounded by the session timeout), 2 or
  /// more skips that drain. Then finalizes the flight records and the
  /// history file, stops the planes and writes --snapshot-out.
  void run(const std::atomic<int>& stop);

  /// Runs one ctl verb as POST /api/v1/ctl does.
  ctl::CommandResult command(std::string_view cmd,
                             const support::json::Value& args) const {
    return registry_.run(cmd, args);
  }

  /// The exit summary table; complete once run() returned.
  support::Table summary() const;

 private:
  enum class RunState { kRunning, kPaused, kDraining };
  static const char* state_name(RunState state);

  /// Everything the acceptor thread reports about the slot loop.
  struct ReadSnapshot {
    RunState state = RunState::kRunning;
    std::uint64_t slot = 0;
    std::uint64_t active = 0;
    std::uint64_t arrived = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t rejected = 0;
    bool arrivals_enabled = true;
    /// render() of each mutable settings row, in live_rows_ order.
    std::vector<std::string> settings;
  };

  using RouteHandler = support::telemetry::HttpExporter::RouteHandler;

  void add_settings_plane();
  void add_lifecycle_plane();
  void add_recorder_plane();
  void add_network_plane();
  void add_alert_plane();
  void add_ctl_route();

  /// A GET handler that runs verb `cmd`: query keys become its arguments,
  /// the path tail after `prefix` (when given) becomes `id`, and the
  /// members of `fixed` override both. Failures map ctl codes to HTTP
  /// statuses (not_found 404, internal 500, every other refusal 400).
  RouteHandler serve_verb(std::string cmd, std::string prefix = {},
                          support::json::Value fixed = {});

  /// Loop thread: republishes the read snapshot.
  void publish();
  ReadSnapshot read_snapshot() const;
  /// Runs `action` on the loop thread at the next tick boundary and
  /// republishes before the reply returns, so reads see their own writes.
  ctl::CommandResult mutate(std::function<ctl::CommandResult()> action);
  /// Mutations are refused once the daemon is committed to exiting.
  std::optional<ctl::CommandResult> refuse_if_draining() const;

  void play(std::uint64_t due);
  void drain_on_signal(const std::atomic<int>& stop);
  void publish_hot_links();
  /// Appends the counter deltas since the last append (at most every
  /// 250 ms unless forced); a no-op without --history.
  void flush_history(bool force);
  ctl::CommandResult lifetime();

  // Boot configuration; the mutable rows track their live values. Loop
  // thread only once run() started (the acceptor thread reads the
  // snapshot and the const copies below instead).
  DaemonConfig config_;
  const std::string algorithm_label_;  // names the per-algorithm families
  const std::string ctl_token_;
  const bool has_history_;
  net::QuantumNetwork network_;
  sim::ShardedSessionService service_;

  ctl::HistoryLog history_;
  sim::ProtocolMetrics history_flushed_;
  std::uint64_t history_flushed_slots_ = 0;
  std::uint64_t history_last_append_ns_ = 0;

  // The historical plane: the sampler captures the registry into the store
  // on its own thread and evaluates the alert rules right after each
  // capture. Declared in dependency order so the sampler stops first.
  support::telemetry::TimeSeriesStore store_;
  support::telemetry::AlertRules alerts_;
  std::atomic<std::uint64_t> alerts_firing_{0};
  support::telemetry::Sampler sampler_;
  LiveTargets live_{service_, sampler_};

  support::SlotScheduler scheduler_;
  ctl::ControlMailbox mailbox_;
  RunState run_state_ = RunState::kRunning;  // loop thread
  std::uint64_t drain_started_slot_ = 0;     // loop thread
  std::uint64_t drain_slots_ = 0;
  std::uint64_t drained_completed_ = 0;

  /// The mutable settings rows, in snapshot order.
  std::vector<const Setting*> live_rows_;
  std::size_t algorithm_row_ = 0;  // index of `algorithm` in live_rows_
  mutable std::mutex snapshot_mutex_;
  ReadSnapshot snapshot_;  // guarded by snapshot_mutex_, held only to copy

  ctl::CommandRegistry registry_;

  // Per-algorithm instruments (one daemon, one algorithm, but a Prometheus
  // server aggregating several muerpds can tell them apart by name).
  const support::telemetry::Counter slots_counter_;
  const support::telemetry::Counter requests_counter_;
  const support::telemetry::Counter admitted_counter_;
  const support::telemetry::Counter completed_counter_;
  const support::telemetry::Histogram slot_us_histogram_;
  // Scheduler lag: due-but-unplayed slots and the overrun past the grid.
  const support::telemetry::Gauge backlog_gauge_;
  const support::telemetry::Gauge overrun_gauge_;
  // Hot links: the top-5 utilizations (rank k in net/link_util/top<k>) and
  // a histogram of the same values in percent, without one family per link
  // (the registry's instrument caps are fixed).
  std::vector<support::telemetry::Gauge> link_util_gauges_;
  const support::telemetry::Histogram link_util_histogram_;

  // Last: its acceptor thread calls into everything above.
  support::telemetry::HttpExporter exporter_;
};

}  // namespace muerp::daemon
