// Per-session flight recorder with deterministic tail sampling.
//
// Counters and histograms answer "how many sessions were rejected"; a
// production routing service also has to answer "why was THIS session
// rejected" — which group asked, what the admission pass actually did, how
// long the tree was held before it timed out. SessionRecorder captures one
// structured SessionRecord per session (arrival slot, lane, requested
// group, admission verdict + rejection reason, algorithm/policy, routing
// work performed during admission, execution-window outcome and terminal
// state) in a bounded per-lane ring.
//
// Memory stays bounded at scale through TAIL SAMPLING: the interesting tail
// is always kept (rejected, timed-out and drained sessions, plus completed
// sessions slower than the lane's p99 held-slots), while happy-path
// completions are probabilistically downsampled. Every sampling decision is
// a pure function of the session's own id (a splitmix64 hash) and of
// lane-local completion history — the recorder NEVER draws from the
// simulation Rng, so recording cannot perturb admission decisions, and a
// lane's kept records are bit-identical no matter how many worker shards
// stepped it.
//
// Record ids are `lane << 32 | seq` with seq starting at 1 and assigned in
// arrival order on the lane's own (single-threaded) step path, so ids and
// record contents are deterministic across shard counts; 0 is never a valid
// id (ActiveSession uses it as "no record"). A short mutex guards the ring
// against concurrent readers (HTTP acceptor / ctl handlers) — writers are
// per-lane sequential, so the lock is uncontended on the hot path.
//
// Under -DMUERP_TELEMETRY=OFF the recorder compiles to an inert stub: open/
// close/reject are no-ops, queries return empty, and the instrumented
// services keep the exact same code shape (no #if at call sites).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#ifndef MUERP_TELEMETRY_ENABLED
#define MUERP_TELEMETRY_ENABLED 1  // standalone use outside the CMake build
#endif

#if MUERP_TELEMETRY_ENABLED
#include <array>
#include <deque>
#include <mutex>
#endif

namespace muerp::support::telemetry {

/// Terminal (or in-flight) state of a recorded session.
enum class SessionState : std::uint8_t {
  kActive = 0,     ///< admitted, still holding qubits
  kCompleted = 1,  ///< execution window succeeded
  kTimedOut = 2,   ///< expired after session_timeout_slots failures
  kRejected = 3,   ///< admission refused the group
  kDrained = 4,    ///< daemon shut down while the session was in flight
};

/// Why admission refused a session (kNone for admitted ones).
enum class RejectReason : std::uint8_t {
  kNone = 0,
  /// The routing pass found no feasible tree in the residual network.
  kNoFeasibleTree = 1,
  /// A registry router returned a tree, but the admission guard found it
  /// does not fit the qubits actually free (capacity-oblivious baseline).
  kCapacityGuard = 2,
  /// Lost the burst contention resolution: the batch policy served at
  /// least one sibling of the same multi-request batch, so this group was
  /// refused capacity that batch siblings consumed this very slot.
  kContentionLoss = 3,
};

const char* session_state_name(SessionState state) noexcept;
const char* reject_reason_name(RejectReason reason) noexcept;

/// Parses the names session_state_name produces ("active", "completed",
/// "timed_out", "rejected", "drained"); false on anything else.
bool parse_session_state(std::string_view name, SessionState* out) noexcept;

/// Routing work performed by the admission pass that handled this session,
/// as thread-local counter deltas captured around the routing call. Only
/// counters that are deterministic per lane are included — thread-cached
/// CSR hit counters depend on worker scheduling and would break cross-shard
/// bit-identity. Under burst intake one routing call admits a whole batch,
/// so every record of that batch carries the batch-level delta.
struct RoutingWork {
  /// SPF kernel invocations (spf/runs).
  std::uint64_t spf_runs = 0;
  /// Early-exit Dijkstras the batch kernel ran (batch/dijkstra_runs).
  std::uint64_t dijkstra_runs = 0;
  /// Warm slab reuses in the batch kernel (batch/tree_cache_hits).
  std::uint64_t slab_hits = 0;
  /// Requests deferred by the contention policy (batch/deferred).
  std::uint64_t contention_losses = 0;

  friend bool operator==(const RoutingWork&, const RoutingWork&) = default;
};

/// This thread's cumulative values of the RoutingWork counters (zero in an
/// OFF build). Callers diff two captures around a routing call.
RoutingWork capture_routing_work() noexcept;

/// Element-wise `after - before` (saturating at zero).
RoutingWork routing_work_delta(const RoutingWork& before,
                               const RoutingWork& after) noexcept;

/// One session's flight record. Every field is deterministic — no wall
/// clock, no thread ids — so records compare bit-identical across shard
/// counts and across ON-build runs.
struct SessionRecord {
  std::uint64_t id = 0;  ///< lane << 32 | seq (seq starts at 1; 0 = none)
  std::uint32_t lane = 0;
  std::uint32_t seq = 0;
  std::uint64_t arrival_slot = 0;
  /// Slot of the terminal event (equal to arrival_slot for rejections; 0
  /// while the session is active).
  std::uint64_t end_slot = 0;
  /// Execution windows the session held qubits for (0 for rejections).
  std::uint64_t held_slots = 0;
  SessionState state = SessionState::kActive;
  RejectReason reject_reason = RejectReason::kNone;
  /// Rejected with >= 90% of the lane's qubit pool pledged — the switch
  /// fabric, not the topology, refused the session.
  bool saturated = false;
  /// Requested user group (node ids, in draw order).
  std::vector<std::uint32_t> group;
  /// Admission algorithm label ("prim-shared" for the built-in pass).
  std::string algorithm;
  /// Intake path: "single" or the burst batch-policy name.
  std::string policy;
  /// Entanglement rate of the admitted tree (0 for rejections).
  double tree_rate = 0.0;
  /// Channels in the admitted tree (0 for rejections).
  std::uint32_t tree_channels = 0;
  RoutingWork work;

  friend bool operator==(const SessionRecord&, const SessionRecord&) = default;
};

/// Query filter for SessionRecorder::records(). Unset members match
/// everything; the slot range filters on arrival_slot (inclusive).
struct SessionFilter {
  std::optional<SessionState> state;
  std::optional<std::uint32_t> lane;
  std::string algorithm;  ///< empty = any
  std::optional<std::uint64_t> min_slot;
  std::optional<std::uint64_t> max_slot;
  /// Keep only the LAST n matches (most recent); 0 = unlimited.
  std::size_t limit = 0;
};

struct SessionRecorderOptions {
  std::uint32_t lane = 0;
  /// Finalized records retained per recorder (oldest evicted beyond this).
  std::size_t capacity = 512;
  /// Happy-path keep probability in 1/1024ths, applied via a splitmix64
  /// hash of the record id (0 keeps only the tail, 1024 keeps everything).
  std::uint32_t happy_keep_per_1024 = 128;
};

#if MUERP_TELEMETRY_ENABLED

class SessionRecorder {
 public:
  /// Completed sessions are compared against the lane p99 only once this
  /// many completions accumulated (an early p99 over a handful of samples
  /// would be noise, keeping everything).
  static constexpr std::uint64_t kMinCompletionsForP99 = 100;

  explicit SessionRecorder(SessionRecorderOptions options = {});

  /// Opens a record for an admitted session and returns its id. `draft`
  /// carries the admission-time fields (arrival_slot, group, algorithm,
  /// policy, tree_rate, tree_channels, work); id/lane/seq/state are
  /// assigned here.
  std::uint64_t open(SessionRecord draft);

  /// Finalizes a rejected session immediately (rejections are the tail —
  /// always kept). Returns the assigned id.
  std::uint64_t reject(SessionRecord draft);

  /// Finalizes an open record with its terminal state. Completed records
  /// go through tail sampling; timed-out and drained ones are always kept.
  void close(std::uint64_t id, SessionState state, std::uint64_t end_slot,
             std::uint64_t held_slots);

  /// Finalizes every still-open record as kDrained at `end_slot` (daemon
  /// shutdown with sessions in flight).
  void finalize_open(std::uint64_t end_slot);

  /// Retained records matching `filter`: finalized ones oldest-first, then
  /// the still-open (kActive) ones in seq order. With filter.limit = n only
  /// the last n are copied out (the walk starts at the newest end).
  std::vector<SessionRecord> records(const SessionFilter& filter = {}) const;

  /// A record by id, searching open records and the retained ring.
  std::optional<SessionRecord> find(std::uint64_t id) const;

  struct Stats {
    std::uint64_t opened = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t drained = 0;
    /// Finalized records retained (kept) vs dropped by happy-path sampling.
    std::uint64_t kept = 0;
    std::uint64_t sampled_out = 0;
    /// Current lane p99 of completed held-slots (0 until kMinCompletions...).
    std::uint64_t p99_held_slots = 0;

    Stats& merge(const Stats& other) noexcept;
  };
  Stats stats() const;

  const SessionRecorderOptions& options() const noexcept { return options_; }

  /// splitmix64 finalizer — the deterministic hash behind happy-path
  /// sampling (public so tests can predict keep decisions).
  static std::uint64_t mix(std::uint64_t x) noexcept;

 private:
  /// Held-slots histogram bucket: identity up to kHeldBuckets - 1, the last
  /// bucket collects everything slower.
  static constexpr std::size_t kHeldBuckets = 64;

  /// Smallest h such that >= 99% of completed sessions held <= h slots.
  /// Callers hold mutex_.
  std::uint64_t p99_locked() const noexcept;

  /// Applies the keep decision and retention. Callers hold mutex_.
  void finalize_locked(SessionRecord record);

  SessionRecorderOptions options_;
  mutable std::mutex mutex_;
  std::uint32_t next_seq_ = 1;  // 0 is reserved for "no record"
  std::vector<SessionRecord> open_;
  std::deque<SessionRecord> ring_;
  std::array<std::uint64_t, kHeldBuckets> held_hist_{};
  std::uint64_t held_total_ = 0;
  Stats stats_;
};

#else  // MUERP_TELEMETRY_ENABLED

/// Inert stub: the instrumented services keep their exact code shape while
/// recording compiles to nothing.
class SessionRecorder {
 public:
  static constexpr std::uint64_t kMinCompletionsForP99 = 100;

  explicit SessionRecorder(SessionRecorderOptions options = {})
      : options_(options) {}

  std::uint64_t open(SessionRecord) { return 0; }
  std::uint64_t reject(SessionRecord) { return 0; }
  void close(std::uint64_t, SessionState, std::uint64_t, std::uint64_t) {}
  void finalize_open(std::uint64_t) {}
  std::vector<SessionRecord> records(const SessionFilter& = {}) const {
    return {};
  }
  std::optional<SessionRecord> find(std::uint64_t) const {
    return std::nullopt;
  }

  struct Stats {
    std::uint64_t opened = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t drained = 0;
    std::uint64_t kept = 0;
    std::uint64_t sampled_out = 0;
    std::uint64_t p99_held_slots = 0;

    Stats& merge(const Stats&) noexcept { return *this; }
  };
  Stats stats() const { return {}; }

  const SessionRecorderOptions& options() const noexcept { return options_; }

  static std::uint64_t mix(std::uint64_t) noexcept { return 0; }

 private:
  SessionRecorderOptions options_;
};

#endif  // MUERP_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// JSON rendering (compiled in both builds, so an OFF daemon serves
// empty-but-valid documents). Shared by muerpd's HTTP routes and the
// `muerpctl ctl sessions|session` verbs so both render identically.

/// One record as a JSON object.
std::string session_record_json(const SessionRecord& record);

/// {"count": N, "stats": {...}, "sessions": [...]}\n — the
/// GET /api/v1/sessions document.
std::string session_records_json(const std::vector<SessionRecord>& records,
                                 const SessionRecorder::Stats& stats);

/// The record as a Chrome trace-event document (load in chrome://tracing or
/// Perfetto): pid = lane, tid = seq, ts in µs = slot * 1000, one complete
/// event for admission, one spanning the qubit-hold window, and per-slot
/// attempt instants (capped at 256).
std::string session_trace_json(const SessionRecord& record);

}  // namespace muerp::support::telemetry
