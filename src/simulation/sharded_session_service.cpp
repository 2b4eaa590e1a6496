#include "simulation/sharded_session_service.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/thread_pool.hpp"

namespace muerp::sim {

struct ShardedSessionService::Lane {
  net::QuantumNetwork network;
  support::Rng rng;
  std::vector<double> admit_us;
  /// This lane's share of the switch qubit pool (the utilization weight).
  int switch_qubits = 0;
  /// Per-lane flight recorder (engaged when record_sessions); must be
  /// emplaced before `service` so the config pointer binds to stable
  /// storage.
  std::optional<support::telemetry::SessionRecorder> recorder;
  /// Per-lane link ledger over this lane's capacity slice (engaged when
  /// record_links); same stable-storage ordering constraint.
  std::optional<support::telemetry::LinkLedger> ledger;
  /// Emplaced after network/rng so the service's internal pointers bind to
  /// this Lane's stable storage.
  std::optional<SessionService> service;

  Lane(net::QuantumNetwork lane_network, support::Rng lane_rng)
      : network(std::move(lane_network)), rng(lane_rng) {}
};

namespace {

/// Lane `lane` of `lanes` gets Q/lanes qubits of every switch, the first
/// Q % lanes lanes one more — so lane slices always sum to exactly Q.
/// Non-switch budgets (ignored by the library anyway) pass through. The
/// graph copy gets a fresh topology_version, which keys each lane onto its
/// own SPF CSR cache entry.
net::QuantumNetwork make_lane_network(const net::QuantumNetwork& base,
                                      std::size_t lane, std::size_t lanes) {
  std::vector<net::NodeKind> kinds(base.node_count());
  std::vector<int> qubits(base.node_count());
  const int l = static_cast<int>(lanes);
  for (std::size_t i = 0; i < base.node_count(); ++i) {
    const auto v = static_cast<net::NodeId>(i);
    kinds[i] = base.kind(v);
    const int q = base.qubits(v);
    qubits[i] = base.is_switch(v)
                    ? q / l + (static_cast<int>(lane) < q % l ? 1 : 0)
                    : q;
  }
  return net::QuantumNetwork(
      base.graph(),
      std::vector<support::Point2D>(base.positions().begin(),
                                    base.positions().end()),
      std::move(kinds), std::move(qubits), base.physical());
}

}  // namespace

ShardedSessionService::ShardedSessionService(
    const net::QuantumNetwork& network, ShardedSessionServiceConfig config,
    std::uint64_t seed)
    : config_(std::move(config)) {
  if (config_.lane_count == 0 || config_.shard_count == 0) {
    throw std::invalid_argument(
        "ShardedSessionServiceConfig: lane_count and shard_count must be "
        ">= 1");
  }
  if (config_.base.admit_us != nullptr) {
    throw std::invalid_argument(
        "ShardedSessionServiceConfig: base.admit_us must be null — set "
        "record_admit_us and read lane_admit_us() instead (one shared sink "
        "would race across shards)");
  }
  if (config_.base.recorder != nullptr) {
    throw std::invalid_argument(
        "ShardedSessionServiceConfig: base.recorder must be null — set "
        "record_sessions and query session_records() instead (one shared "
        "recorder would assign seq numbers nondeterministically across "
        "shards)");
  }
  if (config_.base.ledger != nullptr) {
    throw std::invalid_argument(
        "ShardedSessionServiceConfig: base.ledger must be null — set "
        "record_links and query link_stats() instead (one shared ledger "
        "would interleave window accumulation nondeterministically across "
        "shards)");
  }
  network_ = &network;

  const support::Rng master(seed);
  lanes_.reserve(config_.lane_count);
  for (std::size_t lane = 0; lane < config_.lane_count; ++lane) {
    // lane_count == 1 keeps the undivided seed stream so the single lane is
    // bit-identical to SessionService(network, base, Rng(seed)).
    support::Rng lane_rng =
        config_.lane_count == 1 ? master : master.split(lane);
    auto entry = std::make_unique<Lane>(
        make_lane_network(network, lane, config_.lane_count), lane_rng);
    for (net::NodeId sw : entry->network.switches()) {
      entry->switch_qubits += entry->network.qubits(sw);
    }
    total_switch_qubits_ += entry->switch_qubits;
    SessionServiceConfig lane_config = config_.base;
    if (config_.record_admit_us) {
      lane_config.admit_us = &entry->admit_us;
    }
    if (config_.record_sessions) {
      support::telemetry::SessionRecorderOptions recorder_options;
      recorder_options.lane = static_cast<std::uint32_t>(lane);
      recorder_options.capacity = config_.recorder_capacity;
      recorder_options.happy_keep_per_1024 =
          config_.recorder_happy_keep_per_1024;
      entry->recorder.emplace(recorder_options);
      lane_config.recorder = &*entry->recorder;
    }
    if (config_.record_links) {
      support::telemetry::LinkLedgerOptions ledger_options;
      ledger_options.lane = static_cast<std::uint32_t>(lane);
      ledger_options.window_slots = config_.ledger_window_slots;
      ledger_options.event_capacity = config_.ledger_event_capacity;
      // Capacities come from the LANE network: each ledger scores its own
      // slice, and the merged capacity-weighted view sums back to the full
      // pool.
      entry->ledger.emplace(ledger_edge_capacity(entry->network),
                            ledger_switch_capacity(entry->network),
                            ledger_options);
      lane_config.ledger = &*entry->ledger;
    }
    entry->service.emplace(entry->network, std::move(lane_config),
                           entry->rng);
    lanes_.push_back(std::move(entry));
  }
  lane_ticks_.resize(lanes_.size());

  const std::size_t families =
      std::min(config_.shard_count, kMaxShardFamilies);
  shard_instruments_.reserve(families);
  for (std::size_t k = 0; k < families; ++k) {
    const std::string prefix = "muerpd/shard/" + std::to_string(k) + "/";
    shard_instruments_.push_back(
        {support::telemetry::Counter(prefix + "slots"),
         support::telemetry::Counter(prefix + "admitted"),
         support::telemetry::Counter(prefix + "completed"),
         support::telemetry::Histogram(prefix + "slot_us")});
  }
}

ShardedSessionService::~ShardedSessionService() = default;

void ShardedSessionService::step_lane(std::size_t lane, std::uint64_t n) {
  Lane& entry = *lanes_[lane];
  ShardTickReport tick;
  const std::uint64_t t0 = support::telemetry::monotonic_now_ns();
  for (std::uint64_t s = 0; s < n; ++s) {
    const SlotReport report = entry.service->step();
    tick.arrivals += report.arrivals;
    tick.admissions += report.admissions;
    tick.completed += report.completed;
    tick.timed_out += report.timed_out;
    tick.admitted_rate_sum += report.admitted_rate_sum;
  }
  const std::uint64_t elapsed = support::telemetry::monotonic_now_ns() - t0;
  tick.slots = n;
  tick.active_sessions = entry.service->active_sessions();
  tick.qubit_utilization = entry.service->qubit_utilization();
  lane_ticks_[lane] = tick;

  // Shard attribution is logical (lane % shard_count), not "whichever
  // worker ran it" — so the exported families are stable across pool sizes.
  const ShardInstruments& shard =
      shard_instruments_[lane % config_.shard_count % kMaxShardFamilies];
  shard.slots.add(n);
  shard.admitted.add(tick.admissions);
  shard.completed.add(tick.completed);
  // Mean per-slot latency of this lane batch (one observation per
  // run_slots per lane, not per slot — documented in OBSERVABILITY.md).
  shard.slot_us.observe(static_cast<double>(elapsed) /
                        (1e3 * static_cast<double>(n)));
}

ShardTickReport ShardedSessionService::run_slots(std::uint64_t n) {
  ShardTickReport merged;
  if (n == 0) {
    merged.active_sessions = active_sessions();
    merged.qubit_utilization = qubit_utilization();
    return merged;
  }
  support::ThreadPool::shared().parallel_for(
      lanes_.size(), static_cast<unsigned>(config_.shard_count),
      [&](std::size_t lane) { step_lane(lane, n); });
  slot_ += n;

  // Fixed lane-order merge: float sums associate identically no matter how
  // many workers stepped the lanes.
  merged.slots = n;
  for (const ShardTickReport& tick : lane_ticks_) {
    merged.arrivals += tick.arrivals;
    merged.admissions += tick.admissions;
    merged.completed += tick.completed;
    merged.timed_out += tick.timed_out;
    merged.admitted_rate_sum += tick.admitted_rate_sum;
    merged.active_sessions += tick.active_sessions;
  }
  merged.qubit_utilization = qubit_utilization();
  return merged;
}

std::size_t ShardedSessionService::active_sessions() const noexcept {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->service->active_sessions();
  return total;
}

void ShardedSessionService::set_arrivals_enabled(bool enabled) noexcept {
  for (const auto& lane : lanes_) lane->service->set_arrivals_enabled(enabled);
}

bool ShardedSessionService::arrivals_enabled() const noexcept {
  return lanes_.front()->service->arrivals_enabled();
}

// Forwarded setters validate against lane 0 first so a rejection mutates
// nothing; lanes past 0 then apply a value lane 0 already accepted (every
// lane shares one configuration, so acceptance is uniform).
bool ShardedSessionService::set_arrival_prob(double prob,
                                             std::string* error) {
  if (!lanes_.front()->service->set_arrival_prob(prob, error)) return false;
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    lanes_[l]->service->set_arrival_prob(prob);
  }
  return true;
}

double ShardedSessionService::arrival_prob() const noexcept {
  return lanes_.front()->service->arrival_prob();
}

bool ShardedSessionService::set_arrival_burst(std::size_t burst,
                                              std::string* error) {
  if (!lanes_.front()->service->set_arrival_burst(burst, error)) return false;
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    lanes_[l]->service->set_arrival_burst(burst);
  }
  config_.base.arrival_burst = burst;
  return true;
}

std::size_t ShardedSessionService::arrival_burst() const noexcept {
  return lanes_.front()->service->arrival_burst();
}

bool ShardedSessionService::set_batch_policy(routing::BatchPolicy policy,
                                             std::string* error) {
  if (!lanes_.front()->service->set_batch_policy(policy, error)) return false;
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    lanes_[l]->service->set_batch_policy(policy);
  }
  config_.base.batch_policy = policy;
  return true;
}

routing::BatchPolicy ShardedSessionService::batch_policy() const noexcept {
  return lanes_.front()->service->batch_policy();
}

bool ShardedSessionService::set_algorithm(const std::string& algorithm,
                                          std::string* error) {
  if (!lanes_.front()->service->set_algorithm(algorithm, error)) return false;
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    lanes_[l]->service->set_algorithm(algorithm);
  }
  config_.base.algorithm = algorithm;
  return true;
}

const std::string& ShardedSessionService::algorithm() const noexcept {
  return lanes_.front()->service->algorithm();
}

double ShardedSessionService::qubit_utilization() const noexcept {
  if (total_switch_qubits_ <= 0) return 0.0;
  double weighted = 0.0;
  for (const auto& lane : lanes_) {
    weighted += lane->service->qubit_utilization() *
                static_cast<double>(lane->switch_qubits);
  }
  return weighted / static_cast<double>(total_switch_qubits_);
}

ProtocolMetrics ShardedSessionService::metrics() const {
  ProtocolMetrics merged;
  double completion_weighted = 0.0;
  double utilization_weighted = 0.0;
  for (const auto& lane : lanes_) {
    const ProtocolMetrics m = lane->service->metrics();
    merged.sessions_arrived += m.sessions_arrived;
    merged.sessions_admitted += m.sessions_admitted;
    merged.sessions_rejected += m.sessions_rejected;
    merged.sessions_completed += m.sessions_completed;
    merged.sessions_timed_out += m.sessions_timed_out;
    merged.sessions_in_flight += m.sessions_in_flight;
    completion_weighted +=
        m.mean_completion_slots * static_cast<double>(m.sessions_completed);
    utilization_weighted += m.mean_qubit_utilization *
                            static_cast<double>(lane->switch_qubits);
  }
  merged.mean_completion_slots =
      merged.sessions_completed == 0
          ? 0.0
          : completion_weighted /
                static_cast<double>(merged.sessions_completed);
  merged.mean_qubit_utilization =
      total_switch_qubits_ <= 0
          ? 0.0
          : utilization_weighted / static_cast<double>(total_switch_qubits_);
  return merged;
}

ProtocolMetrics ShardedSessionService::lane_metrics(std::size_t lane) const {
  return lanes_.at(lane)->service->metrics();
}

std::span<const double> ShardedSessionService::lane_admit_us(
    std::size_t lane) const {
  return lanes_.at(lane)->admit_us;
}

std::vector<support::telemetry::SessionRecord>
ShardedSessionService::session_records(
    const support::telemetry::SessionFilter& filter) const {
  using support::telemetry::SessionRecord;
  // Every lane copies at most filter.limit records: no lane can place more
  // than that in the merged tail.
  std::vector<SessionRecord> merged;
  for (const auto& lane : lanes_) {
    if (!lane->recorder) continue;
    auto records = lane->recorder->records(filter);
    merged.insert(merged.end(),
                  std::make_move_iterator(records.begin()),
                  std::make_move_iterator(records.end()));
  }
  // One timeline across lanes: finalized records by end slot, then active
  // ones by arrival slot. Each lane's list is already in that order and the
  // lanes were appended in index order, so the stable sort breaks ties by
  // lane and keeps each lane's own order.
  const auto timeline = [](const SessionRecord& record) {
    const bool active =
        record.state == support::telemetry::SessionState::kActive;
    return std::pair(active, active ? record.arrival_slot : record.end_slot);
  };
  std::stable_sort(merged.begin(), merged.end(),
                   [&timeline](const SessionRecord& a, const SessionRecord& b) {
                     return timeline(a) < timeline(b);
                   });
  if (filter.limit > 0 && merged.size() > filter.limit) {
    merged.erase(merged.begin(),
                 merged.begin() + static_cast<std::ptrdiff_t>(
                                      merged.size() - filter.limit));
  }
  return merged;
}

std::optional<support::telemetry::SessionRecord>
ShardedSessionService::find_session_record(std::uint64_t id) const {
  const std::size_t lane = static_cast<std::size_t>(id >> 32);
  if (lane >= lanes_.size() || !lanes_[lane]->recorder) return std::nullopt;
  return lanes_[lane]->recorder->find(id);
}

support::telemetry::SessionRecorder::Stats
ShardedSessionService::session_record_stats() const {
  support::telemetry::SessionRecorder::Stats merged;
  for (const auto& lane : lanes_) {
    if (lane->recorder) merged.merge(lane->recorder->stats());
  }
  return merged;
}

void ShardedSessionService::finalize_session_records() {
  for (const auto& lane : lanes_) {
    if (lane->recorder) {
      lane->recorder->finalize_open(lane->service->slot());
    }
  }
}

std::vector<support::telemetry::LinkStat>
ShardedSessionService::link_stats() const {
  std::vector<support::telemetry::LinkStat> merged;
  for (const auto& lane : lanes_) {
    if (!lane->ledger) continue;
    // Lanes run in lockstep, so the merged slot is every lane's "now".
    // It is read off the loop thread too (the daemon's link pages); during
    // a tick it still names the previous one, which a ledger snapshot
    // takes as "no time has passed".
    support::telemetry::merge_link_stats(merged,
                                         lane->ledger->snapshot(slot()));
  }
  support::telemetry::finalize_merged_link_stats(merged);
  // Endpoints from the base topology: edge a/b, switch node id in `a`.
  const auto edges = network_->graph().edges();
  for (support::telemetry::LinkStat& stat : merged) {
    if (stat.kind == support::telemetry::LinkKind::kEdge) {
      stat.a = edges[stat.index].a;
      stat.b = edges[stat.index].b;
    } else {
      stat.a = network_->switches()[stat.index];
      stat.b = 0;
    }
  }
  return merged;
}

std::optional<ShardedSessionService::ExplainedSession>
ShardedSessionService::explain_session(std::uint64_t id) const {
  const auto record = find_session_record(id);
  if (!record) return std::nullopt;
  ExplainedSession out;
  out.record = *record;
  // The session routed against ITS lane's capacity slice, so the lane
  // ledger is the one whose saturation history explains the verdict.
  const std::size_t lane = static_cast<std::size_t>(id >> 32);
  if (lane < lanes_.size() && lanes_[lane]->ledger) {
    out.saturated = lanes_[lane]->ledger->saturated_at(record->arrival_slot);
  }
  return out;
}

support::telemetry::LinkLedger::Stats
ShardedSessionService::link_ledger_stats() const {
  support::telemetry::LinkLedger::Stats merged;
  for (const auto& lane : lanes_) {
    if (lane->ledger) merged.merge(lane->ledger->stats());
  }
  return merged;
}

}  // namespace muerp::sim
