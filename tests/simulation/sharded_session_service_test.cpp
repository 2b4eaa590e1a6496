#include "simulation/sharded_session_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "experiment/scenario.hpp"
#include "simulation/protocol.hpp"
#include "simulation/session_service.hpp"
#include "support/rng.hpp"

namespace muerp::sim {
namespace {

net::QuantumNetwork sharded_network(std::uint64_t seed = 11) {
  experiment::Scenario s;
  s.switch_count = 30;
  s.user_count = 8;
  // 16 qubits so a 4-lane slice still leaves every lane 4 per switch —
  // enough relay headroom that lanes actually admit sessions.
  s.qubits_per_switch = 16;
  s.attenuation = 2e-5;
  s.seed = seed;
  return experiment::instantiate(s, 0).network;
}

ShardedSessionServiceConfig sharded_config(std::size_t lanes,
                                           std::size_t shards) {
  ShardedSessionServiceConfig config;
  config.base.params.arrival_prob_per_slot = 0.4;
  config.base.params.session_timeout_slots = 40;
  config.lane_count = lanes;
  config.shard_count = shards;
  return config;
}

/// Exact (bitwise for the doubles) equality — the determinism contract.
void expect_metrics_identical(const ProtocolMetrics& a,
                              const ProtocolMetrics& b) {
  EXPECT_EQ(a.sessions_arrived, b.sessions_arrived);
  EXPECT_EQ(a.sessions_admitted, b.sessions_admitted);
  EXPECT_EQ(a.sessions_rejected, b.sessions_rejected);
  EXPECT_EQ(a.sessions_completed, b.sessions_completed);
  EXPECT_EQ(a.sessions_timed_out, b.sessions_timed_out);
  EXPECT_EQ(a.sessions_in_flight, b.sessions_in_flight);
  EXPECT_EQ(a.mean_completion_slots, b.mean_completion_slots);
  EXPECT_EQ(a.mean_qubit_utilization, b.mean_qubit_utilization);
}

struct RunOutcome {
  ProtocolMetrics metrics;
  std::vector<ShardTickReport> ticks;
  std::uint64_t drain_slots = 0;
};

/// Plays `slots` slots in uneven run_slots chunks, then drains.
RunOutcome play(ShardedSessionService& service, std::uint64_t slots,
                bool drain = false) {
  RunOutcome outcome;
  const std::uint64_t chunks[] = {1, 7, 64, 3};
  std::uint64_t played = 0;
  std::size_t next = 0;
  while (played < slots) {
    const std::uint64_t n =
        std::min(chunks[next++ % 4], slots - played);
    outcome.ticks.push_back(service.run_slots(n));
    played += n;
  }
  if (drain) {
    service.set_arrivals_enabled(false);
    while (service.active_sessions() > 0 && outcome.drain_slots < 10000) {
      service.step();
      ++outcome.drain_slots;
    }
  }
  outcome.metrics = service.metrics();
  return outcome;
}

TEST(ShardedSessionService, Lane1BitIdenticalToSessionService) {
  const auto net = sharded_network();
  // The 1-lane service must reproduce a plain SessionService on the same
  // seed bit for bit.
  ShardedSessionServiceConfig config =
      sharded_config(/*lanes=*/1, /*shards=*/1);
  ShardedSessionService sharded(net, config, /*seed=*/7);
  for (int i = 0; i < 500; ++i) sharded.step();

  support::Rng rng(7);
  SessionService plain(net, config.base, rng);
  for (int i = 0; i < 500; ++i) plain.step();

  expect_metrics_identical(sharded.metrics(), plain.metrics());
  EXPECT_EQ(sharded.active_sessions(), plain.active_sessions());
  EXPECT_EQ(sharded.qubit_utilization(), plain.qubit_utilization());
}

TEST(ShardedSessionService, MergedTotalsIdenticalAcrossShardCounts) {
  const auto net = sharded_network();
  RunOutcome reference;
  bool first = true;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedSessionService service(net, sharded_config(/*lanes=*/4, shards),
                                  /*seed=*/21);
    RunOutcome outcome = play(service, 400);
    if (first) {
      reference = std::move(outcome);
      first = false;
      ASSERT_GT(reference.metrics.sessions_arrived, 0u);
      ASSERT_GT(reference.metrics.sessions_admitted, 0u);
      continue;
    }
    expect_metrics_identical(outcome.metrics, reference.metrics);
    // The per-tick merge is deterministic too, not just the final totals.
    ASSERT_EQ(outcome.ticks.size(), reference.ticks.size());
    for (std::size_t i = 0; i < outcome.ticks.size(); ++i) {
      EXPECT_EQ(outcome.ticks[i].arrivals, reference.ticks[i].arrivals);
      EXPECT_EQ(outcome.ticks[i].admissions, reference.ticks[i].admissions);
      EXPECT_EQ(outcome.ticks[i].completed, reference.ticks[i].completed);
      EXPECT_EQ(outcome.ticks[i].timed_out, reference.ticks[i].timed_out);
      EXPECT_EQ(outcome.ticks[i].admitted_rate_sum,
                reference.ticks[i].admitted_rate_sum);
      EXPECT_EQ(outcome.ticks[i].active_sessions,
                reference.ticks[i].active_sessions);
      EXPECT_EQ(outcome.ticks[i].qubit_utilization,
                reference.ticks[i].qubit_utilization);
    }
  }
}

TEST(ShardedSessionService, DrainIdenticalAcrossShardCounts) {
  const auto net = sharded_network();
  RunOutcome reference;
  bool first = true;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedSessionService service(net, sharded_config(/*lanes=*/4, shards),
                                  /*seed=*/33);
    RunOutcome outcome = play(service, 300, /*drain=*/true);
    EXPECT_EQ(service.active_sessions(), 0u);
    if (first) {
      reference = std::move(outcome);
      first = false;
      continue;
    }
    expect_metrics_identical(outcome.metrics, reference.metrics);
    EXPECT_EQ(outcome.drain_slots, reference.drain_slots);
  }
}

TEST(ShardedSessionService, RepeatedRunsDeterministic) {
  const auto net = sharded_network();
  ShardedSessionService first(net, sharded_config(/*lanes=*/4, /*shards=*/8),
                              /*seed=*/5);
  ShardedSessionService second(net, sharded_config(/*lanes=*/4, /*shards=*/8),
                               /*seed=*/5);
  play(first, 300);
  play(second, 300);
  expect_metrics_identical(first.metrics(), second.metrics());
}

TEST(ShardedSessionService, RunSlotsMatchesSingleSteps) {
  const auto net = sharded_network();
  ShardedSessionService batched(net, sharded_config(/*lanes=*/4, /*shards=*/2),
                                /*seed=*/9);
  ShardedSessionService stepped(net, sharded_config(/*lanes=*/4, /*shards=*/2),
                                /*seed=*/9);
  const ShardTickReport merged = batched.run_slots(100);
  ShardTickReport accumulated;
  for (int i = 0; i < 100; ++i) {
    const ShardTickReport tick = stepped.step();
    accumulated.slots += tick.slots;
    accumulated.arrivals += tick.arrivals;
    accumulated.admissions += tick.admissions;
    accumulated.completed += tick.completed;
    accumulated.timed_out += tick.timed_out;
    accumulated.admitted_rate_sum += tick.admitted_rate_sum;
  }
  EXPECT_EQ(merged.slots, 100u);
  EXPECT_EQ(merged.arrivals, accumulated.arrivals);
  EXPECT_EQ(merged.admissions, accumulated.admissions);
  EXPECT_EQ(merged.completed, accumulated.completed);
  EXPECT_EQ(merged.timed_out, accumulated.timed_out);
  EXPECT_DOUBLE_EQ(merged.admitted_rate_sum, accumulated.admitted_rate_sum);
  expect_metrics_identical(batched.metrics(), stepped.metrics());
}

TEST(ShardedSessionService, LaneMetricsSumToMergedCounters) {
  const auto net = sharded_network();
  ShardedSessionService service(net, sharded_config(/*lanes=*/4, /*shards=*/2),
                                /*seed=*/17);
  play(service, 300);
  const ProtocolMetrics merged = service.metrics();
  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  for (std::size_t lane = 0; lane < service.lane_count(); ++lane) {
    const ProtocolMetrics m = service.lane_metrics(lane);
    arrived += m.sessions_arrived;
    admitted += m.sessions_admitted;
    completed += m.sessions_completed;
  }
  EXPECT_EQ(arrived, merged.sessions_arrived);
  EXPECT_EQ(admitted, merged.sessions_admitted);
  EXPECT_EQ(completed, merged.sessions_completed);
}

TEST(ShardedSessionService, RecordsPerLaneAdmissionLatencies) {
  const auto net = sharded_network();
  ShardedSessionServiceConfig config = sharded_config(/*lanes=*/2,
                                                      /*shards=*/2);
  config.record_admit_us = true;
  ShardedSessionService service(net, config, /*seed=*/13);
  play(service, 300);
  std::size_t recorded = 0;
  for (std::size_t lane = 0; lane < service.lane_count(); ++lane) {
    for (const double us : service.lane_admit_us(lane)) {
      EXPECT_GE(us, 0.0);
      ++recorded;
    }
  }
  // One latency per routed arrival, admitted or not.
  EXPECT_EQ(recorded, service.metrics().sessions_arrived);
}

TEST(ShardedSessionService, RejectsInvalidConfigs) {
  const auto net = sharded_network();
  EXPECT_THROW(ShardedSessionService(net, sharded_config(0, 1), 1),
               std::invalid_argument);
  EXPECT_THROW(ShardedSessionService(net, sharded_config(1, 0), 1),
               std::invalid_argument);
  ShardedSessionServiceConfig config = sharded_config(1, 1);
  std::vector<double> sink;
  config.base.admit_us = &sink;
  EXPECT_THROW(ShardedSessionService(net, config, 1), std::invalid_argument);
}

TEST(ShardedSessionService, RunSlotsZeroReportsStateWithoutAdvancing) {
  const auto net = sharded_network();
  ShardedSessionService service(net, sharded_config(/*lanes=*/2, /*shards=*/1),
                                /*seed=*/3);
  service.run_slots(50);
  const std::uint64_t slot = service.slot();
  const ShardTickReport tick = service.run_slots(0);
  EXPECT_EQ(service.slot(), slot);
  EXPECT_EQ(tick.slots, 0u);
  EXPECT_EQ(tick.arrivals, 0u);
  EXPECT_EQ(tick.active_sessions, service.active_sessions());
}

TEST(ShardedSessionService, RuntimeSettersApplyToEveryLane) {
  const auto net = sharded_network();
  ShardedSessionServiceConfig config =
      sharded_config(/*lanes=*/4, /*shards=*/2);
  ShardedSessionService service(net, config, /*seed=*/7);
  service.run_slots(200);

  std::string error;
  ASSERT_TRUE(service.set_arrival_prob(0.0, &error)) << error;
  EXPECT_DOUBLE_EQ(service.arrival_prob(), 0.0);
  const std::uint64_t arrived_before = service.metrics().sessions_arrived;
  service.run_slots(200);
  // Zero arrival rate silences every lane, not just lane 0.
  EXPECT_EQ(service.metrics().sessions_arrived, arrived_before);

  // Rejection mutates nothing: lane 0 validates first, so no lane moved.
  EXPECT_FALSE(service.set_arrival_prob(2.0, &error));
  EXPECT_DOUBLE_EQ(service.arrival_prob(), 0.0);
  EXPECT_FALSE(service.set_algorithm("no-such-router", &error));
  EXPECT_EQ(service.algorithm(), "");

  ASSERT_TRUE(service.set_arrival_prob(0.5, &error)) << error;
  service.run_slots(200);
  EXPECT_GT(service.metrics().sessions_arrived, arrived_before);
}

#if MUERP_TELEMETRY_ENABLED

using support::telemetry::SessionFilter;
using support::telemetry::SessionRecord;
using support::telemetry::SessionRecorder;
using support::telemetry::SessionState;

ShardedSessionServiceConfig recording_config(std::size_t lanes,
                                             std::size_t shards) {
  ShardedSessionServiceConfig config = sharded_config(lanes, shards);
  config.record_sessions = true;
  // Generous retention so ring eviction cannot hide a record from the
  // cross-config comparisons below.
  config.recorder_capacity = 4096;
  return config;
}

void expect_recorder_stats_identical(const SessionRecorder::Stats& a,
                                     const SessionRecorder::Stats& b) {
  EXPECT_EQ(a.opened, b.opened);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.kept, b.kept);
  EXPECT_EQ(a.sampled_out, b.sampled_out);
  EXPECT_EQ(a.p99_held_slots, b.p99_held_slots);
}

TEST(ShardedSessionService, SessionRecordsBitIdenticalAcrossShardCounts) {
  const auto net = sharded_network();
  std::vector<SessionRecord> reference;
  SessionRecorder::Stats reference_stats;
  bool first = true;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedSessionService service(net, recording_config(/*lanes=*/4, shards),
                                  /*seed=*/21);
    play(service, 400);
    std::vector<SessionRecord> records = service.session_records();
    const SessionRecorder::Stats stats = service.session_record_stats();
    if (first) {
      reference = std::move(records);
      reference_stats = stats;
      first = false;
      ASSERT_FALSE(reference.empty());
      ASSERT_GT(reference_stats.opened, 0u);
      continue;
    }
    // Full structural equality, every field of every record — the recorder
    // determinism contract (SessionRecord has a defaulted operator==).
    EXPECT_EQ(records, reference);
    expect_recorder_stats_identical(stats, reference_stats);
  }
}

/// Position of a record on the merged session timeline: finalized records
/// by end slot, then active ones by arrival slot.
std::pair<bool, std::uint64_t> timeline_key(const SessionRecord& record) {
  const bool active = record.state == SessionState::kActive;
  return {active, active ? record.arrival_slot : record.end_slot};
}

/// Oracle for session_records(filter): merges the lanes' unlimited lists
/// head by head (earliest timeline key first, ties to the lower lane, each
/// lane's order kept), then keeps the last filter.limit.
std::vector<SessionRecord> merged_tail_oracle(
    const ShardedSessionService& service, std::size_t lanes,
    SessionFilter filter) {
  const std::size_t limit = filter.limit;
  filter.limit = 0;
  std::vector<std::vector<SessionRecord>> per_lane;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    filter.lane = static_cast<std::uint32_t>(lane);
    per_lane.push_back(service.session_records(filter));
  }
  std::vector<std::size_t> head(lanes, 0);
  std::vector<SessionRecord> merged;
  for (;;) {
    std::size_t best = lanes;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (head[lane] == per_lane[lane].size()) continue;
      if (best == lanes ||
          timeline_key(per_lane[lane][head[lane]]) <
              timeline_key(per_lane[best][head[best]])) {
        best = lane;
      }
    }
    if (best == lanes) break;
    merged.push_back(per_lane[best][head[best]++]);
  }
  if (limit > 0 && merged.size() > limit) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(limit));
  }
  return merged;
}

TEST(ShardedSessionService, LimitedQueryMatchesTheOracleMergeOfLaneTails) {
  // 48 qubits per switch leave an 8-lane slice 6 each, so every lane count
  // below admits sessions and still holds active ones at the end.
  experiment::Scenario scenario;
  scenario.switch_count = 30;
  scenario.user_count = 8;
  scenario.qubits_per_switch = 48;
  scenario.attenuation = 2e-4;  // slow trees, so sessions stay active
  scenario.seed = 11;
  const auto net = experiment::instantiate(scenario, 0).network;
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    ShardedSessionServiceConfig config = recording_config(lanes, 2);
    // A small ring, so lanes evict and the per-lane tails really are cut.
    config.recorder_capacity = 48;
    ShardedSessionService service(net, config, /*seed=*/29);
    play(service, 500);
    ASSERT_GT(service.active_sessions(), 0u) << lanes << " lanes";
    SessionFilter active;
    active.state = SessionState::kActive;
    SessionFilter rejected;
    rejected.state = SessionState::kRejected;
    SessionFilter late;
    late.min_slot = 250;
    for (SessionFilter filter : {SessionFilter{}, active, rejected, late}) {
      for (const std::size_t limit : {0u, 1u, 7u, 20u, 100u, 5000u}) {
        filter.limit = limit;
        const std::vector<SessionRecord> got = service.session_records(filter);
        EXPECT_EQ(got, merged_tail_oracle(service, lanes, filter))
            << lanes << " lanes, limit " << limit;
        for (std::size_t i = 1; i < got.size(); ++i) {
          EXPECT_LE(timeline_key(got[i - 1]), timeline_key(got[i]));
        }
      }
    }
    // The newest records come from every lane, not only the highest ones.
    if (lanes == 8) {
      SessionFilter newest;
      newest.limit = 20;
      std::vector<bool> seen(lanes, false);
      for (const SessionRecord& record : service.session_records(newest)) {
        seen[record.lane] = true;
      }
      EXPECT_GT(std::count(seen.begin(), seen.end(), true), 1);
    }
  }
}

TEST(ShardedSessionService, TailRecordsUnaffectedBySamplingRate) {
  // A starved fabric: 8 qubits split over 4 lanes leaves each lane 2 per
  // switch, so admission refuses groups outright, and a 5-slot timeout
  // expires the sessions that do get in — both tail shapes occur.
  experiment::Scenario scenario;
  scenario.switch_count = 30;
  scenario.user_count = 8;
  scenario.qubits_per_switch = 8;
  scenario.attenuation = 2e-5;
  scenario.seed = 11;
  const auto net = experiment::instantiate(scenario, 0).network;
  // keep-rate 0 drops every happy-path completion; 1024 keeps them all. The
  // tail (rejections, timeouts) must come out bit-identical either way —
  // sampling other sessions cannot change what the tail records say.
  std::vector<std::vector<SessionRecord>> tails;
  for (const std::uint32_t keep : {0u, 1024u}) {
    ShardedSessionServiceConfig config = recording_config(/*lanes=*/4,
                                                          /*shards=*/2);
    config.base.params.session_timeout_slots = 5;
    config.recorder_happy_keep_per_1024 = keep;
    ShardedSessionService service(net, config, /*seed=*/21);
    play(service, 400);
    SessionFilter rejected;
    rejected.state = SessionState::kRejected;
    SessionFilter timed_out;
    timed_out.state = SessionState::kTimedOut;
    std::vector<SessionRecord> tail = service.session_records(rejected);
    std::vector<SessionRecord> timeouts = service.session_records(timed_out);
    tail.insert(tail.end(), timeouts.begin(), timeouts.end());
    tails.push_back(std::move(tail));
  }
  ASSERT_FALSE(tails[0].empty());
  EXPECT_EQ(tails[0], tails[1]);
}

TEST(ShardedSessionService, RecorderDoesNotPerturbAdmissions) {
  const auto net = sharded_network();
  ShardedSessionService recorded(net, recording_config(/*lanes=*/4,
                                                       /*shards=*/2),
                                 /*seed=*/33);
  ShardedSessionService plain(net, sharded_config(/*lanes=*/4, /*shards=*/2),
                              /*seed=*/33);
  play(recorded, 300);
  play(plain, 300);
  expect_metrics_identical(recorded.metrics(), plain.metrics());
  EXPECT_EQ(recorded.active_sessions(), plain.active_sessions());
}

TEST(ShardedSessionService, FindSessionRecordRoutesById) {
  const auto net = sharded_network();
  ShardedSessionService service(net, recording_config(/*lanes=*/4,
                                                      /*shards=*/2),
                                /*seed=*/17);
  play(service, 300);
  const std::vector<SessionRecord> records = service.session_records();
  ASSERT_FALSE(records.empty());
  for (const SessionRecord& expected :
       {records.front(), records.back()}) {
    const auto found = service.find_session_record(expected.id);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, expected);
    EXPECT_EQ(found->lane, expected.id >> 32);
  }
  EXPECT_FALSE(service.find_session_record(0).has_value());
  EXPECT_FALSE(
      service.find_session_record((99ull << 32) | 1).has_value());
}

TEST(ShardedSessionService, FinalizeSessionRecordsDrainsActiveOnes) {
  const auto net = sharded_network();
  ShardedSessionService service(net, recording_config(/*lanes=*/4,
                                                      /*shards=*/2),
                                /*seed=*/13);
  play(service, 100);
  const std::size_t active = service.active_sessions();
  ASSERT_GT(active, 0u);
  service.finalize_session_records();
  SessionFilter drained;
  drained.state = SessionState::kDrained;
  EXPECT_EQ(service.session_records(drained).size(), active);
  EXPECT_EQ(service.session_record_stats().drained, active);
  SessionFilter still_active;
  still_active.state = SessionState::kActive;
  EXPECT_TRUE(service.session_records(still_active).empty());
}

TEST(ShardedSessionService, RejectsSharedRecorderInBaseConfig) {
  const auto net = sharded_network();
  ShardedSessionServiceConfig config = sharded_config(2, 1);
  SessionRecorder recorder;
  config.base.recorder = &recorder;
  EXPECT_THROW(ShardedSessionService(net, config, 1), std::invalid_argument);
}

using support::telemetry::LinkLedger;
using support::telemetry::LinkStat;

ShardedSessionServiceConfig link_config(std::size_t lanes,
                                        std::size_t shards) {
  ShardedSessionServiceConfig config = sharded_config(lanes, shards);
  config.record_links = true;
  return config;
}

void expect_ledger_stats_identical(const LinkLedger::Stats& a,
                                   const LinkLedger::Stats& b) {
  EXPECT_EQ(a.admits, b.admits);
  EXPECT_EQ(a.rejects, b.rejects);
  EXPECT_EQ(a.contention_losses, b.contention_losses);
  EXPECT_EQ(a.saturation_events, b.saturation_events);
  EXPECT_EQ(a.evicted_events, b.evicted_events);
}

TEST(ShardedSessionService, LinkStatsBitIdenticalAcrossShardCounts) {
  const auto net = sharded_network();
  std::vector<LinkStat> reference;
  LinkLedger::Stats reference_stats;
  bool first = true;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedSessionService service(net, link_config(/*lanes=*/4, shards),
                                  /*seed=*/21);
    play(service, 400);
    std::vector<LinkStat> links = service.link_stats();
    const LinkLedger::Stats stats = service.link_ledger_stats();
    if (first) {
      reference = std::move(links);
      reference_stats = stats;
      first = false;
      ASSERT_FALSE(reference.empty());
      ASSERT_GT(reference_stats.admits, 0u);
      // The merged document is live, not vacuous: links were attempted,
      // won, and accumulated windowed utilization.
      std::uint64_t attempts = 0;
      std::uint64_t wins = 0;
      double ewma = 0.0;
      for (const LinkStat& link : reference) {
        attempts += link.attempts;
        wins += link.wins;
        ewma += link.ewma_utilization;
      }
      ASSERT_GT(attempts, 0u);
      ASSERT_GT(wins, 0u);
      ASSERT_GT(ewma, 0.0);
      continue;
    }
    // Full structural equality, every field of every link — the ledger
    // merge determinism contract (LinkStat has a defaulted operator==).
    EXPECT_EQ(links, reference);
    expect_ledger_stats_identical(stats, reference_stats);
  }
}

TEST(ShardedSessionService, LedgerDoesNotPerturbAdmissions) {
  // Ledger ON vs OFF over a long horizon: recording per-link occupancy
  // must not move a single admission decision (the flight-recorder
  // bit-identity discipline, applied to the network plane).
  const auto net = sharded_network();
  ShardedSessionService ledgered(net, link_config(/*lanes=*/4, /*shards=*/2),
                                 /*seed=*/33);
  ShardedSessionService plain(net, sharded_config(/*lanes=*/4, /*shards=*/2),
                              /*seed=*/33);
  play(ledgered, 1600);
  play(plain, 1600);
  expect_metrics_identical(ledgered.metrics(), plain.metrics());
  EXPECT_EQ(ledgered.active_sessions(), plain.active_sessions());
  EXPECT_EQ(ledgered.qubit_utilization(), plain.qubit_utilization());
  EXPECT_GT(ledgered.link_ledger_stats().admits, 0u);
  EXPECT_TRUE(plain.link_stats().empty());  // OFF stays empty
}

TEST(ShardedSessionService, ExplainSessionJoinsLaneLedger) {
  const auto net = sharded_network();
  ShardedSessionServiceConfig config = recording_config(/*lanes=*/4,
                                                        /*shards=*/2);
  config.record_links = true;
  // Generous retention so the saturation replay below stays exact.
  config.ledger_event_capacity = 65536;
  ShardedSessionService service(net, config, /*seed=*/17);
  play(service, 300);
  const std::vector<SessionRecord> records = service.session_records();
  ASSERT_FALSE(records.empty());
  for (const SessionRecord& expected :
       {records.front(), records.back()}) {
    const auto explained = service.explain_session(expected.id);
    ASSERT_TRUE(explained.has_value());
    EXPECT_EQ(explained->record, expected);
    // The join reconstructs the lane's saturated set at the session's own
    // arrival slot; with generous event retention it is exact.
    EXPECT_TRUE(explained->saturated.exact);
  }
  EXPECT_FALSE(service.explain_session(0).has_value());
  EXPECT_FALSE(service.explain_session((99ull << 32) | 1).has_value());
}

TEST(ShardedSessionService, RejectsSharedLedgerInBaseConfig) {
  const auto net = sharded_network();
  ShardedSessionServiceConfig config = sharded_config(2, 1);
  LinkLedger ledger({1}, {1});
  config.base.ledger = &ledger;
  EXPECT_THROW(ShardedSessionService(net, config, 1), std::invalid_argument);
}

#endif  // MUERP_TELEMETRY_ENABLED

}  // namespace
}  // namespace muerp::sim
