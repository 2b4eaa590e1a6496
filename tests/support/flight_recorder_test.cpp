#include "support/telemetry/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/rng.hpp"

namespace muerp::support::telemetry {
namespace {

SessionRecord draft(std::uint64_t arrival_slot,
                    std::vector<std::uint32_t> group = {1, 2}) {
  SessionRecord record;
  record.arrival_slot = arrival_slot;
  record.group = std::move(group);
  record.algorithm = "prim-shared";
  record.policy = "single";
  record.tree_rate = 0.25;
  record.tree_channels = 3;
  return record;
}

TEST(FlightRecorder, StateAndReasonNamesRoundTrip) {
  for (const SessionState state :
       {SessionState::kActive, SessionState::kCompleted,
        SessionState::kTimedOut, SessionState::kRejected,
        SessionState::kDrained}) {
    SessionState parsed;
    ASSERT_TRUE(parse_session_state(session_state_name(state), &parsed));
    EXPECT_EQ(parsed, state);
  }
  SessionState parsed;
  EXPECT_FALSE(parse_session_state("bogus", &parsed));
  EXPECT_STREQ(reject_reason_name(RejectReason::kNone), "none");
  EXPECT_STREQ(reject_reason_name(RejectReason::kNoFeasibleTree),
               "no_feasible_tree");
  EXPECT_STREQ(reject_reason_name(RejectReason::kCapacityGuard),
               "capacity_guard");
}

TEST(FlightRecorder, RoutingWorkDeltaSaturatesAtZero) {
  RoutingWork before;
  before.spf_runs = 10;
  before.dijkstra_runs = 4;
  RoutingWork after;
  after.spf_runs = 13;
  after.dijkstra_runs = 2;  // stale baseline must not wrap
  after.slab_hits = 5;
  const RoutingWork delta = routing_work_delta(before, after);
  EXPECT_EQ(delta.spf_runs, 3u);
  EXPECT_EQ(delta.dijkstra_runs, 0u);
  EXPECT_EQ(delta.slab_hits, 5u);
  EXPECT_EQ(delta.contention_losses, 0u);
}

TEST(FlightRecorder, RecordJsonParsesAndCarriesEveryField) {
  SessionRecord record = draft(42, {3, 7, 9});
  record.id = (5ull << 32) | 12;
  record.lane = 5;
  record.seq = 12;
  record.end_slot = 60;
  record.held_slots = 18;
  record.state = SessionState::kCompleted;
  record.work.spf_runs = 4;
  const auto doc = json::parse(session_record_json(record));
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_DOUBLE_EQ(doc.value["id"].number_value,
                   static_cast<double>((5ull << 32) | 12));
  EXPECT_DOUBLE_EQ(doc.value["lane"].number_value, 5.0);
  EXPECT_DOUBLE_EQ(doc.value["arrival_slot"].number_value, 42.0);
  EXPECT_DOUBLE_EQ(doc.value["held_slots"].number_value, 18.0);
  EXPECT_EQ(doc.value["state"].string_value, "completed");
  EXPECT_EQ(doc.value["reject_reason"].string_value, "none");
  EXPECT_EQ(doc.value["group"].elements.size(), 3u);
  EXPECT_EQ(doc.value["algorithm"].string_value, "prim-shared");
  EXPECT_DOUBLE_EQ(doc.value["tree_rate"].number_value, 0.25);
  EXPECT_DOUBLE_EQ(doc.value["work"]["spf_runs"].number_value, 4.0);
}

TEST(FlightRecorder, TraceJsonIsAValidChromeTraceDocument) {
  SessionRecord record = draft(10);
  record.id = 1;
  record.lane = 0;
  record.seq = 1;
  record.end_slot = 14;
  record.held_slots = 4;
  record.state = SessionState::kTimedOut;
  const auto doc = json::parse(session_trace_json(record));
  ASSERT_TRUE(doc.ok()) << doc.error;
  const auto& events = doc.value["traceEvents"].elements;
  // Admission + hold + one instant per held slot.
  ASSERT_EQ(events.size(), 2u + 4u);
  EXPECT_EQ(events[0]["name"].string_value, "admission");
  EXPECT_EQ(events[0]["ph"].string_value, "X");
  EXPECT_DOUBLE_EQ(events[0]["ts"].number_value, 10'000.0);
  EXPECT_EQ(events[0]["args"]["verdict"].string_value, "admitted");
  EXPECT_EQ(events[1]["name"].string_value, "hold");
  EXPECT_DOUBLE_EQ(events[1]["dur"].number_value, 4000.0);
  // The last attempt instant is named by the terminal state.
  EXPECT_EQ(events.back()["name"].string_value, "timed_out");
  EXPECT_EQ(events[events.size() - 2]["name"].string_value, "attempt_failed");

  // Rejections render as a single admission event.
  SessionRecord rejected = draft(3);
  rejected.state = SessionState::kRejected;
  rejected.reject_reason = RejectReason::kNoFeasibleTree;
  const auto reject_doc = json::parse(session_trace_json(rejected));
  ASSERT_TRUE(reject_doc.ok()) << reject_doc.error;
  ASSERT_EQ(reject_doc.value["traceEvents"].elements.size(), 1u);
  EXPECT_EQ(reject_doc.value["traceEvents"].elements[0]["args"]["verdict"]
                .string_value,
            "rejected");
}

#if MUERP_TELEMETRY_ENABLED

TEST(FlightRecorder, AssignsLaneTaggedSequentialIds) {
  SessionRecorderOptions options;
  options.lane = 3;
  SessionRecorder recorder(options);
  const std::uint64_t first = recorder.open(draft(1));
  const std::uint64_t second = recorder.open(draft(2));
  EXPECT_EQ(first, (3ull << 32) | 1);
  EXPECT_EQ(second, (3ull << 32) | 2);
  const auto record = recorder.find(first);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->lane, 3u);
  EXPECT_EQ(record->seq, 1u);
  EXPECT_EQ(record->state, SessionState::kActive);
  EXPECT_FALSE(recorder.find(0).has_value());
  EXPECT_FALSE(recorder.find((3ull << 32) | 99).has_value());
}

TEST(FlightRecorder, RejectionsAndTimeoutsAreAlwaysKept) {
  SessionRecorderOptions options;
  options.happy_keep_per_1024 = 0;  // drop every happy-path completion
  SessionRecorder recorder(options);
  SessionRecord rejected = draft(5);
  rejected.reject_reason = RejectReason::kCapacityGuard;
  recorder.reject(std::move(rejected));
  const std::uint64_t timed_out = recorder.open(draft(6));
  recorder.close(timed_out, SessionState::kTimedOut, 46, 40);
  const std::uint64_t completed = recorder.open(draft(7));
  recorder.close(completed, SessionState::kCompleted, 9, 2);

  const auto records = recorder.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].state, SessionState::kRejected);
  EXPECT_EQ(records[0].reject_reason, RejectReason::kCapacityGuard);
  EXPECT_EQ(records[0].end_slot, records[0].arrival_slot);
  EXPECT_EQ(records[1].state, SessionState::kTimedOut);

  const auto stats = recorder.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.kept, 2u);
  EXPECT_EQ(stats.sampled_out, 1u);
}

TEST(FlightRecorder, HappyPathSamplingFollowsTheIdHash) {
  SessionRecorderOptions options;
  options.lane = 1;
  options.happy_keep_per_1024 = 128;
  SessionRecorder recorder(options);
  std::size_t predicted_kept = 0;
  constexpr int kSessions = 400;
  for (int i = 0; i < kSessions; ++i) {
    const std::uint64_t id = recorder.open(draft(i));
    if ((SessionRecorder::mix(id) & 1023u) < 128u) ++predicted_kept;
    recorder.close(id, SessionState::kCompleted, i + 2, 2);
  }
  const auto stats = recorder.stats();
  EXPECT_EQ(stats.kept, predicted_kept);
  EXPECT_EQ(stats.kept + stats.sampled_out,
            static_cast<std::uint64_t>(kSessions));
  // The hash actually downsamples (128/1024 keeps roughly an eighth).
  EXPECT_LT(stats.kept, kSessions / 4u);
  EXPECT_GT(stats.kept, 0u);
}

TEST(FlightRecorder, SlowCompletionsSurviveSamplingOncePinnedToP99) {
  SessionRecorderOptions options;
  options.happy_keep_per_1024 = 0;
  SessionRecorder recorder(options);
  // Establish a p99 with fast completions (held 1 slot each).
  for (std::uint64_t i = 0; i < SessionRecorder::kMinCompletionsForP99; ++i) {
    recorder.close(recorder.open(draft(i)), SessionState::kCompleted, i + 1,
                   1);
  }
  EXPECT_EQ(recorder.stats().kept, 0u);  // all happy, all sampled out
  EXPECT_EQ(recorder.stats().p99_held_slots, 1u);
  // A completion slower than p99 is tail, kept despite keep-rate 0.
  const std::uint64_t slow = recorder.open(draft(500));
  recorder.close(slow, SessionState::kCompleted, 540, 40);
  const auto records = recorder.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].held_slots, 40u);
  EXPECT_EQ(recorder.stats().kept, 1u);
}

TEST(FlightRecorder, RingEvictsOldestBeyondCapacity) {
  SessionRecorderOptions options;
  options.capacity = 4;
  options.happy_keep_per_1024 = 1024;  // keep everything
  SessionRecorder recorder(options);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.close(recorder.open(draft(i)), SessionState::kCompleted, i + 1,
                   1);
  }
  const auto records = recorder.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().arrival_slot, 6u);  // oldest surviving
  EXPECT_EQ(records.back().arrival_slot, 9u);
  EXPECT_EQ(recorder.stats().kept, 10u);  // kept counts decisions, not ring
}

TEST(FlightRecorder, FiltersByStateLaneSlotRangeAndLimit) {
  SessionRecorderOptions options;
  options.lane = 2;
  options.happy_keep_per_1024 = 1024;
  SessionRecorder recorder(options);
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::uint64_t id = recorder.open(draft(i * 10));
    recorder.close(id,
                   i % 2 == 0 ? SessionState::kCompleted
                              : SessionState::kTimedOut,
                   i * 10 + 5, 5);
  }
  recorder.open(draft(100));  // stays active

  SessionFilter timed_out;
  timed_out.state = SessionState::kTimedOut;
  EXPECT_EQ(recorder.records(timed_out).size(), 3u);

  SessionFilter wrong_lane;
  wrong_lane.lane = 9;
  EXPECT_TRUE(recorder.records(wrong_lane).empty());

  SessionFilter slots;
  slots.min_slot = 20;
  slots.max_slot = 40;
  EXPECT_EQ(recorder.records(slots).size(), 3u);

  SessionFilter last_two;
  last_two.limit = 2;
  const auto limited = recorder.records(last_two);
  ASSERT_EQ(limited.size(), 2u);
  // limit keeps the LAST matches; open records sort after finalized ones.
  EXPECT_EQ(limited.back().state, SessionState::kActive);
  EXPECT_EQ(limited.back().arrival_slot, 100u);

  SessionFilter by_algorithm;
  by_algorithm.algorithm = "no-such";
  EXPECT_TRUE(recorder.records(by_algorithm).empty());
}

TEST(FlightRecorder, LimitedQueryIsTheTailOfTheUnlimitedOne) {
  // A recorder with every record shape: open ones (closed out of seq
  // order), rejections, completions that sampling drops, timeouts, and a
  // ring small enough to evict. For random filters, a limited query must
  // copy exactly the last n records of the unlimited one.
  Rng rng(2024);
  SessionRecorderOptions options;
  options.lane = 3;
  options.capacity = 40;
  options.happy_keep_per_1024 = 512;
  SessionRecorder recorder(options);
  std::vector<std::uint64_t> open_ids;
  for (std::uint64_t slot = 1; slot <= 200; ++slot) {
    SessionRecord record = draft(slot);
    record.algorithm = rng.bernoulli(0.5) ? "prim-shared" : "alg3";
    if (rng.bernoulli(0.3)) {
      recorder.reject(std::move(record));
    } else {
      open_ids.push_back(recorder.open(std::move(record)));
    }
    if (!open_ids.empty() && rng.bernoulli(0.6)) {
      const std::size_t pick = rng.uniform_index(open_ids.size());
      recorder.close(open_ids[pick],
                     rng.bernoulli(0.7) ? SessionState::kCompleted
                                        : SessionState::kTimedOut,
                     slot, 1 + rng.uniform_index(8));
      open_ids.erase(open_ids.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  ASSERT_GT(open_ids.size(), 2u);
  ASSERT_EQ(recorder.records().size(), options.capacity + open_ids.size());

  for (int trial = 0; trial < 200; ++trial) {
    SessionFilter filter;
    if (rng.bernoulli(0.4)) {
      filter.state = static_cast<SessionState>(rng.uniform_index(4));
    }
    if (rng.bernoulli(0.2)) filter.lane = rng.bernoulli(0.5) ? 3 : 4;
    if (rng.bernoulli(0.3)) filter.algorithm = "alg3";
    if (rng.bernoulli(0.3)) filter.min_slot = rng.uniform_index(200);
    if (rng.bernoulli(0.3)) filter.max_slot = rng.uniform_index(200);
    const std::vector<SessionRecord> all = recorder.records(filter);
    filter.limit = 1 + rng.uniform_index(all.size() + 5);
    const std::vector<SessionRecord> limited = recorder.records(filter);
    const std::size_t n = std::min(filter.limit, all.size());
    const std::vector<SessionRecord> tail(
        all.end() - static_cast<std::ptrdiff_t>(n), all.end());
    EXPECT_EQ(limited, tail) << "trial " << trial << " limit "
                             << filter.limit;
  }
}

TEST(FlightRecorder, FinalizeOpenDrainsInSeqOrder) {
  SessionRecorder recorder;
  const std::uint64_t a = recorder.open(draft(1));
  const std::uint64_t b = recorder.open(draft(2));
  recorder.finalize_open(50);
  EXPECT_FALSE(recorder.records({}).empty());
  const auto first = recorder.find(a);
  const auto second = recorder.find(b);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->state, SessionState::kDrained);
  EXPECT_EQ(first->end_slot, 50u);
  EXPECT_EQ(second->state, SessionState::kDrained);
  EXPECT_EQ(recorder.stats().drained, 2u);
  const auto records = recorder.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_LT(records[0].seq, records[1].seq);
}

TEST(FlightRecorder, StatsMergeSumsCountsAndMaxesP99) {
  SessionRecorder::Stats a;
  a.opened = 5;
  a.kept = 2;
  a.p99_held_slots = 3;
  SessionRecorder::Stats b;
  b.opened = 7;
  b.rejected = 1;
  b.p99_held_slots = 9;
  a.merge(b);
  EXPECT_EQ(a.opened, 12u);
  EXPECT_EQ(a.rejected, 1u);
  EXPECT_EQ(a.kept, 2u);
  EXPECT_EQ(a.p99_held_slots, 9u);
}

TEST(FlightRecorder, RecordsJsonDocumentParsesWithStats) {
  SessionRecorder recorder;
  recorder.close(recorder.open(draft(1)), SessionState::kCompleted, 4, 3);
  const std::string body =
      session_records_json(recorder.records(), recorder.stats());
  const auto doc = json::parse(body);
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_DOUBLE_EQ(doc.value["count"].number_value,
                   static_cast<double>(recorder.records().size()));
  EXPECT_DOUBLE_EQ(doc.value["stats"]["opened"].number_value, 1.0);
  EXPECT_EQ(doc.value["sessions"].elements.size(),
            recorder.records().size());
}

#else  // MUERP_TELEMETRY_ENABLED

TEST(FlightRecorder, StubIsInertButServesValidEmptyDocuments) {
  SessionRecorder recorder;
  EXPECT_EQ(recorder.open(draft(1)), 0u);
  EXPECT_EQ(recorder.reject(draft(2)), 0u);
  recorder.close(1, SessionState::kCompleted, 3, 2);
  recorder.finalize_open(9);
  EXPECT_TRUE(recorder.records().empty());
  EXPECT_FALSE(recorder.find(1).has_value());
  EXPECT_EQ(recorder.stats().opened, 0u);
  const auto doc =
      json::parse(session_records_json(recorder.records(), recorder.stats()));
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_DOUBLE_EQ(doc.value["count"].number_value, 0.0);
  EXPECT_TRUE(doc.value["sessions"].elements.empty());
  EXPECT_EQ(capture_routing_work(), RoutingWork{});
}

#endif  // MUERP_TELEMETRY_ENABLED

}  // namespace
}  // namespace muerp::support::telemetry
