#include "support/telemetry/log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "support/json.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::support::telemetry {
namespace {

TEST(LogLevelNames, RoundTrip) {
  for (const LogLevel level : {LogLevel::kDebug, LogLevel::kInfo,
                               LogLevel::kWarn, LogLevel::kError,
                               LogLevel::kOff}) {
    LogLevel parsed = LogLevel::kOff;
    ASSERT_TRUE(parse_log_level(log_level_name(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

TEST(LogLevelNames, RejectsUnknown) {
  LogLevel parsed = LogLevel::kOff;
  EXPECT_FALSE(parse_log_level("verbose", &parsed));
  EXPECT_FALSE(parse_log_level("INFO", &parsed));  // case-sensitive
  EXPECT_FALSE(parse_log_level("", &parsed));
}

TEST(LogFormatNames, ParsesTextAndJson) {
  LogFormat format = LogFormat::kText;
  ASSERT_TRUE(parse_log_format("json", &format));
  EXPECT_EQ(format, LogFormat::kJson);
  ASSERT_TRUE(parse_log_format("text", &format));
  EXPECT_EQ(format, LogFormat::kText);
  EXPECT_FALSE(parse_log_format("yaml", &format));
  EXPECT_FALSE(parse_log_format("JSON", &format));
}

#if MUERP_TELEMETRY_ENABLED

/// Captures the sink into a local stream and restores the logger's global
/// knobs afterwards, so tests cannot leak state into each other.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_sink(&stream_);
    set_log_level(LogLevel::kDebug);
    set_log_format(LogFormat::kText);
  }
  void TearDown() override {
    set_log_sink(&std::cerr);
    set_log_level(LogLevel::kWarn);
    set_log_format(LogFormat::kText);
  }
  std::ostringstream stream_;
};

TEST_F(LogTest, LevelThresholdFilters) {
  set_log_level(LogLevel::kWarn);
  const std::uint64_t before = log_events_emitted();
  MUERP_LOG_DEBUG("log_test/filtered_debug");
  MUERP_LOG_INFO("log_test/filtered_info");
  EXPECT_EQ(log_events_emitted(), before);
  EXPECT_TRUE(stream_.str().empty());
  MUERP_LOG_WARN("log_test/accepted_warn");
  MUERP_LOG_ERROR("log_test/accepted_error");
  EXPECT_EQ(log_events_emitted(), before + 2);
  EXPECT_NE(stream_.str().find("log_test/accepted_warn"), std::string::npos);
  EXPECT_NE(stream_.str().find("log_test/accepted_error"), std::string::npos);
}

TEST_F(LogTest, OffLevelDisablesEverything) {
  set_log_level(LogLevel::kOff);
  const std::uint64_t before = log_events_emitted();
  MUERP_LOG_ERROR("log_test/never");
  EXPECT_EQ(log_events_emitted(), before);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
}

TEST_F(LogTest, FieldExpressionsNotEvaluatedWhenFiltered) {
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  MUERP_LOG_DEBUG("log_test/lazy", field("n", ++evaluations));
  EXPECT_EQ(evaluations, 0);
  MUERP_LOG_ERROR("log_test/eager", field("n", ++evaluations));
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LogTest, TextFormatCarriesNameAndFields) {
  MUERP_LOG_INFO("log_test/text_fields", field("slot", 42),
                 field("rate", 0.5), field("algo", "alg3"),
                 field("ok", true));
  const std::string line = stream_.str();
  EXPECT_NE(line.find("log_test/text_fields"), std::string::npos);
  EXPECT_NE(line.find("slot=42"), std::string::npos);
  EXPECT_NE(line.find("rate=0.5"), std::string::npos);
  EXPECT_NE(line.find("algo=\"alg3\""), std::string::npos);
  EXPECT_NE(line.find("ok=true"), std::string::npos);
  EXPECT_NE(line.find("info"), std::string::npos);
}

TEST_F(LogTest, JsonLinesParseBackAndEscape) {
  set_log_format(LogFormat::kJson);
  MUERP_LOG_WARN("log_test/json \"quoted\"",
                 field("path", "a\\b\nc\td\"e"), field("count", 7),
                 field("big", std::uint64_t{1} << 60), field("flag", false),
                 field("ctl", std::string_view("\x01", 1)));
  const std::string line = stream_.str();
  // Raw escapes as written on the wire.
  EXPECT_NE(line.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(line.find("\\\\b"), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_NE(line.find("\\t"), std::string::npos);
  EXPECT_NE(line.find("\\u0001"), std::string::npos);
  // The line is valid JSON and round-trips the field values.
  const auto doc = json::parse(line);
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_EQ(doc.value["event"].string_value, "log_test/json \"quoted\"");
  EXPECT_EQ(doc.value["level"].string_value, "warn");
  EXPECT_EQ(doc.value["path"].string_value, "a\\b\nc\td\"e");
  EXPECT_DOUBLE_EQ(doc.value["count"].number_value, 7.0);
  EXPECT_FALSE(doc.value["flag"].bool_value);
  EXPECT_TRUE(doc.value["ts_ms"].is_number());
}

TEST_F(LogTest, TraceIdCorrelatesWithEnclosingSpan) {
  {
    MUERP_SPAN("log_test/outer_span");
    MUERP_LOG_INFO("log_test/inside_span");
  }
  MUERP_LOG_INFO("log_test/outside_span");
  const auto events = recent_log_events(2);
  ASSERT_GE(events.size(), 2u);
  const LogEvent& inside = events[events.size() - 2];
  const LogEvent& outside = events.back();
  EXPECT_EQ(inside.name, "log_test/inside_span");
  EXPECT_NE(inside.trace_id, 0u);
  EXPECT_EQ(inside.span, "log_test/outer_span");
  EXPECT_EQ(outside.trace_id, 0u);
  EXPECT_TRUE(outside.span.empty());
}

TEST_F(LogTest, NestedSpansShareOneTraceId) {
  std::uint64_t outer_id = 0;
  {
    MUERP_SPAN("log_test/trace_top");
    MUERP_LOG_INFO("log_test/at_top");
    outer_id = recent_log_events(1).back().trace_id;
    {
      MUERP_SPAN("log_test/trace_nested");
      MUERP_LOG_INFO("log_test/at_nested");
    }
  }
  const auto events = recent_log_events(1);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().trace_id, outer_id);
  EXPECT_EQ(events.back().span, "log_test/trace_nested");
}

TEST_F(LogTest, CrossThreadEventsLandInTheRing) {
  const std::uint32_t main_thread = current_thread_index();
  std::thread worker([] { MUERP_LOG_INFO("log_test/from_worker"); });
  worker.join();
  const auto events = recent_log_events(4);
  ASSERT_FALSE(events.empty());
  bool found = false;
  for (const LogEvent& e : events) {
    if (e.name == "log_test/from_worker") {
      found = true;
      EXPECT_NE(e.thread, main_thread);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(LogTest, RecentEventsAreNewestLastAndBounded) {
  MUERP_LOG_INFO("log_test/ring_a");
  MUERP_LOG_INFO("log_test/ring_b");
  MUERP_LOG_INFO("log_test/ring_c");
  const auto events = recent_log_events(2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "log_test/ring_b");
  EXPECT_EQ(events[1].name, "log_test/ring_c");
}

TEST_F(LogTest, EveryNEmitsFirstAndEveryNth) {
  const std::uint64_t before = log_events_emitted();
  for (int i = 0; i < 10; ++i) {
    MUERP_LOG_EVERY_N(4, LogLevel::kInfo, "log_test/every_n",
                      field("i", i));
  }
  // Executions 0, 4 and 8 emit.
  EXPECT_EQ(log_events_emitted(), before + 3);
  const auto events = recent_log_events(3);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.back().name, "log_test/every_n");
  EXPECT_EQ(events.back().fields[0].second, "8");
}

TEST_F(LogTest, EveryNSkipsCounterWhenLevelFiltered) {
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  // Filtered executions advance neither the counter nor the fields...
  for (int i = 0; i < 5; ++i) {
    MUERP_LOG_EVERY_N(3, LogLevel::kDebug, "log_test/every_n_filtered",
                      field("n", ++evaluations));
  }
  EXPECT_EQ(evaluations, 0);
  // ...so lowering the level later still starts at the 1st event.
  set_log_level(LogLevel::kDebug);
  const std::uint64_t before = log_events_emitted();
  MUERP_LOG_EVERY_N(3, LogLevel::kDebug, "log_test/every_n_filtered",
                    field("n", ++evaluations));
  EXPECT_EQ(log_events_emitted(), before + 1);
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LogTest, RenderMatchesSinkLine) {
  set_log_format(LogFormat::kJson);
  MUERP_LOG_ERROR("log_test/render", field("k", 1));
  const auto events = recent_log_events(1);
  ASSERT_EQ(events.size(), 1u);
  std::string sink_line = stream_.str();
  ASSERT_FALSE(sink_line.empty());
  sink_line.pop_back();  // trailing '\n'
  EXPECT_EQ(render_log_event(events.back(), LogFormat::kJson), sink_line);
}

#else  // MUERP_TELEMETRY_ENABLED

TEST(LogOffStubs, EverythingIsInert) {
  EXPECT_EQ(log_level(), LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kDebug);  // no-op
  EXPECT_EQ(log_level(), LogLevel::kOff);

  int evaluations = 0;
  MUERP_LOG_ERROR("log_test/off", field("n", ++evaluations));
  MUERP_LOG_EVERY_N(3, LogLevel::kError, "log_test/off_every",
                    field("n", ++evaluations));
  EXPECT_EQ(evaluations, 0);  // arguments swallowed unevaluated

  log_event(LogLevel::kError, "log_test/off_direct", {});
  EXPECT_EQ(log_events_emitted(), 0u);
  EXPECT_TRUE(recent_log_events().empty());
  EXPECT_TRUE(render_log_event(LogEvent{}, LogFormat::kJson).empty());
}

#endif  // MUERP_TELEMETRY_ENABLED

}  // namespace
}  // namespace muerp::support::telemetry
