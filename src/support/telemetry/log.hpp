// Structured event log: leveled, thread-safe, JSON-lines or text output.
//
// Counters answer "how much"; the event log answers "what happened, when".
// Instrumented code emits named events with typed key/value fields:
//
//   MUERP_LOG_INFO("runner/scenario_start",
//                  muerp::support::telemetry::field("repetitions", reps),
//                  muerp::support::telemetry::field("algorithms", n));
//
// Events below the runtime level are dropped behind a single relaxed atomic
// load (the macro also keeps the field expressions unevaluated), so leaving
// debug-level calls in session loops costs one predictable branch. Accepted
// events are rendered once — as a JSON line ({"ts_ms": ..., "level": ...,
// "event": ..., <fields>}) or an aligned text line — and written to the
// sink under a mutex, plus captured into a bounded global ring that
// recent_log_events() (and the HTTP exporter's /snapshot.json) can read
// back without consuming the stream.
//
// Correlation: every event records the calling thread's telemetry index and
// the innermost open MUERP_SPAN with its trace id (trace.hpp), so log lines
// land inside the same operation tree as the span aggregates and Chrome
// traces.
//
// Under -DMUERP_TELEMETRY=OFF everything here compiles to empty stubs: the
// macros swallow their arguments unevaluated and the query functions return
// empty results.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "support/telemetry/trace.hpp"

namespace muerp::support::telemetry {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  ///< level that no event reaches: disables the log entirely
};

enum class LogFormat : int {
  kText,  ///< "12.345 INFO  runner/scenario_start reps=20 ..." (human)
  kJson,  ///< one JSON object per line (machines, `jq`)
};

/// "debug" / "info" / "warn" / "error" / "off".
std::string_view log_level_name(LogLevel level) noexcept;

/// Parses the names above (case-sensitive); returns false on anything else.
bool parse_log_level(std::string_view name, LogLevel* out) noexcept;

/// The names parse_log_level() accepts, most verbose first.
std::vector<std::string> log_level_names();

/// Parses "text" / "json"; returns false on anything else.
bool parse_log_format(std::string_view name, LogFormat* out) noexcept;

/// One typed field of an event. Built via the field() overloads so call
/// sites never spell the union out; keys and string values must outlive the
/// log_event() call (string literals in practice — the logger copies what
/// it keeps).
struct LogField {
  enum class Kind : std::uint8_t { kString, kInt, kUint, kDouble, kBool };
  std::string_view key;
  Kind kind = Kind::kString;
  std::string_view string_value;
  std::int64_t int_value = 0;
  std::uint64_t uint_value = 0;
  double double_value = 0.0;
  bool bool_value = false;
};

inline LogField field(std::string_view key, std::string_view value) {
  LogField f;
  f.key = key;
  f.kind = LogField::Kind::kString;
  f.string_value = value;
  return f;
}
inline LogField field(std::string_view key, const char* value) {
  return field(key, std::string_view(value));
}
inline LogField field(std::string_view key, std::int64_t value) {
  LogField f;
  f.key = key;
  f.kind = LogField::Kind::kInt;
  f.int_value = value;
  return f;
}
inline LogField field(std::string_view key, int value) {
  return field(key, static_cast<std::int64_t>(value));
}
inline LogField field(std::string_view key, std::uint64_t value) {
  LogField f;
  f.key = key;
  f.kind = LogField::Kind::kUint;
  f.uint_value = value;
  return f;
}
inline LogField field(std::string_view key, unsigned value) {
  return field(key, static_cast<std::uint64_t>(value));
}
inline LogField field(std::string_view key, double value) {
  LogField f;
  f.key = key;
  f.kind = LogField::Kind::kDouble;
  f.double_value = value;
  return f;
}
inline LogField field(std::string_view key, bool value) {
  LogField f;
  f.key = key;
  f.kind = LogField::Kind::kBool;
  f.bool_value = value;
  return f;
}

/// A captured event as stored in the recent-events ring (owning copies of
/// every string; safe to hold after the ring rotates).
struct LogEvent {
  LogLevel level = LogLevel::kInfo;
  std::string name;
  /// Milliseconds since process start on the monotonic span clock.
  double ts_ms = 0.0;
  std::uint32_t thread = 0;    ///< telemetry thread index
  std::uint64_t trace_id = 0;  ///< 0 when emitted outside any span
  std::string span;            ///< innermost open span label ("" if none)
  std::vector<std::pair<std::string, std::string>> fields;  ///< rendered
};

#if MUERP_TELEMETRY_ENABLED

namespace detail {
extern std::atomic<int> log_level_cell;
}

/// The runtime threshold (events below it are dropped). Default kWarn, so
/// libraries stay silent until a tool opts in.
inline LogLevel log_level() noexcept {
  return static_cast<LogLevel>(
      detail::log_level_cell.load(std::memory_order_relaxed));
}
void set_log_level(LogLevel level) noexcept;

/// True when an event at `level` would be accepted — the macro fast path.
inline bool log_enabled(LogLevel level) noexcept {
  return static_cast<int>(level) >=
         detail::log_level_cell.load(std::memory_order_relaxed);
}

void set_log_format(LogFormat format) noexcept;
LogFormat log_format() noexcept;

/// Redirects the stream sink (default &std::cerr). nullptr keeps events
/// ring-only — what muerpd uses once the HTTP plane is up. The pointed-to
/// stream must outlive subsequent log calls.
void set_log_sink(std::ostream* sink) noexcept;

/// Renders and emits one event (levels below the threshold are dropped
/// again here, for callers that bypass the macro).
void log_event(LogLevel level, std::string_view name,
               std::initializer_list<LogField> fields);

/// Newest-last copy of up to `max_events` most recent accepted events.
std::vector<LogEvent> recent_log_events(std::size_t max_events = 256);

/// Events accepted since process start (== JSON/text lines written when the
/// sink was never changed mid-run).
std::uint64_t log_events_emitted() noexcept;

/// Renders `event` exactly as the sink line would be (without trailing
/// newline) — exposed for the exporters and tests.
std::string render_log_event(const LogEvent& event, LogFormat format);

#else  // MUERP_TELEMETRY_ENABLED

inline LogLevel log_level() noexcept { return LogLevel::kOff; }
inline void set_log_level(LogLevel) noexcept {}
inline bool log_enabled(LogLevel) noexcept { return false; }
inline void set_log_format(LogFormat) noexcept {}
inline LogFormat log_format() noexcept { return LogFormat::kText; }
inline void set_log_sink(std::ostream*) noexcept {}
inline void log_event(LogLevel, std::string_view,
                      std::initializer_list<LogField>) {}
inline std::vector<LogEvent> recent_log_events(std::size_t = 256) {
  return {};
}
inline std::uint64_t log_events_emitted() noexcept { return 0; }
inline std::string render_log_event(const LogEvent&, LogFormat) { return {}; }

#endif  // MUERP_TELEMETRY_ENABLED

}  // namespace muerp::support::telemetry

#if MUERP_TELEMETRY_ENABLED

/// Emits a structured event when `level` clears the runtime threshold; the
/// field() expressions are not evaluated otherwise.
#define MUERP_LOG(level, name, ...)                                           \
  do {                                                                        \
    if (::muerp::support::telemetry::log_enabled(level)) {                    \
      ::muerp::support::telemetry::log_event(level, name, {__VA_ARGS__});     \
    }                                                                         \
  } while (0)

/// MUERP_LOG that emits only every n-th execution of this call site (the
/// 1st, n+1-th, ...). The counter advances only when `level` clears the
/// threshold, so lowering the level later still starts at the 1st event.
#define MUERP_LOG_EVERY_N(n, level, name, ...)                                \
  do {                                                                        \
    if (::muerp::support::telemetry::log_enabled(level)) {                    \
      static ::std::atomic<::std::uint64_t> muerp_log_every_{0};              \
      if (muerp_log_every_.fetch_add(1, ::std::memory_order_relaxed) %        \
              static_cast<::std::uint64_t>(n) ==                              \
          0) {                                                                \
        ::muerp::support::telemetry::log_event(level, name, {__VA_ARGS__});   \
      }                                                                       \
    }                                                                         \
  } while (0)

#else  // MUERP_TELEMETRY_ENABLED

// Arguments are swallowed unevaluated (sizeof of a lambda type keeps any
// referenced variables "used" without generating code).
#define MUERP_LOG(level, name, ...) static_cast<void>(0)
#define MUERP_LOG_EVERY_N(n, level, name, ...) static_cast<void>(sizeof(n))

#endif  // MUERP_TELEMETRY_ENABLED

#define MUERP_LOG_DEBUG(name, ...)                                            \
  MUERP_LOG(::muerp::support::telemetry::LogLevel::kDebug, name, ##__VA_ARGS__)
#define MUERP_LOG_INFO(name, ...)                                             \
  MUERP_LOG(::muerp::support::telemetry::LogLevel::kInfo, name, ##__VA_ARGS__)
#define MUERP_LOG_WARN(name, ...)                                             \
  MUERP_LOG(::muerp::support::telemetry::LogLevel::kWarn, name, ##__VA_ARGS__)
#define MUERP_LOG_ERROR(name, ...)                                            \
  MUERP_LOG(::muerp::support::telemetry::LogLevel::kError, name, ##__VA_ARGS__)
