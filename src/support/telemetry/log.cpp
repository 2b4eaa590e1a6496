#include "support/telemetry/log.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>

#include "support/telemetry/metrics.hpp"

// Name parsing is part of the CLI surface (--log-level / --log-format), so
// it stays real even when the logger itself compiles to stubs.
namespace muerp::support::telemetry {

std::string_view log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}

namespace {
constexpr LogLevel kLogLevels[] = {LogLevel::kDebug, LogLevel::kInfo,
                                   LogLevel::kWarn, LogLevel::kError,
                                   LogLevel::kOff};
}  // namespace

bool parse_log_level(std::string_view name, LogLevel* out) noexcept {
  for (const LogLevel level : kLogLevels) {
    if (name == log_level_name(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

std::vector<std::string> log_level_names() {
  std::vector<std::string> names;
  for (const LogLevel level : kLogLevels) {
    names.emplace_back(log_level_name(level));
  }
  return names;
}

bool parse_log_format(std::string_view name, LogFormat* out) noexcept {
  if (name == "text") {
    *out = LogFormat::kText;
    return true;
  }
  if (name == "json") {
    *out = LogFormat::kJson;
    return true;
  }
  return false;
}

}  // namespace muerp::support::telemetry

#if MUERP_TELEMETRY_ENABLED

namespace muerp::support::telemetry {

namespace {

/// Recent-events ring capacity. 1024 rendered events is a few hundred KiB
/// worst case — enough context for /snapshot.json without unbounded growth.
constexpr std::size_t kLogRingCapacity = 1024;

/// Sink + ring state. Immortalized like the metrics registry so events from
/// thread destructors during static teardown stay safe.
struct LogState {
  std::mutex mutex;
  std::ostream* sink = &std::cerr;
  LogFormat format = LogFormat::kText;
  std::vector<LogEvent> ring;  // circular once full
  std::size_t ring_next = 0;
  std::uint64_t emitted = 0;
  std::uint64_t start_ns = monotonic_now_ns();
};

LogState& state() {
  alignas(LogState) static char storage[sizeof(LogState)];
  static LogState* instance = new (storage) LogState;
  return *instance;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

std::string render_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream tmp;
  tmp.precision(std::numeric_limits<double>::max_digits10);
  tmp << v;
  return tmp.str();
}

/// Field value as it appears in the JSON line: already valid JSON (quoted
/// strings, bare numbers/bools). The text renderer strips nothing — quoted
/// strings read fine in both.
std::string render_field_value(const LogField& f) {
  switch (f.kind) {
    case LogField::Kind::kString: {
      std::string out = "\"";
      append_json_escaped(out, f.string_value);
      out += '"';
      return out;
    }
    case LogField::Kind::kInt:
      return std::to_string(f.int_value);
    case LogField::Kind::kUint:
      return std::to_string(f.uint_value);
    case LogField::Kind::kDouble:
      return render_number(f.double_value);
    case LogField::Kind::kBool:
      return f.bool_value ? "true" : "false";
  }
  return "null";
}

}  // namespace

namespace detail {
// Default threshold kWarn: libraries are silent until a tool lowers it.
std::atomic<int> log_level_cell{static_cast<int>(LogLevel::kWarn)};
}  // namespace detail

void set_log_level(LogLevel level) noexcept {
  detail::log_level_cell.store(static_cast<int>(level),
                               std::memory_order_relaxed);
}

void set_log_format(LogFormat format) noexcept {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.format = format;
}

LogFormat log_format() noexcept {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.format;
}

void set_log_sink(std::ostream* sink) noexcept {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.sink = sink;
}

std::string render_log_event(const LogEvent& event, LogFormat format) {
  std::string line;
  if (format == LogFormat::kJson) {
    line += "{\"ts_ms\": ";
    line += render_number(event.ts_ms);
    line += ", \"level\": \"";
    line += log_level_name(event.level);
    line += "\", \"event\": \"";
    append_json_escaped(line, event.name);
    line += "\", \"thread\": ";
    line += std::to_string(event.thread);
    if (event.trace_id != 0) {
      line += ", \"trace_id\": ";
      line += std::to_string(event.trace_id);
      line += ", \"span\": \"";
      append_json_escaped(line, event.span);
      line += '"';
    }
    for (const auto& [key, value] : event.fields) {
      line += ", \"";
      append_json_escaped(line, key);
      line += "\": ";
      line += value;  // already rendered as JSON
    }
    line += '}';
  } else {
    char head[64];
    std::snprintf(head, sizeof head, "%12.3f %-5s ", event.ts_ms,
                  std::string(log_level_name(event.level)).c_str());
    line += head;
    line += event.name;
    if (event.trace_id != 0) {
      line += " [";
      line += event.span;
      line += " #";
      line += std::to_string(event.trace_id);
      line += ']';
    }
    for (const auto& [key, value] : event.fields) {
      line += ' ';
      line += key;
      line += '=';
      line += value;
    }
  }
  return line;
}

void log_event(LogLevel level, std::string_view name,
               std::initializer_list<LogField> fields) {
  if (!log_enabled(level) || level == LogLevel::kOff) return;

  LogEvent event;
  event.level = level;
  event.name = std::string(name);
  const SpanContext context = current_span_context();
  if (context.active) {
    event.trace_id = context.trace_id;
    event.span = span_label(context.span);
  }
  event.fields.reserve(fields.size());
  for (const LogField& f : fields) {
    event.fields.emplace_back(std::string(f.key), render_field_value(f));
  }

  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  event.ts_ms =
      static_cast<double>(monotonic_now_ns() - s.start_ns) / 1e6;
  event.thread = current_thread_index();
  ++s.emitted;
  if (s.sink != nullptr) {
    *s.sink << render_log_event(event, s.format) << '\n';
    s.sink->flush();
  }
  if (s.ring.size() < kLogRingCapacity) {
    s.ring.push_back(std::move(event));
  } else {
    s.ring[s.ring_next] = std::move(event);
    s.ring_next = (s.ring_next + 1) % kLogRingCapacity;
  }
}

std::vector<LogEvent> recent_log_events(std::size_t max_events) {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<LogEvent> out;
  const std::size_t n = std::min(max_events, s.ring.size());
  out.reserve(n);
  // Oldest-first: the ring rotates at ring_next once full.
  const std::size_t start =
      s.ring.size() < kLogRingCapacity ? 0 : s.ring_next;
  const std::size_t skip = s.ring.size() - n;
  for (std::size_t i = skip; i < s.ring.size(); ++i) {
    out.push_back(s.ring[(start + i) % s.ring.size()]);
  }
  return out;
}

std::uint64_t log_events_emitted() noexcept {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.emitted;
}

}  // namespace muerp::support::telemetry

#endif  // MUERP_TELEMETRY_ENABLED
