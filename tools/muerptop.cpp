// muerptop — live terminal dashboard for a running muerpd.
//
// Polls the daemon's HTTP observability plane with the repo's own JSON
// reader and HTTP client (ctl/client.hpp):
//
//   GET /healthz         status line: algorithm, slot, active sessions;
//   GET /api/v1/metrics  discovers which series the history ring holds;
//   GET /api/v1/range    windowed values — counters as per-second rates,
//                        gauges as levels, histograms as exact per-window
//                        p50/p95 — rendered as sparklines;
//   GET /api/v1/links    the link ledger's hot-links table (top 5 by
//                        utilization), sparklined from history this
//                        dashboard accumulates client-side.
//
// Panels (per the daemon's admission algorithm): admission rates
// (requests/admitted/completed per second), slot latency quantiles from
// muerpd/slot_us, session-state gauges, hot links, and recent failures.
//
// Connection failures before the first successful frame exit 2 (the
// endpoint is wrong). After the first frame a lost daemon is treated as
// transient — likely restarting — and the dashboard retries with bounded
// exponential backoff, printing a reconnect banner until the endpoint
// answers again.
//
//   muerptop                                   # 127.0.0.1:9464 at 1 Hz
//   muerptop --endpoint 127.0.0.1:9700 --window 120
//   muerptop --once                            # one frame, no screen
//                                              # clearing — CI/scripts
//   muerptop --ascii                           # no Unicode block glyphs
//
// Exit codes: 0 rendered at least one frame, 1 bad flags, 2 the endpoint
// could not be reached or answered a malformed document.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ctl/client.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace {

namespace ctl = muerp::ctl;

volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

int fail(const std::string& message) {
  std::cerr << "muerptop: " << message << '\n';
  return 2;
}

// ---------------------------------------------------------------------------
// Range-query results.

struct Series {
  bool ok = false;
  std::string kind;
  std::vector<double> value;  // rate (counter), level (gauge), p50 (histogram)
  std::vector<double> p95;
  double latest(const std::vector<double>& v) const {
    return v.empty() ? 0.0 : v.back();
  }
};

Series fetch_range(const std::string& host, std::uint16_t port,
                   const std::string& metric, long window_s, long step_s) {
  Series series;
  ctl::HttpResult response;
  std::string error;
  const std::string target = "/api/v1/range?metric=" + metric +
                             "&window=" + std::to_string(window_s) +
                             "&step=" + std::to_string(step_s);
  if (!ctl::http_get(host, port, target, &response, &error) ||
      response.status != 200) {
    return series;
  }
  const auto parsed = muerp::support::json::parse(response.body);
  if (!parsed.ok()) return series;
  const auto& doc = parsed.value;
  series.kind = doc["kind"].string_value;
  for (const auto& point : doc["points"].elements) {
    if (series.kind == "histogram") {
      series.value.push_back(point["p50"].number_value);
      series.p95.push_back(point["p95"].number_value);
    } else {
      series.value.push_back(point["value"].number_value);
    }
  }
  series.ok = true;
  return series;
}

// ---------------------------------------------------------------------------
// Rendering.

/// Scales `values` against their max into an 8-level sparkline. Counters
/// and latencies are non-negative, so the baseline is pinned at zero — two
/// frames with the same shape render the same regardless of offset noise.
std::string sparkline(const std::vector<double>& values, bool ascii,
                      std::size_t width) {
  static const char* const kBlocks[8] = {"▁", "▂", "▃",
                                         "▄", "▅", "▆",
                                         "▇", "█"};
  static const char kAscii[8] = {'.', ':', '-', '=', '+', '*', '#', '%'};
  if (values.empty()) return "(no data)";
  const std::size_t start =
      values.size() > width ? values.size() - width : 0;
  double max = 0.0;
  for (std::size_t i = start; i < values.size(); ++i) {
    if (values[i] > max) max = values[i];
  }
  std::string out;
  for (std::size_t i = start; i < values.size(); ++i) {
    int level =
        max > 0.0 ? static_cast<int>(values[i] / max * 7.0 + 0.5) : 0;
    if (level < 0) level = 0;
    if (level > 7) level = 7;
    if (ascii) {
      out.push_back(kAscii[level]);
    } else {
      out += kBlocks[level];
    }
  }
  return out;
}

std::string format_value(double v) {
  char buffer[32];
  if (v != 0.0 && (v < 0.01 || v >= 1e6)) {
    std::snprintf(buffer, sizeof buffer, "%10.3g", v);
  } else {
    std::snprintf(buffer, sizeof buffer, "%10.2f", v);
  }
  return buffer;
}

void render_row(std::string& frame, const std::string& label, double latest,
                const std::vector<double>& values, bool ascii,
                std::size_t width) {
  char head[64];
  std::snprintf(head, sizeof head, "  %-14s", label.c_str());
  frame += head;
  frame += format_value(latest);
  frame += "  ";
  frame += sparkline(values, ascii, width);
  frame += '\n';
}

}  // namespace

int main(int argc, char** argv) {
  muerp::support::CliParser cli(
      "muerptop — live terminal dashboard for a running muerpd");
  cli.add_flag("endpoint", "muerpd HTTP endpoint (ipv4:port)",
               "127.0.0.1:9464");
  cli.add_flag("interval-ms", "refresh period", "1000");
  cli.add_flag("window", "history window in seconds", "60");
  cli.add_flag("step", "seconds per sparkline column (0 = window/60)", "0");
  cli.add_flag("once", "render one frame and exit (no screen clearing)");
  cli.add_flag("ascii", "ASCII sparklines instead of Unicode blocks");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;

  const std::string endpoint = cli.get_string("endpoint");
  std::string host;
  std::uint16_t port = 0;
  if (std::string error; !ctl::parse_endpoint(endpoint, &host, &port, &error)) {
    std::cerr << "muerptop: --endpoint: " << error << '\n';
    return 1;
  }
  const long interval_ms = cli.get_int("interval-ms").value_or(1000);
  const long window_s = cli.get_int("window").value_or(60);
  long step_s = cli.get_int("step").value_or(0);
  if (window_s <= 0) {
    std::cerr << "muerptop: --window must be > 0\n";
    return 1;
  }
  if (step_s <= 0) step_s = window_s / 60 > 0 ? window_s / 60 : 1;
  const bool once = cli.get_bool("once");
  const bool ascii = cli.get_bool("ascii");
  const auto width = static_cast<std::size_t>(window_s / step_s);

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  bool rendered = false;
  // Per-link utilization history accumulated client-side across frames
  // (the /api/v1/links document is a point-in-time snapshot), keyed by the
  // rendered label so a link keeps its sparkline while it stays hot.
  std::map<std::string, std::vector<double>> link_history;
  // Consecutive failed polls since the last good frame (reconnect backoff).
  long failures = 0;
  constexpr long kMaxBackoffMs = 10'000;
  while (g_stop == 0) {
    // Health first: connection failures before the first frame are fatal
    // (exit 2 — the endpoint is wrong); afterwards the daemon is probably
    // just restarting, so retry with bounded exponential backoff and a
    // visible banner instead of dying or spinning.
    ctl::HttpResult health;
    std::string error;
    bool healthy = ctl::http_get(host, port, "/healthz", &health, &error) &&
                   health.status == 200;
    if (!healthy && error.empty()) {
      error = "/healthz returned " + std::to_string(health.status);
    }
    muerp::support::json::ParseResult health_doc;
    if (healthy) {
      health_doc = muerp::support::json::parse(health.body);
      if (!health_doc.ok()) {
        error = "/healthz: " + health_doc.error;
        healthy = false;
      }
    }
    if (!healthy) {
      if (!rendered) return fail(error);
      ++failures;
      long delay_ms = interval_ms > 0 ? interval_ms : 1000;
      for (long k = 1; k < failures && delay_ms < kMaxBackoffMs; ++k) {
        delay_ms *= 2;
      }
      if (delay_ms > kMaxBackoffMs) delay_ms = kMaxBackoffMs;
      std::cout << "muerptop: lost " << endpoint << " (" << error
                << ") — reconnecting, attempt " << failures
                << ", next try in " << delay_ms << " ms\n"
                << std::flush;
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      continue;
    }
    failures = 0;
    const auto& h = health_doc.value;
    const std::string algorithm = h["algorithm"].string_value;

    std::string frame;
    {
      char head[256];
      std::snprintf(head, sizeof head,
                    "muerptop — %s  algorithm %s  uptime %.1fs  slot %.0f  "
                    "active %.0f\n",
                    endpoint.c_str(),
                    algorithm.empty() ? "?" : algorithm.c_str(),
                    h["uptime_s"].number_value, h["slot"].number_value,
                    h["active_sessions"].number_value);
      frame += head;
      std::snprintf(head, sizeof head,
                    "arrived %.0f  admitted %.0f  completed %.0f  "
                    "(window %lds, step %lds)\n",
                    h["sessions_arrived"].number_value,
                    h["sessions_admitted"].number_value,
                    h["sessions_completed"].number_value, window_s, step_s);
      frame += head;
    }

    // Admission panel: counter rates per second.
    frame += "admission\n";
    const char* const kRates[][2] = {
        {"requests/s", "muerpd/requests/"},
        {"admitted/s", "muerpd/admitted/"},
        {"completed/s", "muerpd/completed/"},
        {"slots/s", "muerpd/slots/"},
    };
    for (const auto& row : kRates) {
      const Series series = fetch_range(
          host, port, row[1] + algorithm, window_s, step_s);
      render_row(frame, row[0], series.latest(series.value), series.value,
                 ascii, width);
    }

    // Latency panel: windowed-exact histogram quantiles per step.
    frame += "slot latency (us)\n";
    const Series slot_us =
        fetch_range(host, port, "muerpd/slot_us/" + algorithm, window_s,
                    step_s);
    render_row(frame, "p50", slot_us.latest(slot_us.value), slot_us.value,
               ascii, width);
    render_row(frame, "p95", slot_us.latest(slot_us.p95), slot_us.p95, ascii,
               width);

    // Session panel: gauge levels.
    frame += "sessions\n";
    const char* const kGauges[][2] = {
        {"active", "session/active"},
        {"qubit_util", "session/qubit_utilization"},
    };
    for (const auto& row : kGauges) {
      const Series series =
          fetch_range(host, port, row[1], window_s, step_s);
      render_row(frame, row[0], series.latest(series.value), series.value,
                 ascii, width);
    }

    // Hot-links panel: the link ledger's top 5 by utilization. The
    // document is a snapshot, so the sparkline history lives here in the
    // client, one series per rendered label. Absent endpoint (older
    // daemon) or an OFF build just renders "(none)".
    frame += "hot links (top 5 by utilization)\n";
    bool any_link = false;
    {
      ctl::HttpResult links;
      if (ctl::http_get(host, port, "/api/v1/links?sort=util&limit=5", &links,
                   &error) &&
          links.status == 200) {
        const auto doc = muerp::support::json::parse(links.body);
        if (doc.ok()) {
          for (const auto& link : doc.value["links"].elements) {
            char label[32];
            if (link["kind"].string_value == "switch") {
              std::snprintf(label, sizeof label, "s%ld @%ld",
                            static_cast<long>(link["index"].number_value),
                            static_cast<long>(link["node"].number_value));
            } else {
              std::snprintf(label, sizeof label, "e%ld %ld-%ld",
                            static_cast<long>(link["index"].number_value),
                            static_cast<long>(link["a"].number_value),
                            static_cast<long>(link["b"].number_value));
            }
            const double util = link["utilization"].number_value;
            auto& history = link_history[label];
            history.push_back(util);
            if (history.size() > width) {
              history.erase(history.begin(),
                            history.end() - static_cast<long>(width));
            }
            render_row(frame, label, util, history, ascii, width);
            any_link = true;
          }
        }
      }
    }
    if (!any_link) frame += "  (none)\n";

    // Failure panel: the flight recorder's always-kept tail — the most
    // recent rejections and timeouts, one line each. Absent endpoint
    // (older daemon) or empty recorder just renders "(none)".
    frame += "recent failures (alerts firing " +
             std::to_string(
                 static_cast<long>(h["alerts_firing"].number_value)) +
             ")\n";
    bool any_failure = false;
    for (const char* state : {"rejected", "timed_out"}) {
      ctl::HttpResult sessions;
      if (!ctl::http_get(host, port,
                    std::string("/api/v1/sessions?limit=3&state=") + state,
                    &sessions, &error) ||
          sessions.status != 200) {
        continue;
      }
      const auto doc = muerp::support::json::parse(sessions.body);
      if (!doc.ok()) continue;
      for (const auto& record : doc.value["sessions"].elements) {
        char line[160];
        std::snprintf(
            line, sizeof line,
            "  #%-12.0f slot %-8.0f %-9s reason %-16s group %zu  %s\n",
            record["id"].number_value, record["arrival_slot"].number_value,
            record["state"].string_value.c_str(),
            record["reject_reason"].string_value.c_str(),
            record["group"].elements.size(),
            record["algorithm"].string_value.c_str());
        frame += line;
        any_failure = true;
      }
    }
    if (!any_failure) frame += "  (none)\n";

    if (!once && rendered) std::cout << "\x1b[2J\x1b[H";
    std::cout << frame << std::flush;
    rendered = true;
    if (once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return rendered ? 0 : 2;
}
