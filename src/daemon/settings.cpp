#include "daemon/settings.hpp"

#include <algorithm>
#include <iostream>
#include <utility>

#include "routing/batch_router.hpp"
#include "routing/router.hpp"
#include "simulation/sharded_session_service.hpp"
#include "support/cli.hpp"
#include "support/telemetry/log.hpp"
#include "support/telemetry/sampler.hpp"

namespace muerp::daemon {

namespace {

using support::json::Value;

/// The largest integer a JSON number (a double) holds exactly: the bound of
/// counts that have no smaller natural limit.
constexpr double kExact = 9007199254740992.0;  // 2^53
constexpr double kInt32 = 2147483647.0;

ctl::CommandResult applied(bool ok, const char* code, std::string error) {
  return ok ? ctl::CommandResult::success()
            : ctl::CommandResult::failure(code, std::move(error));
}

std::vector<std::string> topology_names() {
  return {"waxman", "ws", "volchenkov"};
}
std::vector<std::string> log_format_names() { return {"text", "json"}; }
std::vector<std::string> algorithm_names() {
  return routing::RouterRegistry::instance().names();
}

std::vector<Setting> make_settings() {
  using C = DaemonConfig;
  return {
      {.flag = "net",
       .help = "network file (else generate from scenario flags)",
       .field = &C::net},
      {.flag = "topology",
       .help = "generated topology",
       .fallback = "waxman",
       .field = &C::topology,
       .choices = topology_names},
      {.flag = "switches", .help = "switch count (generated)",
       .fallback = "50", .field = &C::switches, .min = 1, .max = kInt32},
      {.flag = "users", .help = "user count (generated)", .fallback = "10",
       .field = &C::users, .min = 1, .max = kInt32},
      {.flag = "qubits", .help = "qubits per switch (generated)",
       .fallback = "6", .field = &C::qubits, .min = 0, .max = kInt32},
      {.flag = "degree", .help = "average degree (generated)", .fallback = "6",
       .field = &C::degree, .min = 0, .max = kInt32},
      {.flag = "alpha", .help = "fiber attenuation 1/km (generated)",
       .fallback = "2e-5", .field = &C::alpha, .min = 0, .max = kInt32},
      {.flag = "swap", .help = "BSM success probability (generated)",
       .fallback = "0.9", .field = &C::swap, .min = 0, .max = 1},
      {.flag = "seed", .help = "random seed (network + arrivals)",
       .fallback = "1", .field = &C::seed, .min = 0, .max = kExact},
      {.flag = "algorithm",
       .ctl = "algorithm",
       .help = "admission router",
       .field = &C::algorithm,
       .choices = algorithm_names,
       .empty_means = "shared-prim",
       .apply = [](LiveTargets& live, const C& next) {
         std::string error;
         return applied(live.service.set_algorithm(next.algorithm, &error),
                        ctl::kErrOutOfRange, error);
       }},
      {.flag = "arrival",
       .ctl = "arrival-rate",
       .help = "session arrival probability per slot",
       .fallback = "0.05",
       .field = &C::arrival,
       .min = 0,
       .max = 1,
       .apply = [](LiveTargets& live, const C& next) {
         std::string error;
         return applied(live.service.set_arrival_prob(next.arrival, &error),
                        ctl::kErrOutOfRange, error);
       }},
      {.flag = "arrival-burst",
       .ctl = "arrival-burst",
       .help = "arrival attempts per slot; >1 admits each slot's arrivals "
               "as one batch through the routing kernel",
       .fallback = "1",
       .field = &C::arrival_burst,
       .min = 1,
       .max = 65536,
       .apply = [](LiveTargets& live, const C& next) {
         std::string error;
         return applied(
             live.service.set_arrival_burst(
                 static_cast<std::size_t>(next.arrival_burst), &error),
             ctl::kErrOutOfRange, error);
       }},
      {.flag = "batch-policy",
       .ctl = "batch-policy",
       .help = "burst admission order",
       .fallback = "given-order",
       .field = &C::batch_policy,
       .choices = routing::batch_policy_names,
       .apply = [](LiveTargets& live, const C& next) {
         routing::BatchPolicy policy{};
         routing::parse_batch_policy(next.batch_policy, &policy);
         std::string error;
         return applied(live.service.set_batch_policy(policy, &error),
                        ctl::kErrUnsupported, error);
       }},
      {.flag = "min-group", .help = "smallest session group size",
       .fallback = "2", .field = &C::min_group, .min = 2, .max = kInt32},
      {.flag = "max-group", .help = "largest session group size",
       .fallback = "4", .field = &C::max_group, .min = 2, .max = kInt32},
      {.flag = "timeout", .help = "session timeout in slots", .fallback = "500",
       .field = &C::timeout, .min = 1, .max = kExact},
      {.flag = "lanes",
       .help = "deterministic session lanes (traffic/capacity partitions; "
               "results depend on this, not on --shards)",
       .fallback = "1",
       .field = &C::lanes,
       .min = 1,
       .max = 1024},
      {.flag = "shards",
       .help = "worker threads stepping the lanes (performance only)",
       .fallback = "1",
       .field = &C::shards,
       .min = 1,
       .max = 1024},
      {.flag = "tick-batch",
       .help = "max due slots played per scheduler wake when catching up",
       .fallback = "64",
       .field = &C::tick_batch,
       .min = 1,
       .max = kExact},
      {.flag = "slots", .help = "stop after this many slots (0 = until signal)",
       .fallback = "0", .field = &C::slots, .min = 0, .max = kExact},
      {.flag = "slot-ms", .help = "pacing: milliseconds per slot (0 = unpaced)",
       .fallback = "10", .field = &C::slot_ms, .min = 0, .max = 3600000},
      {.flag = "port", .help = "HTTP port (0 = ephemeral)", .fallback = "9464",
       .field = &C::port, .min = 0, .max = 65535},
      {.flag = "bind", .help = "HTTP bind address", .fallback = "127.0.0.1",
       .field = &C::bind},
      {.flag = "log-level",
       .ctl = "log-level",
       .help = "structured log threshold",
       .fallback = "info",
       .field = &C::log_level,
       .choices = support::telemetry::log_level_names,
       .apply = [](LiveTargets&, const C& next) {
         support::telemetry::LogLevel level{};
         support::telemetry::parse_log_level(next.log_level, &level);
         support::telemetry::set_log_level(level);
         return ctl::CommandResult::success();
       }},
      {.flag = "log-format",
       .help = "structured log line format",
       .fallback = "text",
       .field = &C::log_format,
       .choices = log_format_names},
      {.flag = "sample-interval-ms",
       .ctl = "sample-interval-ms",
       .help = "time-series sampling period for /api/v1/range",
       .fallback = "1000",
       .field = &C::sample_interval_ms,
       .min = 1,
       .max = 3600000,
       .apply = [](LiveTargets& live, const C& next) {
         live.sampler.set_interval(
             std::chrono::milliseconds(next.sample_interval_ms));
         return ctl::CommandResult::success();
       }},
      {.flag = "retention",
       .help = "time-series samples kept (retention = this x interval)",
       .fallback = "600",
       .field = &C::retention,
       .min = 2,
       .max = 1000000},
      {.flag = "history",
       .help = "append-only session-history file (crash-safe; replayed on "
               "start for `ctl get lifetime`)",
       .field = &C::history},
      {.flag = "snapshot-out",
       .help = "write a final /snapshot.json document here on exit",
       .field = &C::snapshot_out},
      {.flag = "ctl-token",
       .help = "bearer token required on POST /api/v1/ctl (empty = open)",
       .field = &C::ctl_token},
      {.flag = "record-sessions",
       .help = "per-session flight recorder with tail sampling",
       .fallback = "true",
       .field = &C::record_sessions},
      {.flag = "recorder-capacity",
       .help = "finalized flight records retained per lane",
       .fallback = "512",
       .field = &C::recorder_capacity,
       .min = 1,
       .max = 1000000},
      {.flag = "recorder-keep",
       .help = "happy-path completions kept per 1024 hash draws (the tail — "
               "rejected/timed-out/drained/slow — is always kept)",
       .fallback = "128",
       .field = &C::recorder_keep,
       .min = 0,
       .max = 1024},
      {.flag = "record-links",
       .help = "per-link utilization ledger behind /api/v1/topology, "
               "/api/v1/links and /api/v1/explain",
       .fallback = "true",
       .field = &C::record_links},
      {.flag = "link-window",
       .help = "tumbling-window width in slots for windowed link utilization",
       .fallback = "64",
       .field = &C::link_window,
       .min = 1,
       .max = kExact},
      {.flag = "link-events",
       .help = "saturation-transition events retained per lane ledger",
       .fallback = "4096",
       .field = &C::link_events,
       .min = 1,
       .max = 1000000},
      {.ctl = "lifetime",
       .help = "totals across every run recorded in the --history file "
               "(read-only; the one read that waits for the next tick "
               "boundary, where the loop flushes the history file)"},
  };
}

/// The row's accepted values, `empty_means` first: "shared-prim|alg2|...".
std::string choice_list(const Setting& row) {
  std::string out = row.empty_means != nullptr ? row.empty_means : "";
  for (const std::string& name : row.choices()) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

ctl::CommandResult store_string(const Setting& row, const Value& value,
                                std::string* out) {
  if (!value.is_string()) {
    return ctl::CommandResult::failure(ctl::kErrBadArg, "must be a string");
  }
  std::string text = value.string_value;
  if (row.empty_means != nullptr &&
      (text.empty() || text == row.empty_means)) {
    text.clear();
  } else if (row.choices != nullptr) {
    const std::vector<std::string> names = row.choices();
    if (std::find(names.begin(), names.end(), text) == names.end()) {
      return ctl::CommandResult::failure(
          ctl::kErrOutOfRange,
          "must be one of " + choice_list(row) + " (got '" + text + "')");
    }
  }
  *out = std::move(text);
  return ctl::CommandResult::success();
}

/// A flag's text as the JSON value `ctl set` would carry: numeric rows take
/// a JSON number, boolean rows the CliParser spellings, and anything that
/// does not read as the row's type stays a string for store() to refuse.
Value flag_value(const Setting& row, const std::string& text) {
  Value value;
  value.kind = Value::Kind::kString;
  value.string_value = text;
  if (std::holds_alternative<bool DaemonConfig::*>(row.field)) {
    const bool yes = text == "true" || text == "1" || text == "yes" ||
                     text == "on";
    const bool no = text == "false" || text == "0" || text == "no" ||
                    text == "off";
    if (yes || no) {
      value.kind = Value::Kind::kBool;
      value.bool_value = yes;
    }
  } else if (std::holds_alternative<std::int64_t DaemonConfig::*>(row.field) ||
             std::holds_alternative<double DaemonConfig::*>(row.field)) {
    auto parsed = support::json::parse(text);
    if (parsed.ok() && parsed.value.is_number()) value = parsed.value;
  }
  return value;
}

}  // namespace

const std::vector<Setting>& settings() {
  static const std::vector<Setting> table = make_settings();
  return table;
}

const Setting* find_ctl_setting(std::string_view name) {
  for (const Setting& row : settings()) {
    if (row.ctl != nullptr && name == row.ctl) return &row;
  }
  return nullptr;
}

std::string ctl_setting_names() {
  std::string out;
  for (const Setting& row : settings()) {
    if (row.ctl == nullptr) continue;
    if (!out.empty()) out += ", ";
    out += row.ctl;
  }
  return out;
}

ctl::CommandResult store(const Setting& row, const Value& value,
                         DaemonConfig* config) {
  return std::visit(
      [&](auto field) -> ctl::CommandResult {
        using Field = decltype(field);
        if constexpr (std::is_same_v<Field, std::monostate>) {
          return ctl::CommandResult::failure(ctl::kErrUnsupported,
                                             "is read-only");
        } else if constexpr (std::is_same_v<Field, bool DaemonConfig::*>) {
          if (!value.is_bool()) {
            return ctl::CommandResult::failure(ctl::kErrBadArg,
                                               "must be true or false");
          }
          config->*field = value.bool_value;
          return ctl::CommandResult::success();
        } else if constexpr (std::is_same_v<Field,
                                            std::int64_t DaemonConfig::*>) {
          return checked_integer(value, static_cast<std::int64_t>(row.min),
                                 static_cast<std::int64_t>(row.max),
                                 &(config->*field));
        } else if constexpr (std::is_same_v<Field, double DaemonConfig::*>) {
          if (!value.is_number()) {
            return ctl::CommandResult::failure(ctl::kErrBadArg,
                                               "must be a number");
          }
          if (!(value.number_value >= row.min &&
                value.number_value <= row.max)) {
            return ctl::CommandResult::failure(
                ctl::kErrOutOfRange, "must be in [" +
                                         ctl::json_number(row.min) + ", " +
                                         ctl::json_number(row.max) + "]");
          }
          config->*field = value.number_value;
          return ctl::CommandResult::success();
        } else {
          return store_string(row, value, &(config->*field));
        }
      },
      row.field);
}

std::string display(const Setting& row, const DaemonConfig& config) {
  return std::visit(
      [&](auto field) -> std::string {
        using Field = decltype(field);
        if constexpr (std::is_same_v<Field, std::monostate>) {
          return "";
        } else if constexpr (std::is_same_v<Field, bool DaemonConfig::*>) {
          return config.*field ? "true" : "false";
        } else if constexpr (std::is_same_v<Field,
                                            std::int64_t DaemonConfig::*>) {
          return std::to_string(config.*field);
        } else if constexpr (std::is_same_v<Field, double DaemonConfig::*>) {
          return ctl::json_number(config.*field);
        } else {
          const std::string& text = config.*field;
          return text.empty() && row.empty_means ? row.empty_means : text;
        }
      },
      row.field);
}

std::string render(const Setting& row, const DaemonConfig& config) {
  if (std::holds_alternative<std::string DaemonConfig::*>(row.field)) {
    return ctl::json_quote(display(row, config));
  }
  return display(row, config);
}

std::optional<int> parse_flags(int argc, const char* const* argv,
                               DaemonConfig* config) {
  support::CliParser cli(
      "muerpd — entanglement routing session service with /metrics");
  for (const Setting& row : settings()) {
    if (row.flag == nullptr) continue;
    std::string help = row.help;
    if (row.choices != nullptr) help += ": " + choice_list(row);
    cli.add_flag(row.flag, help, row.fallback);
  }
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;
  for (const Setting& row : settings()) {
    if (row.flag == nullptr) continue;
    const ctl::CommandResult stored =
        store(row, flag_value(row, cli.get_string(row.flag)), config);
    if (!stored.ok) {
      std::cerr << "muerpd: --" << row.flag << ": " << stored.message << '\n';
      return 2;
    }
  }
  return std::nullopt;
}

}  // namespace muerp::daemon
