// The muerpd settings table: every boot flag and every `ctl set` / `ctl get`
// setting, declared once.
//
// A row names its flag spelling and/or its ctl name, its type (through the
// DaemonConfig field it fills), its default, its range or its choices and its
// help text. The boot flags, `--help`, `ctl set`, `ctl get` and the read
// snapshot all go through the same row: a flag value is read as the JSON
// value the ctl API would send and then checked by the same validator, so a
// value the daemon refuses at runtime is refused at boot too, with the same
// reason. Rows with a live setter are the mutable settings; rows without one
// are boot-only.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "ctl/command_registry.hpp"
#include "support/json.hpp"

namespace muerp::sim {
class ShardedSessionService;
}
namespace muerp::support::telemetry {
class Sampler;
}

namespace muerp::daemon {

/// Every muerpd knob, typed. The values are meaningful once parse_flags()
/// filled them from the table; the table, not this struct, holds the
/// defaults.
struct DaemonConfig {
  // The served network.
  std::string net;
  std::string topology;
  std::int64_t switches = 0;
  std::int64_t users = 0;
  std::int64_t qubits = 0;
  double degree = 0.0;
  double alpha = 0.0;
  double swap = 0.0;
  std::int64_t seed = 0;
  // Admission.
  std::string algorithm;  // "" = the built-in shared-Prim pass
  double arrival = 0.0;
  std::int64_t arrival_burst = 0;
  std::string batch_policy;
  std::int64_t min_group = 0;
  std::int64_t max_group = 0;
  std::int64_t timeout = 0;
  // The slot loop.
  std::int64_t lanes = 0;
  std::int64_t shards = 0;
  std::int64_t tick_batch = 0;
  std::int64_t slots = 0;
  std::int64_t slot_ms = 0;
  // The observability and control planes.
  std::int64_t port = 0;
  std::string bind;
  std::string log_level;
  std::string log_format;
  std::int64_t sample_interval_ms = 0;
  std::int64_t retention = 0;
  std::string history;
  std::string snapshot_out;
  std::string ctl_token;
  bool record_sessions = false;
  std::int64_t recorder_capacity = 0;
  std::int64_t recorder_keep = 0;
  bool record_links = false;
  std::int64_t link_window = 0;
  std::int64_t link_events = 0;
};

/// What a live setter reaches on a running daemon. Setters run on the slot
/// loop's thread, inside a mailbox action.
struct LiveTargets {
  sim::ShardedSessionService& service;
  support::telemetry::Sampler& sampler;
};

/// One row of the settings table.
struct Setting {
  using Field =
      std::variant<std::monostate, bool DaemonConfig::*,
                   std::int64_t DaemonConfig::*, double DaemonConfig::*,
                   std::string DaemonConfig::*>;

  /// Boot flag spelling without the leading "--"; null = no flag.
  const char* flag = nullptr;
  /// `ctl set` / `ctl get` name; null = not reachable over ctl.
  const char* ctl = nullptr;
  const char* help = "";
  /// Default, as flag text ("" shows no default in --help).
  const char* fallback = "";
  /// Where a checked value lands. Empty only for the read-only `lifetime`
  /// row, whose value the daemon reads from its history file.
  Field field{};
  /// Inclusive range of a numeric row.
  double min = 0.0;
  double max = 0.0;
  /// The accepted values of an enumerated string row.
  std::vector<std::string> (*choices)() = nullptr;
  /// The name the empty string is accepted and shown under.
  const char* empty_means = nullptr;
  /// Applies the checked value in `next` to a running daemon; null for
  /// rows that cannot change after boot.
  ctl::CommandResult (*apply)(LiveTargets& live,
                              const DaemonConfig& next) = nullptr;
};

/// The table: 36 flag rows, 6 of them settable over ctl, plus the
/// read-only ctl row `lifetime`.
const std::vector<Setting>& settings();

/// The row `ctl set` / `ctl get` know as `name`; null when unknown.
const Setting* find_ctl_setting(std::string_view name);

/// "arrival-rate, algorithm, ..." — every ctl name in table order.
std::string ctl_setting_names();

/// Checks `value` against `row` and stores it into `config`. Failures carry
/// bad_arg (wrong type) or out_of_range (outside the range or the choices)
/// and a reason without the setting's name ("must be in [0, 1]").
ctl::CommandResult store(const Setting& row, const support::json::Value& value,
                         DaemonConfig* config);

/// The row's current value as a JSON document (what `ctl get` returns).
std::string render(const Setting& row, const DaemonConfig& config);

/// The row's current value as flag text (strings unquoted).
std::string display(const Setting& row, const DaemonConfig& config);

/// Parses muerpd's command line through the table. Returns the process exit
/// code when the program should stop here (0 after --help; 2 on an unknown
/// flag or a refused value, with `muerpd: --<flag>: <reason>` on stderr);
/// nullopt when `config` holds every row's checked value.
std::optional<int> parse_flags(int argc, const char* const* argv,
                               DaemonConfig* config);

/// The one checked conversion of a JSON number to an integer type: a value
/// outside [min, max] (NaN and infinities included) is out_of_range with
/// the range in the reason, a fraction is bad_arg. Every numeric ctl
/// argument goes through it, so no double reaches an integer cast unchecked.
template <typename T>
ctl::CommandResult checked_integer(const support::json::Value& value, T min,
                                   T max, T* out) {
  if (!value.is_number()) {
    return ctl::CommandResult::failure(ctl::kErrBadArg,
                                       "must be an integer");
  }
  const double v = value.number_value;
  // max may round up to 2^digits as a double, which T cannot hold.
  const double end = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(v >= static_cast<double>(min) && v <= static_cast<double>(max) &&
        v < end)) {
    return ctl::CommandResult::failure(
        ctl::kErrOutOfRange, "must be in [" + std::to_string(min) + ", " +
                                 std::to_string(max) + "]");
  }
  if (v != std::floor(v)) {
    return ctl::CommandResult::failure(ctl::kErrBadArg,
                                       "must be an integer");
  }
  *out = static_cast<T>(v);
  return ctl::CommandResult::success();
}

}  // namespace muerp::daemon
