// In-process tests of the muerpd settings table and Daemon: every mutable
// setting booted from its flag, read back with `get`, retuned with `set`,
// and refused outside its range; malformed flag values refused at boot; and
// every numeric ctl argument refused before an unchecked integer cast.
#include "daemon/daemon.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ctl/client.hpp"
#include "daemon/settings.hpp"
#include "support/json.hpp"

namespace muerp::daemon {
namespace {

using support::json::Value;

Value json(const std::string& text) {
  auto parsed = support::json::parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.value;
}

/// A scalar JSON document in one canonical spelling, so "0.25" and
/// "0.25000000000000000" compare equal.
std::string canonical(const std::string& text) {
  const Value value = json(text);
  return value.is_number() ? ctl::json_number(value.number_value)
                           : ctl::json_quote(value.string_value);
}

/// parse_flags over `args` (argv[0] added).
std::optional<int> parse(const std::vector<std::string>& args,
                         DaemonConfig* config) {
  std::vector<const char*> argv = {"muerpd"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return parse_flags(static_cast<int>(argv.size()), argv.data(), config);
}

/// A small daemon on an ephemeral port whose slot loop runs on a thread
/// until the fixture stops it.
class RunningDaemon {
 public:
  explicit RunningDaemon(std::vector<std::string> extra) {
    std::vector<std::string> args = {
        "--port", "0",  "--slots",  "0",  "--slot-ms",   "1",
        "--switches", "20", "--users", "6", "--log-level", "error",
        "--timeout", "20"};
    args.insert(args.end(), extra.begin(), extra.end());
    DaemonConfig config;
    EXPECT_EQ(parse(args, &config), std::nullopt);
    daemon_ = std::make_unique<Daemon>(config);
    std::string error;
    EXPECT_TRUE(daemon_->start(&error)) << error;
    loop_ = std::thread([this] { daemon_->run(stop_); });
  }
  ~RunningDaemon() {
    stop_ = 2;  // skip the drain
    loop_.join();
  }
  RunningDaemon(const RunningDaemon&) = delete;
  RunningDaemon& operator=(const RunningDaemon&) = delete;

  ctl::CommandResult command(const std::string& cmd,
                             const std::string& args = "{}") const {
    return daemon_->command(cmd, json(args));
  }
  int get_status(const std::string& target) const {
    ctl::HttpResult reply;
    std::string error;
    EXPECT_TRUE(ctl::http_get("127.0.0.1", daemon_->port(), target, &reply,
                              &error))
        << error;
    return reply.status;
  }

 private:
  std::unique_ptr<Daemon> daemon_;
  std::atomic<int> stop_{0};
  std::thread loop_;
};

TEST(DaemonSettings, TableDeclaresEachFlagAndSettingOnce) {
  std::set<std::string> flags;
  std::set<std::string> ctl_names;
  std::size_t mutable_rows = 0;
  for (const Setting& row : settings()) {
    if (row.flag != nullptr) {
      EXPECT_TRUE(flags.insert(row.flag).second) << row.flag;
    }
    if (row.ctl != nullptr) {
      EXPECT_TRUE(ctl_names.insert(row.ctl).second) << row.ctl;
    }
    if (row.apply != nullptr) {
      ++mutable_rows;
      EXPECT_NE(row.flag, nullptr) << row.ctl;  // settable at boot too
    }
  }
  EXPECT_EQ(flags.size(), 36u);
  EXPECT_EQ(ctl_names.size(), 7u);
  EXPECT_EQ(mutable_rows, 6u);
}

TEST(DaemonSettings, DefaultsComeFromTheTable) {
  DaemonConfig config;
  ASSERT_EQ(parse({}, &config), std::nullopt);
  EXPECT_EQ(config.port, 9464);
  EXPECT_EQ(config.algorithm, "");
  EXPECT_DOUBLE_EQ(config.arrival, 0.05);
  EXPECT_EQ(config.batch_policy, "given-order");
  EXPECT_TRUE(config.record_links);
  EXPECT_EQ(render(*find_ctl_setting("algorithm"), config),
            "\"shared-prim\"");
  EXPECT_EQ(parse({"--help"}, &config), 0);
}

TEST(DaemonSettings, MalformedFlagValuesExitTwo) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--port", "70000"},
           {"--port", "abc"},
           {"--lanes", "two"},
           {"--arrival", "fast"},
           {"--arrival", "nan"},
           {"--record-links", "maybe"},
           {"--timeout", "-1"},
           {"--slot-ms", "-5"},
           {"--seed", "1.5"},
           {"--topology", "torus"},
           {"--batch-policy", "random"},
           {"--no-such-flag", "1"}}) {
    DaemonConfig config;
    EXPECT_EQ(parse(args, &config), 2) << args[0] << ' ' << args[1];
  }
}

/// One mutable setting: its boot flag value, the same value as `get`
/// renders it, an in-range retune, and an out-of-range value.
struct MutableCase {
  const char* ctl;
  const char* boot;
  const char* boot_json;
  const char* next_json;
  const char* bad_json;
};

const MutableCase kMutableCases[] = {
    {"algorithm", "alg3", "\"alg3\"", "\"shared-prim\"", "\"no-such-router\""},
    {"arrival-rate", "0.25", "0.25", "0.5", "7"},
    {"arrival-burst", "2", "2", "3", "1e20"},
    {"batch-policy", "greedy", "\"greedy\"", "\"largest-first\"",
     "\"random\""},
    {"log-level", "warn", "\"warn\"", "\"error\"", "\"loud\""},
    {"sample-interval-ms", "200", "200", "50", "3600001"},
};

TEST(Daemon, EveryMutableSettingBootsGetsAndSets) {
  for (const Setting& row : settings()) {
    if (row.apply == nullptr) continue;
    const MutableCase* c = nullptr;
    for (const MutableCase& candidate : kMutableCases) {
      if (std::string(candidate.ctl) == row.ctl) c = &candidate;
    }
    ASSERT_NE(c, nullptr) << "no test case for setting " << row.ctl;
    SCOPED_TRACE(row.ctl);
    const RunningDaemon daemon({std::string("--") + row.flag, c->boot});
    const std::string name = std::string("\"") + row.ctl + "\"";

    ctl::CommandResult got = daemon.command("get", "{\"name\": " + name + "}");
    ASSERT_TRUE(got.ok) << got.message;
    EXPECT_EQ(canonical(got.result_json), canonical(c->boot_json));

    const ctl::CommandResult set = daemon.command(
        "set", "{\"name\": " + name + ", \"value\": " + c->next_json + "}");
    ASSERT_TRUE(set.ok) << set.message;
    got = daemon.command("get", "{\"name\": " + name + "}");
    EXPECT_EQ(canonical(got.result_json), canonical(c->next_json));

    const ctl::CommandResult bad = daemon.command(
        "set", "{\"name\": " + name + ", \"value\": " + c->bad_json + "}");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.code, ctl::kErrOutOfRange) << bad.message;
    got = daemon.command("get", "{\"name\": " + name + "}");
    EXPECT_EQ(canonical(got.result_json), canonical(c->next_json));
  }
}

TEST(Daemon, NumericCtlArgumentsAreRangeChecked) {
  const RunningDaemon daemon({});
  using Call = std::pair<std::string, std::string>;
  for (const auto& [cmd, args] : std::vector<Call>{
           {"session", R"({"id": 1e20})"},
           {"session", R"({"id": -1})"},
           {"explain", R"({"id": 1e20})"},
           {"sessions", R"({"limit": 1e20})"},
           {"sessions", R"({"lane": 4294967296})"},
           {"links", R"({"limit": -3})"},
           {"slo", R"({"action": "set", "name": "r", "kind": "gauge",
                      "metric": "m", "threshold": 1, "for": 1e20})"},
           {"slo", R"({"action": "set", "name": "r", "kind": "gauge",
                      "metric": "m", "threshold": 1, "for": 0})"},
           {"slo", R"({"action": "set", "name": "r", "kind": "gauge",
                      "metric": "m", "threshold": 1,
                      "window-seconds": 1e300})"},
           {"set", R"({"name": "arrival-burst", "value": 1e20})"},
           {"set", R"({"name": "sample-interval-ms", "value": -1e20})"}}) {
    const ctl::CommandResult result = daemon.command(cmd, args);
    EXPECT_FALSE(result.ok) << cmd << ' ' << args;
    EXPECT_EQ(result.code, ctl::kErrOutOfRange) << cmd << ' ' << args;
    EXPECT_NE(result.message.find("must be in ["), std::string::npos)
        << result.message;
  }
  // A fraction is the wrong type, not a value out of range.
  const ctl::CommandResult fraction = daemon.command(
      "set", R"({"name": "arrival-burst", "value": 1.5})");
  EXPECT_EQ(fraction.code, ctl::kErrBadArg) << fraction.message;
}

TEST(Daemon, VerbPagesMapCtlCodesToHttpStatuses) {
  const RunningDaemon daemon({});
  EXPECT_EQ(daemon.get_status("/api/v1/session/425201762305"), 404);
  EXPECT_EQ(daemon.get_status("/api/v1/session/abc"), 400);
  EXPECT_EQ(daemon.get_status("/api/v1/session/1e20"), 400);
  EXPECT_EQ(daemon.get_status("/api/v1/explain/-1"), 400);
  EXPECT_EQ(daemon.get_status("/api/v1/explain/425201762305"), 200);
  EXPECT_EQ(daemon.get_status("/api/v1/topology"), 200);
  // The alerts page pins the read-only list action: a GET never removes.
  EXPECT_EQ(
      daemon.get_status("/api/v1/alerts?action=remove&name=rejection-ratio"),
      200);
  const ctl::CommandResult listed = daemon.command("slo");
  ASSERT_TRUE(listed.ok);
#if MUERP_TELEMETRY_ENABLED  // the OFF build's alert engine keeps no rules
  EXPECT_NE(listed.result_json.find("rejection-ratio"), std::string::npos);
#endif
}

}  // namespace
}  // namespace muerp::daemon
