// End-to-end smoke test for the muerpd daemon: spawn the real binary on an
// ephemeral port, scrape its HTTP plane while the session loop is live, and
// verify a clean bounded-run exit. The binary path is injected by CMake as
// MUERPD_BINARY.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ctl/client.hpp"
#include "support/json.hpp"
#include "support/telemetry/metrics.hpp"

namespace {

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::send(fd, request.data(), request.size(), 0) ==
          static_cast<ssize_t>(request.size())) {
    char buffer[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0) {
      response.append(buffer, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

TEST(MuerpdSmoke, ServesMetricsAndExitsCleanly) {
  // Bounded run: ~4000 paced slots at 1 ms leave several seconds of live
  // scraping window, then the daemon exits on its own.
  const std::string command = std::string(MUERPD_BINARY) +
                              " --port 0 --slots 4000 --slot-ms 1"
                              " --arrival 0.2 --seed 3 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);

  // First stdout line announces the bound endpoint:
  //   muerpd: serving on 127.0.0.1:<port>
  char line[256] = {};
  ASSERT_NE(std::fgets(line, sizeof line, pipe), nullptr);
  const std::string serving(line);
  ASSERT_NE(serving.find("muerpd: serving on 127.0.0.1:"), std::string::npos)
      << serving;
  const std::uint16_t port = static_cast<std::uint16_t>(
      std::strtoul(serving.c_str() + serving.rfind(':') + 1, nullptr, 10));
  ASSERT_NE(port, 0);

  // Live scrape: a valid exposition page and a healthy health document.
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("# EOF"), std::string::npos);
  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"algorithm\""), std::string::npos);

  // Drain the remaining output; the daemon must finish its bounded run and
  // exit 0, printing the summary table.
  std::string rest;
  while (std::fgets(line, sizeof line, pipe) != nullptr) rest += line;
  const int status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(rest.find("muerpd session service"), std::string::npos);
  EXPECT_NE(rest.find("sessions arrived"), std::string::npos);
}

/// A muerpd child spawned directly (no shell) so the test owns its PID and
/// can deliver real signals. stdout arrives over `out`; stderr is dropped.
struct DaemonProcess {
  pid_t pid = -1;
  FILE* out = nullptr;
};

DaemonProcess spawn_muerpd(const std::vector<std::string>& extra_args) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {};
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
    std::vector<std::string> args = {MUERPD_BINARY};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(MUERPD_BINARY, argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  return {pid, ::fdopen(fds[0], "r")};
}

/// Reads muerpd's announcement line and returns the bound port (0 on parse
/// failure).
std::uint16_t read_serving_port(FILE* out) {
  char line[256] = {};
  if (std::fgets(line, sizeof line, out) == nullptr) return 0;
  const std::string serving(line);
  if (serving.find("muerpd: serving on 127.0.0.1:") == std::string::npos) {
    return 0;
  }
  return static_cast<std::uint16_t>(
      std::strtoul(serving.c_str() + serving.rfind(':') + 1, nullptr, 10));
}

TEST(MuerpdSmoke, MuerptopOnceRendersLivePanels) {
  // Fast slots and a 50 ms sampler so a fraction of a second of wall time
  // already yields several time-series samples.
  const std::string command = std::string(MUERPD_BINARY) +
                              " --port 0 --slots 6000 --slot-ms 1"
                              " --arrival 0.3 --seed 5"
                              " --sample-interval-ms 50 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  char line[256] = {};
  ASSERT_NE(std::fgets(line, sizeof line, pipe), nullptr);
  const std::string serving(line);
  const std::uint16_t port = static_cast<std::uint16_t>(
      std::strtoul(serving.c_str() + serving.rfind(':') + 1, nullptr, 10));
  ASSERT_NE(port, 0);

  // Let the sampler take a handful of snapshots before rendering.
  ::usleep(500 * 1000);

#if MUERP_TELEMETRY_ENABLED
  // The range API serves real non-empty series while the daemon is live.
  const std::string index = http_get(port, "/api/v1/metrics");
  EXPECT_NE(index.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(index.find("muerpd/slots/"), std::string::npos) << index;
#endif

  const std::string top_command =
      std::string(MUERPTOP_BINARY) + " --once --ascii --endpoint 127.0.0.1:" +
      std::to_string(port) + " --window 10 2>/dev/null";
  FILE* top = ::popen(top_command.c_str(), "r");
  ASSERT_NE(top, nullptr);
  std::string dashboard;
  while (std::fgets(line, sizeof line, top) != nullptr) dashboard += line;
  const int top_status = ::pclose(top);
  ASSERT_TRUE(WIFEXITED(top_status));
  EXPECT_EQ(WEXITSTATUS(top_status), 0) << dashboard;

  // The three panels render in every build; the header carries live health.
  EXPECT_NE(dashboard.find("admission"), std::string::npos) << dashboard;
  EXPECT_NE(dashboard.find("slot latency (us)"), std::string::npos);
  EXPECT_NE(dashboard.find("p50"), std::string::npos);
  EXPECT_NE(dashboard.find("p95"), std::string::npos);
  EXPECT_NE(dashboard.find("sessions"), std::string::npos);
  EXPECT_NE(dashboard.find("slot "), std::string::npos);
#if MUERP_TELEMETRY_ENABLED
  // With telemetry compiled in the admission panel shows real per-second
  // rates for the active algorithm (series fetched from /api/v1/range).
  EXPECT_NE(dashboard.find("requests/s"), std::string::npos) << dashboard;
  EXPECT_NE(dashboard.find("slots/s"), std::string::npos);
#endif

  while (std::fgets(line, sizeof line, pipe) != nullptr) {
  }
  const int status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(MuerpdSmoke, SigtermDrainsAndWritesSnapshot) {
  const std::string snapshot_path =
      ::testing::TempDir() + "muerpd_smoke_snapshot.json";
  std::remove(snapshot_path.c_str());

  DaemonProcess daemon = spawn_muerpd(
      {"--port", "0", "--slots", "0", "--slot-ms", "1", "--arrival", "0.3",
       "--seed", "7", "--timeout", "50", "--sample-interval-ms", "50",
       "--snapshot-out", snapshot_path});
  ASSERT_GT(daemon.pid, 0);
  ASSERT_NE(daemon.out, nullptr);
  const std::uint16_t port = read_serving_port(daemon.out);
  ASSERT_NE(port, 0);

  // Let it serve a few sessions, then ask for a graceful shutdown.
  ::usleep(300 * 1000);
  EXPECT_NE(http_get(port, "/healthz").find("\"status\": \"ok\""),
            std::string::npos);
  ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);

  std::string rest;
  char line[256];
  while (std::fgets(line, sizeof line, daemon.out) != nullptr) rest += line;
  std::fclose(daemon.out);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
  ASSERT_TRUE(WIFEXITED(status)) << rest;
  EXPECT_EQ(WEXITSTATUS(status), 0) << rest;
  // The summary table still prints after a signal-initiated drain.
  EXPECT_NE(rest.find("muerpd session service"), std::string::npos) << rest;
  EXPECT_NE(rest.find("sessions arrived"), std::string::npos);

  // The farewell snapshot parses as the /snapshot.json document.
  std::ifstream in(snapshot_path);
  ASSERT_TRUE(in.good()) << snapshot_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = muerp::support::json::parse(buffer.str());
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_TRUE(doc.value["metrics"].is_object());
  EXPECT_TRUE(doc.value["events"].is_array());
  std::remove(snapshot_path.c_str());
}

/// Issues one ctl command against a live daemon and returns the parsed
/// envelope (ok() false on transport failure — asserted by callers).
muerp::support::json::ParseResult ctl(std::uint16_t port,
                                      const std::string& cmd,
                                      const std::string& args_json = "",
                                      const std::string& token = "") {
  muerp::ctl::HttpResult result;
  std::string error;
  if (!muerp::ctl::ctl_request(std::to_string(port), cmd, args_json, &result,
                               &error, token)) {
    muerp::support::json::ParseResult failed;
    failed.error = "transport: " + error;
    return failed;
  }
  return muerp::support::json::parse(result.body);
}

/// Polls waitpid(WNOHANG) until the child exits or `timeout_ms` elapses.
/// Returns the exit status, or -1 on timeout.
int wait_exit(pid_t pid, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid) return status;
    ::usleep(20 * 1000);
  }
  return -1;
}

/// One row's rendered value from muerpd's exit summary table — exact string
/// (scientific notation), so comparing rows compares the doubles bitwise.
std::string summary_row(const std::string& output, const std::string& label) {
  const std::size_t at = output.find(label);
  if (at == std::string::npos) return "<missing " + label + ">";
  const std::size_t start = at + label.size();
  const std::size_t end = output.find('\n', start);
  std::string value = output.substr(start, end - start);
  // Trim the padding the table aligns with.
  value.erase(0, value.find_first_not_of(' '));
  value.erase(value.find_last_not_of(' ') + 1);
  return value;
}

TEST(MuerpdSmoke, CtlVerbsDriveALiveDaemon) {
  DaemonProcess daemon = spawn_muerpd({"--port", "0", "--slots", "0",
                                       "--slot-ms", "1", "--arrival", "0.2",
                                       "--seed", "11", "--timeout", "40"});
  ASSERT_GT(daemon.pid, 0);
  const std::uint16_t port = read_serving_port(daemon.out);
  ASSERT_NE(port, 0);

  // status: lifecycle + live counters.
  auto doc = ctl(port, "status");
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_TRUE(doc.value["ok"].bool_value);
  EXPECT_EQ(doc.value["result"]["state"].string_value, "running");

  // set/get round-trip a live retune.
  doc = ctl(port, "set", R"({"name": "arrival-rate", "value": 0.35})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  doc = ctl(port, "get", R"({"name": "arrival-rate"})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_DOUBLE_EQ(doc.value["result"].number_value, 0.35);

  // The stable error codes surface over the wire.
  doc = ctl(port, "set", R"({"name": "arrival-rate", "value": 7})");
  EXPECT_FALSE(doc.value["ok"].bool_value);
  EXPECT_EQ(doc.value["code"].string_value, "out_of_range");
  doc = ctl(port, "set", R"({"name": "arrival-rate", "value": "fast"})");
  EXPECT_EQ(doc.value["code"].string_value, "bad_arg");
  doc = ctl(port, "get", R"({"name": "lifetime"})");
  EXPECT_EQ(doc.value["code"].string_value, "unsupported");  // no --history
  doc = ctl(port, "nope");
  EXPECT_EQ(doc.value["code"].string_value, "unknown_command");

  // pause/resume transition /healthz state.
  doc = ctl(port, "pause");
  EXPECT_TRUE(doc.value["ok"].bool_value);
  EXPECT_NE(http_get(port, "/healthz").find("\"state\": \"paused\""),
            std::string::npos);
  doc = ctl(port, "resume");
  EXPECT_TRUE(doc.value["ok"].bool_value);
  EXPECT_NE(http_get(port, "/healthz").find("\"state\": \"running\""),
            std::string::npos);

  // snapshot returns the full metrics document inline.
  doc = ctl(port, "snapshot");
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_TRUE(doc.value["result"]["metrics"].is_object());

  // commands serves the table for discovery.
  doc = ctl(port, "commands");
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_FALSE(doc.value["result"]["commands"].elements.empty());

  // drain: arrivals stop, in-flight sessions finish, the daemon exits 0.
  doc = ctl(port, "drain");
  EXPECT_TRUE(doc.value["ok"].bool_value);
  EXPECT_EQ(doc.value["result"]["state"].string_value, "draining");
  const int status = wait_exit(daemon.pid, 10000);
  ASSERT_NE(status, -1) << "daemon did not exit after ctl drain";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::fclose(daemon.out);
}

TEST(MuerpdSmoke, PausedThenResumedRunIsBitIdenticalToUnpaused) {
  const std::vector<std::string> args = {
      "--port", "0",       "--slots", "1500", "--slot-ms", "1",
      "--arrival", "0.3",  "--seed",  "21",   "--timeout", "60"};

  // Reference run: plays its 1500 slots without interference.
  DaemonProcess plain = spawn_muerpd(args);
  ASSERT_GT(plain.pid, 0);
  ASSERT_NE(read_serving_port(plain.out), 0);
  std::string plain_output;
  char line[256];
  while (std::fgets(line, sizeof line, plain.out) != nullptr) {
    plain_output += line;
  }
  std::fclose(plain.out);
  int status = 0;
  ASSERT_EQ(::waitpid(plain.pid, &status, 0), plain.pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // Same run, paused for ~400 ms in the middle. Commands apply at tick
  // boundaries and the paused loop keeps the deadline grid moving without
  // playing slots, so the slot trajectory must be unchanged.
  DaemonProcess paused = spawn_muerpd(args);
  ASSERT_GT(paused.pid, 0);
  const std::uint16_t port = read_serving_port(paused.out);
  ASSERT_NE(port, 0);
  ::usleep(300 * 1000);
  auto doc = ctl(port, "pause");
  ASSERT_TRUE(doc.ok()) << doc.error;
  ASSERT_TRUE(doc.value["ok"].bool_value);
  ::usleep(400 * 1000);
  EXPECT_NE(http_get(port, "/healthz").find("\"state\": \"paused\""),
            std::string::npos);
  doc = ctl(port, "resume");
  ASSERT_TRUE(doc.value["ok"].bool_value);
  std::string paused_output;
  while (std::fgets(line, sizeof line, paused.out) != nullptr) {
    paused_output += line;
  }
  std::fclose(paused.out);
  ASSERT_EQ(::waitpid(paused.pid, &status, 0), paused.pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // Every session metric row must match EXACTLY (the doubles render with
  // scientific precision, so string equality is bit equality in practice).
  for (const char* label :
       {"slots played", "sessions arrived", "sessions admitted",
        "sessions completed", "sessions timed out", "admitted fraction",
        "mean completion slots", "mean qubit utilization"}) {
    EXPECT_EQ(summary_row(plain_output, label),
              summary_row(paused_output, label))
        << label << "\n--- plain ---\n"
        << plain_output << "\n--- paused ---\n"
        << paused_output;
  }
}

TEST(MuerpdSmoke, RestartedDaemonReportsLifetimeAcrossRuns) {
  const std::string history_path =
      ::testing::TempDir() + "muerpd_smoke_history.bin";
  std::remove(history_path.c_str());

  // Run 1: a bounded unpaced burst; exits on its own, flushing its deltas.
  {
    DaemonProcess first = spawn_muerpd({"--port", "0", "--slots", "600",
                                        "--slot-ms", "0", "--arrival", "0.3",
                                        "--seed", "13", "--timeout", "40",
                                        "--history", history_path});
    ASSERT_GT(first.pid, 0);
    ASSERT_NE(read_serving_port(first.out), 0);
    char line[256];
    while (std::fgets(line, sizeof line, first.out) != nullptr) {
    }
    std::fclose(first.out);
    int status = 0;
    ASSERT_EQ(::waitpid(first.pid, &status, 0), first.pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  // Run 2: replays run 1 and serves combined totals over ctl.
  DaemonProcess second = spawn_muerpd({"--port", "0", "--slots", "0",
                                       "--slot-ms", "1", "--arrival", "0.3",
                                       "--seed", "14", "--history",
                                       history_path});
  ASSERT_GT(second.pid, 0);
  const std::uint16_t port = read_serving_port(second.out);
  ASSERT_NE(port, 0);
  ::usleep(200 * 1000);
  const auto doc = ctl(port, "get", R"({"name": "lifetime"})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  ASSERT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  const auto& lifetime = doc.value["result"];
  EXPECT_EQ(lifetime["runs"].number_value, 2.0);
  // 600 slots from run 1 plus whatever run 2 played so far.
  EXPECT_GE(lifetime["slots"].number_value, 600.0);
  EXPECT_GT(lifetime["arrived"].number_value, 0.0);

  // Kill run 2 without ceremony; a crash must not poison the file.
  ASSERT_EQ(::kill(second.pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(second.pid, &status, 0), second.pid);
  std::fclose(second.out);

  // Run 3: replays both prior runs (torn tail, if any, truncated away).
  DaemonProcess third = spawn_muerpd({"--port", "0", "--slots", "0",
                                      "--slot-ms", "1", "--arrival", "0.3",
                                      "--seed", "15", "--history",
                                      history_path});
  ASSERT_GT(third.pid, 0);
  const std::uint16_t third_port = read_serving_port(third.out);
  ASSERT_NE(third_port, 0);
  const auto after = ctl(third_port, "get", R"({"name": "lifetime"})");
  ASSERT_TRUE(after.ok()) << after.error;
  ASSERT_TRUE(after.value["ok"].bool_value);
  EXPECT_EQ(after.value["result"]["runs"].number_value, 3.0);
  EXPECT_GE(after.value["result"]["slots"].number_value, 600.0);
  ::kill(third.pid, SIGTERM);
  wait_exit(third.pid, 10000);
  std::fclose(third.out);
  std::remove(history_path.c_str());
}

TEST(MuerpdSmoke, MuerpctlCtlTalksToTheDaemon) {
  DaemonProcess daemon = spawn_muerpd({"--port", "0", "--slots", "0",
                                       "--slot-ms", "1", "--arrival", "0.2",
                                       "--seed", "17", "--timeout", "40"});
  ASSERT_GT(daemon.pid, 0);
  const std::uint16_t port = read_serving_port(daemon.out);
  ASSERT_NE(port, 0);

  const std::string base = std::string(MUERPCTL_BINARY) +
                           " ctl status --endpoint 127.0.0.1:" +
                           std::to_string(port) + " 2>/dev/null";
  FILE* pipe = ::popen(base.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char line[512];
  while (std::fgets(line, sizeof line, pipe) != nullptr) output += line;
  const int status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
  EXPECT_NE(output.find("\"ok\": true"), std::string::npos) << output;
  EXPECT_NE(output.find("\"state\": \"running\""), std::string::npos);

  // A failing command exits 1 with the envelope on stdout.
  const std::string bad = std::string(MUERPCTL_BINARY) +
                          " ctl get no-such-setting --endpoint 127.0.0.1:" +
                          std::to_string(port) + " 2>/dev/null";
  pipe = ::popen(bad.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  output.clear();
  while (std::fgets(line, sizeof line, pipe) != nullptr) output += line;
  const int bad_status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(bad_status));
  EXPECT_EQ(WEXITSTATUS(bad_status), 1) << output;
  EXPECT_NE(output.find("bad_arg"), std::string::npos) << output;

  ctl(port, "drain");
  const int exit_status = wait_exit(daemon.pid, 10000);
  ASSERT_NE(exit_status, -1);
  std::fclose(daemon.out);
}

/// Body of a raw HTTP response captured by http_get.
std::string body_of(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

/// Runs a muerpctl command line, captures stdout, returns the exit code.
int run_muerpctl(const std::string& args, std::string* output) {
  const std::string command =
      std::string(MUERPCTL_BINARY) + " " + args + " 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char line[512];
  while (std::fgets(line, sizeof line, pipe) != nullptr) *output += line;
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(MuerpdSmoke, FlightRecorderAndAlertsServeTheTail) {
  // A starved fabric under heavy load: 3 qubits per switch refuse many
  // groups outright, a weak swap and a 4-slot timeout expire most admitted
  // sessions — both tail shapes (rejection, timeout) occur within the first
  // few hundred milliseconds and a rejection burn-rate SLO has real traffic
  // to breach on.
  DaemonProcess daemon = spawn_muerpd(
      {"--port", "0", "--slots", "0", "--slot-ms", "1", "--arrival", "0.9",
       "--switches", "30", "--users", "8", "--qubits", "3", "--swap", "0.5",
       "--timeout", "4", "--seed", "11", "--sample-interval-ms", "50"});
  ASSERT_GT(daemon.pid, 0);
  const std::uint16_t port = read_serving_port(daemon.out);
  ASSERT_NE(port, 0);
  // Enough wall time for sessions to reject/time out and for the sampler to
  // evaluate the alert table at least three times (burn-rate for_count 3).
  ::usleep(700 * 1000);

#if MUERP_TELEMETRY_ENABLED
  // ctl sessions: both tail states are retrievable with full records.
  auto doc = ctl(port, "sessions", R"({"state": "rejected", "limit": 5})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  ASSERT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  const auto& rejected = doc.value["result"]["sessions"].elements;
  ASSERT_FALSE(rejected.empty());
  EXPECT_EQ(rejected.back()["state"].string_value, "rejected");
  EXPECT_NE(rejected.back()["reject_reason"].string_value, "none");
  const std::uint64_t rejected_id =
      static_cast<std::uint64_t>(rejected.back()["id"].number_value);

  doc = ctl(port, "sessions", R"({"state": "timed_out", "limit": 5})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  ASSERT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  const auto& timed_out = doc.value["result"]["sessions"].elements;
  ASSERT_FALSE(timed_out.empty());
  EXPECT_EQ(timed_out.back()["state"].string_value, "timed_out");
  EXPECT_GT(timed_out.back()["held_slots"].number_value, 0.0);
  const std::uint64_t timed_out_id =
      static_cast<std::uint64_t>(timed_out.back()["id"].number_value);

  // Single-record lookup by id, as a record and as a Chrome trace.
  doc = ctl(port, "session",
            "{\"id\": " + std::to_string(rejected_id) + "}");
  ASSERT_TRUE(doc.value["ok"].bool_value);
  EXPECT_EQ(doc.value["result"]["state"].string_value, "rejected");
  EXPECT_TRUE(doc.value["result"]["group"].is_array());
  doc = ctl(port, "session",
            "{\"id\": " + std::to_string(timed_out_id) +
                ", \"format\": \"trace\"}");
  ASSERT_TRUE(doc.value["ok"].bool_value);
  EXPECT_FALSE(doc.value["result"]["traceEvents"].elements.empty());
  doc = ctl(port, "session", "{\"id\": 425201762305}");  // lane 99, seq 1
  EXPECT_FALSE(doc.value["ok"].bool_value);
  EXPECT_EQ(doc.value["code"].string_value, "not_found");

  // The GET routes serve the same documents.
  const std::string listed = http_get(
      port, "/api/v1/sessions?state=timed_out&limit=3");
  EXPECT_NE(listed.find("HTTP/1.1 200 OK"), std::string::npos);
  const auto listed_doc = muerp::support::json::parse(body_of(listed));
  ASSERT_TRUE(listed_doc.ok()) << listed_doc.error;
  EXPECT_GE(listed_doc.value["count"].number_value, 1.0);
  const std::string traced = http_get(
      port, "/api/v1/session/" + std::to_string(timed_out_id) +
                "?format=trace");
  EXPECT_NE(traced.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(traced.find("traceEvents"), std::string::npos);
  EXPECT_NE(http_get(port, "/api/v1/session/425201762305").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/api/v1/session/abc").find("400"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/api/v1/sessions?state=bogus").find("400"),
            std::string::npos);
  // Malformed numbers are refused like the ctl verb refuses them, not
  // ignored in favour of the defaults.
  for (const char* query : {"limit=-3", "lane=abc", "min-slot=1.5",
                            "max-slot=-1", "lane=4294967296"}) {
    EXPECT_NE(http_get(port, std::string("/api/v1/sessions?") + query)
                  .find("HTTP/1.1 400"),
              std::string::npos)
        << query;
  }

  // The default rejection-ratio rule is live against the rejected traffic
  // (this mixed workload rejects ~13% of arrivals — real but sub-threshold).
  std::string alerts = http_get(port, "/api/v1/alerts");
  EXPECT_NE(alerts.find("HTTP/1.1 200 OK"), std::string::npos);
  auto alerts_doc = muerp::support::json::parse(body_of(alerts));
  ASSERT_TRUE(alerts_doc.ok()) << alerts_doc.error;
  bool saw_rejection_rule = false;
  for (const auto& rule : alerts_doc.value["rules"].elements) {
    if (rule["name"].string_value != "rejection-ratio") continue;
    saw_rejection_rule = true;
    EXPECT_GE(rule["evaluations"].number_value, 1.0) << body_of(alerts);
    EXPECT_GT(rule["value"].number_value, 0.0) << body_of(alerts);
  }
  EXPECT_TRUE(saw_rejection_rule);

  // slo verb: list the defaults, then install a burn-rate rule tuned to this
  // workload and watch it fire on the next sampler evaluation.
  doc = ctl(port, "slo");
  ASSERT_TRUE(doc.value["ok"].bool_value);
  EXPECT_FALSE(doc.value["result"]["rules"].elements.empty());
  doc = ctl(port, "slo",
            R"({"action": "set", "name": "smoke-rejections", "kind": "ratio",
                "metric": "session/rejected", "denominator": "session/arrived",
                "threshold": 0.05, "for": 1})");
  ASSERT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  ::usleep(250 * 1000);  // sampler cadence is 50 ms; one breach fires it
  alerts = http_get(port, "/api/v1/alerts");
  alerts_doc = muerp::support::json::parse(body_of(alerts));
  ASSERT_TRUE(alerts_doc.ok()) << alerts_doc.error;
  EXPECT_GE(alerts_doc.value["firing"].number_value, 1.0) << body_of(alerts);
  bool smoke_rule_fired = false;
  for (const auto& rule : alerts_doc.value["rules"].elements) {
    if (rule["name"].string_value != "smoke-rejections") continue;
    smoke_rule_fired = rule["firing"].bool_value;
    EXPECT_GT(rule["value"].number_value, 0.05) << body_of(alerts);
  }
  EXPECT_TRUE(smoke_rule_fired) << body_of(alerts);
  EXPECT_NE(http_get(port, "/healthz").find("\"alerts_firing\""),
            std::string::npos);

  // Remove it (twice: the second is a miss).
  doc = ctl(port, "slo", R"({"action": "remove", "name": "smoke-rejections"})");
  EXPECT_TRUE(doc.value["ok"].bool_value);
  doc = ctl(port, "slo", R"({"action": "remove", "name": "smoke-rejections"})");
  EXPECT_FALSE(doc.value["ok"].bool_value);
  EXPECT_EQ(doc.value["code"].string_value, "not_found");

  // muerpctl renders the same planes from the command line.
  std::string output;
  EXPECT_EQ(run_muerpctl("ctl sessions state=rejected limit=2 --endpoint "
                         "127.0.0.1:" + std::to_string(port), &output), 0)
      << output;
  EXPECT_NE(output.find("\"state\": \"rejected\""), std::string::npos)
      << output;
  output.clear();
  EXPECT_EQ(run_muerpctl("ctl slo --endpoint 127.0.0.1:" +
                         std::to_string(port), &output), 0) << output;
  EXPECT_NE(output.find("rejection-ratio"), std::string::npos) << output;
#else   // MUERP_TELEMETRY_ENABLED
  // An OFF build serves the same endpoints as empty-but-valid documents.
  const std::string sessions = http_get(port, "/api/v1/sessions");
  EXPECT_NE(sessions.find("HTTP/1.1 200 OK"), std::string::npos);
  const auto sessions_doc = muerp::support::json::parse(body_of(sessions));
  ASSERT_TRUE(sessions_doc.ok()) << sessions_doc.error;
  EXPECT_DOUBLE_EQ(sessions_doc.value["count"].number_value, 0.0);
  EXPECT_TRUE(sessions_doc.value["sessions"].elements.empty());
  const std::string alerts = http_get(port, "/api/v1/alerts");
  EXPECT_NE(alerts.find("HTTP/1.1 200 OK"), std::string::npos);
  const auto alerts_doc = muerp::support::json::parse(body_of(alerts));
  ASSERT_TRUE(alerts_doc.ok()) << alerts_doc.error;
  EXPECT_DOUBLE_EQ(alerts_doc.value["firing"].number_value, 0.0);
#endif  // MUERP_TELEMETRY_ENABLED

  ctl(port, "drain");
  const int status = wait_exit(daemon.pid, 10000);
  ASSERT_NE(status, -1) << "daemon did not exit after ctl drain";
  std::fclose(daemon.out);
}

TEST(MuerpdSmoke, NetworkPlaneServesTopologyLinksAndExplain) {
  // The same starved fabric as the flight-recorder smoke: rejections and
  // admissions both occur quickly, so the link ledger has occupancy,
  // attempts, and contention to report.
  DaemonProcess daemon = spawn_muerpd(
      {"--port", "0", "--slots", "0", "--slot-ms", "1", "--arrival", "0.9",
       "--switches", "30", "--users", "8", "--qubits", "3", "--swap", "0.5",
       "--timeout", "4", "--seed", "11", "--sample-interval-ms", "50"});
  ASSERT_GT(daemon.pid, 0);
  const std::uint16_t port = read_serving_port(daemon.out);
  ASSERT_NE(port, 0);
  ::usleep(500 * 1000);

  // Topology: static attributes render in every build.
  const std::string topology = http_get(port, "/api/v1/topology");
  EXPECT_NE(topology.find("HTTP/1.1 200 OK"), std::string::npos);
  const auto topo_doc = muerp::support::json::parse(body_of(topology));
  ASSERT_TRUE(topo_doc.ok()) << topo_doc.error;
  EXPECT_EQ(topo_doc.value["nodes"].elements.size(), 38u);  // 30 + 8
  ASSERT_FALSE(topo_doc.value["edges"].elements.empty());
  EXPECT_EQ(topo_doc.value["switches"].elements.size(), 30u);
  const auto& first_edge = topo_doc.value["edges"].elements[0];
  EXPECT_GT(first_edge["length_km"].number_value, 0.0);
  EXPECT_TRUE(first_edge["utilization"].is_number());

  // The SVG heatmap is a finished vector document.
  const std::string svg = http_get(port, "/api/v1/topology.svg");
  EXPECT_NE(svg.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(svg.find("image/svg+xml"), std::string::npos);
  const std::string svg_body = body_of(svg);
  EXPECT_EQ(svg_body.rfind("<svg", 0), 0u);
  EXPECT_NE(svg_body.find("</svg>"), std::string::npos);
  EXPECT_NE(svg_body.find("muerpd link utilization"), std::string::npos);

  // Bad query parameters answer 400, not garbage documents.
  EXPECT_NE(http_get(port, "/api/v1/links?sort=hotness").find("400"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/api/v1/links?limit=xyz").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/api/v1/explain/abc").find("400"),
            std::string::npos);

  const std::string links = http_get(port, "/api/v1/links?sort=util&limit=5");
  EXPECT_NE(links.find("HTTP/1.1 200 OK"), std::string::npos);
  const auto links_doc = muerp::support::json::parse(body_of(links));
  ASSERT_TRUE(links_doc.ok()) << links_doc.error;

#if MUERP_TELEMETRY_ENABLED
  // The hot-links query serves a live, sorted, truncated document.
  const auto& hot = links_doc.value["links"].elements;
  ASSERT_EQ(hot.size(), 5u);
  EXPECT_GE(hot[0]["utilization"].number_value,
            hot[4]["utilization"].number_value);
  EXPECT_GT(hot[0]["attempts"].number_value, 0.0);

  // explain joins a real tail record with its lane's saturated links.
  auto doc = ctl(port, "sessions", R"({"state": "rejected", "limit": 1})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  ASSERT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  const auto& rejected = doc.value["result"]["sessions"].elements;
  ASSERT_FALSE(rejected.empty());
  const std::uint64_t rejected_id =
      static_cast<std::uint64_t>(rejected.back()["id"].number_value);
  const std::string explained = http_get(
      port, "/api/v1/explain/" + std::to_string(rejected_id));
  EXPECT_NE(explained.find("HTTP/1.1 200 OK"), std::string::npos);
  const auto explain_doc = muerp::support::json::parse(body_of(explained));
  ASSERT_TRUE(explain_doc.ok()) << explain_doc.error;
  EXPECT_TRUE(explain_doc.value["found"].bool_value) << body_of(explained);
  EXPECT_EQ(explain_doc.value["session"]["state"].string_value, "rejected");
  EXPECT_TRUE(explain_doc.value["saturated_links"]["edges"].is_array());

  // The ctl verbs serve the same documents.
  doc = ctl(port, "topology");
  ASSERT_TRUE(doc.ok()) << doc.error;
  ASSERT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  EXPECT_EQ(doc.value["result"]["switches"].elements.size(), 30u);
  doc = ctl(port, "links", R"({"sort": "losses", "limit": 3})");
  ASSERT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  EXPECT_EQ(doc.value["result"]["links"].elements.size(), 3u);
  doc = ctl(port, "explain", "{\"id\": " + std::to_string(rejected_id) + "}");
  ASSERT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  EXPECT_TRUE(doc.value["result"]["found"].bool_value);

  // The exposition page carries the hot-link gauges and the per-reason
  // rejection counters this workload generates.
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("muerp_net_link_util_top0"), std::string::npos);
  EXPECT_NE(metrics.find("muerp_net_link_util_pct"), std::string::npos);
  EXPECT_NE(metrics.find("muerp_muerpd_rejects_"), std::string::npos);

  // muerpctl renders the network plane from the command line.
  std::string output;
  EXPECT_EQ(run_muerpctl("ctl links sort=util limit=2 --endpoint 127.0.0.1:" +
                         std::to_string(port), &output), 0)
      << output;
  EXPECT_NE(output.find("\"utilization\""), std::string::npos) << output;
  output.clear();
  EXPECT_EQ(run_muerpctl("ctl explain " + std::to_string(rejected_id) +
                         " --endpoint 127.0.0.1:" + std::to_string(port),
                         &output), 0)
      << output;
  EXPECT_NE(output.find("\"found\": true"), std::string::npos) << output;
#else   // MUERP_TELEMETRY_ENABLED
  // OFF build: empty-but-valid documents with the same shapes.
  EXPECT_DOUBLE_EQ(links_doc.value["count"].number_value, 0.0);
  EXPECT_TRUE(links_doc.value["links"].elements.empty());
  EXPECT_DOUBLE_EQ(first_edge["held"].number_value, 0.0);
  const std::string explained = http_get(port, "/api/v1/explain/12345");
  EXPECT_NE(explained.find("HTTP/1.1 200 OK"), std::string::npos);
  const auto explain_doc = muerp::support::json::parse(body_of(explained));
  ASSERT_TRUE(explain_doc.ok()) << explain_doc.error;
  EXPECT_FALSE(explain_doc.value["found"].bool_value);
  EXPECT_TRUE(explain_doc.value["session"].is_null());
#endif  // MUERP_TELEMETRY_ENABLED

  // An unknown id still answers 200 with a found:false join in every build.
  const std::string missing = http_get(port, "/api/v1/explain/425201762305");
  EXPECT_NE(missing.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(missing.find("\"found\": false"), std::string::npos);

  ctl(port, "drain");
  const int status = wait_exit(daemon.pid, 10000);
  ASSERT_NE(status, -1) << "daemon did not exit after ctl drain";
  std::fclose(daemon.out);
}

TEST(MuerpdSmoke, CtlTokenGuardsThePostPlane) {
  DaemonProcess daemon = spawn_muerpd(
      {"--port", "0", "--slots", "0", "--slot-ms", "1", "--arrival", "0.2",
       "--seed", "23", "--timeout", "40", "--ctl-token", "smoke-secret"});
  ASSERT_GT(daemon.pid, 0);
  const std::uint16_t port = read_serving_port(daemon.out);
  ASSERT_NE(port, 0);

  // No token: the command plane answers 401 with the JSON envelope and a
  // WWW-Authenticate challenge; nothing executes.
  auto doc = ctl(port, "status");
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_FALSE(doc.value["ok"].bool_value);
  EXPECT_EQ(doc.value["code"].string_value, "unauthorized");
  doc = ctl(port, "status", "", "wrong-token");
  EXPECT_EQ(doc.value["code"].string_value, "unauthorized");

  // The read-only GET plane stays open — the token guards mutations.
  EXPECT_NE(http_get(port, "/healthz").find("HTTP/1.1 200 OK"),
            std::string::npos);

  // The right token goes through.
  doc = ctl(port, "status", "", "smoke-secret");
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_TRUE(doc.value["ok"].bool_value);
  EXPECT_EQ(doc.value["result"]["state"].string_value, "running");

  // muerpctl --token end to end: authorized exits 0, bare exits 1.
  std::string output;
  EXPECT_EQ(run_muerpctl("ctl status --token smoke-secret --endpoint "
                         "127.0.0.1:" + std::to_string(port), &output), 0)
      << output;
  EXPECT_NE(output.find("\"ok\": true"), std::string::npos) << output;
  output.clear();
  EXPECT_EQ(run_muerpctl("ctl status --endpoint 127.0.0.1:" +
                         std::to_string(port), &output), 1) << output;
  EXPECT_NE(output.find("unauthorized"), std::string::npos) << output;

  ctl(port, "drain", "", "smoke-secret");
  const int status = wait_exit(daemon.pid, 10000);
  ASSERT_NE(status, -1) << "daemon did not exit after ctl drain";
  std::fclose(daemon.out);
}

TEST(MuerpdSmoke, SamplerSurvivesRetuneWhilePaused) {
  DaemonProcess daemon = spawn_muerpd(
      {"--port", "0", "--slots", "0", "--slot-ms", "1", "--arrival", "0.2",
       "--seed", "29", "--timeout", "40", "--sample-interval-ms", "500"});
  ASSERT_GT(daemon.pid, 0);
  const std::uint16_t port = read_serving_port(daemon.out);
  ASSERT_NE(port, 0);

  // Pause the loop, retune the sampler while paused, resume. The restart
  // must take even though the slot loop is not playing.
  auto doc = ctl(port, "pause");
  ASSERT_TRUE(doc.ok()) << doc.error;
  ASSERT_TRUE(doc.value["ok"].bool_value);
  doc = ctl(port, "set", R"({"name": "sample-interval-ms", "value": 50})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  doc = ctl(port, "get", R"({"name": "sample-interval-ms"})");
  EXPECT_TRUE(doc.value["ok"].bool_value);
#if MUERP_TELEMETRY_ENABLED
  // The stub sampler of an OFF build reports interval 0; only a real
  // sampler echoes the retuned cadence back.
  EXPECT_DOUBLE_EQ(doc.value["result"].number_value, 50.0);
#endif
  doc = ctl(port, "resume");
  EXPECT_TRUE(doc.value["ok"].bool_value);

#if MUERP_TELEMETRY_ENABLED
  // Samples keep accumulating on the new 50 ms cadence.
  const auto samples_of = [port] {
    const auto doc = muerp::support::json::parse(
        body_of(http_get(port, "/api/v1/metrics")));
    return doc.ok() ? doc.value["samples"].number_value : -1.0;
  };
  const double before = samples_of();
  ASSERT_GE(before, 0.0);
  ::usleep(400 * 1000);
  EXPECT_GT(samples_of(), before);
#endif

  ctl(port, "drain");
  const int status = wait_exit(daemon.pid, 10000);
  ASSERT_NE(status, -1) << "daemon did not exit after ctl drain";
  std::fclose(daemon.out);
}

TEST(MuerpdSmoke, CtlVerbsReadTheirOwnWritesFromTheSnapshot) {
  // Slow trees (swap 0.05) and a long timeout keep sessions in flight for
  // seconds, so the daemon is still draining when the last status lands.
  DaemonProcess daemon = spawn_muerpd(
      {"--port", "0", "--slots", "0", "--slot-ms", "5", "--arrival", "0.9",
       "--swap", "0.05", "--seed", "31", "--timeout", "400"});
  ASSERT_GT(daemon.pid, 0);
  const std::uint16_t port = read_serving_port(daemon.out);
  ASSERT_NE(port, 0);
  const auto status = [port] { return ctl(port, "status"); };
  auto doc = status();
  for (int tries = 0; tries < 150 && doc.ok() &&
                      doc.value["result"]["active_sessions"].number_value == 0;
       ++tries) {
    ::usleep(20 * 1000);
    doc = status();
  }
  ASSERT_TRUE(doc.ok()) << doc.error;
  ASSERT_GT(doc.value["result"]["active_sessions"].number_value, 0.0);
  EXPECT_TRUE(doc.value["result"]["arrivals_enabled"].bool_value);

  // pause: the very next status sees it, and while the loop holds still
  // the status counters are /healthz's fields.
  ASSERT_TRUE(ctl(port, "pause").value["ok"].bool_value);
  doc = status();
  ASSERT_TRUE(doc.ok()) << doc.error;
  const auto& result = doc.value["result"];
  EXPECT_EQ(result["state"].string_value, "paused");
  const auto health =
      muerp::support::json::parse(body_of(http_get(port, "/healthz")));
  ASSERT_TRUE(health.ok()) << health.error;
  EXPECT_EQ(health.value["state"].string_value, "paused");
  for (const auto& [status_field, health_field] :
       std::vector<std::pair<std::string, std::string>>{
           {"slot", "slot"},
           {"active_sessions", "active_sessions"},
           {"arrived", "sessions_arrived"},
           {"admitted", "sessions_admitted"},
           {"completed", "sessions_completed"}}) {
    EXPECT_EQ(result[status_field].number_value,
              health.value[health_field].number_value)
        << status_field;
  }
  EXPECT_EQ(result["arrived"].number_value,
            result["admitted"].number_value + result["rejected"].number_value);

  // set then get: the reply to get carries the value set just before.
  doc = ctl(port, "set", R"({"name": "arrival-burst", "value": 3})");
  ASSERT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  doc = ctl(port, "get", R"({"name": "arrival-burst"})");
  EXPECT_DOUBLE_EQ(doc.value["result"].number_value, 3.0);

  ASSERT_TRUE(ctl(port, "resume").value["ok"].bool_value);
  EXPECT_EQ(status().value["result"]["state"].string_value, "running");

  // drain: arrivals stop and the state flips before the next tick ends.
  doc = ctl(port, "drain");
  ASSERT_TRUE(doc.value["ok"].bool_value);
  doc = status();
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_EQ(doc.value["result"]["state"].string_value, "draining");
  EXPECT_FALSE(doc.value["result"]["arrivals_enabled"].bool_value);
  EXPECT_TRUE(doc.value["result"]["arrivals_enabled"].is_bool());

  const int exit_status = wait_exit(daemon.pid, 20000);
  ASSERT_NE(exit_status, -1) << "daemon did not exit after ctl drain";
  EXPECT_TRUE(WIFEXITED(exit_status));
  std::fclose(daemon.out);
}

TEST(MuerpdSmoke, CtlVerbsAnswerWhileATickIsInFlight) {
  // Unpaced with a huge --tick-batch: the first tick plays millions of
  // slots, seconds of work. A status that waited for the tick boundary
  // would wait that long; one served from the snapshot answers at once,
  // and still reports the boot snapshot's slot 0.
  DaemonProcess daemon = spawn_muerpd(
      {"--port", "0", "--slots", "0", "--slot-ms", "0", "--tick-batch",
       "5000000", "--arrival", "0.9", "--seed", "37"});
  ASSERT_GT(daemon.pid, 0);
  const std::uint16_t port = read_serving_port(daemon.out);
  ASSERT_NE(port, 0);
  ::usleep(200 * 1000);  // the first tick is under way

  const auto start = std::chrono::steady_clock::now();
  auto doc = ctl(port, "status");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_TRUE(doc.value["ok"].bool_value);
  EXPECT_EQ(doc.value["result"]["state"].string_value, "running");
  EXPECT_EQ(doc.value["result"]["slot"].number_value, 0.0);
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000));
  doc = ctl(port, "get", R"({"name": "arrival-rate"})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  EXPECT_DOUBLE_EQ(doc.value["result"].number_value, 0.9);

  // The loop only sees signals between ticks; SIGKILL ends it now.
  ::kill(daemon.pid, SIGKILL);
  int exit_status = 0;
  ::waitpid(daemon.pid, &exit_status, 0);
  std::fclose(daemon.out);
}

TEST(MuerpdSmoke, HistoryLifetimeCarriesRejectionOnlyTraffic) {
  const std::string history_path =
      ::testing::TempDir() + "muerpd_smoke_rejections.bin";
  std::remove(history_path.c_str());

  // Run 1: one qubit per switch relays nothing, so every arrival is
  // rejected — the run's whole story is in the admitted/rejected delta
  // fields. The unpaced burst finishes inside the 250 ms flush throttle, so
  // ONLY the forced shutdown flush writes it; dropping that delta (the old
  // throttle bug) would lose the run entirely.
  {
    DaemonProcess first = spawn_muerpd(
        {"--port", "0", "--slots", "400", "--slot-ms", "0", "--arrival",
         "0.9", "--switches", "20", "--users", "8", "--qubits", "1",
         "--seed", "19", "--history", history_path});
    ASSERT_GT(first.pid, 0);
    ASSERT_NE(read_serving_port(first.out), 0);
    char line[256];
    while (std::fgets(line, sizeof line, first.out) != nullptr) {
    }
    std::fclose(first.out);
    int status = 0;
    ASSERT_EQ(::waitpid(first.pid, &status, 0), first.pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  // Run 2 replays the file: run 1's rejections survived the shutdown.
  DaemonProcess second = spawn_muerpd(
      {"--port", "0", "--slots", "0", "--slot-ms", "1", "--arrival", "0.0",
       "--seed", "20", "--history", history_path});
  ASSERT_GT(second.pid, 0);
  const std::uint16_t port = read_serving_port(second.out);
  ASSERT_NE(port, 0);
  auto doc = ctl(port, "get", R"({"name": "lifetime"})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  ASSERT_TRUE(doc.value["ok"].bool_value) << doc.value["error"].string_value;
  EXPECT_EQ(doc.value["result"]["runs"].number_value, 2.0);
  EXPECT_GE(doc.value["result"]["slots"].number_value, 400.0);
  const double arrived = doc.value["result"]["arrived"].number_value;
  const double rejected = doc.value["result"]["rejected"].number_value;
  EXPECT_GT(arrived, 0.0);
  EXPECT_GT(rejected, 0.0);

  // A second forced flush right away (well inside the 250 ms throttle) must
  // still answer, and totals never go backwards.
  doc = ctl(port, "get", R"({"name": "lifetime"})");
  ASSERT_TRUE(doc.value["ok"].bool_value);
  EXPECT_GE(doc.value["result"]["arrived"].number_value, arrived);
  EXPECT_GE(doc.value["result"]["rejected"].number_value, rejected);

  ::kill(second.pid, SIGTERM);
  wait_exit(second.pid, 10000);
  std::fclose(second.out);
  std::remove(history_path.c_str());
}

TEST(MuerpdSmoke, RejectsUnknownAlgorithm) {
  // An unknown router, a fair-share burst on a router without the
  // batch-native kernel and arrival probabilities outside [0, 1] (all
  // refused by the service's own validation), a sampler interval
  // `ctl set sample-interval-ms` would refuse, and malformed or
  // out-of-range flag values that must not fall back to a default.
  for (const char* args :
       {"--algorithm no-such-router",
        "--arrival-burst 2 --batch-policy fair-share --algorithm alg3",
        "--arrival 5", "--arrival nan", "--arrival -0.5",
        "--sample-interval-ms 3600001", "--port 70000", "--port abc",
        "--lanes two", "--arrival fast", "--record-links maybe",
        "--timeout -1", "--slot-ms -5"}) {
    const std::string command = std::string(MUERPD_BINARY) +
                                " --port 0 --slots 1 " + args + " 2>/dev/null";
    FILE* pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    char line[256];
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
    }
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_NE(WEXITSTATUS(status), 0) << args;
  }
}

}  // namespace
