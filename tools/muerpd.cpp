// muerpd — long-running entanglement routing service with a live
// observability and control plane.
//
// `muerpd --help` lists every flag (src/daemon/settings.cpp declares them,
// with the ctl settings, in one table); `muerpctl ctl commands` lists the
// control verbs with their argument schemas. What neither says:
//
//   GET  /metrics, /healthz, /snapshot.json   Prometheus text, liveness
//   GET  /api/v1/range, /api/v1/metrics       time-series history (muerptop)
//   GET  /api/v1/sessions, /session/<id>, /explain/<id>, /topology, /links,
//        /alerts                              the ctl verb of the same name
//                                             (alerts = `slo list`), with
//                                             query keys as its arguments
//   GET  /api/v1/topology.svg                 live link-utilization heatmap
//   POST /api/v1/ctl                          {"cmd","args"} in, {"ok",...}
//                                             out; --ctl-token guards it
//
// The daemon prints "muerpd: serving on <addr>:<port>" once the endpoint is
// up (port 0 binds an ephemeral port; tests parse the line). The first
// SIGINT/SIGTERM stops arrivals and drains in-flight sessions; a second one
// skips the drain. Exit prints the session summary table. Exit codes: 0
// after a clean run or --help, 1 when the configuration is refused or the
// port cannot be bound, 2 on an unknown flag or a malformed flag value.
//
// Examples:
//   muerpd --port 9464                       # paper-default Waxman network
//   muerpd --net n.txt --algorithm alg3      # serve a saved network
//   muerpd --slots 20000 --slot-ms 0         # finite, unpaced (benchmarks)
//   muerpd --history muerpd.hist             # durable lifetime counters
//   muerpctl ctl set arrival-rate 0.2        # live retune
//   muerpctl ctl drain                       # stop intake, finish, exit
#include <atomic>
#include <csignal>
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "daemon/daemon.hpp"
#include "daemon/settings.hpp"

namespace {

// Counts delivered stop signals: 1 = graceful (drain in-flight sessions),
// 2+ = immediate (skip the drain too).
std::atomic<int> g_stop{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the signal handler needs a lock-free counter");

void handle_stop(int) { g_stop.fetch_add(1); }

}  // namespace

int main(int argc, char** argv) {
  muerp::daemon::DaemonConfig config;
  if (const auto exit_code = muerp::daemon::parse_flags(argc, argv, &config)) {
    return *exit_code;
  }
  const std::string bind = config.bind;
  std::unique_ptr<muerp::daemon::Daemon> daemon;
  try {
    daemon = std::make_unique<muerp::daemon::Daemon>(std::move(config));
  } catch (const std::exception& error) {
    std::cerr << "muerpd: " << error.what() << '\n';
    return 1;
  }
  std::string error;
  if (!daemon->start(&error)) {
    std::cerr << "muerpd: " << error << '\n';
    return 1;
  }
  std::cout << "muerpd: serving on " << bind << ":" << daemon->port()
            << std::endl;
  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  daemon->run(g_stop);
  std::cout << daemon->summary();
  return 0;
}
