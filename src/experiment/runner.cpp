#include "experiment/runner.hpp"

#include <algorithm>
#include <cassert>
#include <string_view>

#include "routing/router.hpp"
#include "support/telemetry/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace muerp::experiment {

const char* algorithm_name(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kAlg2Optimal:
      return "Alg-2";
    case Algorithm::kAlg3Conflict:
      return "Alg-3";
    case Algorithm::kAlg4Prim:
      return "Alg-4";
    case Algorithm::kEQCast:
      return "E-Q-CAST";
    case Algorithm::kNFusion:
      return "N-Fusion";
  }
  return "?";
}

const char* algorithm_key(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kAlg2Optimal:
      return "alg2";
    case Algorithm::kAlg3Conflict:
      return "alg3";
    case Algorithm::kAlg4Prim:
      return "alg4";
    case Algorithm::kEQCast:
      return "eqcast";
    case Algorithm::kNFusion:
      return "nfusion";
  }
  return "?";
}

std::span<const std::string> paper_algorithm_names() noexcept {
  static const std::vector<std::string> names = {"alg2", "alg3", "alg4",
                                                 "eqcast", "nfusion"};
  return names;
}

namespace {

double run_router(const routing::Router& router, Instance& instance,
                  const RunnerOptions& options) {
  routing::RoutingRequest request;
  request.network = &instance.network;
  request.users = instance.users;
  request.rng = &instance.rng;
  request.options.nfusion = options.nfusion;
  return router.route_tree(request).rate;
}

std::vector<const routing::Router*> resolve(
    std::span<const std::string> names) {
  const routing::RouterRegistry& registry =
      routing::RouterRegistry::instance();
  std::vector<const routing::Router*> routers;
  routers.reserve(names.size());
  for (const std::string& name : names) routers.push_back(&registry.at(name));
  return routers;
}

std::vector<const routing::Router*> resolve(
    std::span<const Algorithm> algorithms) {
  const routing::RouterRegistry& registry =
      routing::RouterRegistry::instance();
  std::vector<const routing::Router*> routers;
  routers.reserve(algorithms.size());
  for (const Algorithm a : algorithms) {
    routers.push_back(&registry.at(algorithm_key(a)));
  }
  return routers;
}

/// Shared serial/parallel core. Telemetry is collected into per
/// (algorithm, repetition) slots on whichever worker runs the repetition,
/// then merged in repetition order after the join: deterministic for any
/// thread count, and pure observation — no RNG stream or rate changes.
ScenarioResult run_scenario_impl(
    const Scenario& scenario,
    std::span<const routing::Router* const> routers,
    const RunnerOptions& options, bool parallel, unsigned threads) {
  namespace tel = support::telemetry;
  ScenarioResult result;
  result.rates.assign(routers.size(),
                      std::vector<double>(scenario.repetitions, 0.0));
  result.telemetry.assign(routers.size(), tel::Snapshot{});
  // Read only by the finish log line, which OFF builds compile out.
  [[maybe_unused]] const std::uint64_t scenario_start =
      tel::monotonic_now_ns();
  MUERP_LOG_INFO("runner/scenario_start",
                 tel::field("switches", scenario.switch_count),
                 tel::field("users", scenario.user_count),
                 tel::field("repetitions", scenario.repetitions),
                 tel::field("algorithms", routers.size()),
                 tel::field("parallel", parallel));

  std::vector<std::vector<tel::Snapshot>> deltas(
      routers.size(), std::vector<tel::Snapshot>(scenario.repetitions));

  // "runner/<name>" spans attribute wall time per algorithm inside a rep
  // (and nest the algorithm's own spans below themselves in the flame view).
  std::vector<tel::SpanId> spans;
  spans.reserve(routers.size());
  for (const routing::Router* router : routers) {
    spans.push_back(tel::intern_span("runner/" + router->name()));
  }

  const auto body = [&](std::size_t rep) {
    const std::uint64_t rep_start = tel::monotonic_now_ns();
    Instance instance = instantiate(scenario, rep);
    for (std::size_t a = 0; a < routers.size(); ++a) {
      const tel::Snapshot before = tel::capture_thread();
      {
        const tel::ScopedSpan span(spans[a]);
        result.rates[a][rep] = run_router(*routers[a], instance, options);
      }
      tel::Snapshot after = tel::capture_thread();
      after.subtract(before);
      deltas[a][rep] = std::move(after);
    }
    MUERP_HISTOGRAM_OBSERVE(
        "runner/rep_ms",
        static_cast<double>(tel::monotonic_now_ns() - rep_start) / 1e6);
  };

  if (parallel) {
    detail::parallel_for_reps(scenario.repetitions, threads, body);
  } else {
    for (std::size_t rep = 0; rep < scenario.repetitions; ++rep) body(rep);
  }

  // The fold itself is observable work (it walks every per-rep snapshot),
  // so it gets its own debug event with the merge count.
  for (std::size_t a = 0; a < routers.size(); ++a) {
    for (std::size_t rep = 0; rep < scenario.repetitions; ++rep) {
      result.telemetry[a].merge(deltas[a][rep]);
    }
  }
  MUERP_LOG_DEBUG("runner/telemetry_fold",
                  tel::field("snapshots",
                             routers.size() * scenario.repetitions));
  MUERP_LOG_INFO(
      "runner/scenario_finish",
      tel::field("repetitions", scenario.repetitions),
      tel::field("algorithms", routers.size()),
      tel::field("elapsed_ms",
                 static_cast<double>(tel::monotonic_now_ns() -
                                     scenario_start) /
                     1e6));
  return result;
}

}  // namespace

double run_algorithm(Algorithm algorithm, Instance& instance,
                     const RunnerOptions& options) {
  return run_algorithm(algorithm_key(algorithm), instance, options);
}

double run_algorithm(std::string_view algorithm, Instance& instance,
                     const RunnerOptions& options) {
  const routing::Router& router =
      routing::RouterRegistry::instance().at(algorithm);
  return run_router(router, instance, options);
}

double ScenarioResult::mean_rate(std::size_t algorithm_index) const {
  assert(algorithm_index < rates.size());
  return support::mean(rates[algorithm_index]);
}

double ScenarioResult::feasible_fraction(std::size_t algorithm_index) const {
  assert(algorithm_index < rates.size());
  return support::positive_fraction(rates[algorithm_index]);
}

double ScenarioResult::stderr_rate(std::size_t algorithm_index) const {
  assert(algorithm_index < rates.size());
  return support::summarize(rates[algorithm_index]).stderr_mean;
}

ScenarioResult run_scenario(const Scenario& scenario,
                            std::span<const Algorithm> algorithms,
                            const RunnerOptions& options) {
  return run_scenario_impl(scenario, resolve(algorithms), options,
                           /*parallel=*/false, /*threads=*/0);
}

ScenarioResult run_scenario(const Scenario& scenario,
                            std::span<const std::string> algorithms,
                            const RunnerOptions& options) {
  return run_scenario_impl(scenario, resolve(algorithms), options,
                           /*parallel=*/false, /*threads=*/0);
}

ScenarioResult run_scenario(const Scenario& scenario,
                            const RunnerOptions& options) {
  return run_scenario(scenario, paper_algorithm_names(), options);
}

namespace detail {

void parallel_for_reps(std::size_t repetitions, unsigned threads,
                       const std::function<void(std::size_t)>& body) {
  // The shared pool replaces the seed's per-call std::thread spawn/join: it
  // clamps its size to the hardware concurrency once at construction (the
  // seed oversubscribed when callers asked for more threads than cores) and
  // keeps workers — and their warm thread-local SPF kernel state — alive
  // across calls. Work split, early stop on failure, and first-exception
  // rethrow all match the seed; each repetition writes its own pre-sized
  // slots, so results are bit-identical for any thread count.
  support::ThreadPool::shared().parallel_for(repetitions, threads, body);
}

}  // namespace detail

ScenarioResult run_scenario_parallel(const Scenario& scenario,
                                     std::span<const Algorithm> algorithms,
                                     const RunnerOptions& options,
                                     unsigned threads) {
  return run_scenario_impl(scenario, resolve(algorithms), options,
                           /*parallel=*/true, threads);
}

ScenarioResult run_scenario_parallel(const Scenario& scenario,
                                     std::span<const std::string> algorithms,
                                     const RunnerOptions& options,
                                     unsigned threads) {
  return run_scenario_impl(scenario, resolve(algorithms), options,
                           /*parallel=*/true, threads);
}

}  // namespace muerp::experiment
