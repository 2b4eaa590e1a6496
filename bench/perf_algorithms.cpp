// Runtime micro-benchmarks backing the paper's §IV complexity claims:
//   Algorithm 1: O(|E| + |V| log |V|) per source
//   Algorithm 2: O(|U| (|E| + |V| log |V|))
//   Algorithms 3/4: O(|U|^2 (|E| + |V| log |V|))
// The google-benchmark sweeps scale |V| and |U| so the growth curves can be
// eyeballed against those bounds.
//
// `perf_algorithms --compare[=out.json]` instead runs the CachedChannelFinder
// before/after comparison: every routing algorithm is timed on the §V-A
// default scenario (50 switches, 10 users, Waxman, 20 networks) in rounds
// that alternate finder memoization disabled and enabled, the
// per-repetition rates are checked bit-identical, and the wall-clock times +
// routing perf counters are written to BENCH_routing.json (or the given
// path). The same mode also times the seed's lazy-heap Dijkstra (the
// graph::dijkstra_legacy test oracle in tests/oracles/) against the SPF
// kernel call for call on those instances and verifies the two produce
// identical trees.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/eqcast.hpp"
#include "baselines/nfusion.hpp"
#include "experiment/scenario.hpp"
#include "graph/algorithms.hpp"
#include "oracles/dijkstra_legacy.hpp"
#include "routing/channel_finder.hpp"
#include "routing/conflict_free.hpp"
#include "routing/local_search.hpp"
#include "routing/optimal_tree.hpp"
#include "routing/perf_counters.hpp"
#include "routing/prim_based.hpp"
#include "support/table.hpp"
#include "support/telemetry/telemetry.hpp"
#include "support/telemetry/export.hpp"

namespace {

using namespace muerp;

experiment::Instance make_instance(std::size_t switches, std::size_t users) {
  experiment::Scenario s;
  s.switch_count = switches;
  s.user_count = users;
  s.seed = 7;
  return experiment::instantiate(s, 0);
}

void BM_Algorithm1_SingleSource(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)), 10);
  const routing::ChannelFinder finder(inst.network);
  const net::CapacityState cap(inst.network);
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.find_best_channels(inst.users[0], cap));
  }
}
BENCHMARK(BM_Algorithm1_SingleSource)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_Algorithm2_Optimal(benchmark::State& state) {
  const auto inst = make_instance(50, static_cast<std::size_t>(state.range(0)));
  const auto boosted = net::with_uniform_switch_qubits(
      inst.network, 2 * static_cast<int>(inst.users.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::optimal_special_case(boosted, inst.users));
  }
}
BENCHMARK(BM_Algorithm2_Optimal)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_Algorithm3_ConflictFree(benchmark::State& state) {
  const auto inst = make_instance(50, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::conflict_free(inst.network, inst.users));
  }
}
BENCHMARK(BM_Algorithm3_ConflictFree)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_Algorithm4_PrimBased(benchmark::State& state) {
  const auto inst = make_instance(50, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::prim_based_from(inst.network, inst.users, 0));
  }
}
BENCHMARK(BM_Algorithm4_PrimBased)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_Baseline_EQCast(benchmark::State& state) {
  const auto inst = make_instance(50, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baselines::extended_qcast(inst.network, inst.users));
  }
}
BENCHMARK(BM_Baseline_EQCast)->Arg(5)->Arg(10)->Arg(20);

void BM_Baseline_NFusion(benchmark::State& state) {
  const auto inst = make_instance(50, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::n_fusion(inst.network, inst.users));
  }
}
BENCHMARK(BM_Baseline_NFusion)->Arg(5)->Arg(10)->Arg(20);

void BM_NetworkScale_Algorithm3(benchmark::State& state) {
  const auto inst =
      make_instance(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::conflict_free(inst.network, inst.users));
  }
}
BENCHMARK(BM_NetworkScale_Algorithm3)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

// ---------------------------------------------------------------------------
// --compare mode: cached vs. uncached ChannelFinder on the §V-A defaults.
// ---------------------------------------------------------------------------

/// Rounds per mode; each entry's wall time is best-round * kRounds.
constexpr std::size_t kRounds = 5;

struct CompareEntry {
  std::string name;
  double uncached_ms = 0.0;
  double cached_ms = 0.0;
  std::vector<double> uncached_rates;
  std::vector<double> cached_rates;
  routing::PerfCounters uncached_counters;
  routing::PerfCounters cached_counters;

  double speedup() const {
    return cached_ms > 0.0 ? uncached_ms / cached_ms : 0.0;
  }
  bool identical() const { return uncached_rates == cached_rates; }
};

/// One timed round: `passes` sweeps of `algo` over all pre-built
/// instances. Appends the first sweep's rates to `rates` when non-null, so
/// cached/uncached runs can be compared bit-for-bit, and adds the round's
/// routing counters to `counters`.
template <typename Algo>
double timed_round(const std::vector<experiment::Instance>& instances,
                   const Algo& algo, std::size_t passes,
                   std::vector<double>* rates,
                   routing::PerfCounters& counters) {
  routing::reset_perf_counters();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const experiment::Instance& inst : instances) {
      const double rate = algo(inst);
      if (rates != nullptr && pass == 0) rates->push_back(rate);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  const double round_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  // Observed outside the timed window, so the quantiles in the exported
  // snapshot (p50/p95/p99 of round wall time) cost the benchmark nothing.
  MUERP_HISTOGRAM_OBSERVE("bench/round_ms", round_ms);
  const routing::PerfCounters& round = routing::perf_counters();
  counters.dijkstra_runs += round.dijkstra_runs;
  counters.heap_pops += round.heap_pops;
  counters.cache_hits += round.cache_hits;
  counters.cache_misses += round.cache_misses;
  counters.cache_invalidations += round.cache_invalidations;
  return round_ms;
}

/// Uncached and cached rounds alternate, so drift of the host's speed over
/// the run lands on both arms alike instead of inside their ratio. Each arm
/// reports its best round * kRounds, which filters scheduler noise the way
/// best-of-N microbenchmarks do.
template <typename Algo>
CompareEntry compare_algorithm(const std::string& name,
                               const std::vector<experiment::Instance>& instances,
                               const Algo& algo, std::size_t passes) {
  CompareEntry entry;
  entry.name = name;
  double best_uncached_ms = std::numeric_limits<double>::infinity();
  double best_cached_ms = best_uncached_ms;
  for (std::size_t round = 0; round < kRounds; ++round) {
    routing::set_finder_cache_enabled(false);
    best_uncached_ms = std::min(
        best_uncached_ms,
        timed_round(instances, algo, passes / kRounds,
                    round == 0 ? &entry.uncached_rates : nullptr,
                    entry.uncached_counters));
    routing::set_finder_cache_enabled(true);
    best_cached_ms = std::min(
        best_cached_ms,
        timed_round(instances, algo, passes / kRounds,
                    round == 0 ? &entry.cached_rates : nullptr,
                    entry.cached_counters));
  }
  entry.uncached_ms = best_uncached_ms * static_cast<double>(kRounds);
  entry.cached_ms = best_cached_ms * static_cast<double>(kRounds);
  return entry;
}

/// Full-precision rate array so an ON-build and an OFF-build JSON can be
/// diffed bit-for-bit (6-significant-digit default would mask divergence).
void write_rates_json(std::ofstream& out, const std::vector<double>& rates) {
  out << '[';
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (i) out << ", ";
    out << std::setprecision(17) << rates[i];
  }
  out << ']' << std::setprecision(6);
}

void write_counters_json(std::ofstream& out,
                         const routing::PerfCounters& counters) {
  out << "{\"dijkstra_runs\": " << counters.dijkstra_runs
      << ", \"heap_pops\": " << counters.heap_pops
      << ", \"cache_hits\": " << counters.cache_hits
      << ", \"cache_misses\": " << counters.cache_misses
      << ", \"cache_invalidations\": " << counters.cache_invalidations << "}";
}

/// Kernel-level comparison: the seed's lazy-heap Dijkstra against the SPF
/// kernel (through the graph::dijkstra shim, so both sides pay the same
/// std::function weight/gate indirection and the table isolates the data
/// structures: CSR walk + indexed frontier vs vector-of-vectors + lazy
/// std::priority_queue). Each timed pass cycles every §V-A instance and
/// every user source, matching the cache/branch pressure of the experiment
/// sweeps above it. That regime is the honest one: hammering a single warm
/// instance instead lets the lazy heap's branches predict perfectly and it
/// edges out both kernel frontiers at this graph size (see EXPERIMENTS.md).
struct KernelCompare {
  double legacy_us = 0.0;  // per call
  double kernel_us = 0.0;  // per call
  bool identical = true;

  double speedup() const {
    return kernel_us > 0.0 ? legacy_us / kernel_us : 0.0;
  }
};

KernelCompare compare_kernel(
    const std::vector<experiment::Instance>& instances) {
  KernelCompare result;
  std::vector<net::CapacityState> capacities;
  capacities.reserve(instances.size());
  for (const experiment::Instance& inst : instances) {
    capacities.emplace_back(inst.network);
  }

  // Correctness first: distances and parent edges must agree exactly.
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const net::QuantumNetwork& network = instances[i].network;
    const net::CapacityState& capacity = capacities[i];
    const auto weight = [&](graph::EdgeId e) {
      return network.edge_routing_weight(e);
    };
    const auto gate = [&](graph::NodeId v) {
      return network.is_switch(v) && capacity.free_qubits(v) >= 2;
    };
    for (const net::NodeId source : instances[i].users) {
      const auto legacy =
          graph::dijkstra_legacy(network.graph(), source, weight, gate);
      const auto kernel =
          graph::dijkstra(network.graph(), source, weight, gate);
      result.identical = result.identical &&
                         legacy.distance == kernel.distance &&
                         legacy.parent_edge == kernel.parent_edge;
    }
  }

  constexpr std::size_t kKernelPasses = 50;
  static_assert(kKernelPasses % kRounds == 0);
  const std::size_t calls_per_round =
      (kKernelPasses / kRounds) * instances.size() * instances[0].users.size();
  const auto time_round = [&](auto&& run_one) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t pass = 0; pass < kKernelPasses / kRounds; ++pass) {
      for (std::size_t i = 0; i < instances.size(); ++i) {
        const net::QuantumNetwork& network = instances[i].network;
        const net::CapacityState& capacity = capacities[i];
        const auto weight = [&](graph::EdgeId e) {
          return network.edge_routing_weight(e);
        };
        const auto gate = [&](graph::NodeId v) {
          return network.is_switch(v) && capacity.free_qubits(v) >= 2;
        };
        for (const net::NodeId source : instances[i].users) {
          benchmark::DoNotOptimize(
              run_one(network.graph(), source, weight, gate));
        }
      }
    }
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count();
  };
  // Alternating rounds, best of each arm — as in compare_algorithm().
  double best_legacy_ms = std::numeric_limits<double>::infinity();
  double best_kernel_ms = best_legacy_ms;
  for (std::size_t round = 0; round < kRounds; ++round) {
    best_legacy_ms = std::min(
        best_legacy_ms,
        time_round([](const graph::Graph& g, graph::NodeId s, const auto& w,
                      const auto& gate) {
          return graph::dijkstra_legacy(g, s, w, gate);
        }));
    best_kernel_ms = std::min(
        best_kernel_ms,
        time_round([](const graph::Graph& g, graph::NodeId s, const auto& w,
                      const auto& gate) {
          return graph::dijkstra(g, s, w, gate);
        }));
  }
  result.legacy_us =
      best_legacy_ms * 1000.0 / static_cast<double>(calls_per_round);
  result.kernel_us =
      best_kernel_ms * 1000.0 / static_cast<double>(calls_per_round);
  return result;
}

int run_compare(const std::string& output_path) {
  namespace tel = muerp::support::telemetry;
  const tel::Snapshot tel_before = tel::capture_process();
  experiment::Scenario scenario;  // §V-A defaults: 50 switches, 10 users,
                                  // Waxman, Q=4, q=0.9, 20 networks
  std::vector<experiment::Instance> instances;
  instances.reserve(scenario.repetitions);
  for (std::size_t rep = 0; rep < scenario.repetitions; ++rep) {
    instances.push_back(experiment::instantiate(scenario, rep));
  }

  // Several passes over the 20 networks amortize timer noise; rates are
  // compared from the first pass (all passes are deterministic anyway).
  constexpr std::size_t kPasses = 25;
  static_assert(kPasses % kRounds == 0);

  std::vector<CompareEntry> entries;
  entries.push_back(compare_algorithm(
      "Alg-3 conflict_free", instances, [](const experiment::Instance& inst) {
        return routing::conflict_free(inst.network, inst.users).rate;
      }, kPasses));
  entries.push_back(compare_algorithm(
      "Alg-4 prim_based", instances, [](const experiment::Instance& inst) {
        return routing::prim_based_from(inst.network, inst.users, 0).rate;
      }, kPasses));
  entries.push_back(compare_algorithm(
      "Alg-4 + local_search", instances, [](const experiment::Instance& inst) {
        auto tree = routing::prim_based_from(inst.network, inst.users, 0);
        routing::improve_tree(inst.network, inst.users, tree, 8);
        return tree.rate;
      }, kPasses));
  entries.push_back(compare_algorithm(
      "E-Q-CAST", instances, [](const experiment::Instance& inst) {
        return baselines::extended_qcast(inst.network, inst.users).rate;
      }, kPasses));
  entries.push_back(compare_algorithm(
      "N-Fusion", instances, [](const experiment::Instance& inst) {
        return baselines::n_fusion(inst.network, inst.users).rate;
      }, kPasses));
  routing::set_finder_cache_enabled(true);

  // Headline: Alg-4 prim_based, the greedy tree-growth hot path the cache
  // targets — every round re-runs |tree| Dijkstras without it. Alg-3 spends
  // its time in the one-shot Algorithm-2 seed (|U| fresh Dijkstras no
  // per-call cache can amortize; its Phase-2 greedy loop runs only when the
  // seed fails to connect), so it is reported but cannot speed up much by
  // construction. The Alg-3 + Alg-4 total is kept for transparency.
  const CompareEntry& hot_path = entries[1];
  double greedy_uncached = 0.0;
  double greedy_cached = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    greedy_uncached += entries[i].uncached_ms;
    greedy_cached += entries[i].cached_ms;
  }
  const double greedy_speedup =
      greedy_cached > 0.0 ? greedy_uncached / greedy_cached : 0.0;

  bool all_identical = true;
  std::printf(
      "CachedChannelFinder before/after — §V-A defaults, %zu passes "
      "(best of %zu alternated rounds)\n",
      kPasses, kRounds);
  std::printf("%-22s %12s %12s %9s %10s\n", "algorithm", "uncached ms",
              "cached ms", "speedup", "identical");
  for (const CompareEntry& e : entries) {
    all_identical = all_identical && e.identical();
    std::printf("%-22s %12.2f %12.2f %8.2fx %10s\n", e.name.c_str(),
                e.uncached_ms, e.cached_ms, e.speedup(),
                e.identical() ? "yes" : "NO");
  }
  std::printf(
      "greedy hot path (Alg-4 tree growth): %.2f -> %.2f ms (%.2fx)\n",
      hot_path.uncached_ms, hot_path.cached_ms, hot_path.speedup());
  std::printf("greedy total (Alg-3 + Alg-4): %.2f -> %.2f ms (%.2fx)\n",
              greedy_uncached, greedy_cached, greedy_speedup);

  // Span/counter attribution of everything --compare ran above. In
  // MUERP_TELEMETRY=OFF builds the delta is empty and "enabled" is false;
  // diffing the per-algorithm rates arrays between an ON and an OFF build's
  // JSON verifies telemetry is pure observation (bit-identical rates).
  tel::Snapshot tel_delta = tel::capture_process();
  tel_delta.subtract(tel_before);

  const KernelCompare kernel = compare_kernel(instances);
  all_identical = all_identical && kernel.identical;
  std::printf(
      "\nSPF kernel vs seed Dijkstra — same instances, every user source\n");
  std::printf("%-22s %12s\n", "implementation", "us per call");
  std::printf("%-22s %12.3f\n", "seed lazy-heap", kernel.legacy_us);
  std::printf("%-22s %12.3f   (%.2fx, identical: %s)\n", "spf kernel",
              kernel.kernel_us, kernel.speedup(),
              kernel.identical ? "yes" : "NO");

  if (!tel_delta.empty()) {
    std::cout << '\n'
              << tel::spans_table(tel_delta, "telemetry spans (--compare run)");
  }

  std::ofstream out(output_path);
  if (!out) {
    std::cerr << "cannot write " << output_path << "\n";
    return 1;
  }
  out << "{\n  \"scenario\": {\"topology\": \"Waxman\", \"switches\": "
      << scenario.switch_count << ", \"users\": " << scenario.user_count
      << ", \"qubits_per_switch\": " << scenario.qubits_per_switch
      << ", \"repetitions\": " << scenario.repetitions
      << ", \"passes\": " << kPasses << "},\n";
  out << "  \"algorithms\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CompareEntry& e = entries[i];
    out << "    {\"name\": \"" << e.name << "\", \"uncached_ms\": "
        << e.uncached_ms << ", \"cached_ms\": " << e.cached_ms
        << ", \"speedup\": " << e.speedup() << ", \"identical\": "
        << (e.identical() ? "true" : "false") << ",\n     \"uncached\": ";
    write_counters_json(out, e.uncached_counters);
    out << ",\n     \"cached\": ";
    write_counters_json(out, e.cached_counters);
    out << ",\n     \"rates\": ";
    write_rates_json(out, e.cached_rates);
    out << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"telemetry\": {\"enabled\": "
      << (MUERP_TELEMETRY_ENABLED ? "true" : "false") << ", \"snapshot\": ";
  tel::write_json(out, tel_delta, /*indent=*/0);
  out << "},\n";
  out << "  \"greedy_hot_path\": {\"name\": \"" << hot_path.name
      << "\", \"uncached_ms\": " << hot_path.uncached_ms
      << ", \"cached_ms\": " << hot_path.cached_ms
      << ", \"speedup\": " << hot_path.speedup() << "},\n";
  out << "  \"greedy_total\": {\"uncached_ms\": " << greedy_uncached
      << ", \"cached_ms\": " << greedy_cached << ", \"speedup\": "
      << greedy_speedup << "},\n";
  out << "  \"spf_kernel\": {\"legacy_us_per_call\": " << kernel.legacy_us
      << ", \"kernel_us_per_call\": " << kernel.kernel_us
      << ", \"speedup\": " << kernel.speedup() << ", \"identical\": "
      << (kernel.identical ? "true" : "false") << "}\n}\n";
  std::printf("wrote %s\n", output_path.c_str());

  if (!all_identical) {
    std::cerr << "FAIL: results diverged (cached-vs-uncached rates or "
                 "kernel-vs-legacy distances)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--compare") return run_compare("BENCH_routing.json");
    if (arg.rfind("--compare=", 0) == 0) {
      return run_compare(std::string(arg.substr(10)));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
