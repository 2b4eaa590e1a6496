// Routing hot-path instrumentation, backed by the telemetry registry.
//
// The routing layer's counters — every Dijkstra run by ChannelFinder, the
// cached finder and Yen's restricted searches, plus the cache hit/miss/
// invalidation bookkeeping — live in support::telemetry as named counters
// (see the metrics namespace below), so they show up in snapshots, JSON
// exports and `bench/perf_algorithms --compare` alongside spans.
//
// The PerfCounters struct and perf_counters()/reset_perf_counters() remain
// as a compatibility view for existing benches and tests: perf_counters()
// reconstructs "this thread's counts since the last reset" by subtracting a
// thread-local baseline from the registry's thread shard. In a
// MUERP_TELEMETRY=OFF build the registry is stubbed out and every field
// reads zero.
//
// The global cache toggle lets benchmarks and tests run the exact same
// algorithm code with memoization disabled (every query recomputes) for
// before/after comparisons; results are bit-identical either way.
#pragma once

#include <cstdint>

#include "support/telemetry/metrics.hpp"

namespace muerp::routing {

/// Per-thread view of the routing counters since the last reset (zeros when
/// telemetry is compiled out).
struct PerfCounters {
  /// Full single-source Dijkstra runs (cache misses recompute; disabled
  /// caches recompute every query).
  std::uint64_t dijkstra_runs = 0;
  /// Frontier nodes settled across all Dijkstra runs (Def. 2 leaves never
  /// enter the frontier, so they are not counted).
  std::uint64_t heap_pops = 0;
  /// Cached shortest-path trees served without recomputation.
  std::uint64_t cache_hits = 0;
  /// Queries that found no usable cached tree and ran Dijkstra.
  std::uint64_t cache_misses = 0;
  /// Cached trees discarded because a can_relay() flip reached them.
  std::uint64_t cache_invalidations = 0;

  PerfCounters& operator-=(const PerfCounters& other) noexcept;
  friend PerfCounters operator-(PerfCounters lhs,
                                const PerfCounters& rhs) noexcept {
    lhs -= rhs;
    return lhs;
  }
};

/// The current thread's counters since the last reset_perf_counters() on
/// this thread. Returns a reference to a thread-local view refreshed on
/// each call; mutating it does not affect the registry.
PerfCounters& perf_counters() noexcept;

/// Re-baselines the view: subsequent perf_counters() reads start from zero.
void reset_perf_counters() noexcept;

/// Global switch for CachedChannelFinder memoization (default: enabled).
/// Read once at finder construction; flip it only between algorithm runs.
bool finder_cache_enabled() noexcept;
void set_finder_cache_enabled(bool enabled) noexcept;

/// The registry-backed instruments the routing layer ticks. Exposed so the
/// instrumented code (and tests) share one registration per name.
namespace metrics {
const support::telemetry::Counter& dijkstra_runs();
const support::telemetry::Counter& heap_pops();
const support::telemetry::Counter& cache_hits();
const support::telemetry::Counter& cache_misses();
const support::telemetry::Counter& cache_invalidations();
/// Relay flips folded away by CachedChannelFinder's flip-log coalescing
/// (a flip and its opposite cancel before any tree is invalidated).
const support::telemetry::Counter& flips_coalesced();
}  // namespace metrics

}  // namespace muerp::routing
