// The "host" object that perf_algorithms --compare and batch_routing write
// into BENCH_routing.json / BENCH_batch.json, in the shape bench/e2e stamps
// its documents with. tools/bench_diff prints both sides' stamps and warns
// when they differ: a ratio measured on another core count, build type or
// compiler is not a like-for-like comparison.
#pragma once

#include <string>
#include <thread>

#ifndef MUERP_BENCH_BUILD_TYPE
#define MUERP_BENCH_BUILD_TYPE ""
#endif

namespace muerp::bench {

inline std::string host_stamp_json() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "g++ " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" MUERP_BENCH_BUILD_TYPE
         "\", \"compiler\": \"" + compiler + "\"}";
}

}  // namespace muerp::bench
