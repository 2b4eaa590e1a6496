// Test oracle: the seed's self-contained lazy-heap Dijkstra, kept verbatim
// as the reference the SPF kernel (graph/spf_kernel.hpp, graph::dijkstra)
// must match bit for bit. The kernel regression tests and the
// `perf_algorithms --compare` kernel table run it as their baseline arm.
// Lives with the tests, not in the shipped library.
#pragma once

#include <functional>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"

namespace muerp::graph {

/// Same contract as graph::dijkstra: non-negative `weight`, and
/// `allow_through` (if set) gates which vertices may be expanded.
ShortestPaths dijkstra_legacy(
    const Graph& graph, NodeId source,
    const std::function<double(EdgeId)>& weight,
    const std::function<bool(NodeId)>& allow_through = nullptr);

}  // namespace muerp::graph
