// Test oracle: textbook O(|V|^2) Dijkstra whose frontier is a linear
// minimum scan over the tentative distances, lowest id first among ties.
// It shares no code with the SPF kernel's indexed heap, so the kernel tests
// run it as an independent second frontier that must settle in the same
// (distance, id) order and produce the same trees bit for bit.
// Lives with the tests, not in the shipped library.
#pragma once

#include <functional>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"

namespace muerp::graph {

/// Same contract as graph::dijkstra: non-negative `weight`, and
/// `allow_through` (if set) gates which vertices may be expanded.
ShortestPaths dijkstra_scan(
    const Graph& graph, NodeId source,
    const std::function<double(EdgeId)>& weight,
    const std::function<bool(NodeId)>& allow_through = nullptr);

}  // namespace muerp::graph
