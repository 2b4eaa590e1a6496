#include "oracles/dijkstra_legacy.hpp"

#include <cassert>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

namespace muerp::graph {

ShortestPaths dijkstra_legacy(const Graph& graph, NodeId source,
                              const std::function<double(EdgeId)>& weight,
                              const std::function<bool(NodeId)>& allow_through) {
  assert(source < graph.node_count());
  ShortestPaths result;
  result.distance.assign(graph.node_count(),
                         std::numeric_limits<double>::infinity());
  result.parent_edge.assign(graph.node_count(), kInvalidEdge);
  result.distance[source] = 0.0;

  using Entry = std::pair<double, NodeId>;  // (distance, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, source);

  while (!heap.empty()) {
    const auto [dist, v] = heap.top();
    heap.pop();
    if (dist > result.distance[v]) continue;  // stale entry
    // A vertex that may not be traversed can still be *reached* (it may be
    // the path's destination); it just never relaxes its own neighbours.
    if (v != source && allow_through && !allow_through(v)) continue;
    for (const Neighbor& nb : graph.neighbors(v)) {
      const double w = weight(nb.edge);
      assert(w >= 0.0 && "Dijkstra requires non-negative weights");
      const double candidate = dist + w;
      if (candidate < result.distance[nb.node]) {
        result.distance[nb.node] = candidate;
        result.parent_edge[nb.node] = nb.edge;
        heap.emplace(candidate, nb.node);
      }
    }
  }
  return result;
}

}  // namespace muerp::graph
