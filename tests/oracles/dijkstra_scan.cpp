#include "oracles/dijkstra_scan.hpp"

#include <cassert>
#include <limits>
#include <vector>

namespace muerp::graph {

ShortestPaths dijkstra_scan(const Graph& graph, NodeId source,
                            const std::function<double(EdgeId)>& weight,
                            const std::function<bool(NodeId)>& allow_through) {
  assert(source < graph.node_count());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = graph.node_count();
  ShortestPaths result;
  result.distance.assign(n, kInf);
  result.parent_edge.assign(n, kInvalidEdge);
  result.distance[source] = 0.0;
  std::vector<bool> settled(n, false);

  for (;;) {
    // Strict < over ascending ids keeps the lowest id among distance ties.
    NodeId v = kInvalidNode;
    for (NodeId u = 0; u < n; ++u) {
      if (!settled[u] && result.distance[u] < kInf &&
          (v == kInvalidNode || result.distance[u] < result.distance[v])) {
        v = u;
      }
    }
    if (v == kInvalidNode) break;
    settled[v] = true;
    if (v != source && allow_through && !allow_through(v)) continue;
    for (const Neighbor& nb : graph.neighbors(v)) {
      const double w = weight(nb.edge);
      assert(w >= 0.0 && "Dijkstra requires non-negative weights");
      const double candidate = result.distance[v] + w;
      if (candidate < result.distance[nb.node]) {
        result.distance[nb.node] = candidate;
        result.parent_edge[nb.node] = nb.edge;
      }
    }
  }
  return result;
}

}  // namespace muerp::graph
