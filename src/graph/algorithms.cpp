#include "graph/algorithms.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <queue>

#include "graph/spf_kernel.hpp"
#include "support/union_find.hpp"

namespace muerp::graph {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

bool is_connected(const Graph& graph) {
  return component_count(graph) <= 1;
}

std::vector<std::size_t> connected_components(const Graph& graph) {
  const std::size_t n = graph.node_count();
  constexpr auto kUnlabelled = static_cast<std::size_t>(-1);
  std::vector<std::size_t> label(n, kUnlabelled);
  std::size_t next_label = 0;
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (label[start] != kUnlabelled) continue;
    label[start] = next_label;
    stack.push_back(start);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const Neighbor& nb : graph.neighbors(v)) {
        if (label[nb.node] == kUnlabelled) {
          label[nb.node] = next_label;
          stack.push_back(nb.node);
        }
      }
    }
    ++next_label;
  }
  return label;
}

std::size_t component_count(const Graph& graph) {
  const auto labels = connected_components(graph);
  return labels.empty()
             ? 0
             : 1 + *std::max_element(labels.begin(), labels.end());
}

std::vector<std::optional<std::size_t>> bfs_hops(const Graph& graph,
                                                 NodeId source) {
  assert(source < graph.node_count());
  std::vector<std::optional<std::size_t>> hops(graph.node_count());
  hops[source] = 0;
  std::queue<NodeId> frontier;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (const Neighbor& nb : graph.neighbors(v)) {
      if (!hops[nb.node]) {
        hops[nb.node] = *hops[v] + 1;
        frontier.push(nb.node);
      }
    }
  }
  return hops;
}

ShortestPaths dijkstra(const Graph& graph, NodeId source,
                       const std::function<double(EdgeId)>& weight,
                       const std::function<bool(NodeId)>& allow_through) {
  assert(source < graph.node_count());
  // Thin shim over the SPF kernel: the std::function signature stays for
  // tests and cold paths, while the kernel supplies the CSR walk, the warm
  // per-thread workspace, and the indexed heap. The weight functor reads the
  // per-slot edge id, so callbacks keep their edge-id contract.
  auto& ctx = spf::thread_context();
  const spf::Csr& csr = ctx.csr_for(graph);
  if (allow_through) {
    spf::run(
        csr, ctx.workspace, source,
        [&](std::size_t slot) { return weight(csr.edge_id(slot)); },
        [&](NodeId v) { return allow_through(v); });
  } else {
    spf::run(
        csr, ctx.workspace, source,
        [&](std::size_t slot) { return weight(csr.edge_id(slot)); },
        [](NodeId) { return true; });
  }
  ShortestPaths result;
  ctx.workspace.extract(result.distance, result.parent_edge);
  return result;
}

std::vector<NodeId> reconstruct_path(const Graph& graph,
                                     const ShortestPaths& paths, NodeId source,
                                     NodeId target) {
  if (paths.distance[target] == kInf) return {};
  std::vector<NodeId> path{target};
  NodeId cursor = target;
  while (cursor != source) {
    const EdgeId via = paths.parent_edge[cursor];
    assert(via != kInvalidEdge);
    cursor = graph.edge(via).other(cursor);
    path.push_back(cursor);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<EdgeId> minimum_spanning_forest(
    const Graph& graph, const std::function<double(EdgeId)>& weight) {
  std::vector<EdgeId> order(graph.edge_count());
  std::iota(order.begin(), order.end(), EdgeId{0});
  std::sort(order.begin(), order.end(), [&](EdgeId lhs, EdgeId rhs) {
    return weight(lhs) < weight(rhs);
  });
  support::UnionFind components(graph.node_count());
  std::vector<EdgeId> selected;
  for (EdgeId id : order) {
    const Edge& e = graph.edge(id);
    if (components.unite(e.a, e.b)) selected.push_back(id);
  }
  return selected;
}

bool is_spanning_tree(const Graph& graph,
                      const std::vector<EdgeId>& edge_ids) {
  if (graph.node_count() == 0) return edge_ids.empty();
  if (edge_ids.size() != graph.node_count() - 1) return false;
  support::UnionFind components(graph.node_count());
  for (EdgeId id : edge_ids) {
    if (id >= graph.edge_count()) return false;
    const Edge& e = graph.edge(id);
    if (!components.unite(e.a, e.b)) return false;  // cycle
  }
  return components.set_count() == 1;
}

}  // namespace muerp::graph
