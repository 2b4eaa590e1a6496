// Classical graph algorithms used as substrates and validation oracles.
//
// The MUERP routing algorithms are *not* classical spanning-tree algorithms
// (paper §III-A explains why), but the library still needs the classical
// toolbox: connectivity checks when generating topologies, shortest paths for
// the Steiner-tree heuristic inside the N-FUSION baseline, and minimum
// spanning trees as test oracles.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace muerp::graph {

/// True if every vertex is reachable from vertex 0 (or the graph is empty).
bool is_connected(const Graph& graph);

/// Component label per vertex (labels are 0-based, dense, in discovery order).
std::vector<std::size_t> connected_components(const Graph& graph);

/// Number of connected components.
std::size_t component_count(const Graph& graph);

/// Hop counts from `source` by BFS; unreachable vertices get nullopt.
std::vector<std::optional<std::size_t>> bfs_hops(const Graph& graph,
                                                 NodeId source);

/// Result of a single-source shortest-path computation.
struct ShortestPaths {
  /// Distance per vertex; +infinity when unreachable.
  std::vector<double> distance;
  /// Predecessor edge per vertex on a shortest path; kInvalidEdge at the
  /// source and at unreachable vertices.
  std::vector<EdgeId> parent_edge;
};

/// Dijkstra over non-negative edge weights. `weight` maps an edge id to its
/// cost; it must be >= 0 for every edge. `allow_through` (if set) restricts
/// which vertices may be *expanded* (relaxed out of); the source is always
/// expandable and any vertex may still be reached as a path endpoint. This is
/// exactly the hook the quantum channel finder needs: interior vertices of a
/// channel must be switches (paper Def. 2).
ShortestPaths dijkstra(
    const Graph& graph, NodeId source,
    const std::function<double(EdgeId)>& weight,
    const std::function<bool(NodeId)>& allow_through = nullptr);

/// Reconstructs the vertex sequence source -> target from a Dijkstra result.
/// Empty if the target is unreachable.
std::vector<NodeId> reconstruct_path(const Graph& graph,
                                     const ShortestPaths& paths, NodeId source,
                                     NodeId target);

/// Kruskal minimum spanning forest over `weight`; returns selected edge ids.
std::vector<EdgeId> minimum_spanning_forest(
    const Graph& graph, const std::function<double(EdgeId)>& weight);

/// True if `edge_ids` forms a spanning tree of the whole graph
/// (graph.node_count()-1 edges, all vertices connected, no cycles).
bool is_spanning_tree(const Graph& graph, const std::vector<EdgeId>& edge_ids);

}  // namespace muerp::graph
