// Allocation-free shortest-path-first (SPF) kernel.
//
// Every routing algorithm in this library bottoms out in Dijkstra, and the
// seed implementation paid four structural taxes per call: a std::function
// indirection per edge relaxation, an O(|V|) distance/parent refill, a lazy
// std::priority_queue that re-pops stale entries, and a vector-of-vectors
// adjacency walk with poor cache locality. This header removes all four:
//
//   * Csr        — a compressed-sparse-row adjacency view: a flat offsets
//                  array over packed {target, edge, value} arc records,
//                  built once per topology and keyed to
//                  Graph::topology_version() so it is rebuilt only when the
//                  graph actually mutates.
//   * SpfWorkspace — reusable distance/parent/heap arrays whose entries are
//                  generation-stamped: begin() bumps a counter instead of
//                  refilling O(|V|) memory, so repeated queries on a warm
//                  workspace allocate nothing and touch only reached nodes.
//   * run()      — the one Dijkstra. Weight and expansion-filter are
//                  template functors (inlined into the relaxation loop), the
//                  heap is an indexed 4-ary heap with decrease-key (no stale
//                  re-pops), and the pop order matches the legacy lazy-heap
//                  loop bit for bit: ties on distance settle in ascending
//                  node order, exactly like the (distance, node) pairs the
//                  old std::priority_queue compared. Migrated callers
//                  therefore produce bit-identical results. Nodes that can
//                  only end a path (Def. 2 leaves) never enter the frontier.
//   * DaryHeap   — the same 4-ary sift machinery as a standalone non-indexed
//                  heap, for the label-setting constrained searches
//                  (fidelity / purification) that push immutable labels and
//                  never decrease keys.
//
// A functor returning +infinity for an arc excludes it (banned edges/nodes,
// exhausted fiber cores): infinity never improves a tentative distance, so
// no separate filter hook is needed in the inner loop.
//
// graph::dijkstra keeps its std::function signature as a thin shim over
// run() for tests and cold paths; hot paths instantiate run() directly.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::graph::spf {

inline constexpr double kUnreachable =
    std::numeric_limits<double>::infinity();

/// One directed arc of a Csr view: head vertex, originating edge id, and
/// the per-arc payload, packed into 16 bytes so a whole adjacency row sits
/// on one or two cache lines.
struct Arc {
  NodeId target = kInvalidNode;
  EdgeId edge = kInvalidEdge;
  double value = 0.0;
};
static_assert(sizeof(Arc) == 16, "Arc must stay two-per-quadword packed");

/// Flat directed adjacency. For a Graph both arc directions of every edge
/// are materialized in the owner's neighbor order, so the kernel relaxes
/// arcs in exactly the order the adjacency-list loop did. `value(slot)`
/// carries a per-arc payload: the fiber length for Graph-built views
/// (callers fold it into their metric, e.g. alpha * L - ln q), or the arc
/// cost for hand-built digraphs (Suurballe's split graph). Arcs interleave
/// target / edge / value in one stream — a settled vertex's row is a single
/// sequential read, which is what keeps the kernel fast when experiment
/// sweeps cycle through many instances whose views take turns being cold.
struct Csr {
  std::vector<std::uint32_t> offsets;  // node_count() + 1 row starts
  std::vector<Arc> arcs;               // row-major arc records

  std::size_t node_count() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t arc_count() const noexcept { return arcs.size(); }

  NodeId target(std::size_t slot) const noexcept { return arcs[slot].target; }
  EdgeId edge_id(std::size_t slot) const noexcept { return arcs[slot].edge; }
  double value(std::size_t slot) const noexcept { return arcs[slot].value; }

  /// Starts a fresh build, reusing the existing buffers' capacity.
  void begin(std::size_t arc_hint) {
    offsets.clear();
    offsets.push_back(0);
    arcs.clear();
    arcs.reserve(arc_hint);
  }

  /// Appends one arc to the row currently being built.
  void add_arc(NodeId target, EdgeId id, double value) {
    arcs.push_back({target, id, value});
  }

  /// Closes the current row; rows must be finished in node-id order.
  void finish_row() {
    offsets.push_back(static_cast<std::uint32_t>(arcs.size()));
  }

  /// Rebuilds the view from `graph`; `values` receives each edge's length.
  void build_from(const Graph& graph) {
    begin(2 * graph.edge_count());
    const std::size_t n = graph.node_count();
    for (NodeId v = 0; v < n; ++v) {
      for (const Neighbor& nb : graph.neighbors(v)) {
        add_arc(nb.node, nb.edge, graph.edge(nb.edge).length_km);
      }
      finish_row();
    }
  }
};

/// Reusable per-thread state for run(): distance/parent/heap-position
/// arrays plus the indexed 4-ary heap. Entries are stamped with a
/// generation counter; begin() bumps the counter to invalidate the previous
/// query in O(1) instead of refilling the arrays. The workspace adapts to
/// any node count, so one instance serves graphs of different sizes
/// (growing reallocates; shrinking just narrows the logical view).
class SpfWorkspace {
 public:
  /// Starts a query over `n` nodes: sizes the arrays, clears the heap, and
  /// advances the generation. On the (rare) 32-bit generation wrap the
  /// stamps are hard-reset so entries from ~4 billion queries ago can never
  /// masquerade as current.
  void begin(std::size_t n) {
    if (n > dist_.size()) {
      dist_.resize(n);
      parent_.resize(n, kInvalidEdge);
      stamp_.resize(n, 0);
      heap_pos_.resize(n, kNotInHeap);
    }
    node_count_ = n;
    heap_.clear();
    if (++generation_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      generation_ = 1;
    }
  }

  std::size_t node_count() const noexcept { return node_count_; }

  bool reached(NodeId v) const noexcept { return stamp_[v] == generation_; }

  /// Final or tentative distance of `v`; +infinity when unreached.
  double dist(NodeId v) const noexcept {
    return reached(v) ? dist_[v] : kUnreachable;
  }

  /// Distance of a node known to be reached — skips the stamp check. run()
  /// uses it on the vertex it just popped.
  double dist_unchecked(NodeId v) const noexcept {
    assert(reached(v));
    return dist_[v];
  }

  /// Arc that last improved `v`; kInvalidEdge at the source / unreached.
  EdgeId parent(NodeId v) const noexcept {
    return reached(v) ? parent_[v] : kInvalidEdge;
  }

  /// True for frontier nodes popped by the current query. Leaves are
  /// reached but never settled.
  bool settled(NodeId v) const noexcept {
    return reached(v) && heap_pos_[v] == kSettled;
  }

  /// Copies the query result into dense caller-owned arrays (the shape the
  /// cached finder's memoized trees and graph::dijkstra expose). Reuses the
  /// vectors' capacity, so a warm caller allocates nothing.
  void extract(std::vector<double>& dist, std::vector<EdgeId>& parent) const {
    dist.resize(node_count_);
    parent.resize(node_count_);
    for (NodeId v = 0; v < node_count_; ++v) {
      if (reached(v)) {
        dist[v] = dist_[v];
        parent[v] = parent_[v];
      } else {
        dist[v] = kUnreachable;
        parent[v] = kInvalidEdge;
      }
    }
  }

  // --- query-side mutators (used by run(); public for the kernel tests) ---
  //
  // Leaves: a node reached for the first time that will never be expanded —
  // it fails the expansion gate and is no search target — records its dist
  // and parent but never enters the heap. Later improvements update dist and
  // parent only. Leaves pop nothing and relax nothing, so keeping them out
  // changes no frontier node's settle order.

  /// Marks `source` reached at distance 0 and enqueues it on the heap.
  void seed(NodeId source) {
    assert(source < node_count_);
    open(source, 0.0, kInvalidEdge);
  }

  /// Relaxation of arc (`from` already settled) -> `to` with total
  /// `candidate`: a first reach enters the frontier, a strict improvement
  /// decreases the key. Strict improvement reproduces the legacy loop's
  /// first-wins tie handling.
  void relax(NodeId to, EdgeId via, double candidate) {
    // A +infinity candidate is a banned arc (or an unreachable tail): it can
    // never improve anything, and skipping it keeps the heap free of
    // sentinel entries, matching what the legacy strict-< loops enqueued.
    if (candidate == kUnreachable) return;
    if (!reached(to)) {
      open(to, candidate, via);
    } else {
      improve(to, via, candidate);
    }
  }

  /// First reach of `v` for a node that enters the frontier.
  void open(NodeId v, double dist, EdgeId via) {
    touch(v, dist, via, kNotInHeap);
    heap_push(v);
  }

  /// First reach of `v` for a leaf: dist and parent only.
  void reach_leaf(NodeId v, double dist, EdgeId via) {
    touch(v, dist, via, kLeaf);
  }

  /// Adopts `candidate` for the reached node `to` iff it strictly improves,
  /// moving `to`'s heap key when it has one.
  void improve(NodeId to, EdgeId via, double candidate) {
    if (!(candidate < dist_[to])) return;
    assert(heap_pos_[to] != kSettled &&
           "non-negative weights never improve a settled node");
    dist_[to] = candidate;
    parent_[to] = via;
    if (heap_pos_[to] != kLeaf) sift_up(heap_pos_[to]);
  }

  bool heap_empty() const noexcept { return heap_.empty(); }

  /// Pops the node with minimal (distance, id) and marks it settled.
  NodeId heap_pop_min() {
    assert(!heap_.empty());
    const NodeId top = heap_.front();
    heap_pos_[top] = kSettled;
    const NodeId last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      heap_pos_[last] = 0;
      sift_down(0);
    }
    return top;
  }

  std::uint32_t generation() const noexcept { return generation_; }

  /// Test hook: fast-forwards the generation counter so the wrap path in
  /// begin() can be exercised without ~4 billion queries.
  void debug_set_generation(std::uint32_t generation) noexcept {
    generation_ = generation;
  }

 private:
  static constexpr std::uint32_t kNotInHeap = 0xFFFFFFFFu;
  static constexpr std::uint32_t kSettled = 0xFFFFFFFEu;
  static constexpr std::uint32_t kLeaf = 0xFFFFFFFDu;

  void touch(NodeId v, double dist, EdgeId via, std::uint32_t pos) {
    stamp_[v] = generation_;
    dist_[v] = dist;
    parent_[v] = via;
    heap_pos_[v] = pos;
  }

  /// Heap order: (distance, node id) ascending — the exact order the legacy
  /// loop's std::priority_queue of (distance, node) pairs popped in, which
  /// is what keeps migrated callers bit-identical on distance ties.
  bool heap_less(NodeId a, NodeId b) const noexcept {
    if (dist_[a] != dist_[b]) return dist_[a] < dist_[b];
    return a < b;
  }

  void heap_push(NodeId v) {
    heap_.push_back(v);
    heap_pos_[v] = static_cast<std::uint32_t>(heap_.size() - 1);
    sift_up(heap_pos_[v]);
  }

  void sift_up(std::uint32_t pos) {
    const NodeId moving = heap_[pos];
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 4;
      if (!heap_less(moving, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      heap_pos_[heap_[pos]] = pos;
      pos = parent;
    }
    heap_[pos] = moving;
    heap_pos_[moving] = pos;
  }

  void sift_down(std::uint32_t pos) {
    const NodeId moving = heap_[pos];
    const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      const std::uint32_t first_child = 4 * pos + 1;
      if (first_child >= size) break;
      const std::uint32_t last_child = std::min(first_child + 4, size);
      std::uint32_t best = first_child;
      for (std::uint32_t c = first_child + 1; c < last_child; ++c) {
        if (heap_less(heap_[c], heap_[best])) best = c;
      }
      if (!heap_less(heap_[best], moving)) break;
      heap_[pos] = heap_[best];
      heap_pos_[heap_[pos]] = pos;
      pos = best;
    }
    heap_[pos] = moving;
    heap_pos_[moving] = pos;
  }

  std::vector<double> dist_;
  std::vector<EdgeId> parent_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> heap_pos_;
  std::vector<NodeId> heap_;
  std::size_t node_count_ = 0;
  std::uint32_t generation_ = 0;
};

/// The one Dijkstra. `weight(slot)` maps a CSR arc slot to its non-negative
/// cost (+infinity excludes the arc); `allow_expand(v)` gates relaxation
/// out of a non-source vertex — a vertex failing it can still be reached as
/// a path endpoint (the quantum-channel rule of paper Def. 2), and is kept
/// out of the frontier unless it is a target. `is_target(v)` marks the
/// `target_count` nodes the caller needs (0: run to the end): the search
/// stops as soon as the last of them settles, since everything a consumer
/// of those targets reads (their distances and parent chains, made of
/// earlier-settled nodes) is then final. Returns true when the frontier
/// drained instead; every reached node, leaves included, then holds its
/// final dist and parent. After an early stop only settled nodes are
/// final. `pop_counter`, when non-null, accumulates settled nodes (the
/// routing layer's hook into its own named counters; the plain pointer
/// keeps the inner loop free of atomics).
///
/// Frontier membership is decided once per node, when it is first reached:
/// the source, the targets and nodes passing `allow_expand` enter the heap;
/// every other node is a leaf (see SpfWorkspace). A popped target that
/// fails `allow_expand` is settled but not expanded.
template <typename WeightFn, typename AllowExpandFn, typename IsTargetFn>
bool run(const Csr& csr, SpfWorkspace& workspace, NodeId source,
         WeightFn&& weight, AllowExpandFn&& allow_expand,
         IsTargetFn&& is_target, std::size_t target_count,
         std::uint64_t* pop_counter = nullptr) {
  MUERP_COUNTER_INC("spf/runs");
  workspace.begin(csr.node_count());
  workspace.seed(source);
  std::size_t remaining = target_count;
  while (!workspace.heap_empty()) {
    const NodeId v = workspace.heap_pop_min();
    if (pop_counter != nullptr) ++*pop_counter;
    if (is_target(v)) {
      if (--remaining == 0) return false;
      if (v != source && !allow_expand(v)) continue;
    }
    const double base = workspace.dist_unchecked(v);
    const std::size_t end = csr.offsets[v + 1];
    for (std::size_t slot = csr.offsets[v]; slot < end; ++slot) {
      const double w = weight(slot);
      assert(w >= 0.0 && "SPF kernel requires non-negative weights");
      const double candidate = base + w;
      // +infinity is a banned arc: it never improves anything.
      if (candidate == kUnreachable) continue;
      const Arc& arc = csr.arcs[slot];
      if (workspace.reached(arc.target)) {
        workspace.improve(arc.target, arc.edge, candidate);
      } else if (is_target(arc.target) || allow_expand(arc.target)) {
        workspace.open(arc.target, candidate, arc.edge);
      } else {
        workspace.reach_leaf(arc.target, candidate, arc.edge);
      }
    }
  }
  return true;
}

/// run() with at most one target: the search stops once `settle_target`
/// settles, or runs to the end when it is kInvalidNode.
template <typename WeightFn, typename AllowExpandFn>
bool run(const Csr& csr, SpfWorkspace& workspace, NodeId source,
         WeightFn&& weight, AllowExpandFn&& allow_expand,
         NodeId settle_target = kInvalidNode,
         std::uint64_t* pop_counter = nullptr) {
  return run(
      csr, workspace, source, weight, allow_expand,
      [settle_target](NodeId v) { return v == settle_target; }, 1,
      pop_counter);
}

/// Per-thread kernel context: a small ring of CSR views keyed to the
/// topology versions they were built from, plus the thread's warm workspace.
/// The ring (rather than a single entry) matters for the experiment loops,
/// which cycle through ~20 pre-built networks per scenario: with one slot
/// every repetition would rebuild its view, with a ring each network's view
/// is built once per thread and then served from cache for the whole sweep.
struct Context {
  /// Distinct topologies (or affine metrics) cached per thread before the
  /// oldest entry is evicted. Covers a scenario's repetition set with room
  /// to spare; at ~10 KB per view on §V-A-sized networks the worst case is
  /// a few hundred KB per thread.
  static constexpr std::size_t kCacheCapacity = 32;

  Context() {
    // Returned Csr references point into these vectors; reserving the full
    // ring up front means they never reallocate, so a view stays valid until
    // its slot is recycled (kCacheCapacity distinct views later), not merely
    // until the next cache miss.
    base_entries_.reserve(kCacheCapacity);
    affine_entries_.reserve(kCacheCapacity);
  }

  SpfWorkspace workspace;

  /// The CSR view of `graph`, rebuilt only when the topology changed.
  const Csr& csr_for(const Graph& graph) {
    const std::uint64_t version = graph.topology_version();
    for (BaseEntry& e : base_entries_) {
      if (e.version == version) {
        MUERP_COUNTER_INC("spf/csr_cache_hits");
        return e.csr;
      }
    }
    MUERP_COUNTER_INC("spf/csr_builds");
    BaseEntry& e = next_base_slot();
    e.csr.build_from(graph);
    e.version = version;
    return e.csr;
  }

  /// A CSR view of `graph` whose values carry `scale * length + offset` —
  /// the affine shape routing metrics take (alpha * L - ln q). Pre-baking
  /// the transform turns the kernel's weight functor into a bare load,
  /// and x + (-y) == x - y exactly in IEEE arithmetic, so distances stay
  /// bit-identical to folding the metric per relaxation.
  const Csr& affine_csr_for(const Graph& graph, double scale, double offset) {
    const std::uint64_t version = graph.topology_version();
    for (AffineEntry& e : affine_entries_) {
      if (e.version == version && e.scale == scale && e.offset == offset) {
        MUERP_COUNTER_INC("spf/affine_csr_cache_hits");
        return e.csr;
      }
    }
    MUERP_COUNTER_INC("spf/affine_csr_builds");
    const Csr& base = csr_for(graph);
    AffineEntry& e = next_affine_slot();
    e.csr.offsets = base.offsets;
    e.csr.arcs = base.arcs;
    for (Arc& arc : e.csr.arcs) {
      arc.value = scale * arc.value + offset;
    }
    e.version = version;
    e.scale = scale;
    e.offset = offset;
    return e.csr;
  }

 private:
  struct BaseEntry {
    std::uint64_t version = 0;  // 0 = never built
    Csr csr;
  };
  struct AffineEntry {
    std::uint64_t version = 0;
    double scale = 0.0;
    double offset = 0.0;
    Csr csr;
  };

  // Rings are grown on demand up to capacity, then recycled round-robin;
  // entries keep their buffers, so recycling reuses the allocations.
  BaseEntry& next_base_slot() {
    if (base_entries_.size() < kCacheCapacity) {
      return base_entries_.emplace_back();
    }
    BaseEntry& e = base_entries_[base_cursor_];
    base_cursor_ = (base_cursor_ + 1) % kCacheCapacity;
    return e;
  }
  AffineEntry& next_affine_slot() {
    if (affine_entries_.size() < kCacheCapacity) {
      return affine_entries_.emplace_back();
    }
    AffineEntry& e = affine_entries_[affine_cursor_];
    affine_cursor_ = (affine_cursor_ + 1) % kCacheCapacity;
    return e;
  }

  std::vector<BaseEntry> base_entries_;
  std::vector<AffineEntry> affine_entries_;
  std::size_t base_cursor_ = 0;
  std::size_t affine_cursor_ = 0;
};

/// The calling thread's kernel context.
inline Context& thread_context() {
  thread_local Context context;
  return context;
}

/// Non-indexed 4-ary min-heap for the label-setting constrained searches:
/// labels are immutable once pushed (no decrease-key), so all that is
/// needed is push / pop_min over a comparator — std::priority_queue
/// semantics on a shallower, cache-friendlier tree. `Less(a, b)` orders a
/// before b; ties pop in an unspecified but deterministic order, so
/// comparators should break ties explicitly when callers care.
template <typename T, typename Less>
class DaryHeap {
 public:
  explicit DaryHeap(Less less) : less_(std::move(less)) {}

  bool empty() const noexcept { return items_.empty(); }
  std::size_t size() const noexcept { return items_.size(); }
  void clear() noexcept { items_.clear(); }

  void push(T item) {
    items_.push_back(std::move(item));
    std::size_t pos = items_.size() - 1;
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 4;
      if (!less_(items_[pos], items_[parent])) break;
      std::swap(items_[pos], items_[parent]);
      pos = parent;
    }
  }

  T pop_min() {
    assert(!items_.empty());
    T top = std::move(items_.front());
    items_.front() = std::move(items_.back());
    items_.pop_back();
    std::size_t pos = 0;
    const std::size_t size = items_.size();
    while (true) {
      const std::size_t first_child = 4 * pos + 1;
      if (first_child >= size) break;
      const std::size_t last_child = std::min(first_child + 4, size);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (less_(items_[c], items_[best])) best = c;
      }
      if (!less_(items_[best], items_[pos])) break;
      std::swap(items_[pos], items_[best]);
      pos = best;
    }
    return top;
  }

 private:
  std::vector<T> items_;
  Less less_;
};

}  // namespace muerp::graph::spf
