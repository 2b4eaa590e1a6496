// Batch multi-request routing kernel (ROADMAP item 2).
//
// The §VII multi-group extension routes N concurrent group requests against
// one shared topology. The reference implementations in ext::multigroup do
// that one group at a time, each group paying the full per-call setup — a
// fresh CachedChannelFinder, cold shortest-path trees, run-to-exhaustion
// Dijkstras — even though all groups share one CSR view, one CapacityState
// and one admission pass. BatchRouter folds the whole batch into a single
// kernel invocation:
//
//   * one shared CSR from the SPF kernel — the thread context's
//     affine_csr_for view, keyed to Graph::topology_version(), is resolved
//     once per Dijkstra and never rebuilt across the batch;
//   * per-request generation-stamped SoA workspaces — shortest-path trees
//     live in flat slab arrays (dist / parent / path-marks, slot-major), and
//     slab ownership, pending-user membership and slab validity are all
//     generation counters, so switching to the next request is an O(1)
//     stamp bump instead of O(|V|) clears;
//   * coalesced capacity bookkeeping through CapacityState epochs — a slab
//     built at epoch e keeps serving exact answers until the coalesced
//     relay-flip log since e can touch a source->pending-user path (the
//     same invalidation contract as CachedChannelFinder, restricted to the
//     entries the batch scan actually reads);
//   * early-exit Dijkstras — the growth loop only ever reads distances at
//     the group's *pending* users, and in Dijkstra the settled prefix of a
//     run is bit-identical to the full run, so each run stops as soon as
//     the last pending user settles (or the frontier drains). Trees cut
//     short this way are flagged incomplete and conservatively invalidated
//     by relay *gains*, whose reachability test needs the full tree.
//
// Results are bit-identical to the sequential reference implementations:
// under kGivenOrder / kSmallestFirst / kLargestFirst the kernel reproduces
// ext::route_groups (same admission order, same Rng draw sequence, same
// (distance, node-id) winner per round); under kFairShare it reproduces
// ext::route_groups_interleaved. kGreedy has no reference: it probes each
// request standalone and admits cheapest-first.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "network/channel.hpp"
#include "network/quantum_network.hpp"
#include "support/rng.hpp"

namespace muerp::routing {

/// Contention-resolution stage: the order in which competing requests are
/// admitted to (or deferred from) the shared capacity pool. The first three
/// generalize ext::GroupOrder; kFairShare generalizes the interleaved
/// scheduler; kGreedy is new.
enum class BatchPolicy {
  kGivenOrder,     // first come, first served
  kSmallestFirst,  // fewest users first
  kLargestFirst,   // most users first
  kGreedy,         // probe standalone, admit cheapest (best-rate) first
  kFairShare,      // all requests grow together, one channel per round
};

const char* batch_policy_name(BatchPolicy policy) noexcept;

/// Parses "given-order" / "smallest-first" / "largest-first" / "greedy" /
/// "fair-share"; returns false (out untouched) for anything else.
bool parse_batch_policy(std::string_view name, BatchPolicy* out) noexcept;

/// The names parse_batch_policy() accepts, in enum order.
std::vector<std::string> batch_policy_names();

/// One group request: the users to span. The span must stay alive for the
/// duration of the route call; requests may share users across groups
/// (service arrivals can collide on endpoints) except that each group's own
/// users must be distinct.
struct BatchRequest {
  std::span<const net::NodeId> users;
};

struct BatchGroupOutcome {
  /// Index into the original request list.
  std::size_t request_index = 0;
  net::EntanglementTree tree;
  /// True when the router found a tree but the tree_fits_capacity admission
  /// guard refused it (only the generic registry pass sets this).
  bool capacity_guard = false;
};

/// Mirror of ext::MultiGroupResult, at the routing layer.
struct BatchResult {
  /// One outcome per request, in admission order.
  std::vector<BatchGroupOutcome> outcomes;
  std::size_t groups_served = 0;
  /// Product of the served groups' tree rates (1.0 when none served).
  double served_product_rate = 1.0;
  bool all_served = false;
};

struct BatchOptions {
  BatchPolicy policy = BatchPolicy::kGivenOrder;
  /// Release a failed group's partial commits (service semantics: a
  /// rejected session holds nothing). The default keeps them pledged,
  /// matching the offline §II-B process and the ext::route_groups*
  /// reference implementations. The released channels stay listed in the
  /// infeasible tree as partial-progress diagnostics either way.
  bool release_on_failure = false;
  /// When non-null, receives one per-group admission latency in
  /// microseconds, in admission order (the bench's quantile feed). Empty
  /// requests report ~0.
  std::vector<double>* admit_us = nullptr;
};

/// Routes batches of group requests against one network. Stateful on
/// purpose: slab arrays, stamp maps and scratch vectors persist across
/// route() calls, so a long-lived instance (SessionService, the bench loop)
/// allocates only while the working set grows. Not thread-safe — one
/// instance per thread, like the CapacityState it mutates.
class BatchRouter {
 public:
  /// `network` must outlive the router.
  explicit BatchRouter(const net::QuantumNetwork& network);

  /// Routes `requests` against a private full-capacity pool.
  BatchResult route(std::span<const BatchRequest> requests,
                    const BatchOptions& options, support::Rng& rng);

  /// Routes `requests` against an externally owned pool: committed channels
  /// deduct from `capacity` (this is how SessionService admits each slot's
  /// arrivals against the live residual state).
  BatchResult route_shared(std::span<const BatchRequest> requests,
                           const BatchOptions& options, support::Rng& rng,
                           net::CapacityState& capacity);

 private:
  /// White-box access to the slab cache for the router's tests.
  friend struct BatchRouterTestPeer;

  /// Per-slab metadata; the tree data itself lives in the flat SoA arrays.
  struct SlabMeta {
    net::NodeId source = 0;
    std::uint64_t state_id = 0;  // CapacityState::id() the tree was built on
    std::uint64_t epoch = 0;     // flips already accounted for
    /// False when the Dijkstra stopped early (all pending users settled
    /// before the frontier drained): distances beyond the settled horizon
    /// are tentative, so relay gains invalidate the slab wholesale and
    /// reuse is limited to pending sets within `targets`.
    bool complete = false;
    /// The pending users the slab was built for (ascending). Only consulted
    /// for incomplete slabs: their dist entries are final at exactly these
    /// nodes, so a reuse must read a subset. Complete slabs are final
    /// everywhere and skip the check.
    std::vector<net::NodeId> targets;
  };

  /// One growing request's state (fair-share keeps all alive at once).
  struct Growing {
    std::size_t request_index = 0;
    std::vector<net::NodeId> connected;  // U1, in connection order
    std::vector<net::NodeId> pending;    // U2, ascending node id
    std::vector<net::Channel> committed;
    bool failed = false;

    bool finished() const { return pending.empty() || failed; }
  };

  /// Admission permutation for the sequential policies (stable, matching
  /// ext::route_groups' stable_sort bit for bit).
  static std::vector<std::size_t> admission_order(
      std::span<const BatchRequest> requests, BatchPolicy policy);

  /// Grows one group to completion against `capacity` — Algorithm 4 growth
  /// from users[seed_index], bit-identical to prim_based_shared. Used by the
  /// sequential policies and the greedy probe/commit phases.
  net::EntanglementTree route_one(std::span<const net::NodeId> users,
                                  std::size_t seed_index,
                                  net::CapacityState& capacity,
                                  bool release_on_failure);

  /// Selects this round's best (source, pending-user) channel for `group`
  /// and commits it; false when no channel exists. `compare_neg_log`
  /// selects on neg_log_rate (= dist + ln q) instead of the raw routing
  /// distance — the fair-share reference compares candidate channels, the
  /// sequential reference compares distances, and the two comparisons can
  /// disagree on ties introduced by the constant addition's rounding.
  bool extend_one(Growing& group, net::CapacityState& capacity,
                  bool compare_neg_log);

  /// Returns the slab slot holding an up-to-date tree for `source` limited
  /// to `pending` targets, reusing a cached slab when no relay flip since
  /// its epoch can touch a source->pending-user path.
  std::size_t tree_for(net::NodeId source,
                       std::span<const net::NodeId> pending,
                       const net::CapacityState& capacity);

  /// Runs the (early-exit) Dijkstra for `source` into slab `slot`.
  void build_tree(std::size_t slot, net::NodeId source,
                  std::span<const net::NodeId> pending,
                  const net::CapacityState& capacity);

  /// Runs the early-exit Dijkstra for `source` in the thread-local SPF
  /// workspace, abandoning the frontier once every `pending` user settled.
  /// Returns true when the frontier drained (the tree is complete); false
  /// on an early exit. The workspace stays valid until the next run.
  bool run_spf(net::NodeId source, std::span<const net::NodeId> pending,
               const net::CapacityState& capacity);

  /// Pair-request fast path: a 2-user group needs exactly one channel from
  /// one source, so the general grow loop's selection scan is skipped and
  /// the channel is extracted straight from the SPF workspace — no slab is
  /// materialized, so pair traffic keeps no per-source state across calls.
  /// Bit-identical to the general path.
  net::EntanglementTree route_pair(net::NodeId source, net::NodeId target,
                                   net::CapacityState& capacity);

  bool invalidated_by_flips(std::size_t slot,
                            std::span<const net::RelayFlip> flips);

  /// Extracts the committed-channel form of the slab's path to `dest`.
  net::Channel extract_channel(std::size_t slot, net::NodeId source,
                               net::NodeId dest) const;

  /// Opens a new slab scope: all cached slabs are invalidated in O(1).
  void begin_scope();
  std::size_t acquire_slab(net::NodeId source);

  void route_sequential(std::span<const BatchRequest> requests,
                        const BatchOptions& options, support::Rng& rng,
                        net::CapacityState& capacity, BatchResult& result);
  void route_fair_share(std::span<const BatchRequest> requests,
                        const BatchOptions& options, support::Rng& rng,
                        net::CapacityState& capacity, BatchResult& result);
  void route_greedy(std::span<const BatchRequest> requests,
                    const BatchOptions& options, support::Rng& rng,
                    net::CapacityState& capacity, BatchResult& result);

  const net::QuantumNetwork* network_;
  double swap_success_;
  double log_swap_;
  std::size_t node_count_;
  bool cache_enabled_ = true;  // finder_cache_enabled(), sampled per route

  Growing scratch_;  // route_one's reusable growth state

  // SoA slab store (slot-major: entry v of slot s is at s * node_count_ + v).
  std::vector<double> slab_dist_;
  std::vector<graph::EdgeId> slab_parent_;
  std::vector<char> slab_on_path_;
  std::vector<SlabMeta> slab_meta_;
  std::size_t slabs_used_ = 0;

  // Generation-stamped node -> slab map (valid iff stamp matches scope).
  std::vector<std::uint32_t> slab_of_;
  std::vector<std::uint32_t> slab_of_stamp_;
  std::uint32_t scope_gen_ = 0;

  // Generation-stamped pending-membership marks for the early-exit count.
  std::vector<std::uint32_t> pending_stamp_;
  std::uint32_t pending_gen_ = 0;

  // Flip-coalescing scratch (same trick as CachedChannelFinder).
  std::vector<char> flip_parity_;
  std::vector<char> flip_status_;
  std::vector<net::NodeId> flip_nodes_;
};

}  // namespace muerp::routing
