#include "routing/batch_router.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "graph/spf_kernel.hpp"
#include "network/rate.hpp"
#include "routing/perf_counters.hpp"
#include "routing/plan.hpp"
#include "support/telemetry/telemetry.hpp"

namespace muerp::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoSlab = 0xFFFFFFFFu;

// Same namespace-scope Counter copies as channel_finder.cpp: the id is baked
// into the TU so the per-Dijkstra path skips the accessor's static guard.
const support::telemetry::Counter kDijkstraRuns = metrics::dijkstra_runs();
const support::telemetry::Counter kHeapPops = metrics::heap_pops();
const support::telemetry::Counter kFlipsCoalesced = metrics::flips_coalesced();

std::uint64_t now_ns() noexcept {
  return support::telemetry::monotonic_now_ns();
}
}  // namespace

const char* batch_policy_name(BatchPolicy policy) noexcept {
  switch (policy) {
    case BatchPolicy::kGivenOrder:
      return "given-order";
    case BatchPolicy::kSmallestFirst:
      return "smallest-first";
    case BatchPolicy::kLargestFirst:
      return "largest-first";
    case BatchPolicy::kGreedy:
      return "greedy";
    case BatchPolicy::kFairShare:
      return "fair-share";
  }
  return "?";
}

namespace {
constexpr BatchPolicy kBatchPolicies[] = {
    BatchPolicy::kGivenOrder, BatchPolicy::kSmallestFirst,
    BatchPolicy::kLargestFirst, BatchPolicy::kGreedy, BatchPolicy::kFairShare};
}  // namespace

bool parse_batch_policy(std::string_view name, BatchPolicy* out) noexcept {
  for (const BatchPolicy policy : kBatchPolicies) {
    if (name == batch_policy_name(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

std::vector<std::string> batch_policy_names() {
  std::vector<std::string> names;
  for (const BatchPolicy policy : kBatchPolicies) {
    names.emplace_back(batch_policy_name(policy));
  }
  return names;
}

BatchRouter::BatchRouter(const net::QuantumNetwork& network)
    : network_(&network),
      swap_success_(network.physical().swap_success),
      log_swap_(network.log_swap_success()),
      node_count_(network.graph().node_count()) {
  slab_of_.assign(node_count_, kNoSlab);
  slab_of_stamp_.assign(node_count_, 0);
  pending_stamp_.assign(node_count_, 0);
  flip_parity_.assign(node_count_, 0);
  flip_status_.assign(node_count_, 0);
}

BatchResult BatchRouter::route(std::span<const BatchRequest> requests,
                               const BatchOptions& options,
                               support::Rng& rng) {
  net::CapacityState capacity(*network_);
  return route_shared(requests, options, rng, capacity);
}

BatchResult BatchRouter::route_shared(std::span<const BatchRequest> requests,
                                      const BatchOptions& options,
                                      support::Rng& rng,
                                      net::CapacityState& capacity) {
  MUERP_SPAN("batch/route");
#ifndef NDEBUG
  for (const BatchRequest& request : requests) {
    for (const net::NodeId u : request.users) {
      assert(u < node_count_ && network_->is_user(u));
    }
  }
#endif
  cache_enabled_ = finder_cache_enabled();
  BatchResult result;
  result.outcomes.reserve(requests.size());
  if (options.admit_us != nullptr) {
    options.admit_us->clear();
    options.admit_us->reserve(requests.size());
  }
  switch (options.policy) {
    case BatchPolicy::kGivenOrder:
    case BatchPolicy::kSmallestFirst:
    case BatchPolicy::kLargestFirst:
      route_sequential(requests, options, rng, capacity, result);
      break;
    case BatchPolicy::kGreedy:
      route_greedy(requests, options, rng, capacity, result);
      break;
    case BatchPolicy::kFairShare:
      route_fair_share(requests, options, rng, capacity, result);
      break;
  }
  result.all_served = result.groups_served == requests.size();
  if (result.groups_served == 0) result.served_product_rate = 1.0;
  MUERP_COUNTER_ADD("batch/groups", requests.size());
  MUERP_COUNTER_ADD("batch/served", result.groups_served);
  MUERP_COUNTER_ADD("batch/deferred",
                    requests.size() - result.groups_served);
  return result;
}

std::vector<std::size_t> BatchRouter::admission_order(
    std::span<const BatchRequest> requests, BatchPolicy policy) {
  std::vector<std::size_t> admission(requests.size());
  std::iota(admission.begin(), admission.end(), std::size_t{0});
  switch (policy) {
    case BatchPolicy::kSmallestFirst:
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return requests[l].users.size() <
                                requests[r].users.size();
                       });
      break;
    case BatchPolicy::kLargestFirst:
      std::stable_sort(admission.begin(), admission.end(),
                       [&](std::size_t l, std::size_t r) {
                         return requests[l].users.size() >
                                requests[r].users.size();
                       });
      break;
    default:
      break;
  }
  return admission;
}

void BatchRouter::route_sequential(std::span<const BatchRequest> requests,
                                   const BatchOptions& options,
                                   support::Rng& rng,
                                   net::CapacityState& capacity,
                                   BatchResult& result) {
  const std::vector<std::size_t> admission =
      admission_order(requests, options.policy);
  for (const std::size_t idx : admission) {
    const std::span<const net::NodeId> users = requests[idx].users;
    const std::uint64_t t0 = now_ns();
    BatchGroupOutcome outcome;
    outcome.request_index = idx;
    if (users.empty()) {
      outcome.tree = net::EntanglementTree{{}, 1.0, true};
    } else {
      // Same draw sequence as ext::route_groups: one seed per non-empty
      // group, in admission order (empty groups draw nothing).
      const auto seed =
          static_cast<std::size_t>(rng.uniform_index(users.size()));
      outcome.tree =
          route_one(users, seed, capacity, options.release_on_failure);
    }
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    result.outcomes.push_back(std::move(outcome));
    if (options.admit_us != nullptr) {
      options.admit_us->push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
}

net::EntanglementTree BatchRouter::route_one(
    std::span<const net::NodeId> users, std::size_t seed_user_index,
    net::CapacityState& capacity, bool release_on_failure) {
  MUERP_SPAN("batch/grow");
  assert(!users.empty());
  assert(seed_user_index < users.size());
  if (users.size() == 1) return make_tree({}, true);
  if (users.size() == 2) {
    // Nothing is committed before the pair's single channel, so a failure
    // holds no qubits and release_on_failure has nothing to undo.
    return route_pair(users[seed_user_index], users[1 - seed_user_index],
                      capacity);
  }

  begin_scope();
  Growing& g = scratch_;
  g.connected.clear();
  g.connected.push_back(users[seed_user_index]);
  g.pending.clear();
  for (std::size_t i = 0; i < users.size(); ++i) {
    if (i != seed_user_index) g.pending.push_back(users[i]);
  }
  std::sort(g.pending.begin(), g.pending.end());
  assert(std::adjacent_find(g.pending.begin(), g.pending.end()) ==
             g.pending.end() &&
         "a group's own users must be distinct");
  g.committed.clear();

  while (!g.pending.empty()) {
    // Selection compares raw routing distances with strict <, scanning
    // sources in connection order and pending users ascending — the exact
    // tie handling of prim_based_shared's bitmap scan over network.users().
    if (!extend_one(g, capacity, /*compare_neg_log=*/false)) {
      if (release_on_failure) {
        for (const net::Channel& channel : g.committed) {
          capacity.release_channel(channel.path);
        }
      }
      return make_tree(std::move(g.committed), false);
    }
  }
  return make_tree(std::move(g.committed), true);
}

bool BatchRouter::extend_one(Growing& group, net::CapacityState& capacity,
                             bool compare_neg_log) {
  double best_key = kInf;
  net::NodeId best_source = 0;
  net::NodeId best_destination = 0;
  std::size_t best_slot = 0;
  for (const net::NodeId source : group.connected) {
    const std::size_t slot = tree_for(source, group.pending, capacity);
    const double* dist = slab_dist_.data() + slot * node_count_;
    if (compare_neg_log) {
      // The interleaved scheduler compares candidate channels, i.e.
      // neg_log_rate = dist + ln q. Adding the constant can round a strict
      // inequality between raw distances into a tie (first-wins keeps the
      // earlier candidate), so matching its results bit for bit requires
      // comparing in the same domain.
      for (const net::NodeId user : group.pending) {
        const double key = dist[user] + log_swap_;
        if (key < best_key) {
          best_key = key;
          best_source = source;
          best_destination = user;
          best_slot = slot;
        }
      }
    } else {
      for (const net::NodeId user : group.pending) {
        if (dist[user] < best_key) {
          best_key = dist[user];
          best_source = source;
          best_destination = user;
          best_slot = slot;
        }
      }
    }
  }
  if (best_key == kInf) return false;

  net::Channel channel =
      extract_channel(best_slot, best_source, best_destination);
  capacity.commit_channel(channel.path);
  group.pending.erase(std::lower_bound(group.pending.begin(),
                                       group.pending.end(),
                                       best_destination));
  group.connected.push_back(best_destination);
  group.committed.push_back(std::move(channel));
  return true;
}

void BatchRouter::route_fair_share(std::span<const BatchRequest> requests,
                                   const BatchOptions& options,
                                   support::Rng& rng,
                                   net::CapacityState& capacity,
                                   BatchResult& result) {
  MUERP_SPAN("batch/contention");
  // One slab scope for the whole pass: rounds revisit the same sources
  // under a shrinking pending set, which is exactly what the slab reuse
  // check (subset of build-time targets + flip replay) licenses.
  begin_scope();

  std::vector<Growing> growing;
  growing.reserve(requests.size());
  std::vector<std::uint64_t> group_ns(requests.size(), 0);
  for (std::size_t g = 0; g < requests.size(); ++g) {
    Growing state;
    state.request_index = g;
    const std::span<const net::NodeId> users = requests[g].users;
    if (!users.empty()) {
      // Seeds for all non-empty groups up front, in request order — the
      // draw sequence of ext::route_groups_interleaved.
      const auto seed =
          static_cast<std::size_t>(rng.uniform_index(users.size()));
      state.connected.push_back(users[seed]);
      for (std::size_t i = 0; i < users.size(); ++i) {
        if (i != seed) state.pending.push_back(users[i]);
      }
      std::sort(state.pending.begin(), state.pending.end());
      assert(std::adjacent_find(state.pending.begin(), state.pending.end()) ==
                 state.pending.end() &&
             "a group's own users must be distinct");
    }
    growing.push_back(std::move(state));
  }

  // Rounds: each unfinished group commits its single best channel in turn.
  bool any_unfinished = true;
  while (any_unfinished) {
    any_unfinished = false;
    for (Growing& group : growing) {
      if (group.finished()) continue;
      const std::uint64_t t0 = now_ns();
      if (!extend_one(group, capacity, /*compare_neg_log=*/true)) {
        group.failed = true;
        if (options.release_on_failure) {
          for (const net::Channel& channel : group.committed) {
            capacity.release_channel(channel.path);
          }
        }
      } else if (!group.finished()) {
        any_unfinished = true;
      }
      group_ns[group.request_index] += now_ns() - t0;
    }
  }

  for (Growing& group : growing) {
    BatchGroupOutcome outcome;
    outcome.request_index = group.request_index;
    outcome.tree = make_tree(std::move(group.committed), !group.failed);
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    result.outcomes.push_back(std::move(outcome));
    if (options.admit_us != nullptr) {
      options.admit_us->push_back(
          static_cast<double>(group_ns[outcome.request_index]) / 1e3);
    }
  }
}

void BatchRouter::route_greedy(std::span<const BatchRequest> requests,
                               const BatchOptions& options, support::Rng& rng,
                               net::CapacityState& capacity,
                               BatchResult& result) {
  // Probe phase: route every request standalone against a copy of the
  // current pool and price it by its tree's -ln(rate) (finite even when the
  // rate itself underflows; +inf = infeasible alone). Seeds are drawn here,
  // in request order, and reused verbatim by the commit phase below so the
  // admitted trees grow from the same start users that were priced.
  std::vector<std::size_t> seeds(requests.size(), 0);
  std::vector<double> costs(requests.size(), 0.0);
  {
    MUERP_SPAN("batch/contention");
    for (std::size_t g = 0; g < requests.size(); ++g) {
      const std::span<const net::NodeId> users = requests[g].users;
      if (users.empty()) continue;  // cost 0, no draw — like route_sequential
      seeds[g] = static_cast<std::size_t>(rng.uniform_index(users.size()));
      if (users.size() == 1) continue;
      net::CapacityState probe(capacity);
      const net::EntanglementTree tree =
          route_one(users, seeds[g], probe, /*release_on_failure=*/false);
      if (!tree.feasible) {
        costs[g] = kInf;
        continue;
      }
      double cost = 0.0;
      for (const net::Channel& channel : tree.channels) {
        cost += channel.neg_log_rate;
      }
      costs[g] = cost;
    }
  }

  std::vector<std::size_t> admission(requests.size());
  std::iota(admission.begin(), admission.end(), std::size_t{0});
  std::stable_sort(admission.begin(), admission.end(),
                   [&](std::size_t l, std::size_t r) {
                     return costs[l] < costs[r];
                   });

  for (const std::size_t idx : admission) {
    const std::span<const net::NodeId> users = requests[idx].users;
    const std::uint64_t t0 = now_ns();
    BatchGroupOutcome outcome;
    outcome.request_index = idx;
    if (users.empty()) {
      outcome.tree = net::EntanglementTree{{}, 1.0, true};
    } else {
      outcome.tree =
          route_one(users, seeds[idx], capacity, options.release_on_failure);
    }
    if (outcome.tree.feasible) {
      ++result.groups_served;
      result.served_product_rate *= outcome.tree.rate;
    }
    result.outcomes.push_back(std::move(outcome));
    if (options.admit_us != nullptr) {
      options.admit_us->push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
}

void BatchRouter::begin_scope() {
  slabs_used_ = 0;
  if (++scope_gen_ == 0) {
    std::fill(slab_of_stamp_.begin(), slab_of_stamp_.end(), 0u);
    scope_gen_ = 1;
  }
}

std::size_t BatchRouter::acquire_slab(net::NodeId source) {
  if (slabs_used_ == slab_meta_.size()) {
    slab_meta_.emplace_back();
    slab_dist_.resize(slab_meta_.size() * node_count_);
    slab_parent_.resize(slab_meta_.size() * node_count_);
    slab_on_path_.resize(slab_meta_.size() * node_count_);
  }
  const std::size_t slot = slabs_used_++;
  slab_meta_[slot].source = source;
  slab_of_[source] = static_cast<std::uint32_t>(slot);
  slab_of_stamp_[source] = scope_gen_;
  return slot;
}

std::size_t BatchRouter::tree_for(net::NodeId source,
                                  std::span<const net::NodeId> pending,
                                  const net::CapacityState& capacity) {
  std::size_t slot = kNoSlab;
  if (slab_of_stamp_[source] == scope_gen_) slot = slab_of_[source];
  if (slot != kNoSlab && cache_enabled_) {
    SlabMeta& meta = slab_meta_[slot];
    // Reuse requires: same capacity identity; the requested reads covered
    // by the slab's final entries (everywhere for complete slabs, the
    // build-time targets otherwise); and no net relay flip since the
    // slab's epoch that could touch what it serves.
    if (meta.state_id == capacity.id() &&
        (meta.complete ||
         std::includes(meta.targets.begin(), meta.targets.end(),
                       pending.begin(), pending.end())) &&
        !invalidated_by_flips(slot, capacity.flips_since(meta.epoch))) {
      meta.epoch = capacity.epoch();
      MUERP_COUNTER_INC("batch/tree_cache_hits");
      return slot;
    }
  }
  if (slot == kNoSlab) slot = acquire_slab(source);
  build_tree(slot, source, pending, capacity);
  return slot;
}

bool BatchRouter::run_spf(net::NodeId source,
                          std::span<const net::NodeId> pending,
                          const net::CapacityState& capacity) {
  kDijkstraRuns.add(1);
  MUERP_COUNTER_INC("batch/dijkstra_runs");

  auto& ctx = graph::spf::thread_context();
  const graph::spf::Csr& csr = ctx.affine_csr_for(
      network_->graph(), network_->physical().attenuation, -log_swap_);
  assert(csr.node_count() == node_count_);

  // Stamp this run's pending users so the kernel can count them down
  // without a per-run membership clear.
  if (++pending_gen_ == 0) {
    std::fill(pending_stamp_.begin(), pending_stamp_.end(), 0u);
    pending_gen_ = 1;
  }
  for (const net::NodeId u : pending) pending_stamp_[u] = pending_gen_;

  // The kernel stops once the last pending user settles: everything the
  // growth scan and the winner extraction will read is final then (a
  // Dijkstra's settled prefix is bit-identical to the full run), so the
  // rest of the frontier is abandoned.
  std::uint64_t pops = 0;
  const bool complete = graph::spf::run(
      csr, ctx.workspace, source,
      [&](std::size_t slot) { return csr.value(slot); },
      [&](net::NodeId v) {
        return network_->is_switch(v) && capacity.free_qubits(v) >= 2;
      },
      [&](net::NodeId v) { return pending_stamp_[v] == pending_gen_; },
      pending.size(), &pops);
  kHeapPops.add(pops);
  return complete;
}

net::EntanglementTree BatchRouter::route_pair(net::NodeId source,
                                              net::NodeId target,
                                              net::CapacityState& capacity) {
  const net::NodeId pending[1] = {target};
  run_spf(source, pending, capacity);
  graph::spf::SpfWorkspace& ws = graph::spf::thread_context().workspace;
  if (!ws.settled(target)) return make_tree({}, false);

  net::Channel channel;
  const double dist = ws.dist_unchecked(target);
  channel.rate = net::rate_from_routing_distance(dist, swap_success_);
  channel.neg_log_rate = dist + log_swap_;
  net::NodeId cursor = target;
  channel.path.push_back(cursor);
  while (cursor != source) {
    const graph::EdgeId via = ws.parent(cursor);
    assert(via != graph::kInvalidEdge);
    cursor = network_->graph().edge(via).other(cursor);
    channel.path.push_back(cursor);
  }
  std::reverse(channel.path.begin(), channel.path.end());
  capacity.commit_channel(channel.path);
  std::vector<net::Channel> committed;
  committed.push_back(std::move(channel));
  return make_tree(std::move(committed), true);
}

void BatchRouter::build_tree(std::size_t slot, net::NodeId source,
                             std::span<const net::NodeId> pending,
                             const net::CapacityState& capacity) {
  const bool complete = run_spf(source, pending, capacity);
  graph::spf::SpfWorkspace& ws = graph::spf::thread_context().workspace;

  // A complete run leaves every reached node final, leaves included. An
  // early exit leaves only the settled prefix final; the rest reads as
  // unreachable — consumers only read settled ones there (pending users
  // covered by the countdown; parent chains of settled nodes consist of
  // earlier-settled nodes).
  double* dist = slab_dist_.data() + slot * node_count_;
  graph::EdgeId* parent = slab_parent_.data() + slot * node_count_;
  for (net::NodeId v = 0; v < node_count_; ++v) {
    if (complete ? ws.reached(v) : ws.settled(v)) {
      dist[v] = ws.dist_unchecked(v);
      parent[v] = ws.parent(v);
    } else {
      dist[v] = kInf;
      parent[v] = graph::kInvalidEdge;
    }
  }

  // Loss-flip marks: the nodes on a shortest path to anything a reuse may
  // read — every user for complete slabs, the build-time pending users
  // otherwise (reuse of incomplete slabs is restricted to subsets).
  char* on_path = slab_on_path_.data() + slot * node_count_;
  std::fill_n(on_path, node_count_, char{0});
  const graph::Graph& g = network_->graph();
  const auto mark_path_to = [&](net::NodeId user) {
    if (dist[user] == kInf) return;
    net::NodeId cursor = user;
    while (cursor != source && on_path[cursor] == 0) {
      on_path[cursor] = 1;
      cursor = g.edge(parent[cursor]).other(cursor);
    }
  };
  if (complete) {
    for (const net::NodeId user : network_->users()) mark_path_to(user);
  } else {
    for (const net::NodeId user : pending) mark_path_to(user);
  }
  on_path[source] = 1;

  SlabMeta& meta = slab_meta_[slot];
  meta.source = source;
  meta.state_id = capacity.id();
  meta.epoch = capacity.epoch();
  meta.complete = complete;
  meta.targets.assign(pending.begin(), pending.end());
}

bool BatchRouter::invalidated_by_flips(std::size_t slot,
                                       std::span<const net::RelayFlip> flips) {
  // Coalesce the flip-log tail per node, exactly like CachedChannelFinder:
  // an even flip count means the status is back where the slab last saw it.
  flip_nodes_.clear();
  for (const net::RelayFlip f : flips) {
    if (flip_parity_[f.node] == 0) flip_nodes_.push_back(f.node);
    flip_parity_[f.node] ^= 1;
    flip_status_[f.node] = f.can_relay_now ? 1 : 0;
  }
  const SlabMeta& meta = slab_meta_[slot];
  const double* dist = slab_dist_.data() + slot * node_count_;
  const char* on_path = slab_on_path_.data() + slot * node_count_;
  bool invalidated = false;
  std::uint64_t coalesced = 0;
  for (const net::NodeId v : flip_nodes_) {
    const bool net_flip = flip_parity_[v] != 0;
    flip_parity_[v] = 0;  // reset scratch for the next call
    if (!net_flip) ++coalesced;
    if (invalidated || !net_flip) continue;
    if (flip_status_[v] != 0) {
      // A relay *gain* may open shorter paths anywhere the switch is
      // reachable; an early-exited slab cannot even answer reachability.
      invalidated = !meta.complete || dist[v] < kInf;
    } else {
      invalidated = on_path[v] != 0;
    }
  }
  if (coalesced != 0) kFlipsCoalesced.add(coalesced);
  return invalidated;
}

net::Channel BatchRouter::extract_channel(std::size_t slot,
                                          net::NodeId source,
                                          net::NodeId dest) const {
  const double* dist = slab_dist_.data() + slot * node_count_;
  const graph::EdgeId* parent = slab_parent_.data() + slot * node_count_;
  assert(dist[dest] < kInf);
  net::Channel channel;
  channel.rate = net::rate_from_routing_distance(dist[dest], swap_success_);
  channel.neg_log_rate = dist[dest] + log_swap_;
  net::NodeId cursor = dest;
  channel.path.push_back(cursor);
  while (cursor != source) {
    const graph::EdgeId via = parent[cursor];
    assert(via != graph::kInvalidEdge);
    cursor = network_->graph().edge(via).other(cursor);
    channel.path.push_back(cursor);
  }
  std::reverse(channel.path.begin(), channel.path.end());
  return channel;
}

}  // namespace muerp::routing
