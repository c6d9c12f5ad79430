#include "safety/incremental.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "graph/spatial_grid.h"
#include "util/arena.h"

namespace spr {

namespace {

std::uint64_t* zeroed_words(Arena& arena, std::size_t words) {
  auto* p = static_cast<std::uint64_t*>(
      arena.allocate(words * sizeof(std::uint64_t), alignof(std::uint64_t)));
  std::memset(p, 0, words * sizeof(std::uint64_t));
  return p;
}

void set_bit(std::uint64_t* bits, std::uint32_t i) {
  bits[i >> 6] |= 1ull << (i & 63);
}

bool test_bit(const std::uint64_t* bits, std::uint32_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1u;
}

/// Calls fn(key) for every set bit, ascending.
template <typename Fn>
void for_each_key(const std::uint64_t* bits, std::size_t words, Fn&& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      fn(static_cast<std::uint32_t>(w * 64 + b));
    }
  }
}

/// Replays the kernel's demotions into the tuple form.
void apply_flips(const FlatLabeler& labeler, SafetyInfo& info) {
  for (const std::uint32_t k : labeler.flipped()) {
    info.tuple(FlatLabeler::key_node(k))
        .set_safe(kAllZoneTypes[FlatLabeler::key_type(k)], false);
  }
}

}  // namespace

IncrementalStats update_safety_after_failures(const UnitDiskGraph& degraded,
                                              const InterestArea& area,
                                              const std::vector<NodeId>& failed,
                                              SafetyInfo& info,
                                              TaskPool* pool) {
  IncrementalStats stats;
  const std::size_t n = degraded.size();

  // Dead nodes revert to the fresh tuple (their state is meaningless; this
  // matches compute_safety on the degraded graph exactly).
  for (NodeId f : failed) {
    if (f < n) info.tuple(f) = SafetyTuple{};
  }

  degraded.zones(pool);  // patched forward by with_failures when available
  Arena& arena = FlatLabeler::scratch();
  arena.reset();
  FlatLabeler labeler(degraded, &area, arena);
  labeler.start_from(info);

  // Seed: every alive node that could have had a failed node in one of its
  // quadrants — i.e. within radio range of a failed position. Positions are
  // retained for dead nodes, so each failure is one disc query on the
  // shared spatial grid rather than a scan of all n nodes.
  static thread_local std::vector<NodeId> near;
  near.clear();
  for (NodeId f : failed) {
    if (f >= n) continue;
    degraded.grid().query_radius(degraded.position(f), degraded.range(), f,
                                 near);
  }
  std::sort(near.begin(), near.end());
  near.erase(std::unique(near.begin(), near.end()), near.end());
  for (NodeId u : near) {
    if (!degraded.alive(u)) continue;
    for (int ti = 0; ti < 4; ++ti) {
      if (labeler.enqueue(u, ti)) ++stats.seeds;
    }
  }

  // Monotone continuation: losing neighbors can only remove support, so
  // the old fixpoint bounds the new one from above and the worklist closes
  // over exactly the region the failures influence.
  labeler.drain();
  stats.reevaluations = labeler.stats().reevaluations;
  stats.flips = labeler.stats().flips;
  apply_flips(labeler, info);

  stats.anchor_recomputes = labeler.compute_anchors(info, pool);
  stats.arena_high_water = arena.bytes_allocated();
  return stats;
}

IncrementalStats update_safety_after_moves(const UnitDiskGraph& before,
                                           const InterestArea& area_before,
                                           const UnitDiskGraph& after,
                                           const InterestArea& area_after,
                                           SafetyInfo& info, TaskPool* pool) {
  IncrementalStats stats;
  const std::size_t n = after.size();

  after.zones(pool);  // patched forward by with_moves when available
  Arena& arena = FlatLabeler::scratch();
  arena.reset();
  FlatLabeler labeler(after, &area_after, arena);
  labeler.start_from(info);

  const std::size_t node_words = (n + 63) / 64;
  const std::size_t key_words = (4 * n + 63) / 64;

  // Phase 1 — the move frontier, per (node, type). A pair's flip condition
  // can only change when a node joined or left its quadrant: an edge
  // appeared or disappeared, or a surviving neighbor's relative quadrant
  // flipped (both endpoints' positions enter the test, so a tandem walk of
  // the old and new sorted neighbor lists sees every case; quadrants
  // partition the plane, so `zone_type` names the one quadrant affected).
  // Losing a member can demote. Gaining one matters only when the gained
  // member is *old-safe* in that type: a promotion chain in the new
  // fixpoint ascends through old-unsafe nodes of one connected cluster
  // and must terminate at a pair whose quadrant gained an old-safe
  // supporter (an old-unsafe gain supports nothing by itself, and a
  // promoted gain lies in the same cluster as its own terminal source) —
  // so only those gains seed cluster resets. Edge-band churn is the other
  // input: a pair that left the band loses its pin (demotable), one that
  // entered it is pinned safe (a promotion source for its dependents).
  std::uint64_t* demote_seed = zeroed_words(arena, key_words);
  std::uint64_t* promote_src = zeroed_words(arena, key_words);

  // Pre-pass: a node's flip inputs can only have changed if it moved, a
  // neighbor (old or new) moved, or its adjacency changed — everyone else
  // skips the delta walk entirely, so localized motion costs O(moved * deg)
  // rather than O(E).
  std::uint64_t* touched = zeroed_words(arena, node_words);
  for (NodeId u = 0; u < n; ++u) {
    if (before.position(u) == after.position(u)) continue;
    set_bit(touched, u);
    for (NodeId v : before.neighbors(u)) set_bit(touched, v);
    for (NodeId v : after.neighbors(u)) set_bit(touched, v);
  }

  // The delta walk visits each undirected edge once (from its lower
  // endpoint) and emits both directions from one set of position loads.
  auto mark_demote = [&](NodeId u, ZoneType t) {
    set_bit(demote_seed, FlatLabeler::key(u, zone_index(t)));
  };
  auto mark_promote = [&](NodeId u, NodeId gained, ZoneType t) {
    // A gained member promotes only if it arrives old-safe (an unsafe gain
    // supports nothing; a promoted gain shares its cluster's source).
    if (labeler.safe_bit(gained, zone_index(t))) {
      set_bit(promote_src, FlatLabeler::key(u, zone_index(t)));
    }
  };
  auto quadrant_delta = [&](NodeId u) {
    Vec2 pu_old = before.position(u);
    Vec2 pu_new = after.position(u);
    const bool u_moved = !(pu_old == pu_new);
    auto old_list = before.neighbors(u);
    auto new_list = after.neighbors(u);
    std::size_t oi = 0, ni = 0;
    while (oi < old_list.size() && old_list[oi] <= u) ++oi;
    while (ni < new_list.size() && new_list[ni] <= u) ++ni;
    while (oi < old_list.size() || ni < new_list.size()) {
      NodeId vo = oi < old_list.size() ? old_list[oi] : kInvalidNode;
      NodeId vn = ni < new_list.size() ? new_list[ni] : kInvalidNode;
      if (vn == kInvalidNode || (vo != kInvalidNode && vo < vn)) {
        // Edge (u, vo) vanished: each endpoint loses the other from the
        // quadrant it occupied.
        Vec2 pv_old = before.position(vo);
        mark_demote(u, zone_type(pu_old, pv_old));
        mark_demote(vo, zone_type(pv_old, pu_old));
        ++oi;
      } else if (vo == kInvalidNode || vn < vo) {
        // Edge (u, vn) appeared: each endpoint gains the other.
        Vec2 pv_new = after.position(vn);
        mark_promote(u, vn, zone_type(pu_new, pv_new));
        mark_promote(vn, u, zone_type(pv_new, pu_new));
        ++ni;
      } else {
        // Surviving edge: quadrant membership may still have flipped.
        Vec2 pv_old = before.position(vo);
        Vec2 pv_new = after.position(vo);
        if (u_moved || !(pv_old == pv_new)) {
          ZoneType t_old = zone_type(pu_old, pv_old);
          ZoneType t_new = zone_type(pu_new, pv_new);
          if (t_old != t_new) {
            mark_demote(u, t_old);
            mark_promote(u, vo, t_new);
          }
          ZoneType r_old = zone_type(pv_old, pu_old);
          ZoneType r_new = zone_type(pv_new, pu_new);
          if (r_old != r_new) {
            mark_demote(vo, r_old);
            mark_promote(vo, u, r_new);
          }
        }
        ++oi;
        ++ni;
      }
    }
  };
  for (NodeId u = 0; u < n; ++u) {
    if (!after.alive(u)) continue;
    if (test_bit(touched, u)) quadrant_delta(u);
    bool was_edge = area_before.is_edge_node(u);
    bool is_edge = area_after.is_edge_node(u);
    if (was_edge && !is_edge) {
      for (int ti = 0; ti < 4; ++ti) {
        set_bit(demote_seed, FlatLabeler::key(u, ti));
      }
    } else if (!was_edge && is_edge) {
      // Newly pinned: the pin itself is applied below; dependents may gain
      // support through the promotion cascade.
      for (int ti = 0; ti < 4; ++ti) {
        if (!labeler.safe_bit(u, ti)) {
          set_bit(promote_src, FlatLabeler::key(u, ti));
        }
      }
    }
  }

  // Phase 2 — promotion: re-raise to safe the connected type-t unsafe
  // cluster (new-graph edges) of every unsafe promotion source. Any pair
  // the new fixpoint promotes chains, through type-t support (which is
  // acyclic — a supporter lies strictly inside the quadrant direction), to
  // a source inside its own cluster, so the raised state is again an
  // over-approximation of the new fixpoint and the demotion worklist below
  // converges onto it exactly. Raised pairs shed their stale anchors (safe
  // pairs carry none) and re-enter the worklist.
  ArenaVector<std::uint32_t> sources{ArenaAllocator<std::uint32_t>(arena)};
  sources.reserve(4 * n);
  for_each_key(promote_src, key_words,
               [&](std::uint32_t k) { sources.push_back(k); });
  for (const std::uint32_t k :
       labeler.raise_clusters({sources.data(), sources.size()})) {
    const NodeId u = FlatLabeler::key_node(k);
    const ZoneType t = kAllZoneTypes[FlatLabeler::key_type(k)];
    info.tuple(u).set_safe(t, true);
    info.tuple(u).anchors_for(t) = ShapeAnchors{};
    set_bit(demote_seed, k);
    ++stats.promotions;
  }

  // Phase 3 — demotion worklist on the new graph, exactly the failure
  // updater's monotone continuation, seeded with every pair whose support
  // shrank, lost its pin, or was optimistically raised.
  for_each_key(demote_seed, key_words, [&](std::uint32_t k) {
    const NodeId u = FlatLabeler::key_node(k);
    if (!after.alive(u)) return;
    if (labeler.enqueue(u, FlatLabeler::key_type(k))) ++stats.seeds;
  });

  labeler.drain();
  stats.reevaluations = labeler.stats().reevaluations;
  stats.flips = labeler.stats().flips;
  apply_flips(labeler, info);

  stats.anchor_recomputes = labeler.compute_anchors(info, pool);
  stats.arena_high_water = arena.bytes_allocated();
  return stats;
}

}  // namespace spr
