#pragma once

/// \file incremental.h
/// Incremental maintenance of the safety information under node failures —
/// the dynamic hole causes of the paper's Section 1 (node failures, power
/// exhaustion, jamming, interference).
///
/// Key monotonicity fact: Definition 1's flip condition at u depends only
/// on the *presence of a safe type-t neighbor* in Q_t(u). Removing nodes
/// can remove such support but never create it, so after failures the old
/// fixpoint remains an over-approximation of safety: statuses only move
/// 1 -> 0. Re-running the worklist seeded with just the failed nodes'
/// neighborhoods therefore reaches the exact new fixpoint while touching
/// only the affected region — no global reconstruction (and no global
/// message storm in the distributed analogue).
///
/// Node *motion* changes edges in both directions: removals can only demote
/// (as under failures), while additions can *promote* — a node that gains a
/// safe quadrant supporter may flip 0 -> 1, and that promotion can cascade.
/// `update_safety_after_moves` handles both: promotions are seeded by
/// optimistically re-raising the connected unsafe clusters touched by the
/// move frontier back to safe (only the touched cluster is relabeled — the
/// message-passing cluster-relabeling idea of the parallel Swendsen-Wang
/// algorithms), which restores the over-approximation invariant; the
/// standard demotion worklist then closes over exactly the affected region
/// and lands on the same greatest fixpoint `compute_safety` computes.

#include <vector>

#include "deploy/interest_area.h"
#include "graph/unit_disk.h"
#include "safety/labeling.h"

namespace spr {

/// Statistics of one incremental update.
struct IncrementalStats {
  std::size_t seeds = 0;            ///< (node,type) pairs initially enqueued
  std::size_t reevaluations = 0;    ///< flip-condition evaluations performed
  std::size_t flips = 0;            ///< demotions: statuses that went 1 -> 0
  std::size_t promotions = 0;       ///< statuses that went 0 -> 1 (moves only)
  /// Unsafe (node, type) pairs whose anchors were rewritten: the anchor
  /// pass is global, so this is every unsafe pair after the update.
  std::size_t anchor_recomputes = 0;
  /// Peak scratch-arena bytes of *this* update: the arena is monotonic and
  /// reset when the update starts, so its end-of-update `bytes_allocated()`
  /// is the update's own high water. Deterministic (unlike the arena's
  /// lifetime `high_water()`, which depends on what else ran on the
  /// thread), so reports may carry it byte-stably. Once the retained block
  /// covers it, later identical epochs never touch the general heap.
  std::size_t arena_high_water = 0;
};

/// Updates `info` (computed for the graph *before* the failures) to the
/// exact fixpoint of `degraded`, which must be the same node set with some
/// nodes dead (`UnitDiskGraph::with_failures`). `area` is the interest area
/// of the degraded graph. Returns what the update touched.
///
/// Postcondition: `info == compute_safety(degraded, area)`, statuses and
/// anchors: the anchor pass re-resolves every unsafe pair (tests assert
/// full equality).
///
/// Runs on the flat kernel (safety/flat_kernel.h): statuses pack into bits,
/// the seed set comes from one spatial-grid disc query per failed node, and
/// all scratch is arena-retained, so steady-state waves stay off the heap.
/// The demotion worklist is one serial FIFO drain; a `pool` fans out the
/// zones build (when not patched forward) and the four per-type anchor
/// passes. Results and stats are identical for every worker count.
IncrementalStats update_safety_after_failures(const UnitDiskGraph& degraded,
                                              const InterestArea& area,
                                              const std::vector<NodeId>& failed,
                                              SafetyInfo& info,
                                              TaskPool* pool = nullptr);

/// Updates `info` (the fixpoint of `before` / `area_before`) to the exact
/// fixpoint of `after` / `area_after`, where `after` is the same node set
/// with some nodes moved (`UnitDiskGraph::with_moves` — same aliveness,
/// edges added and removed). Bidirectional:
///
///  * every (node, type) whose quadrant gained a member — an added edge, a
///    surviving edge whose relative quadrant flipped, or a node newly
///    pinned as an edge node — is a *promotion source*: its connected
///    type-t unsafe cluster (new-graph edges) is optimistically re-raised
///    to safe, which provably covers every pair the new fixpoint promotes;
///  * every pair that lost a quadrant member, left the edge-node band, or
///    was optimistically raised seeds the standard demotion worklist,
///    which closes downward onto the greatest fixpoint.
///
/// Postcondition: `info == compute_safety(after, area_after)`, statuses and
/// anchors (tests assert full equality at every staged-mobility epoch).
///
/// The delta walk stays scalar (it reads both snapshots' positions), but
/// its bitmaps, the cluster raises, the demotion worklist and the anchor
/// pass all run on the flat kernel with arena-retained scratch — a
/// steady-state repin epoch does no general-heap allocation inside the
/// updater. The cluster raises and the demotion worklist run serially; a
/// `pool` fans out the zones build (when not patched forward) and the four
/// per-type anchor passes. Results and stats are identical for every
/// worker count.
IncrementalStats update_safety_after_moves(const UnitDiskGraph& before,
                                           const InterestArea& area_before,
                                           const UnitDiskGraph& after,
                                           const InterestArea& area_after,
                                           SafetyInfo& info,
                                           TaskPool* pool = nullptr);

}  // namespace spr
