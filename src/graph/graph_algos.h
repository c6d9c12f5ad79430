#pragma once

/// \file graph_algos.h
/// Reference graph algorithms over the unit-disk substrate: BFS hop counts,
/// Dijkstra Euclidean shortest paths, and connectivity. These are the
/// oracles the benches use to compute stretch; the routers never consult
/// them (they are strictly local, as in the paper).
///
/// Two oracle shapes serve the two consumers:
///  * paths — a `ShortestPathTree` is one full single-source search whose
///    parent array answers *every* target via `extract`, and an
///    `OracleBatch` groups a span of (s, d) pairs by source so each
///    distinct source costs exactly one BFS and one Dijkstra shared by all
///    of its destinations (the sweep cells, which need both optima). The
///    per-pair `bfs_path` / `dijkstra_path` entry points are thin wrappers
///    over a single-use tree.
///  * hop counts only — `hop_distance` is a bidirectional, level-synchronous
///    BFS that stops where the two balls meet, and `hop_distances` fans a
///    span of pairs out over a TaskPool (the streaming simulator's
///    per-epoch stretch oracle, whose far pairs make a full tree wasteful).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/node.h"
#include "graph/unit_disk.h"

namespace spr {

class TaskPool;

/// Result of a single-source search.
struct ShortestPath {
  std::vector<NodeId> path;  ///< s ... d inclusive; empty when unreachable
  double length = 0.0;       ///< sum of Euclidean edge lengths
  std::size_t hops() const noexcept { return path.empty() ? 0 : path.size() - 1; }
};

/// Process-wide count of single-source tree searches, the hook behind the
/// "one search per distinct source" assertions in tests and the sweep
/// benches. Every `ShortestPathTree` construction increments one counter
/// (the per-pair wrappers build a tree, so they count too); `bfs_hops`,
/// `hop_distance` and the connectivity helpers do not.
struct OracleSearchCounts {
  std::uint64_t bfs_trees = 0;
  std::uint64_t dijkstra_trees = 0;
};

/// Snapshot of the process-wide counters (atomic, safe under sweeps).
OracleSearchCounts oracle_search_counts() noexcept;

/// Resets both counters to zero (tests and bench sections).
void reset_oracle_search_counts() noexcept;

/// One single-source search, memoized as a parent array: BFS (hop-optimal)
/// or Dijkstra (Euclidean-length-optimal). Answers any number of targets
/// without re-searching; `extract(t)` yields exactly the path the per-pair
/// `bfs_path(g, s, t)` / `dijkstra_path(g, s, t)` would return.
///
/// `stop_at` bounds the search: the frontier halts once that node is
/// settled, which is what the per-pair wrappers use to keep their old
/// early-exit cost. A stopped tree is only valid for targets settled
/// before the stop (in particular `stop_at` itself); batch consumers that
/// extract many targets must build the full tree (the default).
class ShortestPathTree {
 public:
  enum class Metric { kHops, kLength };

  ShortestPathTree(const UnitDiskGraph& g, NodeId source, Metric metric,
                   NodeId stop_at = kInvalidNode);

  NodeId source() const noexcept { return source_; }
  Metric metric() const noexcept { return metric_; }

  bool reached(NodeId target) const noexcept {
    if (target >= parent_.size()) return false;  // also: invalid source
    return target == source_ || parent_[target] != kInvalidNode;
  }

  /// Tree parent of `target` (kInvalidNode for the source and unreached).
  NodeId parent(NodeId target) const noexcept { return parent_[target]; }

  /// The s..target path along the tree; empty when unreachable. Identical
  /// (nodes and floating-point length) to the per-pair search result.
  ShortestPath extract(NodeId target) const;

 private:
  const UnitDiskGraph* g_;
  NodeId source_;
  Metric metric_;
  std::vector<NodeId> parent_;
};

class Arena;

/// The shared-frontier oracle for a batch of (source, destination) pairs:
/// groups the span by source and runs one BFS tree and one Dijkstra tree
/// per *distinct* source, then extracts the per-pair optima. Replaces the
/// two-searches-per-pair loop in the sweep cells.
class OracleBatch {
 public:
  /// The transient grouping scratch (slot map, CSR group arrays) is
  /// bump-allocated from a local arena (util/arena.h).
  OracleBatch(const UnitDiskGraph& g,
              std::span<const std::pair<NodeId, NodeId>> pairs);

  /// As above, with the scratch taken from `scratch` — the sweep cells
  /// pass their worker-local arena, so steady-state cells stop touching
  /// the general heap for it.
  OracleBatch(const UnitDiskGraph& g,
              std::span<const std::pair<NodeId, NodeId>> pairs,
              Arena& scratch);

  std::size_t size() const noexcept { return hop_optimal_.size(); }
  std::size_t distinct_sources() const noexcept { return distinct_sources_; }

  /// BFS / Dijkstra optimum of pairs[i]; empty path when unreachable.
  const ShortestPath& hop_optimal(std::size_t i) const noexcept {
    return hop_optimal_[i];
  }
  const ShortestPath& length_optimal(std::size_t i) const noexcept {
    return length_optimal_[i];
  }

 private:
  std::vector<ShortestPath> hop_optimal_;
  std::vector<ShortestPath> length_optimal_;
  std::size_t distinct_sources_ = 0;
};

/// Hop count of an unreachable target (`bfs_hops`, `hop_distance`).
inline constexpr std::size_t kUnreachableHops = static_cast<std::size_t>(-1);

/// Hop counts from `source` to every node (kUnreachableHops when
/// unreachable).
std::vector<std::size_t> bfs_hops(const UnitDiskGraph& g, NodeId source);

/// Reusable state of `hop_distance`: per-node visit stamps plus flat
/// frontier vectors. A query stamps only the nodes it visits, so reuse
/// costs no O(n) clear; the stamp array grows to the largest graph seen
/// and one scratch may serve graphs of different sizes. Not shareable
/// between threads — `hop_distances` keeps one per block.
class HopSearchScratch {
  friend std::size_t hop_distance(const UnitDiskGraph& g, NodeId source,
                                  NodeId target, HopSearchScratch& scratch);
  /// 2 * query + side of the last query that reached the node; the side
  /// is 0 for the source ball and 1 for the target ball.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t query_ = 0;
  std::vector<NodeId> frontier_[2];
  std::vector<NodeId> next_;
};

/// BFS hop distance from `source` to `target` (kUnreachableHops when
/// unreachable or either id is out of range; 0 when source == target),
/// equal to `bfs_hops(g, source)[target]`. A bidirectional,
/// level-synchronous search: each round expands all of the smaller of the
/// two frontiers, and the first edge that joins the two balls ends it at
/// depth_source + depth_target + 1 — exact because unit-disk adjacency is
/// symmetric. Far pairs visit two balls of about half the radius instead
/// of one full one.
std::size_t hop_distance(const UnitDiskGraph& g, NodeId source, NodeId target,
                         HopSearchScratch& scratch);

/// `hop_distance` of every pair, in pair order. With a `pool`, pairs run in
/// blocks across its workers, one HopSearchScratch per block; every result
/// lands in its own slot, so the output does not depend on the pool.
std::vector<std::size_t> hop_distances(
    const UnitDiskGraph& g, std::span<const std::pair<NodeId, NodeId>> pairs,
    TaskPool* pool = nullptr);

/// Hop-optimal path (BFS tree); empty path when unreachable.
ShortestPath bfs_path(const UnitDiskGraph& g, NodeId source, NodeId target);

/// Euclidean-length-optimal path (Dijkstra); empty path when unreachable.
ShortestPath dijkstra_path(const UnitDiskGraph& g, NodeId source, NodeId target);

/// Component label per node (dead nodes get their own singleton labels).
std::vector<int> connected_components(const UnitDiskGraph& g);

/// True when u and v are in the same component.
bool connected(const UnitDiskGraph& g, NodeId u, NodeId v);

/// Ids of the largest connected component.
std::vector<NodeId> largest_component(const UnitDiskGraph& g);

}  // namespace spr
