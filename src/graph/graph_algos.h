#pragma once

/// \file graph_algos.h
/// Reference graph algorithms over the unit-disk substrate: BFS hop counts,
/// Dijkstra Euclidean shortest paths, and connectivity. These are the
/// oracles the benches use to compute stretch; the routers never consult
/// them (they are strictly local, as in the paper).
///
/// Two oracle shapes serve the two consumers:
///  * paths — `bfs_path` / `dijkstra_path` return one hop- or
///    length-optimal path (the flooding baseline and `spr_cli route`).
///  * optima only — `hop_distance` is a bidirectional, level-synchronous
///    BFS that stops where the two balls meet; `hop_distances` fans a span
///    of pairs out over a TaskPool (the streaming simulator's per-epoch
///    stretch oracle), and `OracleBatch` pairs it with a goal-directed A*
///    length search per pair (the sweep cells' stretch oracle, which reads
///    only the two optima, never a path).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/node.h"
#include "graph/unit_disk.h"

namespace spr {

class TaskPool;

/// Result of a single-pair search.
struct ShortestPath {
  std::vector<NodeId> path;  ///< s ... d inclusive; empty when unreachable
  double length = 0.0;       ///< sum of Euclidean edge lengths
  std::size_t hops() const noexcept { return path.empty() ? 0 : path.size() - 1; }
};

/// The optima of a batch of (source, destination) pairs: per pair, the
/// hop count of `hop_distance` and the Euclidean length of an A* search
/// that is bit-identical to `dijkstra_path(g, s, d).length` (the sweep
/// cells' stretch oracle).
class OracleBatch {
 public:
  OracleBatch(const UnitDiskGraph& g,
              std::span<const std::pair<NodeId, NodeId>> pairs);

  std::size_t size() const noexcept { return hop_optimal_.size(); }

  /// Optimal hop count of pairs[i]; 0 when unreachable or an id is out of
  /// range (as an empty `ShortestPath` reports).
  const std::size_t& hop_optimal(std::size_t i) const noexcept {
    return hop_optimal_[i];
  }
  /// Optimal Euclidean length of pairs[i]; 0.0 when unreachable or an id is
  /// out of range.
  const double& length_optimal(std::size_t i) const noexcept {
    return length_optimal_[i];
  }

 private:
  std::vector<std::size_t> hop_optimal_;
  std::vector<double> length_optimal_;
};

/// Hop count of an unreachable target (`bfs_hops`, `hop_distance`).
inline constexpr std::size_t kUnreachableHops = static_cast<std::size_t>(-1);

/// Hop counts from `source` to every node (kUnreachableHops when
/// unreachable). An out-of-range `source` reaches nothing: every entry is
/// kUnreachableHops, as `hop_distance` reports for out-of-range ids.
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

/// True when u and v are in the same component: a `hop_distance` probe on a
/// thread-local scratch, so it costs two half-radius balls, not a full BFS.
/// False when either id is out of range.
bool connected(const UnitDiskGraph& g, NodeId u, NodeId v);

/// Ids of the largest connected component.
std::vector<NodeId> largest_component(const UnitDiskGraph& g);

}  // namespace spr
