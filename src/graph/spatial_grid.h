#pragma once

/// \file spatial_grid.h
/// Uniform hash grid over the deployment field, used to build unit-disk
/// adjacency in O(n) expected time and to answer range queries.

#include <span>
#include <vector>

#include "geometry/rect.h"
#include "geometry/vec2.h"
#include "graph/node.h"

namespace spr {

/// Buckets points into square cells of side `cell_size` covering `bounds`.
///
/// The grid owns a copy of the point set, so it stays valid independently of
/// the caller's vector — UnitDiskGraph shares one grid across every
/// `with_failures` copy (the positions never change, only aliveness).
///
/// Cell contents are stored in CSR form (one flat id array plus per-cell
/// offsets) rather than a vector-of-vectors, and the coordinates are stored
/// in the same cell order, parallel to the ids (there is no id-ordered
/// copy). Cells are numbered row-major, so the cells of one grid row that a
/// radius query spans are one contiguous slot range: a query scans three
/// runs of contiguous ids and coordinates instead of gathering coordinates
/// by id from all over the point set.
class SpatialGrid {
 public:
  /// At most this many cells: a `cell_size` too small for the bounds is
  /// grown so that the grid fits.
  static constexpr double kMaxCells = 16777216.0;  // 2^24

  /// Builds the grid over all `points` (copied in cell order). `cell_size`
  /// should be >= the query radius for single-ring neighbor queries (we use
  /// the radio range); it must be finite and positive (checked).
  SpatialGrid(std::span<const Vec2> points, Rect bounds, double cell_size);

  /// Appends to `out` the ids of all points within `radius` of `center`
  /// (excluding `exclude`, pass kInvalidNode to keep everything), in cell
  /// order and ascending within a cell.
  void query_radius(Vec2 center, double radius, NodeId exclude,
                    std::vector<NodeId>& out) const;

  /// Moves the points `ids[i]` from `from[i]` to `to[i]` (parallel spans;
  /// `from[i]` must be the coordinate the grid holds for `ids[i]`)
  /// *without* re-bucketing the unmoved points: cells whose membership did
  /// not change are block-copied, and only the moved points pay the
  /// cell-index recomputation. Each cell's ids stay sorted ascending, so
  /// the relocated grid is indistinguishable from one built from scratch
  /// over the new point set (tests enforce query equality). Ids out of
  /// range are ignored.
  ///
  /// The grid is shared across `UnitDiskGraph` snapshots via shared_ptr —
  /// mutate only a freshly copied grid (UnitDiskGraph::with_moves does).
  void relocate(std::span<const NodeId> ids, std::span<const Vec2> from,
                std::span<const Vec2> to);

  int cols() const noexcept { return cols_; }
  int rows() const noexcept { return rows_; }
  std::size_t point_count() const noexcept { return cell_ids_.size(); }

 private:
  int cell_col(double x) const noexcept;
  int cell_row(double y) const noexcept;
  std::size_t cell_index(Vec2 p) const noexcept {
    return static_cast<size_t>(cell_row(p.y)) * static_cast<size_t>(cols_) +
           static_cast<size_t>(cell_col(p.x));
  }
  /// The slot of `id` in cell `cell` (ids ascend within a cell).
  std::size_t slot_of(std::size_t cell, NodeId id) const noexcept;

  Rect bounds_;
  double cell_size_;
  int cols_, rows_;
  std::vector<std::size_t> cell_offsets_;  ///< cols*rows + 1 entries
  std::vector<NodeId> cell_ids_;           ///< point ids grouped by cell
  std::vector<Vec2> cell_points_;          ///< their coordinates, same order
};

}  // namespace spr
