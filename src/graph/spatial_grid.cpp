#include "graph/spatial_grid.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace spr {

SpatialGrid::SpatialGrid(std::span<const Vec2> points, Rect bounds,
                         double cell_size)
    : bounds_(bounds), cell_size_(cell_size) {
  SPR_CHECK(std::isfinite(cell_size) && cell_size > 0.0,
            "SpatialGrid: cell size ", cell_size, " is not finite and positive");
  // Counted in double, then capped at kMaxCells by growing the cell side:
  // a tiny cell size (a 1e-300 radio range) must neither overflow the int
  // cast nor allocate a cell array per picometer. Queries filter by exact
  // distance, so coarser cells only widen the candidate scan.
  const double width = bounds.width();
  const double height = bounds.height();
  auto count = [&](double extent) {
    return std::max(1.0, std::ceil(extent / cell_size_));
  };
  double cols = count(width);
  double rows = count(height);
  if (!(cols * rows <= kMaxCells)) {
    // Twice the side at which width×height, width and height alone fill
    // kMaxCells: before rounding up each count is <= kMaxCells/2 and their
    // product <= kMaxCells/4, so the rounded-up product stays <= kMaxCells.
    cell_size_ = 2.0 * std::max({std::sqrt(width * height / kMaxCells),
                                 width / kMaxCells, height / kMaxCells});
    cols = count(width);
    rows = count(height);
    SPR_CHECK(cols * rows <= kMaxCells, "SpatialGrid: ", cols, "x", rows,
              " cells over the cap");
  }
  cols_ = static_cast<int>(cols);
  rows_ = static_cast<int>(rows);
  const std::size_t cell_count =
      static_cast<size_t>(cols_) * static_cast<size_t>(rows_);

  // CSR build: count per cell, prefix-sum into offsets, then fill. Filling
  // in ascending id order keeps each cell's ids sorted.
  std::vector<std::size_t> counts(cell_count, 0);
  for (const Vec2& p : points) ++counts[cell_index(p)];
  cell_offsets_.assign(cell_count + 1, 0);
  for (std::size_t i = 0; i < cell_count; ++i) {
    cell_offsets_[i + 1] = cell_offsets_[i] + counts[i];
  }
  cell_ids_.resize(points.size());
  cell_points_.resize(points.size());
  std::vector<std::size_t>& cursor = counts;
  std::copy(cell_offsets_.begin(), cell_offsets_.end() - 1, cursor.begin());
  for (NodeId id = 0; id < points.size(); ++id) {
    const std::size_t slot = cursor[cell_index(points[id])]++;
    cell_ids_[slot] = id;
    cell_points_[slot] = points[id];
  }
}

std::size_t SpatialGrid::slot_of(std::size_t cell, NodeId id) const noexcept {
  const auto begin = cell_ids_.begin() +
                     static_cast<std::ptrdiff_t>(cell_offsets_[cell]);
  const auto end = cell_ids_.begin() +
                   static_cast<std::ptrdiff_t>(cell_offsets_[cell + 1]);
  return static_cast<std::size_t>(std::lower_bound(begin, end, id) -
                                  cell_ids_.begin());
}

void SpatialGrid::relocate(std::span<const NodeId> ids,
                           std::span<const Vec2> from,
                           std::span<const Vec2> to) {
  // Per moved point: the cell it leaves and the cell it joins. Points that
  // stay in their cell only need the coordinate update.
  struct Joiner {
    std::size_t cell;
    NodeId id;
    Vec2 at;
    bool operator<(const Joiner& o) const noexcept {
      return cell != o.cell ? cell < o.cell : id < o.id;
    }
  };
  std::vector<std::pair<std::size_t, NodeId>> leavers;
  std::vector<Joiner> joiners;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const NodeId id = ids[i];
    if (id >= point_count()) continue;
    const std::size_t old_cell = cell_index(from[i]);
    const std::size_t new_cell = cell_index(to[i]);
    SPR_DCHECK(slot_of(old_cell, id) < cell_offsets_[old_cell + 1] &&
                   cell_ids_[slot_of(old_cell, id)] == id,
               "SpatialGrid::relocate: point ", id, " is not at its `from`");
    if (old_cell == new_cell) {
      cell_points_[slot_of(old_cell, id)] = to[i];
    } else {
      leavers.emplace_back(old_cell, id);
      joiners.push_back(Joiner{new_cell, id, to[i]});
    }
  }
  if (leavers.empty()) return;
  std::sort(leavers.begin(), leavers.end());
  std::sort(joiners.begin(), joiners.end());

  // One compaction pass over the cells: untouched cells block-copy, touched
  // cells merge (old ids minus leavers) with their sorted joiners. Both
  // inputs are ascending, so each cell stays sorted; every coordinate moves
  // with its id.
  const std::size_t cell_count =
      static_cast<size_t>(cols_) * static_cast<size_t>(rows_);
  std::vector<std::size_t> new_offsets(cell_count + 1, 0);
  std::vector<NodeId> new_ids(cell_ids_.size());
  std::vector<Vec2> new_points(cell_points_.size());
  std::size_t li = 0, ji = 0, write = 0;
  for (std::size_t c = 0; c < cell_count; ++c) {
    new_offsets[c] = write;
    const std::size_t begin = cell_offsets_[c], end = cell_offsets_[c + 1];
    bool touched = (li < leavers.size() && leavers[li].first == c) ||
                   (ji < joiners.size() && joiners[ji].cell == c);
    if (!touched) {
      std::copy(cell_ids_.begin() + static_cast<std::ptrdiff_t>(begin),
                cell_ids_.begin() + static_cast<std::ptrdiff_t>(end),
                new_ids.begin() + static_cast<std::ptrdiff_t>(write));
      std::copy(cell_points_.begin() + static_cast<std::ptrdiff_t>(begin),
                cell_points_.begin() + static_cast<std::ptrdiff_t>(end),
                new_points.begin() + static_cast<std::ptrdiff_t>(write));
      write += end - begin;
      continue;
    }
    std::size_t k = begin;
    while (k < end || (ji < joiners.size() && joiners[ji].cell == c)) {
      // Next survivor from the old slots (skipping this cell's leavers).
      while (k < end && li < leavers.size() && leavers[li].first == c &&
             leavers[li].second == cell_ids_[k]) {
        ++li;
        ++k;
      }
      const NodeId old_next = k < end ? cell_ids_[k] : kInvalidNode;
      const NodeId join_next = (ji < joiners.size() && joiners[ji].cell == c)
                                   ? joiners[ji].id
                                   : kInvalidNode;
      if (old_next == kInvalidNode && join_next == kInvalidNode) break;
      if (join_next == kInvalidNode ||
          (old_next != kInvalidNode && old_next < join_next)) {
        new_ids[write] = old_next;
        new_points[write++] = cell_points_[k++];
      } else {
        new_ids[write] = join_next;
        new_points[write++] = joiners[ji++].at;
      }
    }
    // Any leavers of this cell not consumed above (they sorted past the old
    // scan) have been skipped already; advance over stragglers defensively.
    while (li < leavers.size() && leavers[li].first == c) ++li;
  }
  new_offsets[cell_count] = write;
  cell_offsets_ = std::move(new_offsets);
  cell_ids_ = std::move(new_ids);
  cell_points_ = std::move(new_points);
}

namespace {

/// Truncates `cells` to a cell index in [0, last], clamping in double so
/// far-outside (or NaN) coordinates never reach an out-of-range int cast.
int clamp_cell(double cells, int last) noexcept {
  if (!(cells >= 0.0)) return 0;
  return static_cast<int>(std::min(cells, static_cast<double>(last)));
}

}  // namespace

int SpatialGrid::cell_col(double x) const noexcept {
  return clamp_cell((x - bounds_.lo().x) / cell_size_, cols_ - 1);
}

int SpatialGrid::cell_row(double y) const noexcept {
  return clamp_cell((y - bounds_.lo().y) / cell_size_, rows_ - 1);
}

void SpatialGrid::query_radius(Vec2 center, double radius, NodeId exclude,
                               std::vector<NodeId>& out) const {
  int c0 = cell_col(center.x - radius), c1 = cell_col(center.x + radius);
  int r0 = cell_row(center.y - radius), r1 = cell_row(center.y + radius);
  double radius_sq = radius * radius;
  for (int r = r0; r <= r1; ++r) {
    // Cells c0..c1 of row r are adjacent cells, hence one slot range. Every
    // candidate is written and the write cursor advances only on a hit: no
    // branch on a distance test that fails about two times in three.
    const std::size_t row = static_cast<size_t>(r) * static_cast<size_t>(cols_);
    const std::size_t begin = cell_offsets_[row + static_cast<size_t>(c0)];
    const std::size_t end = cell_offsets_[row + static_cast<size_t>(c1) + 1];
    std::size_t write = out.size();
    out.resize(write + (end - begin));
    NodeId* dst = out.data();
    for (std::size_t k = begin; k < end; ++k) {
      dst[write] = cell_ids_[k];
      write += static_cast<std::size_t>(
          (distance_sq(cell_points_[k], center) <= radius_sq) &
          (cell_ids_[k] != exclude));
    }
    out.resize(write);
  }
}

}  // namespace spr
