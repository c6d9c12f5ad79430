#include "graph/unit_disk.h"

#include <algorithm>
#include <cmath>

#include "graph/spatial_grid.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace spr {

namespace {

/// A NaN or infinite coordinate has no meaningful distance to anything, and
/// a NaN breaks the strict weak order the hull sort needs: both are
/// rejected at construction rather than yielding a silently wrong graph.
void check_finite_position(NodeId u, Vec2 p) {
  SPR_CHECK(std::isfinite(p.x) && std::isfinite(p.y), "UnitDiskGraph: node ",
            u, " has a non-finite position (", p.x, ", ", p.y, ")");
}

void check_finite_positions(const std::vector<Vec2>& positions) {
  for (NodeId u = 0; u < positions.size(); ++u) {
    check_finite_position(u, positions[u]);
  }
}

/// Rows per block of the row builder: one block-local buffer, one pool task.
constexpr std::size_t kRowBlock = 256;

/// Sorts a row of distinct ids ascending. A short row places each id at its
/// rank, the count of smaller ids in the row: branch-free work the compiler
/// vectorizes, about 2.5x faster than std::sort's mispredicted branches on
/// the ~20-id rows of a unit-disk graph. Longer rows (dense clusters) take
/// std::sort, so the quadratic rank count never runs on a large row.
void sort_row(NodeId* row, std::size_t size) {
  constexpr std::size_t kRankSortMax = 64;
  if (size > kRankSortMax) {
    std::sort(row, row + size);
    return;
  }
  NodeId ids[kRankSortMax];
  std::copy(row, row + size, ids);
  for (std::size_t i = 0; i < size; ++i) {
    std::size_t rank = 0;
    for (std::size_t j = 0; j < size; ++j) {
      rank += static_cast<std::size_t>(ids[j] < ids[i]);
    }
    row[rank] = ids[i];
  }
}

/// The one unit-disk row builder behind construction, the with_moves
/// cutover (a fresh build) and the with_moves patch (its moved rows). Row i
/// of the output belongs to node `node_of(i)`, i < `rows`: its alive
/// neighbors within `range` on `grid`, sorted by id, or nothing for a dead
/// node. The rows come out in CSR form (`offsets` has rows + 1 entries)
/// without a heap vector per row: each block of kRowBlock rows runs its
/// radius queries, alive filters and in-place row sorts into one
/// block-local buffer and writes its row degrees into `offsets`; a prefix
/// sum then places every block, and each block copies into `adjacency` in
/// one pooled pass. Blocks never overlap, so the result is bit-identical
/// for every pool size.
template <typename NodeOf>
void fill_rows(std::size_t rows, NodeOf node_of, const SpatialGrid& grid,
               const std::vector<Vec2>& positions, double range,
               const std::vector<bool>& alive, TaskPool* pool,
               std::vector<std::size_t>& offsets,
               std::vector<NodeId>& adjacency) {
  offsets.assign(rows + 1, 0);
  adjacency.clear();
  std::vector<std::vector<NodeId>> blocks((rows + kRowBlock - 1) / kRowBlock);
  // Serial dispatch hands the whole range to one call, so each call walks
  // its range block by block. A block fills a scratch buffer sized for
  // typical rows, then keeps an exact copy: no growth chain of
  // reallocations, and no slack held until the copy pass.
  auto dead = [&alive](NodeId v) { return !alive[v]; };
  parallel_for_blocked(
      pool, rows, kRowBlock,
      [&](std::size_t range_begin, std::size_t range_end) {
        std::vector<NodeId> buffer;
        buffer.reserve(kRowBlock * 32);
        for (std::size_t b = range_begin; b < range_end; b += kRowBlock) {
          buffer.clear();
          const std::size_t block_end = std::min(range_end, b + kRowBlock);
          for (std::size_t i = b; i < block_end; ++i) {
            const NodeId u = node_of(i);
            if (!alive[u]) continue;
            const std::size_t row = buffer.size();
            grid.query_radius(positions[u], range, u, buffer);
            buffer.erase(std::remove_if(buffer.begin() +
                                            static_cast<std::ptrdiff_t>(row),
                                        buffer.end(), dead),
                         buffer.end());
            sort_row(buffer.data() + row, buffer.size() - row);
            offsets[i] = buffer.size() - row;
          }
          blocks[b / kRowBlock].assign(buffer.begin(), buffer.end());
        }
      });
  std::size_t total = 0;
  for (std::size_t& entry : offsets) {
    const std::size_t degree = entry;
    entry = total;
    total += degree;
  }
  adjacency.resize(total);
  // A few blocks per task: tens of KB of copying amortize one submission.
  parallel_for_blocked(pool, blocks.size(), 16,
                       [&](std::size_t block_begin, std::size_t block_end) {
                         for (std::size_t k = block_begin; k < block_end; ++k) {
                           std::copy(blocks[k].begin(), blocks[k].end(),
                                     adjacency.begin() +
                                         static_cast<std::ptrdiff_t>(
                                             offsets[k * kRowBlock]));
                           std::vector<NodeId>().swap(blocks[k]);
                         }
                       });
}

}  // namespace

bool edge_diff_normalized(const EdgeDiff& diff) {
  auto normalized = [](const std::vector<std::pair<NodeId, NodeId>>& pairs) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (pairs[i].first >= pairs[i].second) return false;
      if (i > 0 && !(pairs[i - 1] < pairs[i])) return false;
    }
    return true;
  };
  if (!normalized(diff.added) || !normalized(diff.removed)) return false;
  // Both lists are sorted, so one tandem walk finds any common pair.
  std::size_t ai = 0, ri = 0;
  while (ai < diff.added.size() && ri < diff.removed.size()) {
    if (diff.added[ai] == diff.removed[ri]) return false;
    if (diff.added[ai] < diff.removed[ri]) {
      ++ai;
    } else {
      ++ri;
    }
  }
  return true;
}

UnitDiskGraph::UnitDiskGraph(std::vector<Vec2> positions, double range,
                             Rect bounds, TaskPool* build_pool)
    : positions_(std::move(positions)), range_(range), bounds_(bounds) {
  check_finite_positions(positions_);
  build(std::vector<bool>(positions_.size(), true), build_pool);
}

UnitDiskGraph::UnitDiskGraph(std::vector<Vec2> positions, double range,
                             Rect bounds, const std::vector<bool>& alive,
                             TaskPool* build_pool)
    : positions_(std::move(positions)), range_(range), bounds_(bounds) {
  check_finite_positions(positions_);
  build(alive, build_pool);
}

const QuadrantZones& UnitDiskGraph::zones(TaskPool* build_pool) const {
  ZonesCache& cache = *zones_cache_;
  std::call_once(cache.once, [&] {
    // Skips the build when a with_failures/with_moves patch installed the
    // zones eagerly (adopt_zones runs during construction, pre-publication).
    if (!cache.built.load(std::memory_order_acquire)) {
      cache.zones = QuadrantZones::build(*this, build_pool);
      cache.built.store(true, std::memory_order_release);
    }
  });
  return cache.zones;
}

bool UnitDiskGraph::has_zones() const noexcept {
  return zones_cache_ != nullptr &&
         zones_cache_->built.load(std::memory_order_acquire);
}

void UnitDiskGraph::adopt_zones(QuadrantZones zones) const {
  zones_cache_->zones = std::move(zones);
  zones_cache_->built.store(true, std::memory_order_release);
}

void UnitDiskGraph::build(const std::vector<bool>& alive,
                          TaskPool* build_pool) {
  zones_cache_ = std::make_shared<ZonesCache>();
  alive_ = alive;
  alive_.resize(positions_.size(), true);
  const std::size_t n = positions_.size();
  grid_ = std::make_shared<SpatialGrid>(positions_, bounds_, range_);

  fill_rows(
      n, [](std::size_t i) { return static_cast<NodeId>(i); }, *grid_,
      positions_, range_, alive_, build_pool, offsets_, adjacency_);
}

bool UnitDiskGraph::are_neighbors(NodeId u, NodeId v) const noexcept {
  auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double UnitDiskGraph::average_degree() const noexcept {
  if (positions_.empty()) return 0.0;
  return static_cast<double>(adjacency_.size()) /
         static_cast<double>(positions_.size());
}

UnitDiskGraph::UnitDiskGraph(PatchedTag, std::vector<Vec2> positions,
                             double range, Rect bounds,
                             std::shared_ptr<const SpatialGrid> grid,
                             std::vector<bool> alive,
                             std::vector<std::size_t> offsets,
                             std::vector<NodeId> adjacency)
    : positions_(std::move(positions)),
      range_(range),
      bounds_(bounds),
      grid_(std::move(grid)),
      alive_(std::move(alive)),
      offsets_(std::move(offsets)),
      adjacency_(std::move(adjacency)),
      zones_cache_(std::make_shared<ZonesCache>()) {}

UnitDiskGraph UnitDiskGraph::with_moves(const std::vector<Vec2>& new_positions,
                                        EdgeDiff* diff,
                                        TaskPool* build_pool) const {
  const std::size_t n = positions_.size();
  if (diff != nullptr) *diff = EdgeDiff{};

  // Which nodes actually moved (exact coordinate comparison: the waypoint
  // process hands back untouched doubles for paused nodes). A non-finite
  // coordinate never compares equal, so checking the moved ones suffices.
  std::vector<NodeId> moved;
  for (NodeId u = 0; u < n && u < new_positions.size(); ++u) {
    if (!(new_positions[u] == positions_[u])) {
      check_finite_position(u, new_positions[u]);
      moved.push_back(u);
    }
  }
  if (diff != nullptr) diff->moved_nodes = moved.size();
  std::vector<Vec2> positions(new_positions);
  positions.resize(n, Vec2{});
  for (std::size_t i = new_positions.size(); i < n; ++i) {
    positions[i] = positions_[i];
  }

  // Adaptive cutover: when most nodes moved (whole-field mobility epochs),
  // every neighbor list re-queries anyway, so the grid-relocation and
  // list-patching machinery is pure overhead — a from-scratch build is the
  // optimal "patch". The result is bit-identical either way (tests assert
  // both paths against fresh builds); only the edge delta still needs the
  // tandem walk.
  if (2 * moved.size() > n) {
    UnitDiskGraph fresh(positions, range_, bounds_, alive_, build_pool);
    // Whole-field motion leaves almost every quadrant row stale, so the
    // "patch" of the quadrant view is a fresh build too — done eagerly
    // because a built parent view means the safety continuation needs it.
    if (has_zones()) {
      fresh.adopt_zones(QuadrantZones::build(fresh, build_pool));
    }
    if (diff != nullptr) {
      for (NodeId u = 0; u < n; ++u) {
        auto old_list = neighbors(u);
        auto new_list = fresh.neighbors(u);
        std::size_t oi = 0, ni = 0;
        while (oi < old_list.size() || ni < new_list.size()) {
          NodeId vo = oi < old_list.size() ? old_list[oi] : kInvalidNode;
          NodeId vn = ni < new_list.size() ? new_list[ni] : kInvalidNode;
          if (vn == kInvalidNode || (vo != kInvalidNode && vo < vn)) {
            if (vo > u) diff->removed.emplace_back(u, vo);
            ++oi;
          } else if (vo == kInvalidNode || vn < vo) {
            if (vn > u) diff->added.emplace_back(u, vn);
            ++ni;
          } else {
            ++oi;
            ++ni;
          }
        }
      }
      SPR_DCHECK(edge_diff_normalized(*diff),
                 "with_moves cutover emitted a non-normalized EdgeDiff");
    }
    return fresh;
  }

  // Relocate a private copy of the grid: unmoved points keep their buckets.
  auto grid = std::make_shared<SpatialGrid>(*grid_);
  {
    std::vector<Vec2> from, to;
    from.reserve(moved.size());
    to.reserve(moved.size());
    for (NodeId u : moved) {
      from.push_back(positions_[u]);
      to.push_back(positions[u]);
    }
    grid->relocate(moved, from, to);
  }

  if (moved.empty()) {
    UnitDiskGraph same(PatchedTag{}, std::move(positions), range_, bounds_,
                       std::move(grid), alive_, offsets_, adjacency_);
    same.zones_cache_ = zones_cache_;  // identical topology: share the view
    return same;
  }

  // Fresh neighbor lists for the moved nodes only (alive ones; dead nodes
  // stay edgeless wherever they are).
  std::vector<bool> is_moved(n, false);
  for (NodeId u : moved) is_moved[u] = true;
  std::vector<std::size_t> moved_offsets;
  std::vector<NodeId> moved_adjacency;
  fill_rows(
      moved.size(), [&moved](std::size_t i) { return moved[i]; }, *grid,
      positions, range_, alive_, build_pool, moved_offsets, moved_adjacency);
  auto moved_row = [&](std::size_t i) -> std::span<const NodeId> {
    return {moved_adjacency.data() + moved_offsets[i],
            moved_offsets[i + 1] - moved_offsets[i]};
  };

  // The edge delta, from a tandem walk of each moved node's old and new
  // sorted lists. Edges between two moved endpoints show up in both walks;
  // normalizing to (min, max) and deduping on the lower endpoint keeps one
  // record. Unmoved partners collect per-node patch lists.
  std::vector<std::pair<NodeId, NodeId>> drops, adds;  // (unmoved v, moved u)
  auto record = [&](std::vector<std::pair<NodeId, NodeId>>* out, NodeId u,
                    NodeId v, std::vector<std::pair<NodeId, NodeId>>& patch) {
    if (!is_moved[v]) {
      patch.emplace_back(v, u);
    } else if (v < u) {
      return;  // the walk from v records this moved-moved edge
    }
    if (out != nullptr) {
      out->emplace_back(std::min(u, v), std::max(u, v));
    }
  };
  EdgeDiff local_diff;
  EdgeDiff* d = diff != nullptr ? diff : &local_diff;
  for (std::size_t i = 0; i < moved.size(); ++i) {
    NodeId u = moved[i];
    auto old_list = neighbors(u);
    auto new_list = moved_row(i);
    std::size_t oi = 0, ni = 0;
    while (oi < old_list.size() || ni < new_list.size()) {
      if (ni == new_list.size() ||
          (oi < old_list.size() && old_list[oi] < new_list[ni])) {
        record(&d->removed, u, old_list[oi], drops);
        ++oi;
      } else if (oi == old_list.size() || new_list[ni] < old_list[oi]) {
        record(&d->added, u, new_list[ni], adds);
        ++ni;
      } else {
        ++oi;
        ++ni;
      }
    }
  }
  std::sort(d->added.begin(), d->added.end());
  d->added.erase(std::unique(d->added.begin(), d->added.end()),
                 d->added.end());
  std::sort(d->removed.begin(), d->removed.end());
  d->removed.erase(std::unique(d->removed.begin(), d->removed.end()),
                   d->removed.end());
  SPR_DCHECK(edge_diff_normalized(*d),
             "with_moves patch path emitted a non-normalized EdgeDiff");
  std::sort(drops.begin(), drops.end());
  std::sort(adds.begin(), adds.end());

  // Assemble the patched CSR in node-id order: moved nodes take their fresh
  // lists, unmoved touched nodes merge (old minus drops) with adds, and
  // untouched nodes block-copy their old span.
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<NodeId> adjacency;
  adjacency.reserve(adjacency_.size() + 2 * d->added.size());
  std::size_t di = 0, ai = 0;
  std::size_t moved_cursor = 0;
  for (NodeId u = 0; u < n; ++u) {
    offsets[u] = adjacency.size();
    if (is_moved[u]) {
      auto list = moved_row(moved_cursor++);
      adjacency.insert(adjacency.end(), list.begin(), list.end());
      continue;
    }
    auto old_list = neighbors(u);
    bool touched = (di < drops.size() && drops[di].first == u) ||
                   (ai < adds.size() && adds[ai].first == u);
    if (!touched) {
      adjacency.insert(adjacency.end(), old_list.begin(), old_list.end());
      continue;
    }
    std::size_t oi = 0;
    while (oi < old_list.size() || (ai < adds.size() && adds[ai].first == u)) {
      NodeId old_next = kInvalidNode;
      while (oi < old_list.size()) {
        if (di < drops.size() && drops[di].first == u &&
            drops[di].second == old_list[oi]) {
          ++di;
          ++oi;
          continue;
        }
        old_next = old_list[oi];
        break;
      }
      NodeId add_next = (ai < adds.size() && adds[ai].first == u)
                            ? adds[ai].second
                            : kInvalidNode;
      if (old_next == kInvalidNode && add_next == kInvalidNode) break;
      if (add_next == kInvalidNode ||
          (old_next != kInvalidNode && old_next < add_next)) {
        adjacency.push_back(old_next);
        ++oi;
      } else {
        adjacency.push_back(add_next);
        ++ai;
      }
    }
    while (di < drops.size() && drops[di].first == u) ++di;
  }
  offsets[n] = adjacency.size();

  UnitDiskGraph out(PatchedTag{}, std::move(positions), range_, bounds_,
                    std::move(grid), alive_, std::move(offsets),
                    std::move(adjacency));
  // Carry the quadrant view across the epoch: a row is stale iff its node
  // moved, a (old or new) neighbor moved, or its adjacency changed — and
  // adjacency only ever changes at a moved endpoint, so the moved nodes'
  // old and new neighborhoods cover every case.
  if (has_zones()) {
    std::vector<bool> stale(n, false);
    for (std::size_t i = 0; i < moved.size(); ++i) {
      NodeId u = moved[i];
      stale[u] = true;
      for (NodeId v : neighbors(u)) stale[v] = true;
      for (NodeId v : moved_row(i)) stale[v] = true;
    }
    out.adopt_zones(QuadrantZones::patch(out, *this, zones_cache_->zones, stale));
  }
  return out;
}

UnitDiskGraph UnitDiskGraph::with_failures(
    const std::vector<NodeId>& failed) const {
  const std::size_t n = positions_.size();
  // Positions are unchanged, so only the casualties and their neighbors
  // change rows; the same set is what goes stale in the quadrant view.
  std::vector<bool> alive = alive_;
  std::vector<bool> stale(n, false);
  for (NodeId u : failed) {
    if (u >= n) continue;
    alive[u] = false;
    stale[u] = true;
    for (NodeId v : neighbors(u)) stale[v] = true;
  }

  // Patch the CSR in node-id order: casualty rows empty out, their old
  // neighbors' rows drop the dead ids (filtering keeps them sorted), and
  // every other row block-copies.
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<NodeId> adjacency;
  adjacency.reserve(adjacency_.size());
  for (NodeId u = 0; u < n; ++u) {
    offsets[u] = adjacency.size();
    if (!alive[u]) continue;
    auto row = neighbors(u);
    if (!stale[u]) {
      adjacency.insert(adjacency.end(), row.begin(), row.end());
      continue;
    }
    for (NodeId v : row) {
      if (alive[v]) adjacency.push_back(v);
    }
  }
  offsets[n] = adjacency.size();

  // The copy shares this graph's grid: failures never re-bucket the points.
  UnitDiskGraph out(PatchedTag{}, positions_, range_, bounds_, grid_,
                    std::move(alive), std::move(offsets),
                    std::move(adjacency));
  if (has_zones()) {
    out.adopt_zones(QuadrantZones::patch(out, *this, zones_cache_->zones, stale));
  }
  return out;
}

}  // namespace spr
