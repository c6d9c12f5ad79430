#include "routing/boundhole.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geometry/angle.h"
#include "geometry/segment.h"
#include "util/check.h"

namespace spr {

namespace {

/// A boundary walk is discarded after this many steps per node.
constexpr std::size_t kMaxCycleFactor = 2;

/// Dart index of a CSR slot: the directed edge u -> neighbors(u)[k] is
/// slot neighbor_offset(u) + k. Tables below are indexed by it.
using Dart = std::uint32_t;
constexpr Dart kNoDart = std::numeric_limits<Dart>::max();

/// One row's neighbors in angular order: (bearing, id) ascending.
using AngularRow = std::vector<std::pair<double, NodeId>>;

/// TENT rule, exact form, over a row already in angular order. u is stuck
/// for some destination just beyond the radio disc in the angular gap
/// between adjacent neighbors v1, v2 iff a direction theta in the gap
/// satisfies |r*theta - v_i| > r for both, i.e. angle(theta, v_i) > alpha_i
/// with alpha_i = arccos(|u v_i| / 2r). Such a theta exists iff gap >
/// alpha_1 + alpha_2. With |u v_i| <= r the alphas are in [60, 90] degrees,
/// recovering the classic "every gap below 120 degrees is never stuck"
/// bound.
bool tent_rule(const UnitDiskGraph& g, NodeId u, const AngularRow& by_angle) {
  if (by_angle.size() < 2) return true;
  Vec2 pu = g.position(u);
  const double range = g.range();
  auto alpha = [&](NodeId v) {
    double cosv = std::clamp(distance(pu, g.position(v)) / (2.0 * range), 0.0, 1.0);
    return std::acos(cosv);
  };
  // Each neighbor's alpha is computed once and carried to the next pair.
  const double alpha_first = alpha(by_angle.front().second);
  double alpha1 = alpha_first;
  for (std::size_t i = 0; i < by_angle.size(); ++i) {
    const bool wrap = i + 1 == by_angle.size();
    const double a1 = by_angle[i].first;
    const auto& [a2, v2] = by_angle[wrap ? 0 : i + 1];
    const double alpha2 = wrap ? alpha_first : alpha(v2);
    // Wrap-around pair: the sweep from the last bearing back to the first
    // covers the remainder of the circle (2*pi when all bearings coincide).
    double gap = ccw_delta(a1, a2);
    if (wrap && gap == 0.0) gap = kTwoPi;
    if (gap != 0.0 && gap > alpha1 + alpha2 + 1e-12) return true;
    alpha1 = alpha2;
  }
  return false;
}

/// Direction bisecting the widest angular gap of a row — the most
/// "hole-ward" direction, used to aim the first step of the walk.
double widest_gap_bisector(const AngularRow& by_angle) {
  if (by_angle.empty()) return 0.0;
  double best_gap = -1.0, best_mid = 0.0;
  for (std::size_t i = 0; i < by_angle.size(); ++i) {
    double a1 = by_angle[i].first;
    double a2 = by_angle[(i + 1) % by_angle.size()].first;
    double gap = ccw_delta(a1, a2);
    if (by_angle.size() == 1) gap = kTwoPi;
    if (gap > best_gap) {
      best_gap = gap;
      best_mid = normalize_angle(a1 + gap / 2.0);
    }
  }
  return best_mid;
}

/// The rotation system of `g` as flat per-dart tables: each dart's bearing
/// (one atan2 per directed edge), its reverse dart, and its boundary
/// successor, memoized on first use. The tables are the same doubles the
/// per-step scan would recompute, so every walk over them is bit-identical
/// to that scan; a boundary step becomes one table lookup after its first
/// visit.
class RotationTable {
 public:
  explicit RotationTable(const UnitDiskGraph& g)
      : g_(g),
        bearings_(g.directed_edge_count()),
        reverse_(g.directed_edge_count()),
        successor_(g.directed_edge_count(), kNoDart) {
    const std::size_t n = g.size();
    SPR_CHECK(g.directed_edge_count() < kNoDart,
              "darts=", g.directed_edge_count());
    // Rows are sorted by id, so visiting u ascending reaches the entries of
    // every row v in order: v's cursor always sits on u's slot in v's row.
    std::vector<Dart> cursor(n);
    for (NodeId v = 0; v < n; ++v) cursor[v] = static_cast<Dart>(g.neighbor_offset(v));
    for (NodeId u = 0; u < n; ++u) {
      const Vec2 pu = g.position(u);
      const auto row = g.neighbors(u);
      const std::size_t base = g.neighbor_offset(u);
      for (std::size_t k = 0; k < row.size(); ++k) {
        const NodeId v = row[k];
        bearings_[base + k] = bearing(pu, g.position(v));
        SPR_DCHECK(g.neighbors(v)[cursor[v] - g.neighbor_offset(v)] == u,
                   "asymmetric row at ", u, "->", v);
        reverse_[base + k] = cursor[v]++;
      }
    }
  }

  /// u's neighbors in angular order, into `out`.
  void angular_row(NodeId u, AngularRow& out) const {
    const auto row = g_.neighbors(u);
    const std::size_t base = g_.neighbor_offset(u);
    out.clear();
    for (std::size_t k = 0; k < row.size(); ++k) {
      out.emplace_back(bearings_[base + k], row[k]);
    }
    std::sort(out.begin(), out.end());
  }

  /// First dart out of u counter-clockwise from `aim` (lowest id on ties).
  Dart first_dart(NodeId u, double aim) const {
    const std::size_t base = g_.neighbor_offset(u);
    Dart pick = kNoDart;
    double best = kTwoPi + 1.0;
    for (std::size_t k = 0; k < g_.degree(u); ++k) {
      double sweep = ccw_delta(aim, bearings_[base + k]);
      if (sweep < best) {
        best = sweep;
        pick = static_cast<Dart>(base + k);
      }
    }
    return pick;
  }

  /// The node a dart out of `tail` points at.
  NodeId head(NodeId tail, Dart d) const {
    return g_.neighbors(tail)[d - g_.neighbor_offset(tail)];
  }

  /// One sweep step of the boundary walk: arriving at `cur` along dart
  /// `in` (prev -> cur), the next boundary dart leads to the first neighbor
  /// counter-clockwise from the ray cur->prev. prev itself is excluded
  /// unless it is cur's only neighbor; a collinear-behind neighbor goes
  /// last, and an equal sweep goes to the lower id.
  Dart next_dart(NodeId cur, Dart in) {
    Dart& memo = successor_[in];
    if (memo != kNoDart) return memo;
    const Dart back = reverse_[in];
    const double start = bearings_[back];
    const Dart base = static_cast<Dart>(g_.neighbor_offset(cur));
    const Dart end = base + static_cast<Dart>(g_.degree(cur));
    Dart pick = kNoDart;
    double best = 0.0;
    for (Dart d = base; d < end; ++d) {
      if (d == back) continue;
      double sweep = ccw_delta(start, bearings_[d]);
      if (sweep == 0.0) sweep = kTwoPi;  // collinear-behind goes last
      if (pick == kNoDart || sweep < best) {
        pick = d;
        best = sweep;
      }
    }
    memo = pick == kNoDart ? back : pick;
    return memo;
  }

 private:
  const UnitDiskGraph& g_;
  std::vector<double> bearings_;
  std::vector<Dart> reverse_;    ///< slot of u in v's row, for dart u->v
  std::vector<Dart> successor_;  ///< kNoDart until first asked
};

}  // namespace

bool tent_rule_stuck(const UnitDiskGraph& g, NodeId u) {
  Vec2 pu = g.position(u);
  AngularRow by_angle;
  by_angle.reserve(g.degree(u));
  for (NodeId v : g.neighbors(u)) by_angle.emplace_back(bearing(pu, g.position(v)), v);
  std::sort(by_angle.begin(), by_angle.end());
  return tent_rule(g, u, by_angle);
}

BoundHoleInfo::BoundHoleInfo(const UnitDiskGraph& g) {
  const std::size_t n = g.size();
  stuck_.assign(n, false);
  boundary_of_.assign(n, -1);
  cycle_pos_.assign(n, -1);

  RotationTable table(g);
  AngularRow row;
  for (NodeId u = 0; u < n; ++u) {
    if (!g.alive(u) || g.degree(u) == 0) continue;
    table.angular_row(u, row);
    stuck_[u] = tent_rule(g, u, row);
  }

  const std::size_t cap = kMaxCycleFactor * std::max<std::size_t>(n, 1);
  for (NodeId t0 = 0; t0 < n; ++t0) {
    if (!stuck_[t0] || boundary_of_[t0] != -1) continue;
    if (g.degree(t0) < 2) continue;  // no cycle through a leaf

    // First step: sweep counter-clockwise from the hole-ward direction.
    table.angular_row(t0, row);
    Dart dart = table.first_dart(t0, widest_gap_bisector(row));
    if (dart == kNoDart) continue;
    NodeId cur = table.head(t0, dart);

    std::vector<NodeId> cycle{t0, cur};
    bool closed = false;
    for (std::size_t step = 0; step < cap; ++step) {
      const Dart out = table.next_dart(cur, dart);
      const NodeId next = table.head(cur, out);
      if (next == t0 && cur != t0) {
        closed = true;
        break;
      }
      cycle.push_back(next);
      dart = out;
      cur = next;
    }
    if (!closed || cycle.size() < 3) continue;

    // Discard degenerate mega-walks: a genuine hole boundary is a small
    // fraction of the network (its node count scales with the hole
    // perimeter). Self-crossing sweeps can "close" after wandering most of
    // the graph; walking those during recovery would dwarf the detour the
    // boundary is meant to shorten.
    if (cycle.size() > std::max<std::size_t>(16, n / 4)) continue;

    // Discard the outer face: a "boundary" that encircles most of the
    // deployment is the network edge, not a hole (the BOUNDHOLE paper
    // excludes it as well). Detected by loop area against the field.
    {
      double area2 = 0.0;
      for (std::size_t i = 0, j = cycle.size() - 1; i < cycle.size(); j = i++) {
        area2 += g.position(cycle[j]).cross(g.position(cycle[i]));
      }
      double loop_area = std::abs(0.5 * area2);
      double field_area = g.bounds().area();
      if (field_area > 0.0 && loop_area > 0.4 * field_area) continue;
    }

    int index = static_cast<int>(boundaries_.size());
    // A node can appear twice in a degenerate sweep; keep the first slot.
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      NodeId v = cycle[i];
      if (boundary_of_[v] == -1) {
        boundary_of_[v] = index;
        cycle_pos_[v] = static_cast<int>(i);
      }
    }
    boundaries_.push_back(HoleBoundary{std::move(cycle)});
  }
}

std::size_t BoundHoleInfo::stuck_count() const noexcept {
  return static_cast<std::size_t>(std::count(stuck_.begin(), stuck_.end(), true));
}

}  // namespace spr
