#include "support/boundhole_reference.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "geometry/angle.h"
#include "geometry/segment.h"

namespace spr::test {

bool tent_rule_stuck_reference(const UnitDiskGraph& g, NodeId u) {
  auto nbrs = g.neighbors(u);
  if (nbrs.size() < 2) return true;
  Vec2 pu = g.position(u);

  // Angular order of neighbors around u.
  std::vector<std::pair<double, NodeId>> by_angle;
  by_angle.reserve(nbrs.size());
  for (NodeId v : nbrs) by_angle.emplace_back(bearing(pu, g.position(v)), v);
  std::sort(by_angle.begin(), by_angle.end());

  // TENT rule, exact form. u is stuck for some destination just beyond the
  // radio disc in the angular gap between adjacent neighbors v1, v2 iff a
  // direction theta in the gap satisfies |r*theta - v_i| > r for both,
  // i.e. angle(theta, v_i) > alpha_i with alpha_i = arccos(|u v_i| / 2r).
  // Such a theta exists iff gap > alpha_1 + alpha_2. With |u v_i| <= r the
  // alphas are in [60, 90] degrees, recovering the classic "every gap below
  // 120 degrees is never stuck" bound.
  const double range = g.range();
  auto alpha = [&](NodeId v) {
    double cosv = std::clamp(distance(pu, g.position(v)) / (2.0 * range), 0.0, 1.0);
    return std::acos(cosv);
  };
  for (std::size_t i = 0; i < by_angle.size(); ++i) {
    const auto& [a1, v1] = by_angle[i];
    const auto& [a2, v2] = by_angle[(i + 1) % by_angle.size()];
    // Wrap-around pair: the sweep from the last bearing back to the first
    // covers the remainder of the circle (2*pi when all bearings coincide).
    double gap = ccw_delta(a1, a2);
    if (i + 1 == by_angle.size() && gap == 0.0) gap = kTwoPi;
    if (gap == 0.0) continue;
    if (gap > alpha(v1) + alpha(v2) + 1e-12) return true;
  }
  return false;
}

namespace {

/// One sweep step of the boundary walk: arriving at `u` from `prev`, the
/// next boundary node is the first neighbor counter-clockwise from the ray
/// u->prev (excluding prev itself unless it is the only neighbor).
NodeId boundary_step(const UnitDiskGraph& g, NodeId u, NodeId prev) {
  Vec2 pu = g.position(u);
  double start = bearing(pu, g.position(prev));
  NodeId pick = kInvalidNode;
  double best = 0.0;
  for (NodeId v : g.neighbors(u)) {
    if (v == prev) continue;
    double sweep = ccw_delta(start, bearing(pu, g.position(v)));
    if (sweep == 0.0) sweep = kTwoPi;  // collinear-behind goes last
    if (pick == kInvalidNode || sweep < best) {
      pick = v;
      best = sweep;
    }
  }
  return pick == kInvalidNode ? prev : pick;
}

/// Direction bisecting the widest angular gap of u's neighbors — the most
/// "hole-ward" direction, used to aim the first step of the walk.
double widest_gap_bisector(const UnitDiskGraph& g, NodeId u) {
  auto nbrs = g.neighbors(u);
  Vec2 pu = g.position(u);
  if (nbrs.empty()) return 0.0;
  std::vector<double> angles;
  angles.reserve(nbrs.size());
  for (NodeId v : nbrs) angles.push_back(bearing(pu, g.position(v)));
  std::sort(angles.begin(), angles.end());
  double best_gap = -1.0, best_mid = 0.0;
  for (std::size_t i = 0; i < angles.size(); ++i) {
    double a1 = angles[i];
    double a2 = angles[(i + 1) % angles.size()];
    double gap = ccw_delta(a1, a2);
    if (angles.size() == 1) gap = kTwoPi;
    if (gap > best_gap) {
      best_gap = gap;
      best_mid = normalize_angle(a1 + gap / 2.0);
    }
  }
  return best_mid;
}

}  // namespace

ReferenceBoundHole boundhole_reference(const UnitDiskGraph& g,
                                       std::size_t max_cycle_factor) {
  ReferenceBoundHole out;
  auto& stuck_ = out.stuck;
  auto& boundary_of_ = out.boundary_of;
  auto& cycle_pos_ = out.cycle_pos;
  auto& boundaries_ = out.boundaries;

  const std::size_t n = g.size();
  stuck_.assign(n, false);
  boundary_of_.assign(n, -1);
  cycle_pos_.assign(n, -1);

  for (NodeId u = 0; u < n; ++u) {
    if (g.alive(u) && g.degree(u) > 0) stuck_[u] = tent_rule_stuck_reference(g, u);
  }

  const std::size_t cap = max_cycle_factor * std::max<std::size_t>(n, 1);
  for (NodeId t0 = 0; t0 < n; ++t0) {
    if (!stuck_[t0] || boundary_of_[t0] != -1) continue;
    if (g.degree(t0) < 2) continue;  // no cycle through a leaf

    // First step: sweep counter-clockwise from the hole-ward direction.
    Vec2 p0 = g.position(t0);
    double aim = widest_gap_bisector(g, t0);
    NodeId t1 = kInvalidNode;
    double best = kTwoPi + 1.0;
    for (NodeId v : g.neighbors(t0)) {
      double sweep = ccw_delta(aim, bearing(p0, g.position(v)));
      if (sweep < best) {
        best = sweep;
        t1 = v;
      }
    }
    if (t1 == kInvalidNode) continue;

    std::vector<NodeId> cycle{t0, t1};
    NodeId prev = t0, cur = t1;
    bool closed = false;
    for (std::size_t step = 0; step < cap; ++step) {
      NodeId next = boundary_step(g, cur, prev);
      if (next == t0 && cur != t0) {
        closed = true;
        break;
      }
      cycle.push_back(next);
      prev = cur;
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
  return out;
}

}  // namespace spr::test
