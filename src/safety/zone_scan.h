#pragma once

/// \file zone_scan.h
/// The first/last-path successor selection of Algorithm 2, shared between
/// the flat labeling kernel (safety/flat_kernel.h), the scalar oracle
/// (tests/support/safety_oracles.cpp) and the distributed protocol's per-node tuple
/// recompute (safety/distributed.cpp) so none of the paths can drift: all
/// feed the type-t unsafe quadrant members in ascending id order and read
/// off the same winners.
///
/// Selection rule (paper Fig. 4): rotate a ray counter-clockwise across
/// Q_t(u) from the quadrant's clockwise boundary; the *first* unsafe
/// neighbor hit starts the first path, the *last* one the last path. Ties
/// at the same bearing go to the nearer node; remaining ties keep the
/// earlier (lower-id) candidate, which is why feeding order matters.
///
/// All candidates lie inside one quadrant of the pivot — a 90° sector — so
/// counter-clockwise order between two candidates is exactly the sign of
/// the cross product of their pivot-relative vectors. The comparisons below
/// are therefore exact (a tie means truly collinear rays) and cost no
/// transcendental per candidate, which is what makes the anchor pass cheap
/// at 10^5-node fields.

#include "geometry/quadrant.h"
#include "geometry/vec2.h"
#include "graph/node.h"

namespace spr {

class FirstLastScan {
 public:
  FirstLastScan(Vec2 pivot, ZoneType /*t*/) noexcept : pivot_(pivot) {}

  /// Feeds one candidate; call in ascending id order.
  void consider(NodeId v, Vec2 pv) noexcept {
    if (first_ == kInvalidNode) {
      first_ = last_ = v;
      first_pos_ = last_pos_ = pv;
      return;
    }
    const Vec2 dv = pv - pivot_;
    // dv.cross(df) > 0: the current first is counter-clockwise of v, so v
    // is hit earlier in the sweep.
    const double cf = dv.cross(first_pos_ - pivot_);
    if (cf > 0.0 ||
        (cf == 0.0 &&
         distance_sq(pivot_, pv) < distance_sq(pivot_, first_pos_))) {
      first_ = v;
      first_pos_ = pv;
    }
    const double cl = (last_pos_ - pivot_).cross(dv);
    if (cl > 0.0 ||
        (cl == 0.0 &&
         distance_sq(pivot_, pv) < distance_sq(pivot_, last_pos_))) {
      last_ = v;
      last_pos_ = pv;
    }
  }

  bool empty() const noexcept { return first_ == kInvalidNode; }
  NodeId first() const noexcept { return first_; }
  NodeId last() const noexcept { return last_; }
  Vec2 first_pos() const noexcept { return first_pos_; }
  Vec2 last_pos() const noexcept { return last_pos_; }

 private:
  Vec2 pivot_;
  NodeId first_ = kInvalidNode;
  NodeId last_ = kInvalidNode;
  Vec2 first_pos_{};
  Vec2 last_pos_{};
};

}  // namespace spr
