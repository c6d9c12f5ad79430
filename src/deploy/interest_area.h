#pragma once

/// \file interest_area.h
/// The interest area and edge-node classification (paper Section 3).
///
/// "We assume that all of the communication actions occur inside the
///  interest area. This area is an inner part of the deployment area
///  encircled by the edge of networks, which can easily be built by the hull
///  algorithm. In our labeling process, each edge node will always keep its
///  status tuple as (1,1,1,1)."
///
/// We classify a node as an *edge node* when it lies on the convex hull of
/// the deployment or within `edge_band` of the hull boundary (default: one
/// radio range). Sources and destinations are drawn from the complementary
/// set of interior nodes.

#include <vector>

#include "geometry/vec2.h"
#include "graph/node.h"
#include "graph/unit_disk.h"

namespace spr {

/// Edge/interior classification of one network.
///
/// Classification skips the exact hull distances for nodes deep inside the
/// hull (see the constructor). Carry rule: the hull spans every position,
/// dead nodes included, so aliveness reaches an area only through its
/// interior list. A failure wave keeps the hull and every edge flag
/// (`with_failures`); moved positions need a fresh area, since any move
/// near the hull may change it.
class InterestArea {
 public:
  /// Classifies nodes of `g`; `edge_band` is the distance from the hull
  /// boundary within which a node counts as an edge node. A node deeper
  /// than `edge_band` behind every hull edge's supporting line is interior
  /// without the exact segment distances (inside a convex hull the
  /// boundary is never nearer than the nearest supporting line); only the
  /// rest pay `distance_to_hull_boundary`. The flags equal the exact
  /// classification of every node.
  InterestArea(const UnitDiskGraph& g, double edge_band);

  /// Adopts a precomputed classification (`edge_flags.size() == g.size()`),
  /// deriving the interior set from it; `with_failures` carries a parent
  /// area over this way. `hull` is stored verbatim and may be empty.
  InterestArea(const UnitDiskGraph& g, std::vector<bool> edge_flags,
               std::vector<Vec2> hull);

  /// The area of `degraded`, a failure sibling of the graph this area was
  /// built over (`UnitDiskGraph::with_failures`: same positions, fewer live
  /// nodes). Hull and edge flags carry over verbatim; only the interior
  /// list is re-derived from aliveness. Equal to a fresh
  /// `InterestArea(degraded, band)` at this area's band.
  InterestArea with_failures(const UnitDiskGraph& degraded) const;

  bool is_edge_node(NodeId u) const noexcept { return edge_[u]; }

  /// Interior node ids (candidate sources/destinations).
  const std::vector<NodeId>& interior_nodes() const noexcept { return interior_; }

  /// Hull vertices of the deployment, CCW.
  const std::vector<Vec2>& hull() const noexcept { return hull_; }

  std::size_t edge_count() const noexcept;

 private:
  std::vector<bool> edge_;
  std::vector<NodeId> interior_;
  std::vector<Vec2> hull_;
};

}  // namespace spr
