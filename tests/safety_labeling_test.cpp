#include "safety/labeling.h"

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/angle.h"
#include "support/safety_oracles.h"
#include "test_helpers.h"

namespace spr {
namespace {

/// Fig. 3-style fixture: a pocket {u1, u2} with empty type-1 forwarding
/// zones, their predecessor u, and a deeper predecessor w — surrounded by a
/// far-away ring that owns the convex hull (so the pocket is interior).
class PocketFixture : public ::testing::Test {
 protected:
  PocketFixture() {
    // Ring of hull nodes at radius 150 around (100,100).
    for (int i = 0; i < 8; ++i) {
      double a = kTwoPi * i / 8;
      positions_.push_back({100.0 + 150.0 * std::cos(a),
                            100.0 + 150.0 * std::sin(a)});
    }
    w_ = add({90.0, 100.0});
    u_ = add({100.0, 100.0});
    u1_ = add({110.0, 105.0});
    u2_ = add({105.0, 110.0});
    graph_.emplace(test::make_graph(positions_, 20.0));
    area_.emplace(*graph_, 1.0);
    info_ = compute_safety(*graph_, *area_);
  }

  NodeId add(Vec2 p) {
    positions_.push_back(p);
    return static_cast<NodeId>(positions_.size() - 1);
  }

  std::vector<Vec2> positions_;
  std::optional<UnitDiskGraph> graph_;
  std::optional<InterestArea> area_;
  SafetyInfo info_;
  NodeId w_, u_, u1_, u2_;
};

TEST_F(PocketFixture, PocketNodesAreInterior) {
  EXPECT_FALSE(area_->is_edge_node(u_));
  EXPECT_FALSE(area_->is_edge_node(u1_));
  EXPECT_FALSE(area_->is_edge_node(u2_));
  EXPECT_FALSE(area_->is_edge_node(w_));
}

TEST_F(PocketFixture, FirstRoundFlips) {
  // u1 and u2 have no neighbor in their type-1 forwarding zones.
  EXPECT_FALSE(info_.is_safe(u1_, ZoneType::k1));
  EXPECT_FALSE(info_.is_safe(u2_, ZoneType::k1));
}

TEST_F(PocketFixture, SecondRoundPropagation) {
  // u's only type-1 neighbors are the (unsafe) u1, u2; w's are u and u2.
  EXPECT_FALSE(info_.is_safe(u_, ZoneType::k1));
  EXPECT_FALSE(info_.is_safe(w_, ZoneType::k1));
}

TEST_F(PocketFixture, EdgeNodesStayAllSafe) {
  for (NodeId i = 0; i < 8; ++i) {
    EXPECT_EQ(info_.tuple(i).to_string(), "(1,1,1,1)");
  }
}

TEST_F(PocketFixture, AnchorsSelfWhenZoneEmpty) {
  const auto& a1 = info_.tuple(u1_).anchors_for(ZoneType::k1);
  EXPECT_EQ(a1.first, u1_);
  EXPECT_EQ(a1.last, u1_);
  const auto& a2 = info_.tuple(u2_).anchors_for(ZoneType::k1);
  EXPECT_EQ(a2.first, u2_);
  EXPECT_EQ(a2.last, u2_);
}

TEST_F(PocketFixture, AnchorsFollowFirstAndLastScanChains) {
  // At u: CCW scan of Q1 hits u1 first (lower bearing), u2 last.
  const auto& au = info_.tuple(u_).anchors_for(ZoneType::k1);
  EXPECT_EQ(au.first, u1_);
  EXPECT_EQ(au.last, u2_);
  // At w: first hit is u (bearing 0), whose first-anchor is u1.
  const auto& aw = info_.tuple(w_).anchors_for(ZoneType::k1);
  EXPECT_EQ(aw.first, u1_);
  EXPECT_EQ(aw.last, u2_);
}

TEST_F(PocketFixture, EstimatedAreaIsPaperRectangle) {
  // E_1(u) = [x_u : x_{u(1)}, y_u : y_{u(2)}] = [100:110, 100:110].
  const auto& au = info_.tuple(u_).anchors_for(ZoneType::k1);
  Rect e = estimated_area(graph_->position(u_), au);
  EXPECT_EQ(e.lo(), Vec2(100.0, 100.0));
  EXPECT_EQ(e.hi(), Vec2(110.0, 110.0));
  // E_1(w) = [90:110, 100:110].
  const auto& aw = info_.tuple(w_).anchors_for(ZoneType::k1);
  Rect ew = estimated_area(graph_->position(w_), aw);
  EXPECT_EQ(ew.lo(), Vec2(90.0, 100.0));
  EXPECT_EQ(ew.hi(), Vec2(110.0, 110.0));
}

TEST(SafetyLabeling, HoleFreeGridHasNoUnsafeInterior) {
  Deployment d = test::dense_grid_deployment(400, 3);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  InterestArea area(g, d.radio_range);
  SafetyInfo info = compute_safety(g, area);
  for (NodeId u : area.interior_nodes()) {
    EXPECT_TRUE(info.tuple(u).any_safe());
    // A dense perturbed grid leaves every interior node fully safe.
    EXPECT_EQ(info.tuple(u).to_string(), "(1,1,1,1)") << "node " << u;
  }
}

TEST(SafetyLabeling, ForbiddenAreaNetworksHaveUnsafeNodes) {
  // Large holes create quadrant pockets; across seeds, unsafe nodes appear.
  std::size_t total_unsafe = 0;
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    total_unsafe += net.safety().unsafe_node_count();
  }
  EXPECT_GT(total_unsafe, 0u);
}

TEST(SafetyLabeling, WorklistMatchesRoundBased) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(300, seed, DeployModel::kForbiddenAreas);
    SafetyInfo round_based =
        test::compute_safety_round_based(net.graph(), net.interest_area());
    EXPECT_EQ(net.safety(), round_based) << "seed " << seed;
  }
}

TEST(SafetyLabeling, FixpointConsistency) {
  // At the fixpoint: interior safe node => has a safe same-type neighbor in
  // the quadrant; unsafe node => every quadrant neighbor is unsafe.
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(400, seed, DeployModel::kForbiddenAreas);
    const auto& g = net.graph();
    const auto& info = net.safety();
    const auto& area = net.interest_area();
    for (NodeId u = 0; u < g.size(); ++u) {
      Vec2 pu = g.position(u);
      for (ZoneType t : kAllZoneTypes) {
        bool has_safe_neighbor = false;
        for (NodeId v : g.neighbors(u)) {
          if (in_quadrant(pu, g.position(v), t) && info.is_safe(v, t)) {
            has_safe_neighbor = true;
            break;
          }
        }
        if (area.is_edge_node(u)) {
          EXPECT_TRUE(info.is_safe(u, t));
        } else if (info.is_safe(u, t)) {
          EXPECT_TRUE(has_safe_neighbor)
              << "safe node " << u << " lacks safe successor, seed " << seed;
        } else {
          EXPECT_FALSE(has_safe_neighbor)
              << "unsafe node " << u << " has safe successor, seed " << seed;
        }
      }
    }
  }
}

TEST(SafetyLabeling, MonotoneUnderDensification) {
  // Adding nodes can only make existing nodes safer (more safe successors),
  // never less safe... this does NOT hold in general (new nodes can be
  // unsafe and new edges don't remove old safe successors, but new unsafe
  // nodes never *cause* flips of previously safe nodes: a previously safe
  // node keeps its safe successor). We assert exactly that weaker form.
  Deployment base = test::dense_grid_deployment(324, 5);  // 18x18
  UnitDiskGraph g1(base.positions, base.radio_range, base.field);
  InterestArea a1(g1, base.radio_range);
  SafetyInfo i1 = compute_safety(g1, a1);

  // Insert strictly interior nodes so the hull (and thus the edge-node set)
  // is unchanged and the greatest-fixpoint argument applies.
  Deployment denser = base;
  Rng rng(99);
  for (int i = 0; i < 80; ++i) {
    denser.positions.push_back({rng.uniform(40.0, 160.0), rng.uniform(40.0, 160.0)});
  }
  UnitDiskGraph g2(denser.positions, denser.radio_range, denser.field);
  InterestArea a2(g2, denser.radio_range);
  SafetyInfo i2 = compute_safety(g2, a2);

  for (NodeId u = 0; u < g1.size(); ++u) {
    if (a1.is_edge_node(u) || a2.is_edge_node(u)) continue;
    for (ZoneType t : kAllZoneTypes) {
      if (i1.is_safe(u, t)) {
        EXPECT_TRUE(i2.is_safe(u, t)) << "node " << u << " type "
                                      << static_cast<int>(t);
      }
    }
  }
}

TEST(SafetyLabeling, AnchorsPresentForEveryUnsafeType) {
  Network net = test::random_network(400, 31, DeployModel::kForbiddenAreas);
  const auto& info = net.safety();
  for (NodeId u = 0; u < info.size(); ++u) {
    for (ZoneType t : kAllZoneTypes) {
      if (!info.is_safe(u, t)) {
        EXPECT_TRUE(info.tuple(u).anchors_for(t).valid())
            << "unsafe node " << u << " lacks anchors";
      }
    }
  }
}

TEST(SafetyLabeling, TupleToString) {
  SafetyTuple t;
  EXPECT_EQ(t.to_string(), "(1,1,1,1)");
  t.set_safe(ZoneType::k2, false);
  EXPECT_EQ(t.to_string(), "(1,0,1,1)");
  EXPECT_TRUE(t.any_safe());
  EXPECT_FALSE(t.all_unsafe());
  for (ZoneType z : kAllZoneTypes) t.set_safe(z, false);
  EXPECT_EQ(t.to_string(), "(0,0,0,0)");
  EXPECT_TRUE(t.all_unsafe());
}

}  // namespace
}  // namespace spr
