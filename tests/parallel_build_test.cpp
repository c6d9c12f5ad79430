/// \file parallel_build_test.cpp
/// Within-network build parallelism: unit-disk adjacency, the quadrant
/// zones and the safety labeling's four per-type anchor passes fan out over
/// a TaskPool with node-id-ordered merges, so the built structures must be
/// bit-identical to a serial build for every pool size.

#include <gtest/gtest.h>

#include "core/network.h"
#include "safety/labeling.h"
#include "test_helpers.h"
#include "util/task_pool.h"

namespace spr {
namespace {

void expect_same_graph(const UnitDiskGraph& a, const UnitDiskGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (NodeId u = 0; u < a.size(); ++u) {
    auto na = a.neighbors(u);
    auto nb = b.neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i], nb[i]) << "node " << u;
    }
  }
}

TEST(ParallelBuild, AdjacencyIdenticalAcrossPoolSizes) {
  // 600 nodes clears the parallel grain threshold (2 * 256).
  Deployment d = test::dense_grid_deployment(600, 5);
  UnitDiskGraph serial(d.positions, d.radio_range, d.field);
  for (int threads : {2, 3, 7}) {
    TaskPool pool(threads);
    UnitDiskGraph parallel(d.positions, d.radio_range, d.field, &pool);
    expect_same_graph(serial, parallel);
  }
}

TEST(ParallelBuild, SafetyLabelingIdenticalAcrossPoolSizes) {
  Deployment d = test::dense_grid_deployment(600, 7);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  InterestArea area(g, d.radio_range);
  SafetyInfo serial = compute_safety(g, area);
  for (int threads : {2, 5}) {
    TaskPool pool(threads);
    SafetyInfo parallel = compute_safety(g, area, &pool);
    EXPECT_EQ(serial, parallel);
  }
}

TEST(ParallelBuild, SafetyLabelingWithHolesIdentical) {
  // A punched-out void produces real unsafe areas, so the pooled anchor
  // pass has unsafe chains to resolve.
  Deployment d = test::grid_with_void(
      26, 12.0, Rect::from_bounds({120.0, 120.0}, {200.0, 200.0}));
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  InterestArea area(g, d.radio_range);
  SafetyInfo serial = compute_safety(g, area);
  ASSERT_GT(serial.unsafe_node_count(), 0u);  // the fixture must have holes
  TaskPool pool(4);
  SafetyInfo parallel = compute_safety(g, area, &pool);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelBuild, NetworkWithBuildPoolRoutesIdentically) {
  NetworkConfig config;
  config.deployment.node_count = 600;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 11;
  Network serial_net = Network::create(config);

  TaskPool pool(3);
  config.build_pool = &pool;
  Network parallel_net = Network::create(config);

  expect_same_graph(serial_net.graph(), parallel_net.graph());
  EXPECT_EQ(serial_net.safety(), parallel_net.safety());

  Rng rng(13);
  auto [s, dst] = serial_net.random_connected_interior_pair(rng);
  ASSERT_NE(s, kInvalidNode);
  for (Scheme scheme : {Scheme::kGf, Scheme::kSlgf2}) {
    PathResult a = serial_net.make_router(scheme)->route(s, dst);
    PathResult b = parallel_net.make_router(scheme)->route(s, dst);
    EXPECT_EQ(a.path, b.path) << scheme_name(scheme);
    EXPECT_EQ(a.length, b.length) << scheme_name(scheme);
  }
}

}  // namespace
}  // namespace spr
