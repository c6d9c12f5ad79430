#include "deploy/deployment.h"

#include <gtest/gtest.h>

#include <string>

#include "test_helpers.h"
#include "util/check.h"

namespace spr {
namespace {

TEST(Deployment, IaPlacesRequestedCount) {
  DeploymentConfig config;
  config.node_count = 500;
  Rng rng(1);
  Deployment d = deploy(config, rng);
  EXPECT_EQ(d.positions.size(), 500u);
  EXPECT_TRUE(d.forbidden_areas.empty());
  EXPECT_DOUBLE_EQ(d.radio_range, 20.0);
}

TEST(Deployment, IaPositionsInsideField) {
  DeploymentConfig config;
  config.node_count = 400;
  Rng rng(2);
  Deployment d = deploy(config, rng);
  for (Vec2 p : d.positions) EXPECT_TRUE(config.field.contains(p));
}

TEST(Deployment, IaIsDeterministicPerSeed) {
  DeploymentConfig config;
  config.node_count = 100;
  Rng r1(42), r2(42);
  Deployment a = deploy(config, r1);
  Deployment b = deploy(config, r2);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
  }
}

TEST(Deployment, IaUniformCoverage) {
  // Quadrant counts of a 2000-node draw should be roughly balanced.
  DeploymentConfig config;
  config.node_count = 2000;
  Rng rng(3);
  Deployment d = deploy(config, rng);
  int counts[4] = {0, 0, 0, 0};
  for (Vec2 p : d.positions) {
    int qx = p.x < 100.0 ? 0 : 1;
    int qy = p.y < 100.0 ? 0 : 1;
    ++counts[qx * 2 + qy];
  }
  for (int c : counts) EXPECT_NEAR(c, 500, 120);
}

TEST(Deployment, FaCreatesForbiddenAreas) {
  DeploymentConfig config;
  config.model = DeployModel::kForbiddenAreas;
  config.node_count = 300;
  Rng rng(4);
  Deployment d = deploy(config, rng);
  EXPECT_GE(d.forbidden_areas.size(),
            static_cast<std::size_t>(config.min_forbidden_areas));
  EXPECT_LE(d.forbidden_areas.size(),
            static_cast<std::size_t>(config.max_forbidden_areas));
}

TEST(Deployment, FaNodesNeverInsideForbiddenAreas) {
  DeploymentConfig config;
  config.model = DeployModel::kForbiddenAreas;
  config.node_count = 600;
  for (std::uint64_t seed : {5ull, 6ull, 7ull, 8ull}) {
    Rng rng(seed);
    Deployment d = deploy(config, rng);
    EXPECT_EQ(d.positions.size(), 600u);
    for (Vec2 p : d.positions) {
      EXPECT_FALSE(d.in_forbidden_area(p)) << "seed " << seed;
    }
  }
}

TEST(Deployment, FaForbiddenAreasHaveSaneExtent) {
  DeploymentConfig config;
  config.model = DeployModel::kForbiddenAreas;
  Rng rng(9);
  Deployment d = deploy(config, rng);
  for (const Polygon& area : d.forbidden_areas) {
    Rect box = area.bounding_box();
    EXPECT_LE(box.width(), config.max_forbidden_extent + 1e-9);
    EXPECT_LE(box.height(), config.max_forbidden_extent + 1e-9);
    EXPECT_GT(area.area(), 0.0);
  }
}

TEST(Deployment, InForbiddenAreaQuery) {
  Deployment d;
  d.forbidden_areas.push_back(
      Polygon::from_rect(Rect::from_corners({10.0, 10.0}, {20.0, 20.0})));
  EXPECT_TRUE(d.in_forbidden_area({15.0, 15.0}));
  EXPECT_FALSE(d.in_forbidden_area({5.0, 5.0}));
}

TEST(Deployment, PerturbedGridCoversField) {
  DeploymentConfig config;
  config.node_count = 400;
  Rng rng(10);
  Deployment d = test::deploy_perturbed_grid(config, rng);
  EXPECT_EQ(d.positions.size(), 400u);  // 20 x 20
  // Every 20m x 20m tile should be populated for a 200m field with 400 nodes.
  int tiles[10][10] = {};
  for (Vec2 p : d.positions) {
    int tx = std::min(9, static_cast<int>(p.x / 20.0));
    int ty = std::min(9, static_cast<int>(p.y / 20.0));
    tiles[std::max(0, tx)][std::max(0, ty)]++;
  }
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) EXPECT_GT(tiles[x][y], 0);
  }
}

/// deploy() rejects `config` with a CheckError naming `field`.
void expect_rejected(const DeploymentConfig& config, const std::string& field) {
  ScopedCheckHandler scoped(throwing_check_handler);
  Rng rng(1);
  try {
    deploy(config, rng);
    ADD_FAILURE() << "deploy accepted a bad " << field;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(Deployment, RejectsNegativeNodeCount) {
  DeploymentConfig config;
  config.node_count = -5;
  expect_rejected(config, "node_count");
}

TEST(Deployment, RejectsFaKnobsNoFieldCanHonour) {
  DeploymentConfig base;
  base.model = DeployModel::kForbiddenAreas;
  {
    DeploymentConfig config = base;
    config.min_forbidden_areas = 6;  // max is 5
    expect_rejected(config, "min_forbidden_areas");
  }
  {
    DeploymentConfig config = base;
    config.min_forbidden_areas = -1;
    expect_rejected(config, "min_forbidden_areas");
  }
  {
    DeploymentConfig config = base;
    config.min_forbidden_extent = 100.0;  // max is 90
    expect_rejected(config, "min_forbidden_extent");
  }
  for (double fraction : {-0.1, 1.5}) {
    DeploymentConfig config = base;
    config.irregular_fraction = fraction;
    expect_rejected(config, "irregular_fraction");
  }
  // Half the 200 m field or more leaves no room for a hole centre.
  for (double margin : {-1.0, 100.0, 1e6}) {
    DeploymentConfig config = base;
    config.forbidden_margin = margin;
    expect_rejected(config, "forbidden_margin");
  }
}

TEST(Deployment, ZeroNodesAndIaIgnoredFaKnobsAreValid) {
  ScopedCheckHandler scoped(throwing_check_handler);
  for (DeployModel model : {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    DeploymentConfig config;
    config.model = model;
    config.node_count = 0;
    Rng rng(2);
    EXPECT_TRUE(deploy(config, rng).positions.empty());
  }
  // The FA knobs mean nothing under IA, so they are not checked there.
  DeploymentConfig config;
  config.node_count = 10;
  config.forbidden_margin = 1e6;
  config.irregular_fraction = 2.0;
  Rng rng(3);
  EXPECT_EQ(deploy(config, rng).positions.size(), 10u);
}

TEST(Deployment, AttemptCapDoesNotOverflowForLargeCounts) {
  // 1000 attempts per node passes INT_MAX from 2,147,484 nodes on.
  DeploymentConfig config;
  config.node_count = 2'147'484;
  Rng rng(4);
  EXPECT_EQ(deploy(config, rng).positions.size(), 2'147'484u);
}

TEST(Deployment, CustomField) {
  DeploymentConfig config;
  config.field = Rect::from_bounds({-50.0, -50.0}, {50.0, 50.0});
  config.node_count = 50;
  Rng rng(11);
  Deployment d = deploy(config, rng);
  for (Vec2 p : d.positions) EXPECT_TRUE(config.field.contains(p));
}

}  // namespace
}  // namespace spr
