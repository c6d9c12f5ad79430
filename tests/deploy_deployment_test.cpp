#include "deploy/deployment.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "support/deploy_reference.h"
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

/// Every coordinate's bit pattern, so that equality means bit identity.
std::vector<std::uint64_t> coordinate_bits(const std::vector<Vec2>& points) {
  std::vector<std::uint64_t> bits;
  bits.reserve(2 * points.size());
  for (Vec2 p : points) {
    bits.push_back(std::bit_cast<std::uint64_t>(p.x));
    bits.push_back(std::bit_cast<std::uint64_t>(p.y));
  }
  return bits;
}

/// deploy's box-gated forbidden-area test against the ungated rejection
/// sampler (tests/support/deploy_reference.h): the same areas and positions
/// bit for bit, and the same number of RNG draws, over many seeds of the
/// paper's FA model and over hostile FA configs. The tiny field is a few
/// boundary tolerances wide, so many draws land within 1e-9 outside an
/// area's bounding box, where only the tolerance rejects them; the far
/// field sits at 1e9, where rounding dwarfs the tolerance.
TEST(Deployment, GatedSamplerEqualsUngatedReference) {
  struct Case {
    const char* name;
    DeploymentConfig config;
    int seeds;
  };
  auto fa = [](int n) {
    DeploymentConfig c;
    c.model = DeployModel::kForbiddenAreas;
    c.node_count = n;
    return c;
  };
  std::vector<Case> cases;
  cases.push_back({"paper", fa(600), 40});
  DeploymentConfig no_margin = fa(600);
  no_margin.forbidden_margin = 0.0;
  cases.push_back({"no margin", no_margin, 10});
  DeploymentConfig max_extent = fa(600);
  max_extent.min_forbidden_extent = max_extent.max_forbidden_extent = 160.0;
  max_extent.min_forbidden_areas = max_extent.max_forbidden_areas = 5;
  cases.push_back({"max extent", max_extent, 10});
  DeploymentConfig rects = fa(600);
  rects.irregular_fraction = 0.0;
  cases.push_back({"rectangles only", rects, 10});
  DeploymentConfig stars = fa(600);
  stars.irregular_fraction = 1.0;
  cases.push_back({"irregular only", stars, 10});
  DeploymentConfig tiny = fa(2000);
  tiny.field = Rect::from_bounds({0.0, 0.0}, {4e-8, 4e-8});
  tiny.min_forbidden_extent = 5e-9;
  tiny.max_forbidden_extent = 3e-8;
  tiny.forbidden_margin = 0.0;
  cases.push_back({"tiny field", tiny, 5});
  DeploymentConfig far = fa(600);
  far.field = Rect::from_bounds({1e9, 1e9}, {1e9 + 200.0, 1e9 + 200.0});
  cases.push_back({"far field", far, 5});
  for (const Case& c : cases) {
    for (int seed = 1; seed <= c.seeds; ++seed) {
      Rng gated_rng(static_cast<std::uint64_t>(seed));
      Rng ungated_rng(static_cast<std::uint64_t>(seed));
      Deployment gated = deploy(c.config, gated_rng);
      Deployment ungated = test::deploy_ungated(c.config, ungated_rng);
      ASSERT_EQ(gated.forbidden_areas.size(), ungated.forbidden_areas.size())
          << c.name << " seed " << seed;
      for (std::size_t a = 0; a < gated.forbidden_areas.size(); ++a) {
        EXPECT_EQ(coordinate_bits(gated.forbidden_areas[a].vertices()),
                  coordinate_bits(ungated.forbidden_areas[a].vertices()))
            << c.name << " seed " << seed << " area " << a;
      }
      EXPECT_EQ(coordinate_bits(gated.positions),
                coordinate_bits(ungated.positions))
          << c.name << " seed " << seed;
      EXPECT_EQ(gated_rng.next_u64(), ungated_rng.next_u64())
          << c.name << " seed " << seed << ": the draw counts differ";
    }
  }
}

}  // namespace
}  // namespace spr
