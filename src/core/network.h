#pragma once

/// \file network.h
/// The top-level facade: one deployed WASN with the structures the routers
/// need (unit-disk adjacency, interest area, safety information, planar
/// overlay, BOUNDHOLE boundaries) and a router factory.
///
/// Construction is two-tier. The *core* — deployment, unit-disk graph and
/// interest area — is built eagerly; everything routers may or may not need
/// (safety labeling, planar overlay, BOUNDHOLE) is *lazy*: memoized on first
/// access behind std::call_once, so concurrent sweep workers can share a
/// network safely and a scheme only ever pays for the structures it uses.
/// `make_router` forces exactly `needs_for(scheme)`; GF wires the network's
/// lazy accessors into the router so even its recovery structures are built
/// only if a packet actually hits a local minimum.
///
/// Typical use:
///
///   spr::NetworkConfig config;
///   config.deployment.node_count = 600;
///   config.seed = 42;
///   spr::Network net = spr::Network::create(config);
///   auto router = net.make_router(spr::Scheme::kSlgf2);
///   auto [s, d] = net.random_connected_interior_pair(rng);
///   spr::PathResult r = router->route(s, d);

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "deploy/deployment.h"
#include "deploy/interest_area.h"
#include "graph/planar.h"
#include "graph/unit_disk.h"
#include "routing/boundhole.h"
#include "routing/router.h"
#include "routing/slgf2.h"
#include "safety/incremental.h"
#include "safety/labeling.h"

namespace spr {

/// The routing schemes of the paper's evaluation (Figs. 5-7) plus the pure
/// face-routing GF variant.
enum class Scheme { kGf, kGfFace, kLgf, kSlgf, kSlgf2 };

/// Scheme display name ("GF", "LGF", "SLGF", "SLGF2", "GF/face").
const char* scheme_name(Scheme scheme) noexcept;

/// Parameters for drawing a network.
struct NetworkConfig {
  DeploymentConfig deployment;
  std::uint64_t seed = 1;
  /// Non-owning pool for *within-network* build parallelism: unit-disk
  /// adjacency, the quadrant zones and the safety labeling's per-type
  /// anchor passes fan out over it with deterministic (node-id-ordered)
  /// merges, so the network is bit-identical for every thread count. Must
  /// outlive the Network (lazy structures may build late). Leave null when
  /// networks are themselves built on pool workers (the sweep cells do) —
  /// nesting would deadlock the pool.
  TaskPool* build_pool = nullptr;
};

/// One concrete network. Derived structures build on demand (see file
/// comment); accessors hand out stable references — the memoized objects
/// live until the network is destroyed.
class Network {
 public:
  /// Which derived structures a consumer requires (bitmask).
  enum Needs : unsigned {
    kNeedsNone = 0,
    kNeedsSafety = 1u << 0,     ///< safety labeling (SLGF/SLGF2)
    kNeedsOverlay = 1u << 1,    ///< planar overlay (face recovery)
    kNeedsBoundhole = 1u << 2,  ///< BOUNDHOLE boundaries (GF recovery)
  };

  /// The structures `make_router(scheme)` forces eagerly. GF resolves its
  /// recovery structures lazily, so it reports kNeedsNone here.
  static unsigned needs_for(Scheme scheme) noexcept;

  /// Draws a deployment from `config` and builds the core (graph + interest
  /// area). Derived structures stay unbuilt until accessed.
  static Network create(const NetworkConfig& config);

  /// Builds from an existing deployment (e.g. hand-crafted in tests).
  /// `build_pool` as in NetworkConfig.
  explicit Network(Deployment deployment, TaskPool* build_pool = nullptr);

  const Deployment& deployment() const noexcept { return deployment_; }
  const UnitDiskGraph& graph() const noexcept { return *graph_; }
  const InterestArea& interest_area() const noexcept { return *interest_area_; }

  /// The interest area's edge-node band (meters): always one radio range.
  /// A caller rebuilding a sibling snapshot's interest area (e.g. after a
  /// mobility re-pin) passes it to InterestArea to reproduce the same area.
  double edge_band() const noexcept { return deployment_.radio_range; }

  /// Lazy, memoized, thread-safe: built on first call, then cached.
  const SafetyInfo& safety() const;

  /// Installs an externally-computed safety labeling (`info.size()` must be
  /// `graph().size()`) so `safety()` returns it instead of building one —
  /// for a caller that already labeled this graph and must not pay for it
  /// twice. The labeling must equal what `safety()` would compute. No-op
  /// if the labeling was already built or adopted; returns whether `info`
  /// was installed.
  bool adopt_safety(SafetyInfo info) const;
  const PlanarOverlay& overlay() const;
  const BoundHoleInfo& boundhole() const;

  /// Whether the corresponding lazy structure has been built (observation
  /// only — never triggers a build). Used by tests and cost accounting.
  bool has_safety() const noexcept;
  bool has_overlay() const noexcept;
  bool has_boundhole() const noexcept;

  /// Builds the requested structures now (bitwise-or of Needs). Useful to
  /// front-load construction cost before timing-sensitive routing.
  void force(unsigned needs) const;

  /// Instantiates a router bound to this network's structures, forcing only
  /// `needs_for(scheme)`. The network must outlive the router.
  /// `slgf2_options` applies to kSlgf2 only.
  std::unique_ptr<Router> make_router(Scheme scheme,
                                      Slgf2Options slgf2_options = {}) const;

  /// A degraded copy of this network: `failed` nodes marked dead (positions
  /// kept, edges removed — UnitDiskGraph::with_failures patches the
  /// adjacency and shares the spatial grid) and the interest area carried
  /// over (InterestArea::with_failures: failures move no position, so the
  /// hull and edge flags stay; only the interior list drops the dead). If
  /// this network's safety labeling has been built, the copy's
  /// labeling is derived from it by the *incremental* updater
  /// (update_safety_after_failures) instead of a from-scratch
  /// compute_safety — identical statuses and anchors (tests enforce
  /// equality with the from-scratch fixpoint) while touching only the
  /// failures' neighborhood; `stats`, when non-null, receives what the
  /// update touched (zeroed when the labeling was never built and so stays
  /// lazy). Failure waves chain: calling with_failures on an
  /// already-degraded network applies the next wave the same way. The
  /// planar overlay and BOUNDHOLE structures stay lazy in the copy.
  Network with_failures(const std::vector<NodeId>& failed,
                        IncrementalStats* stats = nullptr) const;

  /// A moved copy of this network: the same node set at `positions`
  /// (`positions.size()` must equal `graph().size()`), built incrementally —
  /// the spatial grid is relocated and the adjacency patched from the edge
  /// delta (`UnitDiskGraph::with_moves`) instead of rebuilt, prior
  /// casualties stay dead, and the edge band carries over (the interest
  /// area itself is re-derived: the hull moves with the nodes). If this
  /// network's safety labeling has been built, the copy's labeling
  /// *continues* from it through the bidirectional updater
  /// (update_safety_after_moves): removals demote, additions promote, and
  /// the result equals a from-scratch compute_safety on the moved graph —
  /// statuses and anchors (tests enforce equality at every re-pin epoch).
  /// `stats`, when non-null, receives what the update touched (zeroed when
  /// the labeling was never built and so stays lazy); `diff`, when
  /// non-null, receives the added/removed unit-disk edges. Moves and
  /// failure waves chain in any order.
  Network with_moves(const std::vector<Vec2>& positions,
                     IncrementalStats* stats = nullptr,
                     EdgeDiff* diff = nullptr) const;

  /// Uniformly random interior source/destination pair, s != d.
  std::pair<NodeId, NodeId> random_interior_pair(Rng& rng) const;

  /// As above, resampled (up to `max_tries`) until the pair is connected in
  /// the unit-disk graph; {kInvalidNode, kInvalidNode} when none is found
  /// (callers must check — the sweep counts it as a pair shortfall).
  std::pair<NodeId, NodeId> random_connected_interior_pair(
      Rng& rng, int max_tries = 64) const;

 private:
  /// Tag-dispatched constructor behind with_failures/with_moves: adopts a
  /// pre-built (degraded or moved) graph and its interest area instead of
  /// building them from the deployment.
  struct DerivedTag {};
  Network(DerivedTag, const Network& base, UnitDiskGraph graph,
          InterestArea area);

  /// Heap-allocated so Network stays movable (std::once_flag is not).
  /// The `*_built` flags let has_*() observe without racing the builders.
  struct LazyState {
    std::once_flag safety_once, overlay_once, boundhole_once;
    std::unique_ptr<SafetyInfo> safety;
    std::unique_ptr<PlanarOverlay> overlay;
    std::unique_ptr<BoundHoleInfo> boundhole;
    std::atomic<bool> safety_built{false};
    std::atomic<bool> overlay_built{false};
    std::atomic<bool> boundhole_built{false};
  };

  Deployment deployment_;
  TaskPool* build_pool_ = nullptr;  ///< non-owning; see NetworkConfig
  std::unique_ptr<UnitDiskGraph> graph_;
  std::unique_ptr<InterestArea> interest_area_;
  std::unique_ptr<LazyState> lazy_;
};

}  // namespace spr
