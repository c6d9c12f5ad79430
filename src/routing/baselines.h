#pragma once

/// \file baselines.h
/// Classic geographic forwarding baselines from the literature the paper
/// builds on, used by the extended benches to put GF/LGF/SLGF2 in context:
///
///  * MFR ("most forward within radius", Takagi & Kleinrock): forward to
///    the neighbor whose projection onto the line u->d is farthest forward.
///  * Compass routing (Kranakis, Singh & Urrutia): forward to the neighbor
///    whose direction is angularly closest to the ray u->d.
///  * Flooding: BFS-style expanding broadcast — guaranteed delivery on
///    connected pairs, used as the delivery oracle (its hop count equals
///    the BFS optimum; its cost is every node transmitting once).
///
/// MFR and Compass are greedy-only (no recovery): they fail at the first
/// local minimum, which is exactly what makes them useful ablation anchors
/// for the recovery machinery.

#include "routing/router.h"

namespace spr {

/// Most-forward-within-radius. Progress is measured by scalar projection on
/// the u->d direction; only strictly positive progress is accepted.
class MfrRouter final : public Router {
 public:
  explicit MfrRouter(const UnitDiskGraph& g) : Router(g) {}
  std::string_view name() const noexcept override { return "MFR"; }

 protected:
  Decision select_successor(NodeId u, NodeId d,
                            PacketHeader& header) const override;
  std::unique_ptr<PacketHeader> make_header(NodeId s, NodeId d) const override;
};

/// Compass routing: minimal angular deviation from the ray u->d. The
/// classic variant can loop on some graphs, so the walk carries a visited
/// set and fails (dead end) instead of cycling.
class CompassRouter final : public Router {
 public:
  explicit CompassRouter(const UnitDiskGraph& g) : Router(g) {}
  std::string_view name() const noexcept override { return "Compass"; }

 protected:
  Decision select_successor(NodeId u, NodeId d,
                            PacketHeader& header) const override;
  std::unique_ptr<PacketHeader> make_header(NodeId s, NodeId d) const override;
};

/// Flooding "router": conceptually every node rebroadcasts once. route()
/// reports the BFS-optimal path as the delivered path.
class FloodingRouter final : public Router {
 public:
  explicit FloodingRouter(const UnitDiskGraph& g) : Router(g) {}
  std::string_view name() const noexcept override { return "Flooding"; }

  PathResult route(NodeId s, NodeId d,
                   const RouteOptions& options = {}) const override;

 protected:
  Decision select_successor(NodeId, NodeId, PacketHeader&) const override;
  std::unique_ptr<PacketHeader> make_header(NodeId, NodeId) const override;
};

}  // namespace spr
