#include "routing/gf.h"

#include <optional>

#include "geometry/angle.h"
#include "geometry/segment.h"
#include "routing/greedy_util.h"

namespace spr {

struct GfRouter::GfHeader final : public PacketHeader {
  enum class Mode { kGreedy, kFace, kBoundary };
  Mode mode = Mode::kGreedy;

  // Face-traversal state (GPSR perimeter).
  Vec2 entry{};          ///< L_p: where the packet entered perimeter mode
  double entry_dist = 0.0;
  NodeId prev = kInvalidNode;
  Vec2 best_cross{};     ///< closest crossing of (entry, d) seen on this walk
  /// e0: the first directed edge walked on the current face. Walking it
  /// again means the tour closed without exit or face change, so d is
  /// unreachable (Karp & Kung, GPSR, MobiCom 2000).
  NodeId first_from = kInvalidNode;
  NodeId first_to = kInvalidNode;

  // Boundary-walk state.
  int boundary = -1;
  int direction = +1;    ///< +1 / -1 along the cycle
  int cycle_index = -1;
  std::size_t boundary_steps = 0;

  /// (Re-)enters face traversal anchored at `at`.
  void enter_face(Vec2 at, Vec2 dest) {
    mode = Mode::kFace;
    entry = at;
    entry_dist = distance(at, dest);
    best_cross = at;
    prev = kInvalidNode;
    first_from = kInvalidNode;
    first_to = kInvalidNode;
  }
};

GfRouter::GfRouter(const UnitDiskGraph& g, const PlanarOverlay& overlay,
                   const BoundHoleInfo* boundhole, Recovery recovery)
    : Router(g),
      overlay_(&overlay),
      boundhole_(boundhole),
      boundhole_resolved_(true),
      recovery_(recovery) {}

GfRouter::GfRouter(const UnitDiskGraph& g, OverlayProvider overlay,
                   BoundHoleProvider boundhole, Recovery recovery)
    : Router(g),
      overlay_provider_(std::move(overlay)),
      boundhole_provider_(std::move(boundhole)),
      recovery_(recovery) {}

const PlanarOverlay& GfRouter::overlay() const {
  const PlanarOverlay* cached = overlay_.load(std::memory_order_acquire);
  if (cached == nullptr) {
    // Concurrent first hits both invoke the provider; it is memoized
    // (call_once) so they store the same pointer — the race is benign.
    cached = &overlay_provider_();
    overlay_.store(cached, std::memory_order_release);
  }
  return *cached;
}

const BoundHoleInfo* GfRouter::boundhole() const {
  if (!boundhole_resolved_.load(std::memory_order_acquire)) {
    boundhole_.store(boundhole_provider_ ? boundhole_provider_() : nullptr,
                     std::memory_order_relaxed);
    // The release pairs with the acquire above: a reader that sees the
    // flag also sees the pointer stored before it.
    boundhole_resolved_.store(true, std::memory_order_release);
  }
  return boundhole_.load(std::memory_order_relaxed);
}

std::unique_ptr<PacketHeader> GfRouter::make_header(NodeId, NodeId) const {
  return std::make_unique<GfHeader>();
}

bool GfRouter::reset_header(PacketHeader& header, NodeId, NodeId) const {
  static_cast<GfHeader&>(header) = GfHeader{};
  return true;
}

std::vector<PathResult> GfRouter::route_batch(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const RouteOptions& options) const {
  return route_batch_reusing_headers(pairs, options);
}

Router::Decision GfRouter::select_successor(NodeId u, NodeId d,
                                            PacketHeader& header) const {
  auto& h = static_cast<GfHeader&>(header);
  const UnitDiskGraph& g = graph();
  Vec2 dest = g.position(d);

  if (g.are_neighbors(u, d)) {
    h.mode = GfHeader::Mode::kGreedy;
    return {d, HopPhase::kGreedy, false};
  }

  // Perimeter exit rule: resume greedy once strictly closer than the entry.
  if (h.mode != GfHeader::Mode::kGreedy &&
      distance(g.position(u), dest) < h.entry_dist) {
    h.mode = GfHeader::Mode::kGreedy;
  }

  if (h.mode == GfHeader::Mode::kGreedy) {
    if (NodeId v = greedy_successor(g, u, dest); v != kInvalidNode) {
      return {v, HopPhase::kGreedy, false};
    }
    // Local minimum: enter recovery.
    h.enter_face(g.position(u), dest);
    h.boundary_steps = 0;
    if (recovery_ == Recovery::kBoundHole && boundhole() != nullptr &&
        boundhole()->boundary_of(u) != -1) {
      h.mode = GfHeader::Mode::kBoundary;
      h.boundary = boundhole()->boundary_of(u);
      h.cycle_index = boundhole()->cycle_position(u);
      // Walk the side of the hole facing the destination: step to whichever
      // cycle neighbor is first by right hand w.r.t. the ray u->d.
      const auto& cycle = boundhole()->boundaries()[static_cast<size_t>(h.boundary)].cycle;
      int sz = static_cast<int>(cycle.size());
      NodeId fwd = cycle[static_cast<size_t>((h.cycle_index + 1) % sz)];
      NodeId back = cycle[static_cast<size_t>((h.cycle_index - 1 + sz) % sz)];
      double start = bearing(g.position(u), dest);
      double sweep_fwd = ccw_delta(start, bearing(g.position(u), g.position(fwd)));
      double sweep_back = ccw_delta(start, bearing(g.position(u), g.position(back)));
      h.direction = sweep_fwd <= sweep_back ? +1 : -1;
      Decision dec = boundary_step_decision(u, d, h);
      dec.hit_local_minimum = true;
      return dec;
    }
    Decision dec = face_step(u, d, h);
    dec.hit_local_minimum = true;
    return dec;
  }

  if (h.mode == GfHeader::Mode::kBoundary) return boundary_step_decision(u, d, h);
  return face_step(u, d, h);
}

Router::Decision GfRouter::boundary_step_decision(NodeId u, NodeId d,
                                                  GfHeader& h) const {
  const UnitDiskGraph& g = graph();
  const auto& cycle =
      boundhole()->boundaries()[static_cast<size_t>(h.boundary)].cycle;
  int sz = static_cast<int>(cycle.size());
  // Abandon after a full loop without progress: fall back to face routing,
  // re-anchored at the current node (stale entry state corrupts both the
  // exit rule and the face-change geometry).
  if (h.boundary_steps >= static_cast<std::size_t>(sz)) {
    h.enter_face(g.position(u), g.position(d));
    return face_step(u, d, h);
  }
  ++h.boundary_steps;
  h.cycle_index = (h.cycle_index + h.direction + sz) % sz;
  NodeId next = cycle[static_cast<size_t>(h.cycle_index)];
  if (next == u) {  // duplicate slot in a degenerate cycle; advance once more
    h.cycle_index = (h.cycle_index + h.direction + sz) % sz;
    next = cycle[static_cast<size_t>(h.cycle_index)];
  }
  if (!g.are_neighbors(u, next) && next != u) {
    // Cycle bookkeeping no longer matches the walk (duplicate nodes); fall
    // back to face traversal rather than teleporting.
    h.enter_face(g.position(u), g.position(d));
    return face_step(u, d, h);
  }
  h.prev = u;
  return {next, HopPhase::kPerimeter, false};
}

Router::Decision GfRouter::face_step(NodeId u, NodeId d, GfHeader& h) const {
  const UnitDiskGraph& g = graph();
  Vec2 pu = g.position(u);
  Vec2 dest = g.position(d);

  auto nbrs = overlay().neighbors(u);
  if (nbrs.empty()) return {kInvalidNode, HopPhase::kPerimeter, false};

  // Right-hand rule: first overlay neighbor counter-clockwise from the
  // incoming edge (or from the ray u->d on entry).
  double start = h.prev == kInvalidNode ? bearing(pu, dest)
                                        : bearing(pu, g.position(h.prev));
  auto rotate_next = [&](double from, NodeId exclude) -> NodeId {
    NodeId pick = kInvalidNode;
    double best = 0.0;
    for (NodeId v : nbrs) {
      if (v == exclude) continue;
      double sweep = ccw_delta(from, bearing(pu, g.position(v)));
      if (sweep == 0.0) sweep = kTwoPi;
      if (pick == kInvalidNode || sweep < best) {
        pick = v;
        best = sweep;
      }
    }
    return pick;
  };

  NodeId next = rotate_next(start, h.prev);
  if (next == kInvalidNode) next = h.prev;  // dead-end bounce
  if (next == kInvalidNode) return {kInvalidNode, HopPhase::kPerimeter, false};

  // Face change: never traverse an edge that crosses (entry, d) at a point
  // closer to d than the best crossing so far; rotate past it instead.
  Segment entry_to_dest{h.entry, dest};
  bool new_face = h.first_from == kInvalidNode;
  for (std::size_t guard = 0; guard < nbrs.size(); ++guard) {
    Segment edge{pu, g.position(next)};
    auto cross = segment_intersection(edge, entry_to_dest);
    if (!cross) break;
    if (distance(*cross, dest) >= distance(h.best_cross, dest) - 1e-12) break;
    h.best_cross = *cross;
    new_face = true;
    NodeId after = rotate_next(bearing(pu, g.position(next)), next);
    if (after == kInvalidNode || after == next) break;
    next = after;
  }

  // Face-tour completion: about to walk e0 again on the same face.
  if (new_face) {
    h.first_from = u;
    h.first_to = next;
  } else if (u == h.first_from && next == h.first_to) {
    return {kInvalidNode, HopPhase::kPerimeter, false};
  }

  h.prev = u;
  return {next, HopPhase::kPerimeter, false};
}

}  // namespace spr
