#include "safety/distributed.h"

#include <optional>
#include <unordered_map>
#include <vector>

#include "geometry/angle.h"
#include "graph/quadrant_csr.h"
#include "safety/zone_scan.h"

namespace spr {

namespace {

/// What a node broadcasts: its location plus full safety state.
struct SafetyBroadcast {
  Vec2 position{};
  SafetyTuple tuple{};

  bool operator==(const SafetyBroadcast&) const noexcept = default;
};

using NeighborCache = std::unordered_map<NodeId, SafetyBroadcast>;

/// Recomputes one node's tuple (statuses + anchors) from its neighbor
/// cache — the body of Algorithm 2 steps 2-3 as executed locally. The
/// round engine delivers every hello in round 0, so from round 1 on the
/// cache holds the whole neighborhood and the 1->0 flips are sound.
SafetyTuple recompute_tuple(const UnitDiskGraph& g, const InterestArea& area,
                            NodeId self, const NeighborCache& cache,
                            const SafetyTuple& current) {
  Vec2 pu = g.position(self);
  SafetyTuple next = current;

  // Both loops walk the graph's quadrant buckets (the same view the flat
  // labeling kernel scans) restricted to neighbors actually heard from, so
  // the protocol's per-round recompute cannot drift from the centralized
  // oracle — and candidates arrive in ascending id order, making the anchor
  // tie-breaks deterministic instead of hash-order dependent. A broadcast's
  // position is its sender's true position, so bucket membership and the
  // old per-message `in_quadrant` test agree exactly.
  const QuadrantZones& zones = g.zones();

  for (ZoneType t : kAllZoneTypes) {
    if (area.is_edge_node(self)) break;  // pinned at (1,1,1,1)
    if (!next.is_safe(t)) continue;       // monotone: no 0 -> 1 flips
    bool has_safe_neighbor = false;
    for (NodeId v : zones.members(self, t)) {
      auto heard = cache.find(v);
      if (heard != cache.end() && heard->second.tuple.is_safe(t)) {
        has_safe_neighbor = true;
        break;
      }
    }
    if (!has_safe_neighbor) next.set_safe(t, false);
  }

  for (ZoneType t : kAllZoneTypes) {
    if (next.is_safe(t)) continue;
    FirstLastScan scan(pu, t);
    for (NodeId v : zones.members(self, t)) {
      auto heard = cache.find(v);
      if (heard == cache.end()) continue;
      if (heard->second.tuple.is_safe(t)) continue;
      scan.consider(v, heard->second.position);
    }
    ShapeAnchors& a = next.anchors_for(t);
    if (scan.empty()) {
      a.first = a.last = self;
      a.first_pos = a.last_pos = pu;
    } else {
      const SafetyBroadcast& vf = cache.find(scan.first())->second;
      const SafetyBroadcast& vl = cache.find(scan.last())->second;
      const ShapeAnchors& fa = vf.tuple.anchors_for(t);
      const ShapeAnchors& la = vl.tuple.anchors_for(t);
      // Until the upstream neighbor has valid anchors, anchor at it.
      a.first = fa.valid() ? fa.first : kInvalidNode;
      a.first_pos = fa.valid() ? fa.first_pos : vf.position;
      a.last = la.valid() ? la.last : kInvalidNode;
      a.last_pos = la.valid() ? la.last_pos : vl.position;
    }
  }
  return next;
}

/// Per-node protocol state.
struct NodeState {
  NeighborCache cache;
  SafetyTuple tuple{};
  std::optional<SafetyTuple> last_sent;  ///< nothing sent yet when empty
};

}  // namespace

DistributedSafetyResult compute_safety_distributed(const UnitDiskGraph& g,
                                                   const InterestArea& area,
                                                   std::size_t max_rounds) {
  const std::size_t n = g.size();
  if (max_rounds == 0) max_rounds = 4 * n + 8;
  std::vector<NodeState> state(n);

  using Engine = RoundEngine<SafetyBroadcast>;
  Engine engine(g);

  auto process = [&](NodeId self, std::size_t round,
                     std::span<const Engine::Incoming> inbox)
      -> std::optional<SafetyBroadcast> {
    NodeState& me = state[self];
    for (const auto& msg : inbox) me.cache[msg.sender] = msg.payload;

    if (round == 0) {
      // Hello phase: announce position and the initial all-safe tuple.
      me.last_sent = me.tuple;
      return SafetyBroadcast{g.position(self), me.tuple};
    }

    me.tuple = recompute_tuple(g, area, self, me.cache, me.tuple);
    if (!me.last_sent || *me.last_sent != me.tuple) {
      me.last_sent = me.tuple;
      return SafetyBroadcast{g.position(self), me.tuple};
    }
    return std::nullopt;
  };

  EngineStats stats = engine.run(process, max_rounds);

  std::vector<SafetyTuple> tuples(n);
  for (NodeId u = 0; u < n; ++u) tuples[u] = state[u].tuple;
  return DistributedSafetyResult{SafetyInfo(std::move(tuples)), stats};
}

}  // namespace spr
