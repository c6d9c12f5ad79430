#include "routing/baselines.h"

#include <limits>
#include <vector>

#include "geometry/angle.h"
#include "graph/graph_algos.h"

namespace spr {

namespace {
struct EmptyHeader final : public PacketHeader {};

struct VisitedHeader final : public PacketHeader {
  std::vector<bool> visited;
};
}  // namespace

// ---------------------------------------------------------------- MFR ----

std::unique_ptr<PacketHeader> MfrRouter::make_header(NodeId, NodeId) const {
  return std::make_unique<EmptyHeader>();
}

Router::Decision MfrRouter::select_successor(NodeId u, NodeId d,
                                             PacketHeader&) const {
  const UnitDiskGraph& g = graph();
  if (g.are_neighbors(u, d)) return {d, HopPhase::kGreedy, false};
  Vec2 pu = g.position(u);
  Vec2 toward = (g.position(d) - pu).normalized();
  NodeId pick = kInvalidNode;
  double best_progress = 0.0;  // strictly positive progress required
  for (NodeId v : g.neighbors(u)) {
    double progress = (g.position(v) - pu).dot(toward);
    if (progress > best_progress) {
      best_progress = progress;
      pick = v;
    }
  }
  if (pick == kInvalidNode) return {kInvalidNode, HopPhase::kGreedy, true};
  return {pick, HopPhase::kGreedy, false};
}

// ------------------------------------------------------------ Compass ----

std::unique_ptr<PacketHeader> CompassRouter::make_header(NodeId s, NodeId) const {
  auto header = std::make_unique<VisitedHeader>();
  header->visited.assign(graph().size(), false);
  header->visited[s] = true;
  return header;
}

Router::Decision CompassRouter::select_successor(NodeId u, NodeId d,
                                                 PacketHeader& header) const {
  auto& h = static_cast<VisitedHeader&>(header);
  const UnitDiskGraph& g = graph();
  h.visited[u] = true;
  if (g.are_neighbors(u, d)) return {d, HopPhase::kGreedy, false};
  Vec2 pu = g.position(u);
  double ray = bearing(pu, g.position(d));
  NodeId pick = kInvalidNode;
  double best_dev = std::numeric_limits<double>::infinity();
  for (NodeId v : g.neighbors(u)) {
    if (h.visited[v]) continue;  // loop-erasure: classic compass can cycle
    double dev = ccw_delta(ray, bearing(pu, g.position(v)));
    dev = std::min(dev, kTwoPi - dev);
    if (dev < best_dev) {
      best_dev = dev;
      pick = v;
    }
  }
  // Compass has no recovery: a deviation beyond 90 degrees means no
  // forward-ish neighbor exists — treat as a local minimum and stop.
  if (pick == kInvalidNode || best_dev > kPi / 2.0) {
    return {kInvalidNode, HopPhase::kGreedy, true};
  }
  h.visited[pick] = true;
  return {pick, HopPhase::kGreedy, false};
}

// ----------------------------------------------------------- Flooding ----

std::unique_ptr<PacketHeader> FloodingRouter::make_header(NodeId, NodeId) const {
  return std::make_unique<EmptyHeader>();
}

Router::Decision FloodingRouter::select_successor(NodeId, NodeId,
                                                  PacketHeader&) const {
  // Never called: route() is overridden.
  return {kInvalidNode, HopPhase::kGreedy, false};
}

PathResult FloodingRouter::route(NodeId s, NodeId d,
                                 const RouteOptions&) const {
  PathResult result;
  auto sp = bfs_path(graph(), s, d);
  if (sp.path.empty() && s != d) {
    result.status = RouteStatus::kDeadEnd;
    result.path = {s};
    return result;
  }
  result.status = RouteStatus::kDelivered;
  result.path = sp.path.empty() ? std::vector<NodeId>{s} : sp.path;
  result.length = sp.length;
  result.hop_phases.assign(result.path.size() - 1, HopPhase::kGreedy);
  return result;
}

}  // namespace spr
