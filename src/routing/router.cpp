#include "routing/router.h"

#include <algorithm>

namespace spr {

RouteStepper::RouteStepper(const Router& router, NodeId s, NodeId d,
                           std::unique_ptr<PacketHeader> owned,
                           PacketHeader* header, std::size_t ttl,
                           std::size_t reserve_hint)
    : router_(&router),
      owned_header_(std::move(owned)),
      header_(header),
      u_(s),
      d_(d),
      ttl_remaining_(ttl),
      in_flight_(true) {
  if (s >= router.g_.size() || d >= router.g_.size()) {
    // Invalid endpoints: an empty dead-end result, exactly route()'s `{}`.
    finish(RouteStatus::kDeadEnd);
    u_ = kInvalidNode;
    return;
  }
  if (reserve_hint > 0) {
    result_.path.reserve(reserve_hint + 1);
    result_.hop_phases.reserve(reserve_hint);
  }
  result_.path.push_back(s);
  if (s == d) {
    finish(RouteStatus::kDelivered);
    return;
  }
  if (ttl_remaining_ == 0) finish(RouteStatus::kTtlExpired);
}

bool RouteStepper::step() {
  if (!in_flight_) return false;
  Router::Decision decision = router_->select_successor(u_, d_, *header_);
  if (decision.hit_local_minimum) ++result_.local_minima;
  if (decision.next == kInvalidNode) {
    finish(RouteStatus::kDeadEnd);
    return false;
  }
  const UnitDiskGraph& g = router_->g_;
  result_.length += distance(g.position(u_), g.position(decision.next));
  if (record_path_) {
    result_.path.push_back(decision.next);
    result_.hop_phases.push_back(decision.phase);
  }
  ++hops_taken_;
  u_ = decision.next;
  if (u_ == d_) {
    finish(RouteStatus::kDelivered);
    return false;
  }
  if (--ttl_remaining_ == 0) {
    finish(RouteStatus::kTtlExpired);
    return false;
  }
  return true;
}

namespace {

/// TTL = ttl_factor * n hops; generous so that only genuine livelock or
/// disconnection trips it.
std::size_t default_ttl(const UnitDiskGraph& g, const RouteOptions& options) {
  return options.ttl_factor * std::max<std::size_t>(g.size(), 1);
}

}  // namespace

std::unique_ptr<RouteStepper> Router::make_stepper(NodeId s, NodeId d,
                                                   const RouteOptions& options,
                                                   std::size_t ttl_limit) const {
  std::size_t ttl = ttl_limit != 0 ? ttl_limit : default_ttl(g_, options);
  std::unique_ptr<PacketHeader> header;
  if (s < g_.size() && d < g_.size() && s != d) header = make_header(s, d);
  PacketHeader* raw = header.get();
  return std::unique_ptr<RouteStepper>(
      // spr-analyze: allow(raw-new) RouteStepper's ctor is private to Router
      // (make_unique cannot reach it); ownership transfers immediately.
      new RouteStepper(*this, s, d, std::move(header), raw, ttl, 0));
}

void Router::restart_stepper(RouteStepper& stepper, NodeId s, NodeId d,
                             const RouteOptions& options,
                             std::size_t ttl_limit) const {
  stepper.router_ = this;
  stepper.ttl_remaining_ = ttl_limit != 0 ? ttl_limit : default_ttl(g_, options);
  if (s < g_.size() && d < g_.size() && s != d) {
    // Reuse the slot's header in place; first use of a slot (or a router
    // without reset support) falls back to a fresh header, matching
    // make_stepper's allocation.
    if (stepper.owned_header_ == nullptr ||
        !reset_header(*stepper.owned_header_, s, d)) {
      stepper.owned_header_ = make_header(s, d);
    }
  }
  stepper.header_ = stepper.owned_header_.get();
  // From here this mirrors the private constructor, minus the allocations:
  // the path/phase buffers are cleared but keep their capacity.
  stepper.u_ = s;
  stepper.d_ = d;
  stepper.in_flight_ = true;
  stepper.hops_taken_ = 0;
  stepper.record_path_ = true;
  stepper.result_.status = RouteStatus::kDeadEnd;
  stepper.result_.path.clear();
  stepper.result_.hop_phases.clear();
  stepper.result_.length = 0.0;
  stepper.result_.local_minima = 0;
  if (s >= g_.size() || d >= g_.size()) {
    stepper.finish(RouteStatus::kDeadEnd);
    stepper.u_ = kInvalidNode;
    return;
  }
  stepper.result_.path.push_back(s);
  if (s == d) {
    stepper.finish(RouteStatus::kDelivered);
    return;
  }
  if (stepper.ttl_remaining_ == 0) stepper.finish(RouteStatus::kTtlExpired);
}

PathResult Router::drive(NodeId s, NodeId d, const RouteOptions& options,
                         PacketHeader& header,
                         std::size_t reserve_hint) const {
  RouteStepper stepper(*this, s, d, nullptr, &header, default_ttl(g_, options),
                       reserve_hint);
  while (stepper.step()) {
  }
  return stepper.take_result();
}

PathResult Router::route(NodeId s, NodeId d, const RouteOptions& options) const {
  if (s >= g_.size() || d >= g_.size()) {
    return {};  // invalid endpoints: a dead end, never an out-of-bounds walk
  }
  if (s == d) {
    PathResult result;
    result.path.push_back(s);
    result.status = RouteStatus::kDelivered;
    return result;
  }
  auto header = make_header(s, d);
  return drive(s, d, options, *header);
}

bool Router::reset_header(PacketHeader&, NodeId, NodeId) const { return false; }

std::vector<PathResult> Router::route_batch(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const RouteOptions& options) const {
  std::vector<PathResult> out;
  out.reserve(pairs.size());
  for (auto [s, d] : pairs) out.push_back(route(s, d, options));
  return out;
}

std::vector<PathResult> Router::route_batch_reusing_headers(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const RouteOptions& options) const {
  std::vector<PathResult> out;
  out.reserve(pairs.size());
  std::unique_ptr<PacketHeader> header;
  std::size_t hint = 0;
  for (auto [s, d] : pairs) {
    if (s >= graph().size() || d >= graph().size()) {  // match route()
      out.emplace_back();
      continue;
    }
    if (s == d) {  // route()'s header-free fast path
      PathResult result;
      result.path.push_back(s);
      result.status = RouteStatus::kDelivered;
      out.push_back(std::move(result));
      continue;
    }
    if (header == nullptr || !reset_header(*header, s, d)) {
      header = make_header(s, d);
    }
    out.push_back(drive(s, d, options, *header, hint));
    hint = out.back().hop_phases.size();
  }
  return out;
}

}  // namespace spr
