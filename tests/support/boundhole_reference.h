#pragma once

/// \file boundhole_reference.h
/// The per-step BOUNDHOLE construction, kept as the oracle for the
/// production `BoundHoleInfo` (routing/boundhole.h). Every boundary step
/// here recomputes one bearing per neighbor of the current node and
/// re-sorts rows on every TENT test and walk start; the production
/// constructor reads one per-dart rotation table instead and must agree
/// with this copy field for field.

#include <vector>

#include "graph/unit_disk.h"
#include "routing/boundhole.h"

namespace spr::test {

/// The fields `BoundHoleInfo` exposes, as the reference computes them.
struct ReferenceBoundHole {
  std::vector<bool> stuck;
  std::vector<int> boundary_of;
  std::vector<int> cycle_pos;
  std::vector<HoleBoundary> boundaries;
};

/// TENT rule at one node, recomputing and sorting the row's bearings.
bool tent_rule_stuck_reference(const UnitDiskGraph& g, NodeId u);

/// Stuck detection and boundary walks with one bearing scan per step,
/// capped at `max_cycle_factor * n` steps per walk.
ReferenceBoundHole boundhole_reference(const UnitDiskGraph& g,
                                       std::size_t max_cycle_factor = 2);

}  // namespace spr::test
