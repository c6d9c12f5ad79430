#pragma once

/// \file distributed.h
/// Distributed construction of the safety information (Algorithm 2) on the
/// synchronous round engine: "the safety status and the estimated shape
/// information are collected and distributed via information exchanges
/// among neighbors ... implemented by broadcasting such information of a
/// node that newly changes its safety status to all its neighbors."
///
/// Round 0 is the hello phase (every node announces position + all-safe
/// tuple); afterwards a node recomputes its tuple and anchors from its
/// neighbor cache each round and broadcasts only when its state changed.
/// The run's EngineStats are the construction cost the paper's Section 5
/// refers to ("the construction cost of safety information has been proved
/// to be the minimum in [7]").

#include "deploy/interest_area.h"
#include "safety/labeling.h"
#include "sim/engine.h"

namespace spr {

/// Outcome of the distributed protocol.
struct DistributedSafetyResult {
  SafetyInfo info;     ///< converged tuples + anchors
  EngineStats stats;   ///< rounds / broadcasts / receptions consumed
};

/// Runs the protocol to quiescence (capped at `max_rounds`; 0 means the
/// default cap of 4*n + 8 rounds, ample since unsafety propagates at one
/// hop per round).
DistributedSafetyResult compute_safety_distributed(const UnitDiskGraph& g,
                                                   const InterestArea& area,
                                                   std::size_t max_rounds = 0);

}  // namespace spr
