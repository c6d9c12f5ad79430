#pragma once

/// \file safety_oracles.h
/// Reference constructions of the safety labeling, kept beside the tests
/// that compare the production path (`compute_safety`, safety/labeling.h)
/// against them. Both reach Definition 1's unique fixpoint and resolve
/// Algorithm 2's shape anchors with the scalar memoized recursion; the flat
/// kernel must agree with them bit for bit, statuses and anchors.

#include "deploy/interest_area.h"
#include "graph/unit_disk.h"
#include "safety/flat_kernel.h"
#include "safety/labeling.h"

namespace spr::test {

/// The scalar reference path: per-node SafetyTuple records, geometry tests
/// in every inner loop, recursive anchor resolution — the shape the flat
/// kernel is benchmarked against and the oracle its bit-identity tests
/// compare to. Always serial. `stats`, when non-null, receives the same
/// work counters the flat kernel reports.
SafetyInfo compute_safety_scalar(const UnitDiskGraph& g,
                                 const InterestArea& area,
                                 LabelingStats* stats = nullptr);

/// As above but evaluates the fixpoint in synchronous rounds (the paper's
/// Fig. 3 narration). Exists to test order-independence of the fixpoint.
SafetyInfo compute_safety_round_based(const UnitDiskGraph& g,
                                      const InterestArea& area);

}  // namespace spr::test
