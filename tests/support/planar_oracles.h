#pragma once

/// \file planar_oracles.h
/// Exhaustive checks of the two properties GF's face recovery relies on in
/// the Gabriel overlay (graph/planar.h): no two kept edges cross, and the
/// overlay connects the same node pairs as the unit-disk graph.

#include "graph/planar.h"
#include "graph/unit_disk.h"

namespace spr::test {

/// True when no two overlay edges cross properly. O(E^2).
bool overlay_is_planar(const UnitDiskGraph& g, const PlanarOverlay& overlay);

/// True when the overlay connects the same node pairs as `g` (component
/// structure preserved). O(V + E).
bool overlay_preserves_connectivity(const UnitDiskGraph& g,
                                    const PlanarOverlay& overlay);

}  // namespace spr::test
