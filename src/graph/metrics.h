#pragma once

/// \file metrics.h
/// Structural metrics of a deployed network, printed by `spr_cli info`:
/// degree distribution, connectivity fraction and estimated hop diameter.

#include <cstddef>
#include <vector>

#include "graph/unit_disk.h"

namespace spr {

/// Degree distribution summary.
struct DegreeStats {
  double mean = 0.0;
  std::size_t min = 0;
  std::size_t max = 0;
  std::vector<std::size_t> histogram;  ///< histogram[k] = #nodes of degree k
};

DegreeStats degree_stats(const UnitDiskGraph& g);

/// Fraction of alive nodes in the largest connected component.
double largest_component_fraction(const UnitDiskGraph& g);

/// Approximate hop diameter by double-sweep BFS (lower bound, usually
/// tight); O(n + E).
std::size_t hop_diameter_estimate(const UnitDiskGraph& g);

}  // namespace spr
