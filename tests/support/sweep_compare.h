#pragma once

/// \file sweep_compare.h
/// Exact equality of sweep results: every count and every Summary moment
/// compared with ==, so two results are equal only when their bits are.
/// The comparator of the slice-merge and determinism tests.

#include <vector>

#include "core/experiment.h"

namespace spr::test {

/// True when `a` and `b` have the same points, labels, counts and
/// bit-identical summary moments.
bool sweep_results_identical(const std::vector<SweepPoint>& a,
                             const std::vector<SweepPoint>& b);

}  // namespace spr::test
