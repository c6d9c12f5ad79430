#include "support/sweep_compare.h"

namespace spr::test {

namespace {

bool summaries_identical(const Summary& a, const Summary& b) {
  return a.count() == b.count() && a.sum() == b.sum() && a.mean() == b.mean() &&
         a.min() == b.min() && a.max() == b.max() &&
         a.variance() == b.variance();
}

bool aggregates_identical(const RouteAggregate& a, const RouteAggregate& b) {
  return a.requested == b.requested && a.attempted == b.attempted &&
         a.delivered == b.delivered &&
         summaries_identical(a.hops, b.hops) &&
         summaries_identical(a.length, b.length) &&
         summaries_identical(a.stretch_hops, b.stretch_hops) &&
         summaries_identical(a.stretch_length, b.stretch_length) &&
         summaries_identical(a.perimeter_hops, b.perimeter_hops) &&
         summaries_identical(a.backup_hops, b.backup_hops) &&
         summaries_identical(a.local_minima, b.local_minima);
}

}  // namespace

bool sweep_results_identical(const std::vector<SweepPoint>& a,
                             const std::vector<SweepPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node_count != b[i].node_count) return false;
    if (a[i].by_scheme.size() != b[i].by_scheme.size()) return false;
    for (const auto& [label, agg] : a[i].by_scheme) {
      auto it = b[i].by_scheme.find(label);
      if (it == b[i].by_scheme.end()) return false;
      if (!aggregates_identical(agg, it->second)) return false;
    }
  }
  return true;
}

}  // namespace spr::test
