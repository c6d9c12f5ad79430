#include "safety/labeling.h"

#include "util/arena.h"
#include "util/task_pool.h"

namespace spr {

std::size_t SafetyInfo::unsafe_node_count() const noexcept {
  std::size_t count = 0;
  for (const auto& t : tuples_) {
    if (!t.safe[0] || !t.safe[1] || !t.safe[2] || !t.safe[3]) ++count;
  }
  return count;
}

std::size_t recompute_all_anchors(const UnitDiskGraph& g, SafetyInfo& info,
                                  TaskPool* pool) {
  g.zones(pool);
  Arena& arena = FlatLabeler::scratch();
  arena.reset();
  FlatLabeler labeler(g, nullptr, arena);
  labeler.start_from(info);
  return labeler.compute_anchors(info, pool);
}

SafetyInfo compute_safety(const UnitDiskGraph& g, const InterestArea& area,
                          TaskPool* build_pool, LabelingStats* stats) {
  g.zones(build_pool);  // the epoch's quadrant view, built once (parallel ok)
  Arena& arena = FlatLabeler::scratch();
  arena.reset();
  FlatLabeler labeler(g, &area, arena);
  labeler.start_all_safe();
  labeler.initial_round();
  labeler.drain();

  // Back to the tuple form only at the boundary: default tuples are all
  // safe with cleared anchors, so replaying the flip list lands on the
  // fixpoint statuses.
  std::vector<SafetyTuple> tuples(g.size());
  for (const std::uint32_t k : labeler.flipped()) {
    tuples[FlatLabeler::key_node(k)].set_safe(
        kAllZoneTypes[FlatLabeler::key_type(k)], false);
  }
  SafetyInfo info(std::move(tuples));
  labeler.compute_anchors(info, build_pool);
  if (stats != nullptr) *stats = labeler.stats();
  return info;
}

}  // namespace spr
