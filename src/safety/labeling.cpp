#include "safety/labeling.h"

#include <algorithm>
#include <cstring>

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

std::vector<NodeId> unsafe_area_members(const UnitDiskGraph& g,
                                        const SafetyInfo& info, NodeId u,
                                        ZoneType t) {
  std::vector<NodeId> out;
  if (info.is_safe(u, t)) return out;
  // BFS scratch (seen bits + frontier) lives in the kernel's per-thread
  // arena; only the returned component itself touches the heap.
  Arena& arena = FlatLabeler::scratch();
  arena.reset();
  const std::size_t words = (g.size() + 63) / 64;
  auto* seen = static_cast<std::uint64_t*>(
      arena.allocate(words * sizeof(std::uint64_t), alignof(std::uint64_t)));
  std::memset(seen, 0, words * sizeof(std::uint64_t));
  ArenaVector<NodeId> frontier{ArenaAllocator<NodeId>(arena)};
  frontier.reserve(g.size());
  seen[u >> 6] |= 1ull << (u & 63);
  frontier.push_back(u);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    NodeId w = frontier[head];
    out.push_back(w);
    for (NodeId v : g.neighbors(w)) {
      if (((seen[v >> 6] >> (v & 63)) & 1u) == 0 && !info.is_safe(v, t)) {
        seen[v >> 6] |= 1ull << (v & 63);
        frontier.push_back(v);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace spr
