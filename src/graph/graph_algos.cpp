#include "graph/graph_algos.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <queue>

#include "util/arena.h"
#include "util/task_pool.h"

namespace spr {

namespace {
std::atomic<std::uint64_t> g_bfs_trees{0};
std::atomic<std::uint64_t> g_dijkstra_trees{0};
}  // namespace

OracleSearchCounts oracle_search_counts() noexcept {
  return {g_bfs_trees.load(std::memory_order_relaxed),
          g_dijkstra_trees.load(std::memory_order_relaxed)};
}

void reset_oracle_search_counts() noexcept {
  g_bfs_trees.store(0, std::memory_order_relaxed);
  g_dijkstra_trees.store(0, std::memory_order_relaxed);
}

std::vector<std::size_t> bfs_hops(const UnitDiskGraph& g, NodeId source) {
  std::vector<std::size_t> dist(g.size(), kUnreachableHops);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachableHops) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

ShortestPathTree::ShortestPathTree(const UnitDiskGraph& g, NodeId source,
                                   Metric metric, NodeId stop_at)
    : g_(&g), source_(source), metric_(metric) {
  parent_.assign(g.size(), kInvalidNode);
  if (source >= g.size()) return;  // invalid source: everything unreachable
  if (stop_at >= g.size()) stop_at = kInvalidNode;  // out-of-range: full tree
  if (metric == Metric::kHops) {
    g_bfs_trees.fetch_add(1, std::memory_order_relaxed);
    std::vector<bool> seen(g.size(), false);
    std::queue<NodeId> frontier;
    seen[source] = true;
    frontier.push(source);
    while (!frontier.empty() &&
           (stop_at == kInvalidNode || !seen[stop_at])) {
      NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (!seen[v]) {
          seen[v] = true;
          parent_[v] = u;
          frontier.push(v);
        }
      }
    }
  } else {
    g_dijkstra_trees.fetch_add(1, std::memory_order_relaxed);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(g.size(), kInf);
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist[source] = 0.0;
    heap.emplace(0.0, source);
    while (!heap.empty()) {
      auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      if (u == stop_at) break;
      for (NodeId v : g.neighbors(u)) {
        double nd = d + distance(g.position(u), g.position(v));
        if (nd < dist[v]) {
          dist[v] = nd;
          parent_[v] = u;
          heap.emplace(nd, v);
        }
      }
    }
  }
}

ShortestPath ShortestPathTree::extract(NodeId target) const {
  ShortestPath result;
  if (target >= parent_.size() || !reached(target)) return result;
  for (NodeId v = target; v != source_; v = parent_[v]) result.path.push_back(v);
  result.path.push_back(source_);
  std::reverse(result.path.begin(), result.path.end());
  for (std::size_t i = 1; i < result.path.size(); ++i) {
    result.length +=
        distance(g_->position(result.path[i - 1]), g_->position(result.path[i]));
  }
  return result;
}

namespace {

/// OracleBatch's grouping + search body, shared by the heap- and
/// arena-scratch constructors. Groups pair indices by source in CSR form
/// (counts -> offsets -> fill; first-appearance slot order, pair order
/// within a slot), then runs one BFS + one Dijkstra per distinct source.
/// All four scratch vectors are passed in empty with the desired allocator.
template <typename SizeVec, typename NodeVec>
std::size_t build_oracles(const UnitDiskGraph& g,
                          std::span<const std::pair<NodeId, NodeId>> pairs,
                          SizeVec slot_of, SizeVec count, SizeVec grouped,
                          NodeVec sources,
                          std::vector<ShortestPath>& hop_optimal,
                          std::vector<ShortestPath>& length_optimal) {
  hop_optimal.resize(pairs.size());
  length_optimal.resize(pairs.size());

  slot_of.assign(g.size(), SIZE_MAX);
  std::size_t valid = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    NodeId s = pairs[i].first;
    if (s >= g.size()) continue;  // invalid source: optima stay empty
    if (slot_of[s] == SIZE_MAX) {
      slot_of[s] = sources.size();
      sources.push_back(s);
      count.push_back(0);
    }
    ++count[slot_of[s]];
    ++valid;
  }

  // `count` becomes the slot's cursor into `grouped`; the running prefix
  // sum in `begin` marks each slot's segment start.
  grouped.resize(valid);
  std::size_t begin = 0;
  for (std::size_t si = 0; si < count.size(); ++si) {
    std::size_t slot_count = count[si];
    count[si] = begin;
    begin += slot_count;
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    NodeId s = pairs[i].first;
    if (s >= g.size()) continue;
    grouped[count[slot_of[s]]++] = i;
  }

  // One BFS + one Dijkstra per distinct source; the trees are transient —
  // only the per-pair extracted optima are kept (matching the memory
  // profile of the per-pair loop this replaces). A source with a single
  // destination keeps the per-pair early exit via stop_at, so the batch is
  // never more work than the loop it replaced.
  for (std::size_t si = 0; si < sources.size(); ++si) {
    std::size_t seg_begin = si == 0 ? 0 : count[si - 1];
    std::size_t seg_end = count[si];
    NodeId stop_at = seg_end - seg_begin == 1 ? pairs[grouped[seg_begin]].second
                                              : kInvalidNode;
    ShortestPathTree hop_tree(g, sources[si], ShortestPathTree::Metric::kHops,
                              stop_at);
    ShortestPathTree len_tree(g, sources[si], ShortestPathTree::Metric::kLength,
                              stop_at);
    for (std::size_t gi = seg_begin; gi < seg_end; ++gi) {
      std::size_t i = grouped[gi];
      hop_optimal[i] = hop_tree.extract(pairs[i].second);
      length_optimal[i] = len_tree.extract(pairs[i].second);
    }
  }
  return sources.size();
}

}  // namespace

OracleBatch::OracleBatch(const UnitDiskGraph& g,
                         std::span<const std::pair<NodeId, NodeId>> pairs)
    : OracleBatch(g, pairs, nullptr) {}

OracleBatch::OracleBatch(const UnitDiskGraph& g,
                         std::span<const std::pair<NodeId, NodeId>> pairs,
                         Arena* scratch) {
  if (scratch == nullptr) {
    distinct_sources_ = build_oracles(g, pairs, std::vector<std::size_t>{},
                                      std::vector<std::size_t>{},
                                      std::vector<std::size_t>{},
                                      std::vector<NodeId>{}, hop_optimal_,
                                      length_optimal_);
    return;
  }
  ArenaAllocator<std::size_t> salloc(*scratch);
  ArenaAllocator<NodeId> nalloc(*scratch);
  distinct_sources_ = build_oracles(
      g, pairs, ArenaVector<std::size_t>(salloc),
      ArenaVector<std::size_t>(salloc), ArenaVector<std::size_t>(salloc),
      ArenaVector<NodeId>(nalloc), hop_optimal_, length_optimal_);
}

std::size_t hop_distance(const UnitDiskGraph& g, NodeId source, NodeId target,
                         HopSearchScratch& scratch) {
  const std::size_t n = g.size();
  if (source >= n || target >= n) return kUnreachableHops;
  if (source == target) return 0;
  if (scratch.stamp_.size() < n) scratch.stamp_.resize(n, 0);
  // Stamps of earlier queries are all below this query's pair; on wrap,
  // clear once and restart the count.
  if (scratch.query_ >= std::numeric_limits<std::uint32_t>::max() / 2 - 1) {
    std::fill(scratch.stamp_.begin(), scratch.stamp_.end(), 0);
    scratch.query_ = 0;
  }
  ++scratch.query_;
  const std::uint32_t mark[2] = {2 * scratch.query_, 2 * scratch.query_ + 1};
  std::uint32_t* stamp = scratch.stamp_.data();
  stamp[source] = mark[0];
  stamp[target] = mark[1];
  scratch.frontier_[0].assign(1, source);
  scratch.frontier_[1].assign(1, target);
  std::size_t depth[2] = {0, 0};
  // Before any meeting each side is a plain BFS, so a ball holds exactly
  // the nodes within its depth and every expanded node has all of its
  // neighbors inside its own ball. The first edge found between the balls
  // therefore joins the two frontiers, and no shorter path can exist.
  while (!scratch.frontier_[0].empty() && !scratch.frontier_[1].empty()) {
    const int side =
        scratch.frontier_[0].size() <= scratch.frontier_[1].size() ? 0 : 1;
    const std::uint32_t own = mark[side];
    const std::uint32_t other = mark[1 - side];
    std::vector<NodeId>& next = scratch.next_;
    next.clear();
    for (NodeId u : scratch.frontier_[side]) {
      for (NodeId v : g.neighbors(u)) {
        if (stamp[v] == other) return depth[0] + depth[1] + 1;
        if (stamp[v] != own) {
          stamp[v] = own;
          next.push_back(v);
        }
      }
    }
    scratch.frontier_[side].swap(next);
    ++depth[side];
  }
  return kUnreachableHops;
}

std::vector<std::size_t> hop_distances(
    const UnitDiskGraph& g, std::span<const std::pair<NodeId, NodeId>> pairs,
    TaskPool* pool) {
  std::vector<std::size_t> out(pairs.size(), kUnreachableHops);
  // A few blocks per worker: far-pair costs vary with the holes between
  // the endpoints, and work stealing evens out blocks, not single pairs.
  const std::size_t workers = pool != nullptr ? pool->thread_count() : 1;
  const std::size_t grain =
      std::max<std::size_t>(1, pairs.size() / (4 * workers));
  parallel_for_blocked(pool, pairs.size(), grain,
                       [&](std::size_t begin, std::size_t end) {
                         HopSearchScratch scratch;
                         for (std::size_t i = begin; i < end; ++i) {
                           out[i] = hop_distance(g, pairs[i].first,
                                                 pairs[i].second, scratch);
                         }
                       });
  return out;
}

ShortestPath bfs_path(const UnitDiskGraph& g, NodeId source, NodeId target) {
  return ShortestPathTree(g, source, ShortestPathTree::Metric::kHops, target)
      .extract(target);
}

ShortestPath dijkstra_path(const UnitDiskGraph& g, NodeId source, NodeId target) {
  return ShortestPathTree(g, source, ShortestPathTree::Metric::kLength, target)
      .extract(target);
}

std::vector<int> connected_components(const UnitDiskGraph& g) {
  std::vector<int> label(g.size(), -1);
  int next = 0;
  std::queue<NodeId> frontier;
  for (NodeId s = 0; s < g.size(); ++s) {
    if (label[s] != -1) continue;
    label[s] = next;
    frontier.push(s);
    while (!frontier.empty()) {
      NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (label[v] == -1) {
          label[v] = next;
          frontier.push(v);
        }
      }
    }
    ++next;
  }
  return label;
}

bool connected(const UnitDiskGraph& g, NodeId u, NodeId v) {
  if (u == v) return true;
  auto dist = bfs_hops(g, u);
  return dist[v] != kUnreachableHops;
}

std::vector<NodeId> largest_component(const UnitDiskGraph& g) {
  auto label = connected_components(g);
  int max_label = 0;
  for (int l : label) max_label = std::max(max_label, l);
  std::vector<std::size_t> count(static_cast<size_t>(max_label) + 1, 0);
  for (NodeId u = 0; u < g.size(); ++u) {
    if (g.alive(u)) ++count[static_cast<size_t>(label[u])];
  }
  int best = static_cast<int>(
      std::max_element(count.begin(), count.end()) - count.begin());
  std::vector<NodeId> out;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (label[u] == best && g.alive(u)) out.push_back(u);
  }
  return out;
}

}  // namespace spr
