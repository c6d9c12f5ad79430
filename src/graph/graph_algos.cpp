#include "graph/graph_algos.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/task_pool.h"

namespace spr {

std::vector<std::size_t> bfs_hops(const UnitDiskGraph& g, NodeId source) {
  std::vector<std::size_t> dist(g.size(), kUnreachableHops);
  if (source >= g.size()) return dist;
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

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The source..target path along a parent array, its length summed in path
/// order — the same left fold that built the search's distances, so a
/// Dijkstra path reports its distance bit for bit. Empty when `target` was
/// not reached.
ShortestPath extract_path(const UnitDiskGraph& g,
                          const std::vector<NodeId>& parent, NodeId source,
                          NodeId target) {
  ShortestPath result;
  if (target != source && parent[target] == kInvalidNode) return result;
  for (NodeId v = target; v != source; v = parent[v]) result.path.push_back(v);
  result.path.push_back(source);
  std::reverse(result.path.begin(), result.path.end());
  for (std::size_t i = 1; i < result.path.size(); ++i) {
    result.length +=
        distance(g.position(result.path[i - 1]), g.position(result.path[i]));
  }
  return result;
}

/// BFS tree parents from `source`, grown until `target` is discovered.
std::vector<NodeId> bfs_parents(const UnitDiskGraph& g, NodeId source,
                                NodeId target) {
  std::vector<NodeId> parent(g.size(), kInvalidNode);
  std::vector<bool> seen(g.size(), false);
  std::queue<NodeId> frontier;
  seen[source] = true;
  frontier.push(source);
  while (!frontier.empty() && !seen[target]) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = true;
        parent[v] = u;
        frontier.push(v);
      }
    }
  }
  return parent;
}

/// Dijkstra tree parents from `source`, grown until `target` is settled.
std::vector<NodeId> dijkstra_parents(const UnitDiskGraph& g, NodeId source,
                                     NodeId target) {
  std::vector<NodeId> parent(g.size(), kInvalidNode);
  std::vector<double> dist(g.size(), kInf);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == target) break;
    for (NodeId v : g.neighbors(u)) {
      double nd = d + distance(g.position(u), g.position(v));
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = u;
        heap.emplace(nd, v);
      }
    }
  }
  return parent;
}

/// The A* length search over one graph, with its reusable state: per-node
/// g values, valid where the stamp equals the current query (so a query
/// costs no O(n) clear), and the heap's storage.
class LengthSearch {
 public:
  explicit LengthSearch(const UnitDiskGraph& g)
      : graph_(g),
        stop_factor_(1.0 + 4.0 * static_cast<double>(g.size() + 16) *
                               std::numeric_limits<double>::epsilon()),
        g_(g.size()),
        stamp_(g.size(), 0) {}

  /// The optimal Euclidean length from `source` to `target` (both in
  /// range and distinct), bit-identical to Dijkstra's distance; 0.0 when
  /// unreachable.
  ///
  /// An A* search that keeps Dijkstra's left fold g(v) = g(u) + |uv|, with
  /// h(v) = |vt|·(1 − 1e-9), ties on equal keys broken by node id, and no
  /// closed set: a node whose g improves is pushed and expanded again.
  /// Let u = 2^-53 and let (s = p_0, ..., p_k = t) be a Dijkstra tree path,
  /// whose prefix folds F_j are the optimal g values (fl addition is
  /// monotone, so F_k is the least left fold over all s-t paths, whatever
  /// the tie breaking).
  ///  * Each computed length is within 3u of the exact distance between
  ///    the stored points — differences of doubles round relative to the
  ///    difference, so the coordinates' magnitude does not enter — and the
  ///    1e-9 margin absorbs that: h(p_j) <= |p_j t| exactly.
  ///  * Each of the k - j additions from p_j on loses at most u, and the
  ///    exact edges from p_j on sum to at least |p_j t|, so
  ///    F_k >= (F_j + |p_j t|)(1 − 3u)(1 − u)^(k−j), while p_j's key is
  ///    fl(F_j + h(p_j)) <= (F_j + |p_j t|)(1 + u): a key on the path
  ///    exceeds F_k by at most a factor 1 + (k + 5)u.
  /// The search stops only when the popped key exceeds fl(best g(t) ·
  /// stop_factor_), and stop_factor_ = 1 + 8(n + 16)u covers that factor
  /// for every k < n. So while g(t) > F_k, the first unexpanded p_j holds
  /// its optimal g under a key below the limit, and the search goes on.
  /// Every g is some path's fold, never below the optimum, so at the stop
  /// g(t) == F_k bit for bit.
  double length(NodeId source, NodeId target);

 private:
  struct Entry {
    double key;  ///< g + h
    double g;
    NodeId node;
  };
  /// Heap order: the smallest key on top, the smaller id first on a tie.
  static bool later(const Entry& a, const Entry& b) noexcept {
    return a.key > b.key || (a.key == b.key && a.node > b.node);
  }
  static constexpr double kHeuristicMargin = 1.0 - 1e-9;

  const UnitDiskGraph& graph_;
  const double stop_factor_;
  std::vector<double> g_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t query_ = 0;
  std::vector<Entry> heap_;
};

double LengthSearch::length(NodeId source, NodeId target) {
  if (++query_ == 0) {  // wrapped: clear once and restart the count
    std::fill(stamp_.begin(), stamp_.end(), 0);
    query_ = 1;
  }
  const UnitDiskGraph& g = graph_;
  const Vec2 goal = g.position(target);
  auto h = [&](NodeId v) {
    return distance(g.position(v), goal) * kHeuristicMargin;
  };
  heap_.clear();
  stamp_[source] = query_;
  g_[source] = 0.0;
  heap_.push_back({h(source), 0.0, source});
  double best = kInf;   // g(target) so far
  double limit = kInf;  // best * stop_factor_
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Entry e = heap_.back();
    heap_.pop_back();
    if (e.key > limit) break;
    if (e.g > g_[e.node]) continue;  // stale: a shorter g was pushed since
    const Vec2 pu = g.position(e.node);
    for (NodeId v : g.neighbors(e.node)) {
      const double nd = e.g + distance(pu, g.position(v));
      if (stamp_[v] == query_ && nd >= g_[v]) continue;
      stamp_[v] = query_;
      g_[v] = nd;
      if (v == target) {  // never expanded: no path through t improves t
        best = nd;
        limit = best * stop_factor_;
        continue;
      }
      heap_.push_back({nd + h(v), nd, v});
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
  }
  return best == kInf ? 0.0 : best;
}

}  // namespace

OracleBatch::OracleBatch(const UnitDiskGraph& g,
                         std::span<const std::pair<NodeId, NodeId>> pairs)
    : hop_optimal_(pairs.size(), 0), length_optimal_(pairs.size(), 0.0) {
  HopSearchScratch hop_scratch;
  LengthSearch length_search(g);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, d] = pairs[i];
    const std::size_t hops = hop_distance(g, s, d, hop_scratch);
    // Unreachable or out of range: both optima stay 0. A self-pair is 0
    // hops and 0.0 long.
    if (hops == kUnreachableHops || hops == 0) continue;
    hop_optimal_[i] = hops;
    length_optimal_[i] = length_search.length(s, d);
  }
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
  if (source >= g.size() || target >= g.size()) return {};
  return extract_path(g, bfs_parents(g, source, target), source, target);
}

ShortestPath dijkstra_path(const UnitDiskGraph& g, NodeId source, NodeId target) {
  if (source >= g.size() || target >= g.size()) return {};
  return extract_path(g, dijkstra_parents(g, source, target), source, target);
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
  thread_local HopSearchScratch scratch;
  return hop_distance(g, u, v, scratch) != kUnreachableHops;
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
