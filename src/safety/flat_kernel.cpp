#include "safety/flat_kernel.h"

#include <bit>
#include <cstring>
#include <vector>

#include "safety/labeling.h"
#include "safety/zone_scan.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace spr {

namespace {

std::uint64_t* alloc_words(Arena& arena, std::size_t words, bool zero) {
  auto* p = static_cast<std::uint64_t*>(
      arena.allocate(words * sizeof(std::uint64_t), alignof(std::uint64_t)));
  if (zero && words > 0) std::memset(p, 0, words * sizeof(std::uint64_t));
  return p;
}

}  // namespace

Arena& FlatLabeler::scratch() {
  // One retained block per thread: the first labeling epoch sizes it, every
  // later epoch on this thread bump-allocates out of the same memory.
  static thread_local Arena arena(1 << 20);
  return arena;
}

FlatLabeler::FlatLabeler(const UnitDiskGraph& g, const InterestArea* area,
                         Arena& arena)
    : g_(g),
      zones_(g.zones()),
      arena_(arena),
      n_(g.size()),
      node_words_((g.size() + 63) / 64),
      key_words_((4 * g.size() + 63) / 64),
      flips_(ArenaAllocator<std::uint32_t>(arena)),
      raised_(ArenaAllocator<std::uint32_t>(arena)) {
  for (int ti = 0; ti < 4; ++ti) {
    safe_[ti] = alloc_words(arena, node_words_, false);
  }
  elig_ = alloc_words(arena, node_words_, true);
  pend_ = alloc_words(arena, key_words_, true);
  for (NodeId u = 0; u < n_; ++u) {
    if (g.alive(u) && (area == nullptr || !area->is_edge_node(u))) {
      elig_[u >> 6] |= 1ull << (u & 63);
    }
  }
  // Exact worst-case sizes: nothing here ever regrows, so the arena never
  // strands a stale block mid-epoch.
  fifo_cap_ = 4 * n_;
  fifo_ = static_cast<std::uint32_t*>(
      arena.allocate(fifo_cap_ * sizeof(std::uint32_t), alignof(std::uint32_t)));
  flips_.reserve(4 * n_);
}

void FlatLabeler::start_all_safe() {
  for (int ti = 0; ti < 4; ++ti) {
    std::memset(safe_[ti], 0xff, node_words_ * sizeof(std::uint64_t));
  }
}

void FlatLabeler::start_from(const SafetyInfo& info) {
  for (int ti = 0; ti < 4; ++ti) {
    std::memset(safe_[ti], 0, node_words_ * sizeof(std::uint64_t));
  }
  for (NodeId u = 0; u < n_; ++u) {
    const SafetyTuple& tuple = info.tuple(u);
    for (int ti = 0; ti < 4; ++ti) {
      if (tuple.is_safe(kAllZoneTypes[ti])) set_safe_bit(u, ti);
    }
  }
}

bool FlatLabeler::must_flip(NodeId u, int ti) const noexcept {
  for (NodeId v : zones_.members(u, kAllZoneTypes[ti])) {
    if (safe_bit(v, ti)) return false;
  }
  return true;
}

void FlatLabeler::apply_flip(std::uint32_t k) {
  const NodeId u = key_node(k);
  const int ti = key_type(k);
  // Demotions are monotone: a pair flips 1 -> 0 exactly once.
  SPR_DCHECK(safe_bit(u, ti), "double flip of node ", u, " type ", ti);
  clear_safe_bit(u, ti);
  flips_.push_back(k);
  // u's flip can only affect the w that see u inside Q_t(w). Skip the ones
  // that can never flip (pinned/dead) or already have (monotone).
  for (NodeId w : zones_.observers(u, kAllZoneTypes[ti])) {
    if (!safe_bit(w, ti) || !eligible(w)) continue;
    enqueue(w, ti);
  }
}

bool FlatLabeler::enqueue(NodeId u, int ti) {
  SPR_DCHECK(u < n_, "enqueue of out-of-range node ", u, " (n=", n_, ")");
  const std::uint32_t k = key(u, ti);
  std::uint64_t& word = pend_[k >> 6];
  const std::uint64_t bit = 1ull << (k & 63);
  if ((word & bit) != 0) return false;
  word |= bit;
  // The pend bits cap the ring at one slot per (node, type), so occupancy
  // can reach fifo_cap_ only through a pend/count mismatch.
  SPR_DCHECK(fifo_count_ < fifo_cap_, "FIFO ring overflow: count=",
             fifo_count_, " cap=", fifo_cap_, " at key ", k);
  std::size_t tail = fifo_head_ + fifo_count_;
  if (tail >= fifo_cap_) tail -= fifo_cap_;
  fifo_[tail] = k;
  ++fifo_count_;
  ++stats_.pushes;
  return true;
}

void FlatLabeler::initial_round() {
  // The vacuous flips are a pure function of the topology — Q_t(u) holds no
  // neighbor at all — so one ascending scan applies them in key order,
  // enqueueing their observers exactly like the scalar oracle.
  for (NodeId u = 0; u < n_; ++u) {
    if (!eligible(u)) continue;
    for (int ti = 0; ti < 4; ++ti) {
      if (!zones_.members(u, kAllZoneTypes[ti]).empty()) continue;
      ++stats_.init_flips;
      apply_flip(key(u, ti));
    }
  }
}

std::size_t FlatLabeler::drain() {
  const std::size_t before = flips_.size();
  while (fifo_count_ != 0) {
    const std::uint32_t k = fifo_[fifo_head_];
    if (++fifo_head_ >= fifo_cap_) fifo_head_ = 0;
    --fifo_count_;
    // Every ring slot was published with its pend bit set and nothing else
    // clears the bit; a clear bit here means the dedup discipline broke.
    SPR_DCHECK((pend_[k >> 6] >> (k & 63)) & 1u,
               "popped key ", k, " without its pend bit");
    pend_[k >> 6] &= ~(1ull << (k & 63));
    const NodeId u = key_node(k);
    const int ti = key_type(k);
    if (!eligible(u) || !safe_bit(u, ti)) continue;
    ++stats_.reevaluations;
    if (!must_flip(u, ti)) continue;
    apply_flip(k);
    ++stats_.flips;
  }
  return flips_.size() - before;
}

std::span<const std::uint32_t> FlatLabeler::raise_clusters(
    std::span<const std::uint32_t> sources) {
  raised_.clear();
  if (raised_.capacity() == 0) raised_.reserve(4 * n_);
  if (mark_ == nullptr) mark_ = alloc_words(arena_, key_words_, false);
  std::memset(mark_, 0, key_words_ * sizeof(std::uint64_t));

  // Test-and-set on the mark bits: a flood stops at pairs an earlier flood
  // already claimed, so the marked set is the union of the touched clusters.
  auto claim = [&](std::uint32_t k) {
    std::uint64_t& word = mark_[k >> 6];
    const std::uint64_t bit = 1ull << (k & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  };
  static thread_local std::vector<NodeId> stack;
  for (const std::uint32_t src : sources) {
    const NodeId su = key_node(src);
    const int ti = key_type(src);
    // Dead nodes hold fresh all-safe tuples, so the unsafe guard also
    // filters them.
    if (safe_bit(su, ti) || !claim(src)) continue;
    stack.clear();
    stack.push_back(su);
    while (!stack.empty()) {
      const NodeId w = stack.back();
      stack.pop_back();
      for (NodeId v : g_.neighbors(w)) {
        if (safe_bit(v, ti)) continue;
        if (claim(key(v, ti))) stack.push_back(v);
      }
    }
  }

  // Collect ascending from the bit words and re-raise the bits.
  for (std::size_t w = 0; w < key_words_; ++w) {
    std::uint64_t bits = mark_[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto k = static_cast<std::uint32_t>(w * 64 + b);
      set_safe_bit(key_node(k), key_type(k));
      raised_.push_back(k);
    }
  }
  return {raised_.data(), raised_.size()};
}

namespace {

/// Explicit-stack frame of the anchor recursion: phase 0 enters a node
/// (scan + push children), phase 1 combines the children's resolved
/// anchors.
struct AnchorFrame {
  NodeId u;
  NodeId v_first;
  NodeId v_last;
  std::uint8_t phase;
};

constexpr std::uint8_t kUnvisited = 0;
constexpr std::uint8_t kVisiting = 1;
constexpr std::uint8_t kDone = 2;

}  // namespace

std::size_t FlatLabeler::compute_anchors(SafetyInfo& info, TaskPool* pool) {
  auto* state = static_cast<std::uint8_t*>(arena_.allocate(4 * n_, 1));
  std::memset(state, 0, 4 * n_);

  // The memoized first/last-path recursion of Algorithm 2 as an explicit-
  // stack DFS, exactly replicating the scalar recursion's call order (push
  // v_last below v_first so the first chain resolves first).
  auto resolve_from = [&](NodeId root, int ti, std::uint8_t* st) {
    const ZoneType t = kAllZoneTypes[ti];
    static thread_local std::vector<AnchorFrame> stack;
    stack.push_back(AnchorFrame{root, 0, 0, 0});
    while (!stack.empty()) {
      AnchorFrame& f = stack.back();
      const NodeId u = f.u;
      ShapeAnchors& a = info.tuple(u).anchors_for(t);
      if (f.phase == 1) {
        // Combine: first via the first-hit chain, last via the last-hit
        // chain. Unconditional, like the recursion after its calls return
        // (a cycle guard may have self-anchored u in between).
        const ShapeAnchors& fa = info.tuple(f.v_first).anchors_for(t);
        const ShapeAnchors& la = info.tuple(f.v_last).anchors_for(t);
        a.first = fa.first;
        a.first_pos = fa.first_pos;
        a.last = la.last;
        a.last_pos = la.last_pos;
        st[u] = kDone;
        stack.pop_back();
        continue;
      }
      if (st[u] == kDone) {
        stack.pop_back();
        continue;
      }
      if (st[u] == kVisiting) {
        // Cycle guard: anchor at self (measure-impossible, but defended).
        a.first = a.last = u;
        a.first_pos = a.last_pos = g_.position(u);
        st[u] = kDone;
        stack.pop_back();
        continue;
      }
      st[u] = kVisiting;
      FirstLastScan scan(g_.position(u), t);
      for (NodeId v : zones_.members(u, t)) {
        if (!safe_bit(v, ti)) scan.consider(v, g_.position(v));
      }
      if (scan.empty()) {
        a.first = a.last = u;
        a.first_pos = a.last_pos = g_.position(u);
        st[u] = kDone;
        stack.pop_back();
        continue;
      }
      const NodeId v_first = scan.first();
      const NodeId v_last = scan.last();
      f.v_first = v_first;
      f.v_last = v_last;
      f.phase = 1;
      // (`f` dangles after these pushes.)
      stack.push_back(AnchorFrame{v_last, 0, 0, 0});
      stack.push_back(AnchorFrame{v_first, 0, 0, 0});
    }
  };

  // One global ascending pass per type — the scalar oracle's schedule
  // verbatim — resolving each unsafe pair on first touch. An anchor chain
  // never leaves its type (first/last successors are type-t unsafe quadrant
  // members), so the four passes touch disjoint `st` rows and disjoint
  // anchor slots and fan out freely; within a pass the schedule is serial
  // either way, so the written bytes are identical for every worker count.
  std::size_t written[4] = {0, 0, 0, 0};
  auto run_type = [&](int ti) {
    std::uint8_t* st = state + static_cast<std::size_t>(ti) * n_;
    for (NodeId u = 0; u < n_; ++u) {
      if (safe_bit(u, ti)) continue;
      ++written[ti];
      if (st[u] != kDone) resolve_from(u, ti, st);
    }
  };
  parallel_for_blocked(pool, 4, 1,
                       [&](std::size_t range_begin, std::size_t range_end) {
                         for (std::size_t ti = range_begin; ti < range_end;
                              ++ti) {
                           run_type(static_cast<int>(ti));
                         }
                       });
  return written[0] + written[1] + written[2] + written[3];
}

}  // namespace spr
