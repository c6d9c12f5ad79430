#pragma once

/// \file event_queue.h
/// A deterministic timed event queue and a virtual clock, the timeline of
/// the per-hop stream reference (support/per_hop_stream.h), which pushes
/// one event per injection, hop, wave and re-pin. StreamSim itself runs
/// barrier to barrier and needs no heap; the reference's push order is the
/// definition of its same-instant tie rules.
///
/// Determinism: events are totally ordered by (time, insertion sequence),
/// so two events at the same instant pop in the order they were pushed.
/// Runs that push the same events in the same order are bit-identical.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace spr::test {

/// Virtual simulation clock. Advances monotonically as events are
/// consumed; never runs backwards even if asked to.
class SimClock {
 public:
  double now() const noexcept { return now_; }

  /// Moves the clock forward to `t` (no-op when `t` is in the past —
  /// events are popped in time order, so this only guards against
  /// same-instant jitter).
  void advance_to(double t) noexcept {
    if (t > now_) now_ = t;
  }

  void reset() noexcept { now_ = 0.0; }

 private:
  double now_ = 0.0;
};

/// Min-heap of timed events carrying payloads of type `Event`. Ties on
/// time break by insertion sequence (FIFO), making the pop order total and
/// deterministic for a given push sequence.
template <typename Event>
class EventQueue {
 public:
  struct Timed {
    double time = 0.0;
    std::uint64_t seq = 0;
    Event event;
  };

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  void push(double time, Event event) {
    heap_.push_back(Timed{time, next_seq_++, std::move(event)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// The earliest event (undefined when empty).
  const Timed& top() const noexcept { return heap_.front(); }

  /// Removes and returns the earliest event (undefined when empty).
  Timed pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Timed timed = std::move(heap_.back());
    heap_.pop_back();
    return timed;
  }

 private:
  /// Strict-weak "fires later" order; the heap keeps the earliest on top.
  struct Later {
    bool operator()(const Timed& a, const Timed& b) const noexcept {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  std::vector<Timed> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace spr::test
