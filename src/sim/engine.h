#pragma once

/// \file engine.h
/// Synchronous round-based message-passing engine (paper Section 3: "we
/// describe all the schemes in a synchronous, round-based system").
///
/// Each node runs a process callback once per round with the messages its
/// neighbors broadcast in the previous round; it may answer with one
/// broadcast of its own. The engine runs until quiescence (a round in which
/// nothing was sent) or a round cap, and accounts messages and rounds —
/// the construction-cost experiment reads these counters.
///
/// Rounds sit on the shared discrete-event core (sim/event_queue.h): a
/// broadcast in round r pushes one delivery event per neighbor at virtual
/// time r+1, and the engine drains the queue up to the current round into
/// the inboxes before activating the nodes. The queue's FIFO tie-breaking
/// preserves the classic inbox order (senders in node-id order, neighbors
/// in sorted order).

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/node.h"
#include "graph/unit_disk.h"
#include "sim/event_queue.h"

namespace spr {

/// Totals reported by a run.
struct EngineStats {
  std::size_t rounds = 0;      ///< rounds run, the quiescent one included
  std::size_t broadcasts = 0;  ///< broadcast operations performed
  std::size_t receptions = 0;  ///< per-link deliveries

  /// Renders "rounds=R broadcasts=B receptions=M" for logs.
  std::string to_string() const;
};

/// Round-based engine carrying payloads of type `Payload` (a regular,
/// copyable value type).
template <typename Payload>
class RoundEngine {
 public:
  /// One received message.
  struct Incoming {
    NodeId sender;
    Payload payload;
  };

  /// Node behaviour: invoked each round; returning a payload broadcasts it
  /// to all neighbors for delivery next round.
  using Process =
      std::function<std::optional<Payload>(NodeId self, std::size_t round,
                                           std::span<const Incoming> inbox)>;

  explicit RoundEngine(const UnitDiskGraph& graph) : graph_(graph) {}

  /// Runs until quiescence or `max_rounds`. The process is called for every
  /// alive node each round (round 0 has empty inboxes, letting nodes send
  /// their initial broadcasts).
  EngineStats run(const Process& process, std::size_t max_rounds) {
    struct Delivery {
      NodeId target;
      Incoming message;
    };
    const std::size_t n = graph_.size();
    std::vector<std::vector<Incoming>> inbox(n);
    EventQueue<Delivery> queue;
    SimClock clock;
    EngineStats stats;
    for (std::size_t round = 0; round < max_rounds; ++round) {
      ++stats.rounds;
      // Deliver everything scheduled for this round (sent last round).
      // Round times are small exact integers, so the comparison is exact.
      while (!queue.empty() &&
             queue.top().time <= static_cast<double>(round)) {
        auto timed = queue.pop();
        clock.advance_to(timed.time);
        inbox[timed.event.target].push_back(std::move(timed.event.message));
      }
      bool any_sent = false;
      for (NodeId u = 0; u < n; ++u) {
        if (!graph_.alive(u)) continue;
        std::optional<Payload> out = process(u, round, inbox[u]);
        if (out) {
          any_sent = true;
          ++stats.broadcasts;
          for (NodeId v : graph_.neighbors(u)) {
            queue.push(static_cast<double>(round + 1),
                       Delivery{v, Incoming{u, *out}});
            // Counted at send (= sum of sender degrees), matching the
            // engine's historical accounting even when the round cap
            // leaves the final sends undelivered.
            ++stats.receptions;
          }
        }
      }
      for (auto& box : inbox) box.clear();
      if (!any_sent) break;  // quiescent: nothing in flight
    }
    return stats;
  }

 private:
  const UnitDiskGraph& graph_;
};

}  // namespace spr
