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
/// A broadcast in round r appends one message per neighbor to that
/// neighbor's next-round inbox, and the two inbox sets swap between
/// rounds. Nodes run in id order, so every inbox lists its messages by
/// sender id (one per sender).

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/node.h"
#include "graph/unit_disk.h"

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
    const std::size_t n = graph_.size();
    std::vector<std::vector<Incoming>> inbox(n);  // sent last round
    std::vector<std::vector<Incoming>> next(n);   // sent this round
    EngineStats stats;
    for (std::size_t round = 0; round < max_rounds; ++round) {
      ++stats.rounds;
      bool any_sent = false;
      for (NodeId u = 0; u < n; ++u) {
        if (!graph_.alive(u)) continue;
        std::optional<Payload> out = process(u, round, inbox[u]);
        if (out) {
          any_sent = true;
          ++stats.broadcasts;
          for (NodeId v : graph_.neighbors(u)) {
            next[v].push_back(Incoming{u, *out});
            // Counted at send (= sum of sender degrees), matching the
            // engine's historical accounting even when the round cap
            // leaves the final sends undelivered.
            ++stats.receptions;
          }
        }
      }
      if (!any_sent) break;  // quiescent: nothing in flight
      for (auto& box : inbox) box.clear();
      inbox.swap(next);
    }
    return stats;
  }

 private:
  const UnitDiskGraph& graph_;
};

}  // namespace spr
