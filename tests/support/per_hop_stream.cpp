#include "support/per_hop_stream.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/graph_algos.h"
#include "mobility/waypoint.h"
#include "routing/router.h"
#include "safety/labeling.h"
#include "sim/event_queue.h"
#include "util/check.h"

namespace spr::test {

namespace {

StreamOutcome outcome_of(RouteStatus status) noexcept {
  switch (status) {
    case RouteStatus::kDelivered: return StreamOutcome::kDelivered;
    case RouteStatus::kTtlExpired: return StreamOutcome::kTtlExpired;
    case RouteStatus::kDeadEnd: return StreamOutcome::kDeadEnd;
  }
  return StreamOutcome::kDeadEnd;
}

constexpr std::size_t kNoOracle = static_cast<std::size_t>(-1);

/// One scheme's copy of one packet.
struct Flight {
  StreamOutcome outcome = StreamOutcome::kInFlight;
  std::unique_ptr<RouteStepper> stepper;  ///< null once finished
  std::size_t hops = 0;          ///< across re-planned segments
  double length = 0.0;           ///< across re-planned segments, meters
  std::size_t local_minima = 0;  ///< across re-planned segments
  std::size_t replans = 0;       ///< steppers rebuilt mid-flight
  double finish_time = 0.0;
};

/// One injected packet: shared endpoints + oracle, one Flight per scheme.
struct Packet {
  double inject_time = 0.0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::size_t oracle_hops = 0;  ///< BFS optimum at injection; 0 = unreachable
  bool injected = false;
  std::vector<Flight> flights;
};

void harvest(Flight& flight) {
  PathResult segment = flight.stepper->take_result();
  flight.hops += segment.hops();
  flight.length += segment.length;
  flight.local_minima += segment.local_minima;
}

void finalize(Flight& flight, StreamOutcome outcome, double now) {
  flight.stepper.reset();
  flight.outcome = outcome;
  flight.finish_time = now;
}

}  // namespace

StreamStats run_stream_per_hop(Network initial, const StreamConfig& base) {
  // Constructor-time normalization, exactly as StreamSim does it.
  StreamConfig config = base;
  const std::string problem = config.validate();
  SPR_CHECK(problem.empty(), problem);
  Network net = std::move(initial);
  WaypointConfig waypoint = config.waypoint;
  waypoint.field = net.deployment().field;
  WaypointModel mobility(net.deployment().positions, waypoint,
                         Rng(config.seed ^ 0x5712));
  if (config.schemes.empty()) config.schemes = SweepConfig::paper_schemes();
  if (config.pairs.empty()) config.packets = 0;
  unsigned needs = Network::kNeedsNone;
  for (const auto& spec : config.schemes) {
    needs |= Network::needs_for(spec.scheme);
  }
  net.force(needs);

  std::vector<std::unique_ptr<Router>> routers;
  auto rebuild_routers = [&] {
    routers.clear();
    for (const auto& spec : config.schemes) {
      routers.push_back(net.make_router(spec.scheme, spec.slgf2_options));
    }
  };
  rebuild_routers();

  const std::size_t n_schemes = config.schemes.size();
  StreamStats stats;
  stats.schemes.resize(n_schemes);
  for (std::size_t k = 0; k < n_schemes; ++k) {
    stats.schemes[k].label = config.schemes[k].display_label();
  }

  std::vector<Packet> packets(static_cast<std::size_t>(config.packets));
  for (std::size_t p = 0; p < packets.size(); ++p) {
    packets[p].flights.resize(n_schemes);
    const auto& pair = config.pairs[p % config.pairs.size()];
    packets[p].src = pair.first;
    packets[p].dst = pair.second;
  }

  // Per-pair BFS optimum for the current topology epoch, filled at the
  // first injection after each topology change.
  std::vector<std::size_t> oracle_cache(config.pairs.size(), kNoOracle);
  bool oracle_ready = false;
  // A plain one-directional BFS per eligible pair: the reference for the
  // engine's bidirectional hop_distances.
  auto build_epoch_oracle = [&] {
    oracle_ready = true;
    for (std::size_t i = 0; i < config.pairs.size(); ++i) {
      const auto& [s, d] = config.pairs[i];
      if (s < net.graph().size() && d < net.graph().size() &&
          net.graph().alive(s)) {
        oracle_cache[i] = bfs_path(net.graph(), s, d).hops();
      } else {
        oracle_cache[i] = kNoOracle;
      }
    }
  };
  auto invalidate_oracle = [&] {
    std::fill(oracle_cache.begin(), oracle_cache.end(), kNoOracle);
    oracle_ready = false;
  };

  std::size_t live = 0;  // copies currently in flight

  // A topology change: every in-flight copy re-plans from its current node
  // with its remaining TTL, or drops if its carrier is gone. Its pending
  // hop event keeps firing and steps the new stepper.
  auto replan_flights = [&](double now, std::size_t* in_flight,
                            std::size_t* dropped) {
    for (auto& packet : packets) {
      if (!packet.injected) continue;
      for (std::size_t k = 0; k < n_schemes; ++k) {
        Flight& flight = packet.flights[k];
        if (flight.outcome != StreamOutcome::kInFlight ||
            flight.stepper == nullptr) {
          continue;
        }
        NodeId at = flight.stepper->current();
        std::size_t budget = flight.stepper->ttl_remaining();
        harvest(flight);
        if (!net.graph().alive(at)) {
          ++*dropped;
          finalize(flight, StreamOutcome::kNodeFailed, now);
          --live;
          continue;
        }
        ++*in_flight;
        ++flight.replans;
        flight.stepper = routers[k]->make_stepper(at, packet.dst,
                                                  config.route_options, budget);
        if (!flight.stepper->in_flight()) {
          RouteStatus status = flight.stepper->result().status;
          harvest(flight);
          finalize(flight, outcome_of(status), now);
          --live;
        }
      }
    }
  };

  struct Ev {
    enum class Kind : unsigned char { kInject, kHop, kWave, kRepin };
    Kind kind = Kind::kInject;
    std::size_t index = 0;  ///< packet / flight / wave id (kind-dependent)
  };
  EventQueue<Ev> queue;
  SimClock clock;
  // Flight ids are packet-major so one hop event addresses one copy.
  auto flight_id = [n_schemes](std::size_t p, std::size_t k) {
    return p * n_schemes + k;
  };

  // The whole input timeline up front: injections, then the failure waves
  // in time order, then the first re-pin. Same-instant ties resolve by
  // push order, so an injection due at a wave's instant fires before it
  // and a hop event due then (pushed mid-run) fires after it.
  for (std::size_t p = 0; p < packets.size(); ++p) {
    queue.push(static_cast<double>(p) * config.packet_interval,
               Ev{Ev::Kind::kInject, p});
  }
  std::vector<std::size_t> wave_order(config.waves.size());
  std::iota(wave_order.begin(), wave_order.end(), std::size_t{0});
  std::stable_sort(wave_order.begin(), wave_order.end(),
                   [&config](std::size_t a, std::size_t b) {
                     return config.waves[a].time < config.waves[b].time;
                   });
  for (std::size_t wi : wave_order) {
    queue.push(config.waves[wi].time, Ev{Ev::Kind::kWave, wi});
  }
  if (config.mobility_interval > 0.0 && !packets.empty()) {
    queue.push(config.mobility_interval, Ev{Ev::Kind::kRepin, 0});
  }

  std::size_t injected_count = 0;
  while (!queue.empty()) {
    auto timed = queue.pop();
    clock.advance_to(timed.time);
    const double now = clock.now();
    ++stats.events;

    switch (timed.event.kind) {
      case Ev::Kind::kInject: {
        Packet& packet = packets[timed.event.index];
        packet.injected = true;
        packet.inject_time = now;
        ++injected_count;
        const bool source_up = packet.src < net.graph().size() &&
                               net.graph().alive(packet.src);
        if (source_up && packet.dst < net.graph().size()) {
          if (!oracle_ready) build_epoch_oracle();
          std::size_t cached =
              oracle_cache[timed.event.index % config.pairs.size()];
          packet.oracle_hops = cached == kNoOracle ? 0 : cached;
        }
        for (std::size_t k = 0; k < n_schemes; ++k) {
          Flight& flight = packet.flights[k];
          if (!source_up) {
            finalize(flight, StreamOutcome::kNodeFailed, now);
            continue;
          }
          flight.stepper = routers[k]->make_stepper(packet.src, packet.dst,
                                                    config.route_options);
          if (!flight.stepper->in_flight()) {
            RouteStatus status = flight.stepper->result().status;
            harvest(flight);
            finalize(flight, outcome_of(status), now);
            continue;
          }
          queue.push(now + config.hop_delay,
                     Ev{Ev::Kind::kHop, flight_id(timed.event.index, k)});
          ++live;
        }
        break;
      }
      case Ev::Kind::kHop: {
        Flight& flight = packets[timed.event.index / n_schemes]
                             .flights[timed.event.index % n_schemes];
        // Stale events for copies dropped by a wave just evaporate.
        if (flight.outcome != StreamOutcome::kInFlight ||
            flight.stepper == nullptr) {
          break;
        }
        if (flight.stepper->step()) {
          queue.push(now + config.hop_delay,
                     Ev{Ev::Kind::kHop, timed.event.index});
        } else {
          RouteStatus status = flight.stepper->result().status;
          harvest(flight);
          finalize(flight, outcome_of(status), now);
          --live;
        }
        break;
      }
      case Ev::Kind::kWave: {
        const StreamWave& wave = config.waves[timed.event.index];
        std::vector<NodeId> casualties;
        for (NodeId u : wave.casualties) {
          if (u < net.graph().size() && net.graph().alive(u)) {
            casualties.push_back(u);
          }
        }
        WaveRecord record;
        record.time = now;
        record.casualties = casualties.size();
        if (casualties.empty()) {  // a no-op wave forces no re-plans
          stats.waves.push_back(std::move(record));
          break;
        }
        routers.clear();  // routers reference the outgoing substrate
        Network degraded = net.with_failures(casualties, &record.relabel);
        if (config.verify_relabeling && degraded.has_safety()) {
          record.verified = true;
          record.matches_full_recompute =
              compute_safety(degraded.graph(), degraded.interest_area()) ==
              degraded.safety();
        }
        net = std::move(degraded);
        invalidate_oracle();
        rebuild_routers();
        replan_flights(now, &record.packets_in_flight, &record.packets_dropped);
        stats.waves.push_back(std::move(record));
        break;
      }
      case Ev::Kind::kRepin: {
        mobility.advance(config.mobility_dt);
        routers.clear();
        RepinRecord record;
        record.time = now;
        EdgeDiff diff;
        Network moved =
            net.with_moves(mobility.positions(), &record.relabel, &diff);
        record.moved = diff.moved_nodes;
        record.edges_added = diff.added.size();
        record.edges_removed = diff.removed.size();
        if (config.verify_relabeling && moved.has_safety()) {
          record.verified = true;
          record.matches_full_recompute =
              compute_safety(moved.graph(), moved.interest_area()) ==
              moved.safety();
        }
        net = std::move(moved);
        invalidate_oracle();
        rebuild_routers();
        replan_flights(now, &record.packets_in_flight, &record.packets_dropped);
        ++stats.repins;
        stats.repin_records.push_back(std::move(record));
        if (injected_count < packets.size() || live > 0) {
          queue.push(now + config.mobility_interval, Ev{Ev::Kind::kRepin, 0});
        }
        break;
      }
    }
  }
  stats.virtual_time = clock.now();

  // Per-scheme totals in packet order.
  for (const auto& packet : packets) {
    if (!packet.injected) continue;
    for (std::size_t k = 0; k < n_schemes; ++k) {
      const Flight& flight = packet.flights[k];
      StreamSchemeStats& s = stats.schemes[k];
      ++s.injected;
      s.replans.add(static_cast<double>(flight.replans));
      s.local_minima.add(static_cast<double>(flight.local_minima));
      switch (flight.outcome) {
        case StreamOutcome::kDelivered:
          ++s.delivered;
          s.hops.add(static_cast<double>(flight.hops));
          s.length.add(flight.length);
          if (packet.oracle_hops > 0) {
            s.stretch_hops.add(static_cast<double>(flight.hops) /
                               static_cast<double>(packet.oracle_hops));
          }
          s.latency.add(flight.finish_time - packet.inject_time);
          break;
        case StreamOutcome::kTtlExpired:
          ++s.ttl_expired;
          break;
        case StreamOutcome::kNodeFailed:
          ++s.node_failed;
          break;
        case StreamOutcome::kDeadEnd:
        case StreamOutcome::kInFlight:  // unreachable: the queue drained
          ++s.dead_end;
          break;
      }
    }
  }
  return stats;
}

}  // namespace spr::test
