#include "sim/stream_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>

#include "graph/graph_algos.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace spr {

namespace {

StreamOutcome outcome_of(RouteStatus status) noexcept {
  switch (status) {
    case RouteStatus::kDelivered: return StreamOutcome::kDelivered;
    case RouteStatus::kTtlExpired: return StreamOutcome::kTtlExpired;
    case RouteStatus::kDeadEnd: return StreamOutcome::kDeadEnd;
  }
  return StreamOutcome::kDeadEnd;
}

WaypointConfig pin_field(WaypointConfig wc, const Rect& field) {
  wc.field = field;  // the waypoint process roams exactly the deployed field
  return wc;
}

/// The flight records of one run: per-packet and per-flight state in
/// parallel arrays. Flight f = p * n_schemes + k is scheme k's copy of
/// packet p, so one id addresses one copy and the final reduction walks
/// the arrays in packet-major order. Stepper slots are pooled: armed in
/// place via Router::restart_stepper when a flight parked at injection
/// first needs its own header (a re-plan, or a step batch after a barrier
/// that changed nothing), released when the flight terminates — after the
/// ramp-up the steady state allocates nothing.
struct FlightRecords {
  // Per packet.
  std::vector<double> inject_time;
  std::vector<NodeId> src;
  std::vector<NodeId> dst;
  std::vector<std::size_t> oracle_hops;  ///< BFS optimum; 0 = unreachable
  // Per flight (packet-major).
  std::vector<StreamOutcome> outcome;
  std::vector<std::uint32_t> hops;          ///< across re-planned segments
  std::vector<std::uint32_t> local_minima;  ///< across re-planned segments
  std::vector<std::uint32_t> replans;
  std::vector<double> length;  ///< across re-planned segments, meters
  std::vector<double> finish_time;
  /// While in flight, the instant of the next call (its pending hop).
  std::vector<double> next_at;
  /// Set at a re-pin for a copy whose pending hop falls on the next
  /// re-pin's instant: that call precedes that re-pin.
  std::vector<unsigned char> early;
  /// Pooled slots, released when done. An in-flight flight whose slot is
  /// unarmed was parked from its group's trace: its hops / length /
  /// local_minima hold the prefix it walked before the barrier, and the
  /// trace holds the node it stopped at.
  std::vector<RouteStepper> steppers;
};

/// No barrier ahead: every later instant stays in the current epoch.
constexpr double kNoBarrier = std::numeric_limits<double>::infinity();

/// Where a walk stands after some non-terminal step() calls.
struct TracePoint {
  NodeId node = kInvalidNode;
  std::uint32_t local_minima = 0;
  double length = 0.0;
};

/// The walk of one (scheme, pair) group in the current epoch. Copies of a
/// group injected into the same epoch take the same deterministic walk
/// (restart_stepper is bit-identical to a fresh stepper, property-tested
/// per scheme), so one representative stepper walks it once, lazily, and
/// every copy reads its state from the trace: a copy whose terminal call
/// lands before the barrier finishes from the terminal record, and one
/// that meets the barrier first parks without a stepper, holding only the
/// trail point it reached. Each copy still accumulates its own hop
/// instants (t = t + hop_delay), so finish times stay bit-identical, and
/// copies injected later under the same barrier never need a deeper trail
/// than the first (FP addition is monotone). A trace survives a wave that
/// kills nothing.
struct GroupTrace {
  bool armed = false;
  RouteStepper rep;  ///< the representative; released at its terminal call
  std::size_t ttl = 0;      ///< the hop budget it was armed with
  std::uint32_t calls = 0;  ///< step() calls the representative made
  /// The barrier it has been stepped up to: every instant before it of
  /// the first copy injected under it (-inf: not stepped yet).
  double stepped_to = -kNoBarrier;
  /// trail[c] is the state after c non-terminal calls, recorded only while
  /// a barrier lies ahead (otherwise no copy can park).
  std::vector<TracePoint> trail;
  bool done = false;  ///< the terminal call is in: the record below holds
  RouteStatus status = RouteStatus::kDeadEnd;
  std::uint32_t hops = 0;
  std::uint32_t local_minima = 0;
  double length = 0.0;

  void arm(const Router& router, NodeId s, NodeId d,
           const RouteOptions& options, double barrier) {
    armed = true;
    stepped_to = -kNoBarrier;
    calls = 0;
    done = false;
    trail.clear();
    router.restart_stepper(rep, s, d, options);
    rep.set_record_path(false);
    ttl = rep.ttl_remaining();
    if (barrier != kNoBarrier) trail.push_back(TracePoint{s, 0, 0.0});
    // Degenerate (already at the destination / invalid sink): the walk
    // ends without a call, at the injection instant.
    if (!rep.in_flight()) close();
  }

  /// Steps the representative through every hop instant before `barrier`
  /// of a copy injected at `now`, or to its terminal call.
  void step_until(double now, double hop_delay, double barrier) {
    stepped_to = barrier;
    double at = now + hop_delay;
    for (std::uint32_t c = 0; !done && at < barrier; ++c, at += hop_delay) {
      if (c < calls) continue;
      ++calls;
      if (!rep.step()) {
        close();
      } else if (barrier != kNoBarrier) {
        const PathResult& walk = rep.result();
        trail.push_back(TracePoint{
            rep.current(), static_cast<std::uint32_t>(walk.local_minima),
            walk.length});
      }
    }
  }

  void close() {
    const PathResult& walk = rep.result();
    done = true;
    status = walk.status;
    hops = static_cast<std::uint32_t>(rep.hops_taken());
    local_minima = static_cast<std::uint32_t>(walk.local_minima);
    length = walk.length;
    rep.release();
  }
};

/// The hop instants a copy injected at `now` reaches along a trace: call
/// c + 1 executes at t_c + hop_delay (t_0 = now), accumulated iteratively
/// as a per-hop schedule pushes them, and only instants before `barrier`
/// are taken.
struct Reach {
  std::uint32_t calls = 0;  ///< calls taken, at most the trace's
  double last = 0.0;        ///< instant of the last one (now if none)
  double next = 0.0;        ///< instant the next call would take
};

/// Out of line on purpose: inlined into the injection loop, GCC kept this
/// loop's instant chain on the stack, a store-load round trip per hop
/// instant that made the barrier-free BM_StreamSimFlightRecord about 40%
/// slower.
[[gnu::noinline]] Reach reach(double now, double hop_delay, double barrier,
                              std::uint32_t trace_calls) {
  std::uint32_t calls = 0;
  double last = now;
  double next = now + hop_delay;
  while (calls < trace_calls && next < barrier) {
    last = next;
    next = last + hop_delay;
    ++calls;
  }
  return Reach{calls, last, next};
}

}  // namespace

std::vector<StreamWave> spread_failure_waves(
    const UnitDiskGraph& g,
    std::span<const std::pair<NodeId, NodeId>> endpoints, double fraction,
    int waves, double span, Rng& rng) {
  std::vector<StreamWave> out;
  std::size_t total = static_cast<std::size_t>(
      std::max(0.0, fraction) * static_cast<double>(g.size()) + 0.5);
  if (total == 0 || waves <= 0) return out;
  std::vector<bool> endpoint(g.size(), false);
  for (const auto& [s, d] : endpoints) {
    if (s < g.size()) endpoint[s] = true;
    if (d < g.size()) endpoint[d] = true;
  }
  std::vector<NodeId> candidates;
  candidates.reserve(g.size());
  for (NodeId u = 0; u < g.size(); ++u) {
    if (!endpoint[u]) candidates.push_back(u);
  }
  total = std::min(total, candidates.size());
  for (int w = 0; w < waves; ++w) {
    StreamWave wave;
    wave.time =
        span * static_cast<double>(w + 1) / static_cast<double>(waves + 1);
    std::size_t share =
        total / static_cast<std::size_t>(waves) +
        (static_cast<std::size_t>(w) < total % static_cast<std::size_t>(waves)
             ? 1
             : 0);
    for (std::size_t c = 0; c < share && !candidates.empty(); ++c) {
      std::size_t pick = rng.next_below(candidates.size());
      wave.casualties.push_back(candidates[pick]);
      candidates[pick] = candidates.back();
      candidates.pop_back();
    }
    out.push_back(std::move(wave));
  }
  return out;
}

std::string StreamConfig::validate() const {
  auto not_finite_nonnegative = [](const char* field, double value) {
    std::ostringstream os;
    os << "StreamConfig::" << field << " must be finite and >= 0, got "
       << value;
    return os.str();
  };
  const std::pair<const char*, double> times[] = {
      {"hop_delay", hop_delay},
      {"packet_interval", packet_interval},
      {"mobility_interval", mobility_interval},
      {"mobility_dt", mobility_dt},
  };
  for (const auto& [field, value] : times) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      return not_finite_nonnegative(field, value);
    }
  }
  // The waypoint process runs only with mobility on. A NaN speed would
  // reach UnitDiskGraph's finite-position check at the first re-pin, and a
  // negative one walks nodes away from their waypoints, out of the field.
  if (mobility_interval > 0.0) {
    const std::pair<const char*, double> motion[] = {
        {"waypoint.min_speed_mps", waypoint.min_speed_mps},
        {"waypoint.max_speed_mps", waypoint.max_speed_mps},
        {"waypoint.pause_s", waypoint.pause_s},
    };
    for (const auto& [field, value] : motion) {
      if (!(std::isfinite(value) && value >= 0.0)) {
        return not_finite_nonnegative(field, value);
      }
    }
    if (waypoint.min_speed_mps > waypoint.max_speed_mps) {
      std::ostringstream os;
      os << "StreamConfig::waypoint.min_speed_mps must be <= max_speed_mps, "
            "got "
         << waypoint.min_speed_mps << " > " << waypoint.max_speed_mps;
      return os.str();
    }
  }
  // A NaN time would reach the wave sort and the barrier loop, whose
  // orderings need a strict weak order.
  for (std::size_t i = 0; i < waves.size(); ++i) {
    if (!(std::isfinite(waves[i].time) && waves[i].time >= 0.0)) {
      std::ostringstream os;
      os << "StreamConfig::waves[" << i
         << "].time must be finite and >= 0, got " << waves[i].time;
      return os.str();
    }
  }
  if (packets < 0) {
    return "StreamConfig::packets must be >= 0, got " +
           std::to_string(packets);
  }
  return {};
}

StreamSim::StreamSim(Network initial, StreamConfig config)
    : net_(std::move(initial)),
      config_(std::move(config)),
      mobility_(net_.deployment().positions,
                pin_field(config_.waypoint, net_.deployment().field),
                Rng(config_.seed ^ 0x5712)) {
  const std::string problem = config_.validate();
  SPR_CHECK(problem.empty(), problem);
  // The barrier loop orders hop instants against barriers with `<`, and an
  // instant that overflows to +inf is never below the +inf "no barrier".
  // A copy's instants are its injection plus at most one TTL of hops,
  // summed one at a time; twice the product bounds that sum's rounding.
  const double last_injection =
      static_cast<double>(std::max(config_.packets - 1, 0)) *
      config_.packet_interval;
  const double ttl_hops =
      static_cast<double>(config_.route_options.ttl_factor) *
      static_cast<double>(std::max<std::size_t>(net_.graph().size(), 1));
  SPR_CHECK(std::isfinite(last_injection + 2.0 * ttl_hops * config_.hop_delay),
            "StreamConfig::hop_delay ", config_.hop_delay,
            " overflows the hop instants: ", ttl_hops,
            " hops after the last injection (at ", last_injection,
            " with packet_interval ", config_.packet_interval,
            ") pass the largest double");
  if (config_.schemes.empty()) config_.schemes = SweepConfig::paper_schemes();
  // No endpoints means no traffic: clamp the packet count so the mobility
  // re-pin loop (which keeps firing while injections remain) terminates.
  if (config_.pairs.empty()) config_.packets = 0;
  // Force every structure the scheme set needs now, so the first failure
  // wave continues an already-built safety fixpoint incrementally instead
  // of triggering a from-scratch build mid-stream.
  unsigned needs = Network::kNeedsNone;
  for (const auto& spec : config_.schemes) {
    needs |= Network::needs_for(spec.scheme);
  }
  net_.force(needs);
  rebuild_routers();
}

StreamSim::~StreamSim() = default;

void StreamSim::rebuild_routers() {
  routers_.clear();
  routers_.reserve(config_.schemes.size());
  for (const auto& spec : config_.schemes) {
    routers_.push_back(net_.make_router(spec.scheme, spec.slgf2_options));
  }
}

void StreamSim::build_epoch_oracle(TaskPool* pool) {
  oracle_ready_ = true;
  // One exact hop count per pair for the whole epoch, fanned out over the
  // stepping pool. Pairs an injection would drop (dead or out-of-range
  // endpoints) are never read; unreachable pairs get 0, as
  // ShortestPath::hops() reports for an empty path.
  oracle_cache_ = hop_distances(net_.graph(), config_.pairs, pool);
  for (std::size_t& hops : oracle_cache_) {
    if (hops == kUnreachableHops) hops = 0;
  }
}

StreamStats StreamSim::run() {
  if (ran_) return stats_;
  ran_ = true;
  stats_.schemes.resize(config_.schemes.size());
  for (std::size_t k = 0; k < config_.schemes.size(); ++k) {
    stats_.schemes[k].label = config_.schemes[k].display_label();
  }
  run_flight_record();
  return stats_;
}

void StreamSim::run_flight_record() {
  const std::size_t n_schemes = config_.schemes.size();
  const std::size_t n_packets = static_cast<std::size_t>(config_.packets);
  const std::size_t n_flights = n_packets * n_schemes;

  FlightRecords rec;
  rec.inject_time.assign(n_packets, 0.0);
  rec.src.assign(n_packets, kInvalidNode);
  rec.dst.assign(n_packets, kInvalidNode);
  rec.oracle_hops.assign(n_packets, 0);
  rec.outcome.assign(n_flights, StreamOutcome::kInFlight);
  rec.hops.assign(n_flights, 0);
  rec.local_minima.assign(n_flights, 0);
  rec.replans.assign(n_flights, 0);
  rec.length.assign(n_flights, 0.0);
  rec.finish_time.assign(n_flights, 0.0);
  rec.next_at.assign(n_flights, 0.0);
  rec.early.assign(n_flights, 0);
  rec.steppers.resize(n_flights);
  for (std::size_t p = 0; p < n_packets; ++p) {
    const auto& pair = config_.pairs[p % config_.pairs.size()];
    rec.src[p] = pair.first;
    rec.dst[p] = pair.second;
  }

  // Stepping is read-only on the shared router/network structures: every
  // scheme's eager needs are forced in the constructor, and GF's lazy
  // recovery caches resolve atomically through Network's call_once
  // accessors, so each step batch can fan out across a pool without any
  // up-front priming; the merge below is serial and in flight-id order, so
  // the run is bit-identical across thread counts. The same pool runs each
  // epoch's hop oracle (build_epoch_oracle), which writes one slot per
  // pair and is just as thread-count independent.
  std::optional<TaskPool> pool;
  if (config_.threads > 1) pool.emplace(config_.threads);

  // Flight records only reduce aggregates, so the steppers run with path
  // recording off (`hops_taken` replaces `result().hops()`): no per-walk
  // buffer growth, and a finished flight's slot shrinks to its header.
  auto harvest_record = [&rec](std::size_t f) {
    const RouteStepper& slot = rec.steppers[f];
    const PathResult& segment = slot.result();
    rec.hops[f] += static_cast<std::uint32_t>(slot.hops_taken());
    rec.length[f] += segment.length;
    rec.local_minima[f] += static_cast<std::uint32_t>(segment.local_minima);
  };
  auto finalize_record = [&rec](std::size_t f, StreamOutcome outcome,
                                double when) {
    rec.outcome[f] = outcome;
    rec.finish_time[f] = when;
    rec.steppers[f].release();  // header + buffers
  };

  // One group trace per (scheme, pair), reset at every barrier that
  // changes the substrate (see GroupTrace).
  const std::size_t n_pairs = config_.pairs.size();
  std::vector<GroupTrace> traces(n_schemes * n_pairs);
  auto trace_of = [&traces, n_schemes, n_pairs](std::size_t f) -> GroupTrace& {
    return traces[(f % n_schemes) * n_pairs + (f / n_schemes) % n_pairs];
  };
  auto reset_traces = [&traces]() {
    for (GroupTrace& tr : traces) {
      if (!tr.armed) continue;
      tr.rep.release();
      tr.armed = false;
    }
  };

  // The copies in flight, in flight-id order: injections append (ids grow
  // with the packet), and every pass that finalizes copies compacts it.
  std::vector<std::uint32_t> live;
  auto drop_finished = [&rec, &live]() {
    std::erase_if(live, [&rec](std::uint32_t f) {
      return rec.outcome[f] != StreamOutcome::kInFlight;
    });
  };

  // The run ends at the last instant anything happens: an injection, a
  // barrier, a terminal call, or the pending call of a copy a barrier
  // finalized (a per-hop schedule still pops that stale hop event).
  double horizon = 0.0;

  // Re-plans on a new substrate: the header state is gone with the old
  // substrate, so each in-flight copy re-plans from wherever it is with
  // whatever TTL it has left, or drops if its carrier died. Its pending
  // call instant stays as it was.
  auto replan_records = [&](double when, std::size_t* in_flight,
                            std::size_t* dropped) {
    auto finalize_pending = [&](std::size_t f, StreamOutcome outcome) {
      finalize_record(f, outcome, when);
      horizon = std::max(horizon, rec.next_at[f]);
    };
    for (std::uint32_t f : live) {
      const std::size_t k = f % n_schemes;
      RouteStepper& slot = rec.steppers[f];
      NodeId at;
      std::size_t budget;
      if (slot.in_flight()) {
        at = slot.current();
        budget = slot.ttl_remaining();
        harvest_record(f);
      } else {
        // Parked from its group's trace, which is reset only after this
        // re-plan; its prefix is already accumulated.
        const GroupTrace& tr = trace_of(f);
        at = tr.trail[rec.hops[f]].node;
        budget = tr.ttl - rec.hops[f];
      }
      if (!net_.graph().alive(at)) {
        ++*dropped;
        finalize_pending(f, StreamOutcome::kNodeFailed);
        continue;
      }
      ++*in_flight;
      ++rec.replans[f];
      routers_[k]->restart_stepper(slot, at, rec.dst[f / n_schemes],
                                   config_.route_options, budget);
      slot.set_record_path(false);
      if (!slot.in_flight()) {
        // Degenerate re-plan (already at the destination / spent budget).
        RouteStatus status = slot.result().status;
        harvest_record(f);
        finalize_pending(f, outcome_of(status));
      }
    }
    drop_finished();
  };

  // Packet p enters at `now`, at or before `barrier`, the next barrier.
  // Its copies finish or park from their groups' traces; none steps.
  auto inject = [&](std::size_t p, double now, double barrier) {
    ++stats_.events;
    horizon = std::max(horizon, now);
    rec.inject_time[p] = now;
    // The hop-optimal baseline is pinned at injection time: stretch
    // measures what the scheme paid relative to the network the packet
    // was handed to, before any mid-flight wave degraded it. The epoch's
    // oracles are batched at the first injection after each topology
    // change (build_epoch_oracle).
    if (rec.src[p] < net_.graph().size() &&
        rec.dst[p] < net_.graph().size() && net_.graph().alive(rec.src[p])) {
      if (!oracle_ready_) build_epoch_oracle(pool ? &*pool : nullptr);
      rec.oracle_hops[p] = oracle_cache_[p % config_.pairs.size()];
    }
    for (std::size_t k = 0; k < n_schemes; ++k) {
      const std::size_t f = p * n_schemes + k;
      if (rec.src[p] >= net_.graph().size() ||
          !net_.graph().alive(rec.src[p])) {
        finalize_record(f, StreamOutcome::kNodeFailed, now);
        continue;
      }
      GroupTrace& tr = trace_of(f);
      if (!tr.armed) {
        tr.arm(*routers_[k], rec.src[p], rec.dst[p], config_.route_options,
               barrier);
      }
      // The first copy under this barrier steps the representative as
      // deep as it needs; later ones need no more (see GroupTrace).
      const double hop_delay = config_.hop_delay;
      if (tr.stepped_to != barrier) tr.step_until(now, hop_delay, barrier);
      // The copy's call instants, the same iterative walk as step_live.
      const Reach r = reach(now, hop_delay, barrier, tr.calls);
      if (tr.done && r.calls == tr.calls) {  // the terminal call's instant
        rec.hops[f] = tr.hops;
        rec.length[f] = tr.length;
        rec.local_minima[f] = tr.local_minima;
        horizon = std::max(horizon, r.last);
        finalize_record(f, outcome_of(tr.status), r.last);
        continue;
      }
      // Parks at r.next, after r.calls non-terminal calls, and gets a
      // header only if it reaches a step batch without a re-plan (see
      // step_live).
      SPR_DCHECK(r.calls < tr.trail.size(), "trace trail too short");
      const TracePoint& at = tr.trail[r.calls];
      rec.hops[f] = r.calls;
      rec.length[f] = at.length;
      rec.local_minima[f] = at.local_minima;
      rec.next_at[f] = r.next;
      live.push_back(static_cast<std::uint32_t>(f));
    }
  };

  // One step batch: every live copy due before `barrier` advances through
  // all its call instants strictly before it — between two barriers a
  // copy's walk is a pure function of its own state. The instants
  // accumulate iteratively (t = t + hop_delay), exactly as a per-hop
  // schedule pushes hop events, so finish times stay bit-identical. A copy
  // whose next instant lands on or after the barrier parks there, and one
  // that lands exactly on it takes that call after the barrier, except a
  // copy flagged `early` at a re-pin (see apply_repin).
  std::vector<std::uint32_t> active;
  auto step_live = [&](double barrier, bool repin) {
    active.clear();
    for (std::uint32_t f : live) {
      const double at = rec.next_at[f];
      if (!(at < barrier || (repin && at == barrier && rec.early[f]))) {
        continue;
      }
      RouteStepper& slot = rec.steppers[f];
      if (!slot.in_flight()) {
        // Parked from a trace, and the barrier it met changed nothing: it
        // needs a real header now, so replay its prefix on its own slot —
        // the stepper then carries the whole walk, and the aggregates go
        // back to the fresh flight's zeros.
        const std::size_t p = f / n_schemes;
        routers_[f % n_schemes]->restart_stepper(slot, rec.src[p], rec.dst[p],
                                                 config_.route_options);
        slot.set_record_path(false);
        for (std::uint32_t c = 0; c < rec.hops[f]; ++c) slot.step();
        SPR_DCHECK(slot.in_flight() &&
                       slot.current() == trace_of(f).trail[rec.hops[f]].node,
                   "prefix replay diverged from the group trace");
        rec.hops[f] = 0;
        rec.length[f] = 0.0;
        rec.local_minima[f] = 0;
      }
      active.push_back(f);
    }
    if (active.empty()) return;
    ++stats_.events;
    const double hop_delay = config_.hop_delay;
    // Leaves the copy's next call instant (parked) or its terminal call's
    // instant (done) in next_at.
    auto advance_flight = [&rec, &active, barrier, hop_delay](std::size_t i) {
      const std::uint32_t f = active[i];
      RouteStepper& slot = rec.steppers[f];
      double t = rec.next_at[f];
      while (slot.step()) {
        const double tn = t + hop_delay;
        if (!(tn < barrier)) {
          rec.next_at[f] = tn;
          return;
        }
        t = tn;
      }
      rec.next_at[f] = t;
    };
    // Step phase: flights are independent between barriers — disjoint
    // per-flight state, read-only shared substrate. The grain scales with
    // the batch (a few blocks per worker) so a 10^5-flight batch submits
    // tens of tasks, not thousands; work stealing absorbs the per-flight
    // walk-length imbalance.
    constexpr std::size_t kMinGrain = 32;
    if (pool.has_value() && active.size() >= 2 * kMinGrain) {
      const std::size_t grain =
          std::max(kMinGrain, active.size() / (pool->thread_count() * 4));
      parallel_for_blocked(&*pool, active.size(), grain,
                           [&advance_flight](std::size_t begin,
                                             std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               advance_flight(i);
                             }
                           });
    } else {
      for (std::size_t i = 0; i < active.size(); ++i) advance_flight(i);
    }
    // Merge phase, serial in flight-id order: finished flights finalize at
    // their terminal instants; survivors stay live.
    for (std::uint32_t f : active) {
      RouteStepper& slot = rec.steppers[f];
      if (slot.in_flight()) continue;
      RouteStatus status = slot.result().status;
      harvest_record(f);
      finalize_record(f, outcome_of(status), rec.next_at[f]);
      horizon = std::max(horizon, rec.next_at[f]);
    }
    drop_finished();
  };

  auto apply_wave = [&](const StreamWave& wave, double now) {
    std::vector<NodeId> casualties;
    casualties.reserve(wave.casualties.size());
    for (NodeId u : wave.casualties) {
      if (u < net_.graph().size() && net_.graph().alive(u)) {
        casualties.push_back(u);
      }
    }
    WaveRecord record;
    record.time = now;
    record.casualties = casualties.size();
    if (casualties.empty()) {
      // Nothing actually died (already dead / out of range / an empty
      // schedule slot): record the wave but leave the substrate and every
      // in-flight header untouched — a no-op wave must not force phantom
      // re-plans.
      stats_.waves.push_back(std::move(record));
      return;
    }
    routers_.clear();  // routers reference the outgoing substrate
    Network degraded = net_.with_failures(casualties, &record.relabel);
    if (config_.verify_relabeling && degraded.has_safety()) {
      SafetyInfo fresh =
          compute_safety(degraded.graph(), degraded.interest_area());
      record.verified = true;
      record.matches_full_recompute = fresh == degraded.safety();
    }
    net_ = std::move(degraded);
    oracle_ready_ = false;
    rebuild_routers();
    replan_records(now, &record.packets_in_flight, &record.packets_dropped);
    reset_traces();  // traced walks referenced the old substrate
    stats_.waves.push_back(std::move(record));
  };

  // The re-pin chain: the first at mobility_interval, each later one
  // scheduled when the previous fires, while traffic remains.
  double next_repin = config_.mobility_interval > 0.0 && n_packets > 0
                          ? config_.mobility_interval
                          : kNoBarrier;
  std::size_t next_packet = 0;  // the next packet to inject

  auto apply_repin = [&](double now) {
    // Positions changed: the snapshot *continues incrementally*
    // (Network::with_moves) — the spatial grid relocates, the adjacency is
    // patched from the edge delta, and the safety labeling continues
    // bidirectionally from the previous fixpoint (update_safety_after_moves:
    // removals demote, additions promote). Nodes killed by earlier failure
    // waves stay dead (aliveness carries over) and the interest-area band
    // carries over.
    mobility_.advance(config_.mobility_dt);
    routers_.clear();
    RepinRecord record;
    record.time = now;
    EdgeDiff diff;
    Network moved =
        net_.with_moves(mobility_.positions(), &record.relabel, &diff);
    record.moved = diff.moved_nodes;
    record.edges_added = diff.added.size();
    record.edges_removed = diff.removed.size();
    if (config_.verify_relabeling && moved.has_safety()) {
      SafetyInfo fresh = compute_safety(moved.graph(), moved.interest_area());
      record.verified = true;
      record.matches_full_recompute = fresh == moved.safety();
    }
    net_ = std::move(moved);
    oracle_ready_ = false;
    rebuild_routers();
    replan_records(now, &record.packets_in_flight, &record.packets_dropped);
    reset_traces();  // traced walks referenced the old substrate
    ++stats_.repins;
    stats_.repin_records.push_back(std::move(record));
    next_repin = next_packet < n_packets || !live.empty()
                     ? now + config_.mobility_interval
                     : kNoBarrier;
    // The next re-pin is scheduled only now, so a per-hop schedule orders
    // a hop already pending at its instant before it: those copies take
    // that call on the current substrate, then the re-pin lands.
    for (std::uint32_t f : live) rec.early[f] = rec.next_at[f] == next_repin;
  };

  // The barriers in time order — waves before a re-pin at the same
  // instant, same-instant waves in schedule order — and before each, every
  // injection due at or before it (an injection at a barrier's instant
  // sees the pre-barrier substrate), then one step batch up to it.
  std::vector<std::size_t> wave_order(config_.waves.size());
  std::iota(wave_order.begin(), wave_order.end(), std::size_t{0});
  std::stable_sort(wave_order.begin(), wave_order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return config_.waves[a].time < config_.waves[b].time;
                   });
  std::size_t wave_cursor = 0;
  for (;;) {
    const StreamWave* wave =
        wave_cursor < wave_order.size()
            ? &config_.waves[wave_order[wave_cursor]]
            : nullptr;
    const bool wave_next = wave != nullptr && wave->time <= next_repin;
    const double barrier = wave_next ? wave->time : next_repin;
    for (; next_packet < n_packets; ++next_packet) {
      const double now =
          static_cast<double>(next_packet) * config_.packet_interval;
      if (now > barrier) break;
      inject(next_packet, now, barrier);
    }
    step_live(barrier, !wave_next);
    if (barrier == kNoBarrier) break;  // the batch ran every copy to its end
    ++stats_.events;
    horizon = std::max(horizon, barrier);
    if (wave_next) {
      ++wave_cursor;
      apply_wave(*wave, barrier);
    } else {
      apply_repin(barrier);
    }
  }

  stats_.virtual_time = horizon;

  // Per-scheme totals in packet-major order — a deterministic reduction
  // independent of how the timeline interleaved.
  for (std::size_t p = 0; p < n_packets; ++p) {
    for (std::size_t k = 0; k < n_schemes; ++k) {
      std::size_t f = p * n_schemes + k;
      StreamSchemeStats& s = stats_.schemes[k];
      ++s.injected;
      s.replans.add(static_cast<double>(rec.replans[f]));
      s.local_minima.add(static_cast<double>(rec.local_minima[f]));
      switch (rec.outcome[f]) {
        case StreamOutcome::kDelivered:
          ++s.delivered;
          s.hops.add(static_cast<double>(rec.hops[f]));
          s.length.add(rec.length[f]);
          if (rec.oracle_hops[p] > 0) {
            s.stretch_hops.add(static_cast<double>(rec.hops[f]) /
                               static_cast<double>(rec.oracle_hops[p]));
          }
          s.latency.add(rec.finish_time[f] - rec.inject_time[p]);
          break;
        case StreamOutcome::kTtlExpired:
          ++s.ttl_expired;
          break;
        case StreamOutcome::kNodeFailed:
          ++s.node_failed;
          break;
        case StreamOutcome::kDeadEnd:
        case StreamOutcome::kInFlight:  // unreachable: the last batch ran all
          ++s.dead_end;
          break;
      }
    }
  }
}

}  // namespace spr
