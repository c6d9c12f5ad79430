#pragma once

/// \file stream_sim.h
/// StreamSim: discrete-event streaming delivery over a changing network.
/// The paper motivates safety-based routing with *dynamic* holes — node
/// failures, power exhaustion, jamming — yet an atomic `Router::route`
/// call can only ever see a frozen snapshot. StreamSim puts packet
/// injections, per-hop packet movement, and world changes on one
/// timeline, so failures land *between the hops* of in-flight packets:
///
///  * injections — packet i enters at its source at `i * packet_interval`,
///    one in-flight copy per scheme (the comparison is paired, as
///    everywhere else in the library);
///  * hops — one in-flight copy advances one hop (RouteStepper::step) per
///    `hop_delay` of transmission time; call c + 1 of a copy injected at
///    t_0 executes at t_{c+1} = t_c + hop_delay, accumulated iteratively;
///  * failure waves — a batch of nodes dies (Network::with_failures): the
///    safety labeling continues *incrementally* from the previous fixpoint
///    (update_safety_after_failures; IncrementalStats recorded per wave),
///    and SLGF/SLGF2 route the rest of the stream on the updated labels;
///  * mobility re-pins (optional) — every node moves under a
///    random-waypoint process and the snapshot *continues incrementally*
///    (Network::with_moves): the spatial grid relocates, the unit-disk
///    adjacency is patched from the edge delta, and the safety labeling
///    continues bidirectionally from the previous fixpoint
///    (update_safety_after_moves — removals demote, additions promote).
///    Nodes killed by earlier waves stay dead (aliveness carries over).
///    The paper's "position-dependent information needs to re-constitute"
///    regime, collapsed into a local update wave; each re-pin is recorded
///    as a RepinRecord, optionally cross-checked against a from-scratch
///    compute_safety (StreamConfig::verify_relabeling). The first re-pin
///    fires at `mobility_interval`, and each one schedules the next while
///    traffic remains.
///
/// Semantics at a topology change: the packet header travels with the
/// packet, but the substrate under it changed — each in-flight copy
/// *re-plans*: a fresh RouteStepper from its current node toward the same
/// destination over the new network, carrying its remaining TTL budget (a
/// re-plan never extends a packet's life). A copy whose current carrier
/// died in the wave is dropped (kNodeFailed). Hops, path length and local
/// minima accumulate across the re-planned segments.
///
/// Injection semantics are fully defined — never UB: a packet whose source
/// is dead at injection time (killed by an earlier wave), or whose source
/// id is out of range, is counted as a kNodeFailed drop for every scheme.
///
/// Same-instant ties, as a per-hop schedule that pushes every event
/// up front or when its predecessor fires would order them:
///  * an injection at a barrier's (wave's or re-pin's) instant goes before
///    it, sees the pre-barrier substrate, and its copies are then
///    re-planned — or dropped, if the wave killed their carrier — by it;
///  * waves at one instant go in schedule order, all before a re-pin at
///    that instant;
///  * a hop at a barrier's instant goes after it — except a hop that was
///    already pending when the previous re-pin fired and scheduled this
///    one (possible once hop_delay >= mobility_interval): it goes after
///    the waves at that instant and before the re-pin.
///
/// Determinism: the simulation draws randomness only from its own seeded
/// streams, so a run is a pure function of (initial network, StreamConfig)
/// — byte-identical reports across reruns and across sweep thread counts
/// (tests enforce this).
///
/// Engine: the run goes barrier to barrier. Only waves and re-pins change
/// what a copy observes, so between two of them every copy's walk is a
/// pure function of its own state. Before each barrier the engine injects
/// every packet due at or before it, then advances every copy due before
/// it through all its hop instants before it in one *step batch*, then
/// applies it. Per-flight state lives in SoA flight records, and stepper
/// slots are pooled (reset in place on re-plan; zero steady-state
/// allocation). Injection steps no flight at all: the copies of one
/// (scheme, pair) group in one epoch share a *group trace*, walked once by
/// a representative stepper, lazily and only as deep as the copy being
/// injected needs. A copy whose walk ends before the next barrier finishes
/// from the trace's terminal record; one that meets the barrier parks
/// without a stepper at its point on the trace (node, hops, length, local
/// minima). A barrier that changes the substrate re-plans it from there; at
/// a wave that kills nothing it rebuilds its header in its next step batch
/// by replaying that prefix. With StreamConfig::threads > 1 each batch is
/// stepped in parallel on a TaskPool and merged in flight-id order;
/// results are bit-identical across thread counts. StreamStats::events
/// counts injections, barriers and non-empty step batches.
///
/// Stretch oracle: `stretch_hops` divides a delivered copy's hops by the
/// BFS optimum of its pair on the substrate it was injected into. That
/// optimum is computed once per topology epoch — at the first injection
/// after the start, a wave or a re-pin — for every pair at once: one
/// bidirectional hop-distance search per pair (hop_distances,
/// graph/graph_algos.h), fanned out over the same pool that steps the
/// batches.
///
/// The direct one-heap-event-per-hop execution of the same semantics lives
/// in tests/support/per_hop_stream.h as the reference this engine is
/// property-tested against: everything in StreamStats except `events` is
/// byte-identical between the two across seeds, waves, mobility and thread
/// counts.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/network.h"
#include "mobility/waypoint.h"
#include "routing/packet.h"
#include "safety/incremental.h"
#include "stats/summary.h"

namespace spr {

class TaskPool;

/// Why one scheme's copy of a packet ended.
enum class StreamOutcome : unsigned char {
  kInFlight,    ///< still moving (only observable mid-run)
  kDelivered,   ///< reached its destination
  kDeadEnd,     ///< no eligible successor (RouteStatus::kDeadEnd)
  kTtlExpired,  ///< hop budget exhausted across all segments
  kNodeFailed,  ///< its carrier node died in a failure wave
};

/// One scheduled failure wave: `casualties` die at virtual time `time`.
/// Nodes already dead (or out of range) are ignored.
struct StreamWave {
  double time = 0.0;
  std::vector<NodeId> casualties;
};

/// Builds a failure schedule: `fraction` of the graph's nodes die across
/// `waves` waves evenly spaced over (0, span), drawn without replacement
/// from `rng`; the stream endpoints in `endpoints` are never chosen. The
/// schedule builder behind the streaming-delivery scenario.
std::vector<StreamWave> spread_failure_waves(
    const UnitDiskGraph& g,
    std::span<const std::pair<NodeId, NodeId>> endpoints, double fraction,
    int waves, double span, Rng& rng);

/// What one wave did to the labeling and to the in-flight packets.
struct WaveRecord {
  double time = 0.0;
  std::size_t casualties = 0;         ///< alive nodes actually killed
  std::size_t packets_in_flight = 0;  ///< copies re-planned over the new net
  std::size_t packets_dropped = 0;    ///< copies whose carrier died
  IncrementalStats relabel;           ///< incremental safety update cost
  /// Filled when StreamConfig::verify_relabeling is set: whether the
  /// incrementally updated labeling equals a from-scratch compute_safety
  /// on the degraded graph (statuses and anchors).
  bool verified = false;
  bool matches_full_recompute = false;
};

/// What one mobility re-pin did to the substrate, the labeling and the
/// in-flight packets.
struct RepinRecord {
  double time = 0.0;
  std::size_t moved = 0;          ///< nodes whose position changed
  std::size_t edges_added = 0;    ///< unit-disk edges that appeared
  std::size_t edges_removed = 0;  ///< unit-disk edges that vanished
  std::size_t packets_in_flight = 0;  ///< copies re-planned over the new net
  std::size_t packets_dropped = 0;    ///< copies whose carrier was gone
  IncrementalStats relabel;  ///< bidirectional incremental update cost
  /// Filled when StreamConfig::verify_relabeling is set: whether the
  /// incrementally continued labeling equals a from-scratch compute_safety
  /// on the moved graph (statuses and anchors).
  bool verified = false;
  bool matches_full_recompute = false;
};

/// Per-scheme totals of one stream run.
struct StreamSchemeStats {
  std::string label;
  std::size_t injected = 0;
  std::size_t delivered = 0;
  std::size_t dead_end = 0;
  std::size_t ttl_expired = 0;
  std::size_t node_failed = 0;
  Summary hops;          ///< delivered copies, across re-planned segments
  Summary length;        ///< delivered copies, meters
  Summary stretch_hops;  ///< hops / BFS optimum at injection time
  Summary latency;       ///< delivered copies, virtual seconds
  Summary replans;       ///< per finished copy: mid-flight re-plans
  Summary local_minima;  ///< per finished copy, across re-planned segments

  double delivery_ratio() const noexcept {
    return injected == 0
               ? 0.0
               : static_cast<double>(delivered) / static_cast<double>(injected);
  }
};

/// The full result of one stream run.
struct StreamStats {
  /// The last instant anything happened: an injection, a barrier, a
  /// copy's terminal hop, or the pending hop of a copy a barrier ended.
  double virtual_time = 0.0;
  /// Engine work units: injections + barriers + step batches (the per-hop
  /// reference counts one per injection, hop, wave and re-pin).
  std::size_t events = 0;
  std::size_t repins = 0;     ///< mobility re-pins performed
  std::vector<WaveRecord> waves;
  std::vector<RepinRecord> repin_records;  ///< one per re-pin, in time order
  std::vector<StreamSchemeStats> schemes;  ///< in StreamConfig::schemes order
};

/// Parameters of a stream run.
struct StreamConfig {
  /// Schemes to race over the same packets; empty = the paper's four.
  std::vector<SchemeSpec> schemes;
  /// (source, sink) endpoints; packet i uses pairs[i % pairs.size()].
  /// Must be non-empty.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  int packets = 50;              ///< injections
  double packet_interval = 1.0;  ///< virtual seconds between injections
  double hop_delay = 0.25;       ///< virtual seconds per hop
  RouteOptions route_options{};
  /// Failure waves, in any order (scheduled by their `time`).
  std::vector<StreamWave> waves;
  /// When > 0, a waypoint re-pin fires every `mobility_interval` virtual
  /// seconds (while traffic remains): every node moves `mobility_dt`
  /// seconds under `waypoint`, and the snapshot continues incrementally
  /// through Network::with_moves (relocated grid, patched adjacency,
  /// bidirectional safety update — see the file comment).
  double mobility_interval = 0.0;
  double mobility_dt = 20.0;
  WaypointConfig waypoint{};
  std::uint64_t seed = 1;  ///< waypoint process seed
  /// Cross-check each wave's and each re-pin's incremental relabeling
  /// against a from-scratch compute_safety on the changed graph
  /// (WaveRecord::verified / RepinRecord::verified).
  bool verify_relabeling = false;
  /// Worker threads stepping each step batch and computing each
  /// epoch's hop oracle (<= 1 = serial on the calling thread).
  /// Bit-identical results across thread counts.
  int threads = 1;

  /// Empty when the config is usable, else a message naming the first bad
  /// field: hop_delay, packet_interval, mobility_interval, mobility_dt and
  /// every waves[i].time must each be finite and >= 0 (0 stays legal — a
  /// burst of injections, or mobility off), and packets must be >= 0. With
  /// mobility on (mobility_interval > 0), waypoint's speeds and pause_s
  /// must be finite and >= 0 too, with min_speed_mps <= max_speed_mps. The
  /// StreamSim constructor SPR_CHECKs it.
  std::string validate() const;
};

/// The simulator. Owns the network (the substrate is replaced as waves and
/// re-pins land) and every in-flight packet copy.
class StreamSim {
 public:
  /// `initial` is consumed; structures any scheme needs are forced up
  /// front so wave relabeling continues from a built fixpoint. `config`
  /// must pass StreamConfig::validate, and every hop instant must be
  /// finite: the last injection plus a full TTL (ttl_factor * n hops) at
  /// hop_delay, with slack for the iterative sum (both SPR_CHECK).
  StreamSim(Network initial, StreamConfig config);
  ~StreamSim();

  StreamSim(const StreamSim&) = delete;
  StreamSim& operator=(const StreamSim&) = delete;

  /// Runs the whole stream to completion and returns the totals. Call
  /// once per StreamSim.
  StreamStats run();

  /// The current substrate (post-run: the final degraded/re-pinned one).
  const Network& network() const noexcept { return net_; }

 private:
  void rebuild_routers();
  void run_flight_record();
  /// Fills oracle_cache_ for the current topology epoch: the exact hop
  /// distance of every pair (hop_distances, a bidirectional BFS per pair),
  /// fanned out over `pool` — the stepping pool, idle while packets are
  /// injected — or serial when it is null. Unreachable pairs get 0.
  void build_epoch_oracle(TaskPool* pool);

  Network net_;
  StreamConfig config_;
  std::vector<std::unique_ptr<Router>> routers_;  ///< one per scheme
  WaypointModel mobility_;
  /// Per-pair BFS optimum for the current topology epoch, 0 when
  /// unreachable (packets cycle over few pairs; the graph only changes at
  /// waves/re-pins, which invalidate this). Filled per epoch by
  /// build_epoch_oracle.
  std::vector<std::size_t> oracle_cache_;
  bool oracle_ready_ = false;
  StreamStats stats_;
  bool ran_ = false;
};

}  // namespace spr
