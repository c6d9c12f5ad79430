/// \file streaming_delivery.cpp
/// The paper's motivating workload (Section 1): a streaming service that
/// delivers a large amount of data from one sensor to a sink. Rebased on
/// the discrete-event StreamSim (sim/stream_sim.h): every packet moves hop
/// by hop on a shared timeline, and — unlike the old static estimate that
/// routed once and multiplied — failure waves can land *mid-stream*, with
/// the safety labeling updated incrementally and in-flight packets
/// re-planning from wherever they are.
///
///   ./streaming_delivery [--nodes=650] [--seed=7] [--packets=1000]
///                        [--fail=0.15] [--waves=2]
///                        [--csv=out.csv] [--json=out.json]

#include <algorithm>
#include <cstdio>

#include "core/network.h"
#include "graph/graph_algos.h"
#include "report/serialize.h"
#include "report/sink.h"
#include "sim/stream_sim.h"
#include "stats/table.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace spr;

  int nodes = 650;
  unsigned long long seed = 7;
  int packets = 1000;
  double fail = 0.15;
  int waves = 2;
  std::string csv_path, json_path;
  FlagSet flags("streaming_delivery: a packet stream under mid-stream failures");
  flags.add_int("nodes", &nodes, "number of sensors");
  flags.add_uint64("seed", &seed, "deployment seed");
  flags.add_int("packets", &packets, "packets in the stream");
  flags.add_double("fail", &fail, "fraction of nodes failing mid-stream");
  flags.add_int("waves", &waves, "failure waves the failures split into");
  flags.add_string("csv", &csv_path, "also export the comparison as CSV");
  flags.add_string("json", &json_path, "also write the full stream stats here");
  if (!flags.parse(argc, argv)) return 1;

  NetworkConfig config;
  config.deployment.node_count = nodes;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = seed;
  Network net = Network::create(config);

  // Stream across the field: prefer the farthest connected pair sampled.
  Rng rng(seed ^ 0x51);
  NodeId source = kInvalidNode, sink = kInvalidNode;
  double best = -1.0;
  for (int trial = 0; trial < 32; ++trial) {
    auto [a, b] = net.random_connected_interior_pair(rng);
    if (a == kInvalidNode) continue;
    double dist = distance(net.graph().position(a), net.graph().position(b));
    if (dist > best) {
      best = dist;
      source = a;
      sink = b;
    }
  }
  if (source == kInvalidNode) {
    std::printf("no routable pair\n");
    return 1;
  }
  auto optimal = dijkstra_path(net.graph(), source, sink);
  std::printf("stream: node %u -> sink %u, %d packets of 1kB; optimal path "
              "%zu hops / %.1fm at injection\n",
              source, sink, packets, optimal.hops(), optimal.length);

  // The stream's world: `fail` of the nodes dies across `waves` waves
  // spread over the injection span, never the endpoints themselves.
  StreamConfig sc;
  sc.pairs.emplace_back(source, sink);
  sc.packets = packets;
  sc.packet_interval = 0.5;
  sc.hop_delay = 0.1;
  sc.seed = seed;
  sc.verify_relabeling = true;
  Rng fail_rng(seed ^ 0x99);
  sc.waves = spread_failure_waves(
      net.graph(), sc.pairs, fail, waves,
      static_cast<double>(packets) * sc.packet_interval, fail_rng);
  std::size_t total_casualties = 0;
  for (const StreamWave& wave : sc.waves) {
    total_casualties += wave.casualties.size();
  }
  if (total_casualties > 0) {
    std::printf("failures: %zu nodes die across %zu waves mid-stream\n\n",
                total_casualties, sc.waves.size());
  } else {
    std::printf("failures: none (static stream)\n\n");
  }

  StreamSim sim(std::move(net), sc);
  StreamStats stats = sim.run();

  std::printf("%-8s %9s %7s %9s %9s %9s %8s\n", "scheme", "delivered",
              "hops", "length_m", "stretch", "latency_s", "replans");
  Table csv_table({"scheme", "injected", "delivered", "hops", "length_m",
                   "stretch", "latency_s", "replans"});
  for (const StreamSchemeStats& s : stats.schemes) {
    double hops = s.hops.empty() ? 0.0 : s.hops.mean();
    double length = s.length.empty() ? 0.0 : s.length.mean();
    double stretch = s.stretch_hops.empty() ? 0.0 : s.stretch_hops.mean();
    double latency = s.latency.empty() ? 0.0 : s.latency.mean();
    double replans = s.replans.empty() ? 0.0 : s.replans.mean();
    std::printf("%-8s %4zu/%-4zu %7.1f %9.1f %9.2f %9.2f %8.2f\n",
                s.label.c_str(), s.delivered, s.injected, hops, length,
                stretch, latency, replans);
    csv_table.add_row({s.label, std::to_string(s.injected),
                       std::to_string(s.delivered), Table::fmt(hops, 1),
                       Table::fmt(length, 1), Table::fmt(stretch, 2),
                       Table::fmt(latency, 2), Table::fmt(replans, 2)});
  }
  for (const WaveRecord& record : stats.waves) {
    std::printf("wave t=%.1f: %zu casualties, %zu in-flight re-planned, %zu "
                "dropped; relabel %zu flips (%s from-scratch recompute)\n",
                record.time, record.casualties, record.packets_in_flight,
                record.packets_dropped, record.relabel.flips,
                record.verified && record.matches_full_recompute
                    ? "matches"
                    : "DIFFERS FROM");
  }

  // Structured exports go through the shared report machinery: one
  // ScenarioReport, rendered by whichever sinks were requested.
  ScenarioReport report;
  report.scenario = "streaming-delivery-example";
  report.param("nodes", JsonValue::of(nodes));
  report.param("source", JsonValue::of(static_cast<std::uint64_t>(source)));
  report.param("sink", JsonValue::of(static_cast<std::uint64_t>(sink)));
  report.param("stream", stream_stats_json(stats));
  report.add_table(std::move(csv_table));
  if (!csv_path.empty() && !CsvSink(csv_path).emit(report)) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  if (!json_path.empty() && !JsonSink(json_path).emit(report)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  std::printf("\nsafety-aware schemes keep delivering after the waves: the\n"
              "labels update incrementally and in-flight packets re-plan\n"
              "around the new holes instead of probing them blind.\n");
  return 0;
}
