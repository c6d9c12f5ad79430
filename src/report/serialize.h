#pragma once

/// \file serialize.h
/// JSON forms of the sweep result model, each built as a JsonValue
/// (util/json.h). A type has one function per form:
///
/// - *Stats* form (`stats_json`): the compact derived-moments shape the
///   scenario reports emit (count/mean/min/max/stddev). Lossy — for human
///   and dashboard consumption.
/// - *Full* form (`to_json` / `from_json`): retains every Summary sample,
///   so deserializing re-adds the samples in order and reconstructs the
///   accumulator bit-identically. This is what makes the sweep cell the
///   unit of cross-process distribution: run slices anywhere, serialize
///   their `CellResult`s, and `merge_slices` reproduces the in-process
///   `run_sweep` aggregates exactly.
///
/// Doubles are emitted with %.17g and parsed with from_chars, so every
/// finite double survives the trip bit-exactly.

#include <string>
#include <vector>

#include "core/experiment.h"
#include "report/report.h"
#include "sim/stream_sim.h"
#include "stats/summary.h"
#include "util/json.h"

namespace spr {

// ------------------------------------------------------------ stats form
/// {count, mean, min, max, stddev} — the report shape.
JsonValue stats_json(const Summary& s);
/// The per-aggregate report shape (delivery ratio + stats summaries).
JsonValue stats_json(const RouteAggregate& agg);
/// One sweep section in the report shape (the "models" array element).
JsonValue stats_json(const SweepSection& section);
/// One StreamSim run (the stream-grid scenarios' per-stream shape):
/// per-scheme delivery/hops/stretch/latency summaries plus the per-wave
/// and per-re-pin incremental-relabeling records.
JsonValue stats_json(const StreamStats& stats);

// ------------------------------------------------------------- full form
/// {"values": [...]} — everything needed to rebuild the accumulator.
JsonValue to_json(const Summary& s);
bool from_json(const JsonValue& v, Summary& out);

JsonValue to_json(const RouteAggregate& agg);
bool from_json(const JsonValue& v, RouteAggregate& out);

/// {"nodes": n, "schemes": {label: aggregate...}}
JsonValue to_json(const SweepPoint& point);
bool from_json(const JsonValue& v, SweepPoint& out);

/// {label: aggregate...}
JsonValue to_json(const CellResult& cell);
bool from_json(const JsonValue& v, CellResult& out);

// ------------------------------------------------------------ slice files
/// A serialized sweep *slice*: the sweep's identity (enough to check that
/// two slices came from the same sweep) plus the computed cells in full
/// form. ("Slice" = a modular subset of a sweep's cells for cross-process
/// distribution. The JSON wire keys keep the historical "shard" spelling,
/// so older slice files still load.)
struct SweepSlice {
  std::string model_tag;  ///< "IA" / "FA"
  std::vector<int> node_counts;
  int networks_per_point = 0;
  int pairs_per_network = 0;
  std::uint64_t base_seed = 0;
  std::vector<std::string> scheme_labels;
  int slice_index = 0;
  int slice_count = 1;
  std::vector<SliceCell> cells;
};

/// Builds the slice header from the config that ran the cells.
SweepSlice make_slice(const SweepConfig& config, int slice_index,
                      int slice_count, std::vector<SliceCell> cells);

JsonValue to_json(const SweepSlice& slice);
bool from_json(const JsonValue& v, SweepSlice& out);

/// Merges slice files into sweep points. Validates that every slice
/// belongs to the same sweep (identical header identity), that no cell
/// appears twice, and that the union covers every cell of the sweep —
/// then replays run_sweep's canonical cell-order reduction, so the result
/// is bit-identical to the in-process sweep. On failure returns false and
/// describes the problem in `error` (when non-null).
bool merge_slices(std::vector<SweepSlice> slices,
                  std::vector<SweepPoint>& out_points,
                  std::string* error = nullptr);

}  // namespace spr
