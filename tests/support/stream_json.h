#pragma once

/// \file stream_json.h
/// The full (sample-retaining) JSON form of a StreamStats: every record,
/// every counter and every Summary sample, in a fixed key order. Two runs
/// whose documents are equal produced the same stream byte for byte — the
/// comparator the flight-record engine's equivalence tests use against
/// the per-hop reference (per_hop_stream.h). The reports use the compact
/// stats form instead (report/serialize.h).

#include <string>

#include "sim/stream_sim.h"

namespace spr::test {

/// The full form of `stats` as a compact JSON document.
std::string stream_full_json(const StreamStats& stats);

}  // namespace spr::test
