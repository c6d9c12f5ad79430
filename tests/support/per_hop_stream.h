#pragma once

/// \file per_hop_stream.h
/// The per-hop reference for StreamSim: the same stream semantics (see
/// sim/stream_sim.h) executed the direct way — one heap event per flight
/// per hop, one heap-allocated RouteStepper per in-flight copy, no tick
/// batching, no epoch fast-forward, no group trace. Built only on the
/// library's public API, it is the oracle the flight-record engine's
/// equivalence tests compare against: everything in the returned
/// StreamStats except `events` must match StreamSim byte for byte.

#include "core/network.h"
#include "sim/stream_sim.h"

namespace spr::test {

/// Runs the stream `config` describes over `initial` and returns its
/// totals. `events` counts the heap events popped (one per injection, hop,
/// wave and re-pin). Always serial: `config.threads` is ignored.
StreamStats run_stream_per_hop(Network initial, const StreamConfig& config);

}  // namespace spr::test
