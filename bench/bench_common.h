#pragma once

/// \file bench_common.h
/// Shared helpers for the auxiliary benches. The paper figures run as
/// registered scenarios (`spr_cli run <scenario>`, core/scenario.h); what
/// lives here is the sweep-config plumbing the non-figure benches reuse.
///
/// Environment overrides for quick passes:
///   SPR_NETWORKS  networks per point (default 100, the paper's count)
///   SPR_PAIRS     source/destination pairs per network (default 20)
///   SPR_SEED      base seed (default 2009)
///   SPR_THREADS   sweep worker threads (default 0 = hardware, 1 = serial)
///   SPR_CSV       when set, the bench also exports its tables as CSV there

#include <cstdio>
#include <cstdlib>

#include "core/experiment.h"
#include "core/scenario.h"
#include "report/sink.h"
#include "stats/table.h"

namespace spr::bench {

inline SweepConfig figure_config(DeployModel model) {
  SweepConfig config;
  config.model = model;
  config.networks_per_point = env_int_or("SPR_NETWORKS", 100);
  config.pairs_per_network = env_int_or("SPR_PAIRS", 20);
  config.base_seed = static_cast<std::uint64_t>(env_int_or("SPR_SEED", 2009));
  config.threads = env_int_or("SPR_THREADS", 0);
  config.schemes = SweepConfig::paper_schemes();
  return config;
}

inline const char* model_name(DeployModel model) {
  return spr::model_name(model);
}

/// Exports a bench's tables as CSV when SPR_CSV is set. Returns false after
/// printing when the write fails.
inline bool export_csv_from_env(const ScenarioReport& report) {
  const char* csv = std::getenv("SPR_CSV");
  if (csv == nullptr || *csv == '\0') return true;
  if (CsvSink(csv).emit(report)) return true;
  std::fprintf(stderr, "cannot write %s\n", csv);
  return false;
}

}  // namespace spr::bench
