#include "core/metrics.h"

namespace spr {

void RouteAggregate::record(const PathResult& result,
                            const std::size_t* oracle_hops,
                            const double* oracle_length) {
  ++attempted;
  local_minima.add(static_cast<double>(result.local_minima));
  if (!result.delivered()) return;
  ++delivered;
  hops.add(static_cast<double>(result.hops()));
  length.add(result.length);
  perimeter_hops.add(static_cast<double>(result.perimeter_hops()));
  backup_hops.add(static_cast<double>(result.backup_hops()));
  if (oracle_hops != nullptr && *oracle_hops > 0) {
    stretch_hops.add(static_cast<double>(result.hops()) /
                     static_cast<double>(*oracle_hops));
  }
  if (oracle_length != nullptr && *oracle_length > 0.0) {
    stretch_length.add(result.length / *oracle_length);
  }
}

void RouteAggregate::merge(const RouteAggregate& other) {
  hops.merge(other.hops);
  length.merge(other.length);
  stretch_hops.merge(other.stretch_hops);
  stretch_length.merge(other.stretch_length);
  perimeter_hops.merge(other.perimeter_hops);
  backup_hops.merge(other.backup_hops);
  local_minima.merge(other.local_minima);
  requested += other.requested;
  attempted += other.attempted;
  delivered += other.delivered;
}

}  // namespace spr
