#pragma once

/// \file planar.h
/// Local planarization of the unit-disk graph. The perimeter phases of
/// GF/GPSR-style recovery traverse faces of a planar subgraph that keeps the
/// connectivity of the original network: the Gabriel graph (GG), which
/// keeps uv iff no witness w lies inside the closed disc with diameter uv.
/// The test needs 1-hop neighbor information only, matching the paper's
/// fully-distributed setting. Planarity and connectivity are checked by the
/// oracles in tests/support/planar_oracles.h.

#include <vector>

#include "graph/unit_disk.h"

namespace spr {

/// Gabriel overlay: per-node sorted neighbor lists restricted to kept edges.
class PlanarOverlay {
 public:
  /// Builds the overlay from local Gabriel tests on `g`.
  explicit PlanarOverlay(const UnitDiskGraph& g);

  std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return {adjacency_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  bool are_neighbors(NodeId u, NodeId v) const noexcept;
  std::size_t edge_count() const noexcept { return adjacency_.size() / 2; }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> adjacency_;
};

/// True when edge uv survives the Gabriel test in `g` (u, v must be
/// neighbors).
bool gabriel_keeps_edge(const UnitDiskGraph& g, NodeId u, NodeId v);

}  // namespace spr
