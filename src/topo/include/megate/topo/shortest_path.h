#pragma once
// Shortest paths over the site graph: one Dijkstra kernel
// (shortest_path_tree) and one path reconstruction (tree_path), shared by
// the point-to-point search, Yen's spurs and the centrality backend's
// per-source trees.

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "megate/topo/graph.h"

namespace megate::topo {

/// A loop-free directed path as a link sequence.
struct Path {
  std::vector<EdgeId> links;
  double latency_ms = 0.0;

  bool empty() const noexcept { return links.empty(); }
  std::size_t hops() const noexcept { return links.size(); }
};

/// Options restricting the search; used by Yen's spur computation and by
/// failure-aware recomputation.
struct PathConstraints {
  /// Links that must not be used (in addition to links that are down).
  const std::unordered_set<EdgeId>* banned_links = nullptr;
  /// Nodes that must not be visited (source exempt).
  const std::unordered_set<NodeId>* banned_nodes = nullptr;
};

/// What a search minimizes: summed link latency, or hop count (every
/// link weighs 1.0 — the minimum possible SR hop count per destination).
enum class PathMetric : std::uint8_t { kLatency, kHops };

/// Dijkstra from `src` over up links, honoring `constraints`: the parent
/// edge of every reached node (kInvalidEdge for `src` and unreached
/// nodes). Equal distances pop in node-id order, and at equal distance the
/// smallest parent edge wins, so the tree never depends on heap internals.
/// `stop` != kInvalidNode ends the search once `stop` is settled (its own
/// chain is then final) and exempts it from the node bans.
std::vector<EdgeId> shortest_path_tree(const Graph& g, NodeId src,
                                       PathMetric metric = PathMetric::kLatency,
                                       const PathConstraints& constraints = {},
                                       NodeId stop = kInvalidNode);

/// src -> dst along a shortest_path_tree parent array, or an empty path if
/// dst is unreached (or equals src). Latency is summed in link order, so
/// equal paths carry bitwise-equal latency however they were found.
Path tree_path(const Graph& g, const std::vector<EdgeId>& parent, NodeId src,
               NodeId dst);

/// Latency-shortest path from src to dst over up links, or nullopt if
/// unreachable under the constraints.
std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst,
                                  const PathConstraints& constraints = {});

}  // namespace megate::topo
