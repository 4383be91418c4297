#include "megate/topo/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace megate::topo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct QueueItem {
  double dist;
  NodeId node;
  // Equal distances pop in node-id order so the search (and the parent
  // tree it leaves behind) never depends on heap internals.
  bool operator>(const QueueItem& o) const noexcept {
    if (dist != o.dist) return dist > o.dist;
    return node > o.node;
  }
};

}  // namespace

std::vector<EdgeId> shortest_path_tree(const Graph& g, NodeId src,
                                       PathMetric metric,
                                       const PathConstraints& constraints,
                                       NodeId stop) {
  const std::size_t n = g.num_nodes();
  std::vector<double> dist(n, kInf);
  std::vector<EdgeId> parent(n, kInvalidEdge);
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  dist[src] = 0.0;
  pq.push({0.0, src});

  auto node_banned = [&](NodeId v) {
    return constraints.banned_nodes != nullptr &&
           constraints.banned_nodes->contains(v);
  };
  auto link_banned = [&](EdgeId e) {
    return constraints.banned_links != nullptr &&
           constraints.banned_links->contains(e);
  };

  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;  // stale entry
    if (v == stop) break;
    for (EdgeId e : g.out_edges(v)) {
      const Link& l = g.link(e);
      if (!l.up || link_banned(e)) continue;
      if (l.dst != stop && node_banned(l.dst)) continue;
      const double nd =
          d + (metric == PathMetric::kHops ? 1.0 : l.latency_ms);
      if (nd < dist[l.dst]) {
        dist[l.dst] = nd;
        parent[l.dst] = e;
        pq.push({nd, l.dst});
      } else if (nd == dist[l.dst] && d < dist[l.dst] &&
                 e < parent[l.dst]) {
        // Equal total distance: keep the canonical (smallest) parent edge.
        // The d < dist guard (false only for zero-latency links) keeps
        // parent chains strictly decreasing, i.e. acyclic.
        parent[l.dst] = e;
      }
    }
  }
  return parent;
}

Path tree_path(const Graph& g, const std::vector<EdgeId>& parent, NodeId src,
               NodeId dst) {
  Path p;
  if (src == dst) return p;
  NodeId v = dst;
  while (v != src) {
    const EdgeId e = parent[v];
    if (e == kInvalidEdge) return Path{};  // unreachable
    p.links.push_back(e);
    v = g.link(e).src;
  }
  std::reverse(p.links.begin(), p.links.end());
  for (EdgeId e : p.links) p.latency_ms += g.link(e).latency_ms;
  return p;
}

std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst,
                                  const PathConstraints& constraints) {
  const std::vector<EdgeId> parent =
      shortest_path_tree(g, src, PathMetric::kLatency, constraints, dst);
  if (dst != src && parent[dst] == kInvalidEdge) return std::nullopt;
  return tree_path(g, parent, src, dst);
}

}  // namespace megate::topo
