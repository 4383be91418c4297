#include "megate/topo/tunnels.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "megate/obs/metrics.h"

namespace megate::topo {

bool Tunnel::alive(const Graph& g) const {
  for (EdgeId e : links) {
    if (!g.link(e).up) return false;
  }
  return true;
}

const std::vector<Tunnel>& TunnelSet::tunnels(NodeId src, NodeId dst) const {
  auto it = map_.find(SitePair{src, dst});
  return it == map_.end() ? empty_ : it->second;
}

void TunnelSet::set_tunnels(NodeId src, NodeId dst,
                            std::vector<Tunnel> tunnels) {
  map_[SitePair{src, dst}] = std::move(tunnels);
}

std::size_t TunnelSet::total_tunnels() const noexcept {
  std::size_t n = 0;
  for (const auto& [pair, ts] : map_) n += ts.size();
  return n;
}

namespace {

/// Deterministic total order on candidate paths: latency first (Yen's
/// correctness needs ascending latency), then hop count, then the link-id
/// sequence. The two tie levels make candidate order — and therefore
/// tunnel choice — independent of set/heap internals when different
/// generators produce floating-point-equal latencies.
bool path_less(const Path& a, const Path& b) {
  if (a.latency_ms != b.latency_ms) return a.latency_ms < b.latency_ms;
  if (a.links.size() != b.links.size()) {
    return a.links.size() < b.links.size();
  }
  return a.links < b.links;
}

bool fits_budget(const Path& p, std::uint32_t max_hops) {
  return max_hops == 0 || p.links.size() <= max_hops;
}

/// Yen's core. `*reachable` reports whether the first search reached
/// `dst`; `filtered_out`, when non-null, receives the number of generated
/// loopless paths that were discarded by the hop budget.
std::vector<Path> yen_paths(const Graph& g, NodeId src, NodeId dst,
                            std::uint32_t k, std::uint32_t max_candidates,
                            std::uint32_t max_hops, bool* reachable,
                            std::size_t* filtered_out) {
  std::vector<Path> admissible;
  *reachable = false;
  if (src == dst) return admissible;
  auto first = shortest_path(g, src, dst);
  *reachable = first.has_value();
  if (!first || k == 0) return admissible;

  // `generated` is Yen's A-list (every accepted loopless path, ascending
  // latency); `admissible` is the subset within the hop budget. Spurs
  // must come off *generated* paths even when they are over budget —
  // admissible alternatives often branch off inadmissible prefixes.
  std::vector<Path> generated;
  generated.push_back(std::move(*first));
  if (fits_budget(generated.front(), max_hops)) {
    admissible.push_back(generated.front());
  }

  // Candidate pool ordered by (latency, hops, links); dedup on the link
  // sequence happens when pulling.
  std::set<Path, decltype(&path_less)> candidates(&path_less);

  // Under a hop budget the search may need to generate more paths than
  // it emits; bound the generation by the candidate-pool size so a pair
  // with no admissible alternative terminates.
  const std::size_t gen_cap =
      std::max<std::size_t>(k, max_candidates);

  while (admissible.size() < k && generated.size() < gen_cap) {
    const Path& prev = generated.back();
    // Spur from every node of the previous path.
    std::unordered_set<NodeId> banned_nodes;
    NodeId spur_node = src;
    Path root;  // prefix of prev up to (not including) the spur link
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      std::unordered_set<EdgeId> banned_links;
      // Ban the i-th link of every accepted path sharing this root.
      for (const Path& p : generated) {
        if (p.links.size() <= i) continue;
        bool same_root = true;
        for (std::size_t j = 0; j < i; ++j) {
          if (p.links[j] != root.links[j]) {
            same_root = false;
            break;
          }
        }
        if (same_root) banned_links.insert(p.links[i]);
      }
      PathConstraints constraints;
      constraints.banned_links = &banned_links;
      constraints.banned_nodes = &banned_nodes;
      if (auto spur = shortest_path(g, spur_node, dst, constraints)) {
        Path total = root;
        total.links.insert(total.links.end(), spur->links.begin(),
                           spur->links.end());
        total.latency_ms = root.latency_ms + spur->latency_ms;
        if (candidates.size() < max_candidates) {
          candidates.insert(std::move(total));
        }
      }
      // Extend the root by the spur link and ban the spur node for the
      // remaining iterations (loopless requirement).
      banned_nodes.insert(spur_node);
      const Link& l = g.link(prev.links[i]);
      root.links.push_back(prev.links[i]);
      root.latency_ms += l.latency_ms;
      spur_node = l.dst;
    }
    // Pull the best unseen candidate.
    bool advanced = false;
    while (!candidates.empty()) {
      Path best = *candidates.begin();
      candidates.erase(candidates.begin());
      const bool duplicate =
          std::any_of(generated.begin(), generated.end(),
                      [&](const Path& p) { return p.links == best.links; });
      if (!duplicate) {
        const bool fits = fits_budget(best, max_hops);
        generated.push_back(std::move(best));
        if (fits) admissible.push_back(generated.back());
        advanced = true;
        break;
      }
    }
    if (!advanced) break;  // exhausted
  }
  if (filtered_out != nullptr) {
    *filtered_out += generated.size() - admissible.size();
  }
  return admissible;
}

std::vector<Tunnel> paths_to_tunnels(const std::vector<Path>& paths) {
  std::vector<Tunnel> tunnels;
  tunnels.reserve(paths.size());
  if (paths.empty()) return tunnels;
  const double base = paths.front().latency_ms;
  for (const Path& p : paths) {
    Tunnel t;
    t.links = p.links;
    t.latency_ms = p.latency_ms;
    // w_t = latency normalized by the pair's best latency; >= 1, ascending
    // order == preference order. A zero-latency pair degenerates to hops.
    t.weight = base > 0.0 ? p.latency_ms / base
                          : static_cast<double>(p.hops());
    tunnels.push_back(std::move(t));
  }
  // Deterministic order even when weights tie (equal-latency parallel
  // paths): latency, then hops, then the link-id sequence. std::sort is
  // unstable, so the comparator itself must be a total order.
  std::sort(tunnels.begin(), tunnels.end(),
            [](const Tunnel& a, const Tunnel& b) {
              if (a.weight != b.weight) return a.weight < b.weight;
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms < b.latency_ms;
              }
              if (a.links.size() != b.links.size()) {
                return a.links.size() < b.links.size();
              }
              return a.links < b.links;
            });
  return tunnels;
}

std::uint32_t auto_middlepoint_count(std::size_t sites) {
  const auto root = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(sites))));
  return std::min<std::uint32_t>(static_cast<std::uint32_t>(sites),
                                 std::max<std::uint32_t>(4, root));
}

/// Shared context for the centrality backend: per source, one
/// latency-shortest tree (the preference metric) and one hop-shortest
/// tree (the budget metric — under a hop budget the admissible path of a
/// pair is often hop-minimal but not latency-minimal, and without the hop
/// trees the backend would wrongly classify such pairs as
/// budget-excluded), plus the selected middlepoint group.
struct CentralityContext {
  std::vector<std::vector<EdgeId>> trees;      ///< latency parent trees
  std::vector<std::vector<EdgeId>> hop_trees;  ///< hop-count parent trees
  std::vector<NodeId> middlepoints;
};

std::vector<NodeId> pick_middlepoints(
    const Graph& g, const std::vector<std::vector<EdgeId>>& trees,
    std::uint32_t count) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return {};
  const std::uint32_t target =
      count > 0 ? std::min<std::uint32_t>(count,
                                          static_cast<std::uint32_t>(n))
                : auto_middlepoint_count(n);

  // Inverted index: node -> shortest paths (pair ids) it sits on as an
  // intermediate hop. Group betweenness of a set == covered pair count.
  std::vector<std::vector<std::uint32_t>> covers(n);
  std::uint32_t pairs = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      NodeId v = d;
      bool reachable = true;
      std::vector<NodeId> interior;
      while (v != s) {
        const EdgeId e = trees[s][v];
        if (e == kInvalidEdge) {
          reachable = false;
          break;
        }
        const NodeId pred = g.link(e).src;
        if (pred != s) interior.push_back(pred);
        v = pred;
      }
      if (!reachable) continue;
      const std::uint32_t pid = pairs++;
      for (NodeId m : interior) covers[m].push_back(pid);
    }
  }

  std::vector<char> covered(pairs, 0);
  std::vector<char> picked(n, 0);
  std::vector<NodeId> group;
  group.reserve(target);
  for (std::uint32_t round = 0; round < target; ++round) {
    NodeId best = kInvalidNode;
    std::size_t best_gain = 0;
    for (NodeId m = 0; m < n; ++m) {
      if (picked[m]) continue;
      std::size_t gain = 0;
      for (std::uint32_t pid : covers[m]) {
        if (!covered[pid]) ++gain;
      }
      if (gain > best_gain) {  // ties keep the lowest node id
        best_gain = gain;
        best = m;
      }
    }
    if (best == kInvalidNode || best_gain == 0) break;  // nothing left
    picked[best] = 1;
    group.push_back(best);
    for (std::uint32_t pid : covers[best]) covered[pid] = 1;
  }
  return group;
}

/// One shortest_path_tree per source over the up links.
std::vector<std::vector<EdgeId>> source_trees(const Graph& g,
                                              PathMetric metric) {
  const auto n = static_cast<NodeId>(g.num_nodes());
  std::vector<std::vector<EdgeId>> trees;
  trees.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    trees.push_back(shortest_path_tree(g, s, metric));
  }
  return trees;
}

CentralityContext make_centrality_context(const Graph& g,
                                          const TunnelOptions& options) {
  CentralityContext ctx;
  ctx.trees = source_trees(g, PathMetric::kLatency);
  ctx.hop_trees = source_trees(g, PathMetric::kHops);
  // Middlepoints are selected on the latency trees: group betweenness of
  // the preference metric, matching the paper's centrality definition.
  ctx.middlepoints =
      pick_middlepoints(g, ctx.trees, options.centrality_middlepoints);
  return ctx;
}

/// Concatenates two tree paths src->m->dst into one loop-free path, or an
/// empty path when a segment is missing or the node sequence repeats.
Path compose_segments(const Graph& g, NodeId src, const Path& seg1,
                      const Path& seg2) {
  if (seg1.empty() || seg2.empty()) return Path{};
  Path total;
  total.links.reserve(seg1.links.size() + seg2.links.size());
  std::unordered_set<NodeId> seen;
  seen.insert(src);
  for (const Path* seg : {&seg1, &seg2}) {
    for (EdgeId e : seg->links) {
      if (!seen.insert(g.link(e).dst).second) return Path{};
      total.links.push_back(e);
    }
  }
  for (EdgeId e : total.links) total.latency_ms += g.link(e).latency_ms;
  return total;
}

/// Candidate paths for one pair under the centrality backend: the direct
/// latency- and hop-shortest paths plus <= 2-segment compositions through
/// each selected middlepoint (on both tree metrics), loop-free, deduped,
/// budget-filtered, best `tunnels_per_pair` by (latency, hops, links).
/// Because the hop-shortest direct path has the minimum possible hop
/// count, a pair is budget-excluded here exactly when NO loop-free path
/// fits the budget — the same coverage Yen's enumeration reaches.
std::vector<Path> centrality_paths(const Graph& g,
                                   const CentralityContext& ctx,
                                   NodeId src, NodeId dst,
                                   const TunnelOptions& options,
                                   bool* reachable,
                                   std::size_t* filtered_out) {
  std::vector<Path> candidates;
  const auto consider = [&](Path p) {
    if (p.empty()) return;
    if (!fits_budget(p, options.max_sr_hops)) {
      if (filtered_out != nullptr) ++*filtered_out;
      return;
    }
    candidates.push_back(std::move(p));
  };

  Path direct = tree_path(g, ctx.trees[src], src, dst);
  *reachable = !direct.empty();
  if (!*reachable) return candidates;
  consider(std::move(direct));
  consider(tree_path(g, ctx.hop_trees[src], src, dst));

  for (NodeId m : ctx.middlepoints) {
    if (m == src || m == dst) continue;
    // Compose within one metric at a time: latency segments give the
    // low-latency alternates, hop segments the budget-tight ones.
    consider(compose_segments(g, src,
                              tree_path(g, ctx.trees[src], src, m),
                              tree_path(g, ctx.trees[m], m, dst)));
    consider(compose_segments(g, src,
                              tree_path(g, ctx.hop_trees[src], src, m),
                              tree_path(g, ctx.hop_trees[m], m, dst)));
  }

  std::sort(candidates.begin(), candidates.end(), path_less);
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const Path& a, const Path& b) {
                                 return a.links == b.links;
                               }),
                   candidates.end());
  if (candidates.size() > options.tunnels_per_pair) {
    candidates.resize(options.tunnels_per_pair);
  }
  return candidates;
}

/// Builds one pair with the configured backend; updates `stats`. An empty
/// result is attributed to the hop budget when the pair is reachable and
/// to the topology when it is not.
std::vector<Path> build_pair_paths(const Graph& g, NodeId s, NodeId d,
                                   const TunnelOptions& options,
                                   const CentralityContext& ctx,
                                   TunnelBuildStats& stats) {
  bool reachable = false;
  std::vector<Path> paths =
      options.selection == TunnelSelection::kCentrality
          ? centrality_paths(g, ctx, s, d, options, &reachable,
                             &stats.paths_budget_filtered)
          : yen_paths(g, s, d, options.tunnels_per_pair,
                      options.max_candidates, options.max_sr_hops,
                      &reachable, &stats.paths_budget_filtered);
  if (!paths.empty()) {
    ++stats.pairs_built;
  } else if (reachable) {
    ++stats.pairs_budget_excluded;
  } else {
    ++stats.pairs_unreachable;
  }
  return paths;
}

/// Publishes a build/repair delta to the optional registry. These are
/// plain cumulative counters — one per build/repair event class — so the
/// chaos loop's repeated repairs show up as growth, not resets.
void publish_stats_delta(obs::MetricsRegistry* metrics,
                         const TunnelBuildStats& delta) {
  if (metrics == nullptr) return;
  metrics->counter("topo.tunnels.pairs_built").inc(delta.pairs_built);
  metrics->counter("topo.tunnels.pairs_unreachable")
      .inc(delta.pairs_unreachable);
  metrics->counter("topo.tunnels.pairs_budget_excluded")
      .inc(delta.pairs_budget_excluded);
  metrics->counter("topo.tunnels.paths_budget_filtered")
      .inc(delta.paths_budget_filtered);
}

/// The one pair loop behind build_tunnels and repair_tunnels: builds
/// `pairs` in the given order with the configured backend, stores each
/// pair's tunnels, and adds the call's stats to the set and the registry.
/// A pair left with no path is stored only when it had tunnels to replace,
/// so a fresh build never lists empty pairs and a repair clears dead ones.
void build_pairs(const Graph& g, const std::vector<SitePair>& pairs,
                 const TunnelOptions& options, TunnelSet& set) {
  CentralityContext ctx;
  TunnelBuildStats delta;
  if (options.selection == TunnelSelection::kCentrality) {
    // Repair re-selects middlepoints on the degraded graph so repaired
    // tunnels keep the backend's invariants (and the hop budget).
    ctx = make_centrality_context(g, options);
    delta.middlepoints = ctx.middlepoints.size();
  }
  for (const SitePair& pair : pairs) {
    auto paths = build_pair_paths(g, pair.src, pair.dst, options, ctx, delta);
    if (!paths.empty() || !set.tunnels(pair.src, pair.dst).empty()) {
      set.set_tunnels(pair.src, pair.dst, paths_to_tunnels(paths));
    }
  }
  TunnelBuildStats& total = set.mutable_stats();
  total.pairs_built += delta.pairs_built;
  total.pairs_unreachable += delta.pairs_unreachable;
  total.pairs_budget_excluded += delta.pairs_budget_excluded;
  total.paths_budget_filtered += delta.paths_budget_filtered;
  total.middlepoints = std::max(total.middlepoints, delta.middlepoints);
  publish_stats_delta(options.metrics, delta);
}

}  // namespace

std::vector<Path> k_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                   std::uint32_t k,
                                   std::uint32_t max_candidates,
                                   std::uint32_t max_hops) {
  bool reachable = false;
  return yen_paths(g, src, dst, k, max_candidates, max_hops, &reachable,
                   nullptr);
}

std::vector<NodeId> select_middlepoints(const Graph& g,
                                        std::uint32_t count) {
  return pick_middlepoints(g, source_trees(g, PathMetric::kLatency), count);
}

TunnelSet build_tunnels(const Graph& g, const TunnelOptions& options) {
  const auto n = static_cast<NodeId>(g.num_nodes());
  std::vector<SitePair> pairs;
  pairs.reserve(static_cast<std::size_t>(n) * (n > 0 ? n - 1 : 0));
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s != d) pairs.push_back(SitePair{s, d});
    }
  }
  TunnelSet set;
  build_pairs(g, pairs, options, set);
  return set;
}

void repair_tunnels(const Graph& g, TunnelSet& tunnels,
                    const TunnelOptions& options) {
  std::vector<SitePair> to_fix;
  for (const auto& [pair, ts] : tunnels.all()) {
    const bool any_dead = std::any_of(
        ts.begin(), ts.end(), [&](const Tunnel& t) { return !t.alive(g); });
    if (any_dead) to_fix.push_back(pair);
  }
  if (to_fix.empty()) return;
  // Deterministic repair order (unordered_map iteration is not).
  std::sort(to_fix.begin(), to_fix.end(),
            [](const SitePair& a, const SitePair& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  build_pairs(g, to_fix, options, tunnels);
}

}  // namespace megate::topo
