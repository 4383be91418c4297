#include "megate/te/site_lp.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "megate/lp/packing.h"
#include "megate/lp/simplex.h"
#include "megate/topo/clustering.h"
#include "megate/util/thread_pool.h"

namespace megate::te {

SiteLpResult solve_max_site_flow(
    const topo::Graph& g, const topo::TunnelSet& tunnels,
    const std::unordered_map<topo::SitePair, double, topo::SitePairHash>&
        site_demands,
    const std::vector<double>& capacity_override, double epsilon,
    const SiteLpOptions& options, const lp::SimplexWarmState* warm,
    lp::SimplexWarmState* warm_out) {
  if (!capacity_override.empty() &&
      capacity_override.size() != g.num_links()) {
    throw std::invalid_argument(
        "capacity_override must have one entry per link");
  }

  lp::Model model;

  // Capacity rows, one per up link with positive capacity.
  std::vector<std::size_t> link_row(g.num_links(), ~std::size_t{0});
  for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
    const topo::Link& l = g.link(e);
    double cap = capacity_override.empty() ? l.capacity_gbps
                                           : capacity_override[e];
    if (!l.up) cap = 0.0;
    if (cap <= 0.0) continue;  // dead/full link: tunnels over it get no var
    link_row[e] = model.add_constraint(cap);
  }

  // Variables per (pair, alive tunnel) + a demand row per pair.
  struct VarRef {
    topo::SitePair pair;
    std::size_t tunnel_index;
  };
  std::vector<VarRef> var_refs;
  SiteLpResult result;

  for (const auto& [pair, demand] : site_demands) {
    if (demand <= 0.0) continue;
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    // Collect tunnels that are alive and whose links all have capacity rows.
    std::vector<std::size_t> usable;
    for (std::size_t t = 0; t < ts.size(); ++t) {
      bool ok = !ts[t].links.empty() &&
                (options.max_sr_hops == 0 ||
                 ts[t].links.size() <= options.max_sr_hops);
      if (ok) {
        for (topo::EdgeId e : ts[t].links) {
          if (link_row[e] == ~std::size_t{0}) {
            ok = false;
            break;
          }
        }
      }
      if (ok) usable.push_back(t);
    }
    if (usable.empty()) continue;
    const std::size_t demand_row = model.add_constraint(demand);
    for (std::size_t t : usable) {
      // Objective: 1 - epsilon * w_t (prefer shorter tunnels). Clamp at a
      // small positive floor so very long tunnels stay usable.
      const double coef = std::max(1e-4, 1.0 - epsilon * ts[t].weight);
      const std::size_t var = model.add_variable(coef);
      model.add_coefficient(demand_row, var, 1.0);
      for (topo::EdgeId e : ts[t].links) {
        model.add_coefficient(link_row[e], var, 1.0);
      }
      var_refs.push_back(VarRef{pair, t});
    }
  }

  result.num_variables = model.num_variables();
  result.num_constraints = model.num_constraints();
  if (model.num_variables() == 0) {
    result.status = lp::Status::kOptimal;
    if (warm_out != nullptr) warm_out->clear();
    return result;
  }

  // Backend choice: exact simplex when the dense tableau is small enough.
  const std::size_t cells = (model.num_constraints() + 1) *
                            (model.num_constraints() +
                             model.num_variables() + 1);
  bool use_simplex = options.backend == SiteLpOptions::Backend::kSimplex;
  if (options.backend == SiteLpOptions::Backend::kAuto) {
    use_simplex = cells <= options.max_simplex_cells;
  }

  lp::Solution lp_sol;
  if (use_simplex) {
    lp::SimplexSolver solver;
    lp_sol = solver.solve(model, warm, warm_out);
    result.used_simplex = true;
  } else {
    lp::PackingOptions popt;
    popt.epsilon = options.packing_epsilon;
    lp_sol = lp::PackingSolver(popt).solve(model);
    if (warm_out != nullptr) warm_out->clear();
  }

  result.status = lp_sol.status;
  result.objective = lp_sol.objective;
  result.iterations = lp_sol.iterations;
  result.warm_start_used = lp_sol.warm_start_used;

  for (std::size_t j = 0; j < var_refs.size(); ++j) {
    const VarRef& ref = var_refs[j];
    const double v = lp_sol.x[j];
    auto& alloc = result.alloc[ref.pair];
    if (alloc.empty()) {
      alloc.assign(tunnels.tunnels(ref.pair.src, ref.pair.dst).size(), 0.0);
    }
    alloc[ref.tunnel_index] = std::max(0.0, v);
  }
  return result;
}

SiteLpResult solve_max_site_flow_clustered(
    const topo::Graph& g, const topo::TunnelSet& tunnels,
    const std::unordered_map<topo::SitePair, double, topo::SitePairHash>&
        site_demands,
    const std::vector<double>& capacity_override, double epsilon,
    std::size_t clusters, const SiteLpOptions& options,
    std::size_t threads, util::ThreadPool* pool) {
  if (clusters < 2) {
    return solve_max_site_flow(g, tunnels, site_demands, capacity_override,
                               epsilon, options);
  }
  const std::vector<std::uint32_t> cluster =
      topo::cluster_sites(g, clusters);

  auto base_capacity = [&](topo::EdgeId e) {
    const topo::Link& l = g.link(e);
    if (!l.up) return 0.0;
    return capacity_override.empty() ? l.capacity_gbps
                                     : capacity_override[e];
  };

  // Bucket site pairs by cluster pair and estimate each bucket's per-link
  // usage (demand spread across alive tunnels by inverse weight) so the
  // static capacity partition tracks what the joint LP would do.
  struct Bucket {
    std::unordered_map<topo::SitePair, double, topo::SitePairHash> demands;
    std::vector<double> estimated;  // per-link estimated usage
  };
  std::unordered_map<std::uint64_t, Bucket> buckets;
  std::vector<double> total_estimated(g.num_links(), 0.0);
  for (const auto& [pair, demand] : site_demands) {
    if (demand <= 0.0) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(cluster[pair.src]) << 32) |
        cluster[pair.dst];
    Bucket& b = buckets[key];
    if (b.estimated.empty()) b.estimated.assign(g.num_links(), 0.0);
    b.demands[pair] = demand;
    const auto& ts = tunnels.tunnels(pair.src, pair.dst);
    // Mirror the per-bucket LP's admissibility (alive + hop budget) so the
    // capacity partition never reserves headroom for unusable tunnels.
    auto admissible = [&](const topo::Tunnel& t) {
      return t.alive(g) && (options.max_sr_hops == 0 ||
                            t.links.size() <= options.max_sr_hops);
    };
    double wsum = 0.0;
    for (const auto& t : ts) {
      if (admissible(t)) wsum += 1.0 / t.weight;
    }
    if (wsum <= 0.0) continue;
    for (const auto& t : ts) {
      if (!admissible(t)) continue;
      const double share = demand * (1.0 / t.weight) / wsum;
      for (topo::EdgeId e : t.links) {
        b.estimated[e] += share;
        total_estimated[e] += share;
      }
    }
  }

  // Solve the buckets in parallel against their capacity shares.
  std::vector<const Bucket*> bucket_list;
  bucket_list.reserve(buckets.size());
  for (const auto& [key, b] : buckets) bucket_list.push_back(&b);
  std::vector<SiteLpResult> partial(bucket_list.size());

  std::unique_ptr<util::ThreadPool> owned;
  if (pool == nullptr) {
    owned = std::make_unique<util::ThreadPool>(threads);
    pool = owned.get();
  }
  pool->parallel_for(bucket_list.size(), [&](std::size_t i) {
    const Bucket& b = *bucket_list[i];
    std::vector<double> caps(g.num_links(), 0.0);
    for (topo::EdgeId e = 0; e < g.num_links(); ++e) {
      if (total_estimated[e] > 0.0 && b.estimated[e] > 0.0) {
        caps[e] = base_capacity(e) * (b.estimated[e] / total_estimated[e]);
      }
    }
    partial[i] = solve_max_site_flow(g, tunnels, b.demands, caps, epsilon,
                                     options);
  });

  SiteLpResult merged;
  merged.status = lp::Status::kOptimal;
  for (const SiteLpResult& r : partial) {
    if (r.status != lp::Status::kOptimal) merged.status = r.status;
    merged.objective += r.objective;
    merged.iterations += r.iterations;
    merged.num_variables += r.num_variables;
    merged.num_constraints += r.num_constraints;
    merged.used_simplex = merged.used_simplex || r.used_simplex;
    for (const auto& [pair, alloc] : r.alloc) merged.alloc[pair] = alloc;
  }
  return merged;
}

}  // namespace megate::te
