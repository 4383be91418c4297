// Golden digests pinning the stage-1 solvers and the MegaTE solve path bit
// for bit.
//
// lp::PackingSolver::solve is one scalar Garg–Könemann loop. Downstream
// state keys on its exact bits (the stage-2 memo hashes F_{k,t}; chaos
// fingerprints hash routes), so "close" is not good enough: these digests
// were recorded from the batched, thread-tiled solver this loop replaced
// and must keep matching them exactly.
//
//   1. A 100-seed random packing-LP suite (degenerate features included:
//      zero-capacity rows, non-positive profits, duplicate coefficients):
//      status, iterations and the bits of the objective, the dual bound
//      and every x.
//   2. A 4-interval te::MegaTeSolver run on the packing backend, cold then
//      incremental over evolving traffic: every bit of every TeSolution
//      except the wall-clock solve time.
//   3. A 4-interval te::MegaTeSolver run on the default (auto -> simplex)
//      backend at 1 and 4 threads: every TeSolution bit but the wall time,
//      each call's incremental stats and hop-budget audit, and one call
//      through the Solver interface.
//   4. The chaos fingerprint with stage 1 forced onto the packing backend.
//
// A mismatch means the solver's float operations changed. If that is
// intended, re-record the constants and say why in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "megate/fault/chaos.h"
#include "megate/lp/model.h"
#include "megate/lp/packing.h"
#include "megate/te/megate_solver.h"
#include "megate/tm/traffic.h"
#include "megate/util/rng.h"
#include "digest.h"
#include "test_helpers.h"

namespace megate {
namespace {

using testing::Digest;
using testing::digest_te_solution;
using testing::hex;

// --- 1. Random packing-LP suite ---------------------------------------------

struct CaseConfig {
  std::uint64_t seed = 0;
  int rows = 0;
  int cols = 0;
  int max_entries = 0;  ///< nonzeros per column, 1..max
  double epsilon = 0.1;
  bool zero_cap_row = false;     ///< include a 0-rhs row some columns touch
  bool neg_profit_cols = false;  ///< sprinkle non-positive-profit columns
};

CaseConfig random_case(std::uint64_t seed) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 23);
  CaseConfig c;
  c.seed = seed;
  c.rows = 2 + static_cast<int>(rng.uniform_int(0, 38));
  c.cols = 1 + static_cast<int>(rng.uniform_int(0, 299));
  c.max_entries = 1 + static_cast<int>(rng.uniform_int(0, 4));
  const double eps_grid[] = {0.05, 0.07, 0.1, 0.2, 0.3};
  c.epsilon = eps_grid[rng.uniform_int(0, 4)];
  c.zero_cap_row = rng.uniform() < 0.25;
  c.neg_profit_cols = rng.uniform() < 0.25;
  return c;
}

lp::Model build_model(const CaseConfig& c) {
  util::Rng rng(c.seed * 1000003ULL + 7);
  lp::Model m;
  std::vector<std::size_t> rows;
  for (int i = 0; i < c.rows; ++i) {
    rows.push_back(m.add_constraint(rng.uniform(1.0, 80.0)));
  }
  std::size_t dead_row = ~std::size_t{0};
  if (c.zero_cap_row) dead_row = m.add_constraint(0.0);
  for (int j = 0; j < c.cols; ++j) {
    double profit = rng.uniform(0.2, 3.0);
    if (c.neg_profit_cols && rng.uniform() < 0.15) {
      profit = -profit;  // skipped by the solver, pins x_j = 0
    }
    const auto x = m.add_variable(profit);
    const int k =
        1 + static_cast<int>(rng.uniform_int(0, c.max_entries - 1));
    for (int t = 0; t < k; ++t) {
      // Duplicates accumulate in the model, covering the dedup path.
      m.add_coefficient(rows[rng.uniform_int(0, rows.size() - 1)], x,
                        rng.uniform(0.2, 2.0));
    }
    if (dead_row != ~std::size_t{0} && rng.uniform() < 0.1) {
      m.add_coefficient(dead_row, x, 1.0);  // column becomes dead
    }
  }
  return m;
}

void digest_solution(Digest& d, const lp::Solution& s, double dual_bound) {
  d.add(static_cast<std::uint64_t>(s.status));
  d.add(static_cast<std::uint64_t>(s.iterations));
  d.add(s.objective);
  d.add(dual_bound);
  d.add(static_cast<std::uint64_t>(s.x.size()));
  for (double v : s.x) d.add(v);
}

TEST(Stage1Golden, RandomPackingSuiteMatchesRecordedDigest) {
  Digest all;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const CaseConfig c = random_case(seed);
    lp::PackingOptions opt;
    opt.epsilon = c.epsilon;
    lp::PackingSolver solver(opt);
    const lp::Solution s = solver.solve(build_model(c));
    digest_solution(all, s, solver.last_dual_bound());
  }
  EXPECT_EQ(hex(all.value()), hex(0xf971d36664d02664ULL));
}

// --- 2. MegaTeSolver cold + incremental on the packing backend -------------

/// Evolves a traffic matrix by one interval (seeded per flow, independent
/// of container iteration order) — same idiom as incremental_test.cpp.
tm::TrafficMatrix evolve_traffic(const tm::TrafficMatrix& prev, double churn,
                                 std::uint64_t seed) {
  tm::TrafficMatrix out;
  for (const auto& [pair, flows] : prev.pairs()) {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      tm::EndpointDemand d = flows[i];
      util::Rng rng(seed ^ (d.src * 0x9E3779B97F4A7C15ULL) ^
                    (d.dst * 0xBF58476D1CE4E5B9ULL) ^ i);
      if (rng.uniform() < churn) {
        d.demand_gbps *= 0.5 + rng.uniform();
      }
      out.add(d);
    }
  }
  return out;
}

TEST(Stage1Golden, MegaTeColdAndIncrementalMatchRecordedDigest) {
  // Stage 1 feeds the F_{k,t}-keyed stage-2 memo (incremental intervals),
  // which only stays coherent because stage 1 is bit-deterministic.
  auto s = testing::make_scenario(12, 20, 3, 0.3, 7);
  te::MegaTeOptions opt;
  opt.threads = 4;
  opt.site_lp.backend = te::SiteLpOptions::Backend::kPacking;
  te::MegaTeSolver solver(opt);

  Digest all;
  tm::TrafficMatrix current = s->traffic;
  for (std::size_t interval = 0; interval < 4; ++interval) {
    if (interval > 0) {
      current = evolve_traffic(current, 0.15, 1000003ULL * interval + 5);
    }
    te::TeProblem problem = s->problem();
    problem.traffic = &current;
    te::SolveContext ctx;
    ctx.incremental = interval > 0;
    digest_te_solution(all, solver.solve(problem, ctx).solution);
  }
  EXPECT_EQ(hex(all.value()), hex(0x46a5757e1abcc625ULL));
}

// --- 3. MegaTeSolver on the default backend --------------------------------

void digest_report(Digest& d, const te::SolveReport& r) {
  digest_te_solution(d, r.solution);
  const te::IncrementalStats& s = r.incremental;
  d.add(static_cast<std::uint64_t>(s.used_incremental));
  d.add(static_cast<std::uint64_t>(s.dirty_pairs));
  d.add(static_cast<std::uint64_t>(s.clean_pairs));
  d.add(static_cast<std::uint64_t>(s.ssp_cache_hits));
  d.add(static_cast<std::uint64_t>(s.ssp_cache_misses));
  d.add(static_cast<std::uint64_t>(s.cache_invalidations));
  d.add(static_cast<std::uint64_t>(s.warm_start_rounds));
  d.add(static_cast<std::uint64_t>(s.cold_lp_rounds));
  d.add(static_cast<std::uint64_t>(s.lp_iterations));
  d.add(static_cast<std::uint64_t>(r.hop_budget_violations));
  d.add(r.error);
}

TEST(SolvePathGolden, DefaultBackendColdAndIncrementalMatchRecordedDigest) {
  // The auto backend picks the simplex here, as it does on B4: a cold
  // interval, two incremental ones over churned traffic (memo hits and
  // misses, the demand delta), one re-solving the same matrix (all hits,
  // warm bases reused), then one call through the one-argument Solver
  // interface. The digest was recorded while cold and memoized stage 2
  // were still two separate passes. 100 endpoints per site put several
  // flows on most (pair, class) cells, so the digest also sees the order
  // in which stage 2 accumulates each tunnel cell.
  auto s = testing::make_scenario(12, 20, 100, 0.3, 7);
  Digest all;
  for (std::size_t threads : {1u, 4u}) {
    te::MegaTeOptions opt;
    opt.threads = threads;
    te::MegaTeSolver solver(opt);
    tm::TrafficMatrix current = s->traffic;
    te::TeProblem problem = s->problem();
    for (std::size_t interval = 0; interval < 4; ++interval) {
      if (interval == 1 || interval == 2) {
        current = evolve_traffic(current, 0.15, 1000003ULL * interval + 5);
      }
      problem.traffic = &current;
      te::SolveContext ctx;
      ctx.incremental = interval > 0;
      digest_report(all, solver.solve(problem, ctx));
    }
    te::Solver& base = solver;
    digest_te_solution(all, base.solve(problem));
  }
  EXPECT_EQ(hex(all.value()), hex(0xe5bf192b63684321ULL));
}

// --- 4. Chaos fingerprint on the packing backend ---------------------------

TEST(Stage1Golden, ChaosFingerprintOnPackingMatchesRecorded) {
  fault::ChaosOptions o;
  o.sites = 8;
  o.duplex_links = 12;
  o.endpoints_per_site = 2;
  o.intervals = 8;
  o.interval_s = 15.0;
  o.poll_interval_s = 4.0;
  o.kv_shards = 2;
  o.plan.seed = 21;
  o.plan.horizon_s = 0.0;  // auto-size to intervals * interval_s
  o.plan.quiet_tail_s = 45.0;
  o.plan.shard_crashes = 2;
  o.plan.link_failures = 1;
  o.plan.pull_drop_windows = 1;
  o.plan.stale_windows = 1;
  // Small chaos topologies would otherwise auto-pick the simplex.
  o.site_lp.backend = te::SiteLpOptions::Backend::kPacking;
  const fault::ChaosReport r = fault::run_chaos(o);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "did not converge"
                                               : r.violations.front());
  EXPECT_EQ(hex(r.fingerprint), hex(0x16c194fb0937bd05ULL));
}

}  // namespace
}  // namespace megate
