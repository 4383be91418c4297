#pragma once
// Shared feasibility-repair kernel.
//
// Both allocation fast paths in this repo end in the same correction
// problem: a cheap forward pass (TEAL's softmax spread, the learned
// allocator's per-pair split prediction) proposes a dense
// flow x tunnel allocation tensor per site pair that ignores link
// capacities, and a projection/refill loop must make it feasible without
// giving up satisfied demand. This kernel is that loop, factored out of
// TealSolver::solve into a structure-of-arrays arena (util::FlatRows —
// one contiguous buffer per quantity, no per-iteration allocation).
//
// Per iteration (TealSolver's ADMM-style schedule, unchanged), one serial
// sweep over the pairs at a time:
//   1. accumulate per-tunnel sums (flow-major: i outer, tunnel inner) and
//      merge them into per-link usage in pair order;
//   2. per-link multiplicative projection factor — damped
//      (0.5 * (1 + cap/usage)) on early iterations, hard (cap/usage) on
//      the last so the output is capacity-feasible;
//   3. scale every tunnel's column by the min factor along its links and,
//      on non-final iterations, re-sum the projected column (tunnel-major:
//      i inner) into per-link usage, giving the refill's residual;
//   4. (non-final iterations) refill: per pair, compute each flow's
//      shortfall, then walk the pair's tunnels in ascending order against
//      the global residual, granting the unallocated remainder pro-rata
//      across the pair's flows as each grant is made.
//
// Bit identity: run() performs, on every memory cell, the floating-point
// operation sequence of the pre-refactor TealSolver loop, including the
// two summation orders above. Gates: tests/learned_test.cpp's
// TealRepairParity suite compares TealSolver against an embedded copy of
// that loop, and RepairKernel.RandomJaggedProblemsMatchRecordedDigest pins
// the kernel's output on random jagged problems to a recorded digest.

#include <cstddef>
#include <span>
#include <vector>

#include "megate/topo/graph.h"
#include "megate/util/soa.h"

namespace megate::te {

/// Reusable SoA arena + the repair loop. Build order per problem:
/// reset(capacity), then per pair: begin_pair(demands), add_tunnel(links)
/// for each usable tunnel, finish_pair(); write the initial allocations
/// through x(pair) (flow-major: x[flow * tunnels + tunnel]); run().
/// The instance owns all scratch and reuses it across problems.
class RepairKernel {
 public:
  /// Starts a fresh problem. `capacity[e]` is the usable capacity of link
  /// e in Gbps (0 for down links).
  void reset(std::span<const double> capacity);

  /// Opens a new pair holding `flow_demands.size()` flows; returns its
  /// index. Pairs with no usable tunnel should simply not be added.
  std::size_t begin_pair(std::span<const double> flow_demands);
  /// Adds one usable tunnel (its link list) to the open pair.
  void add_tunnel(std::span<const topo::EdgeId> links);
  /// Closes the open pair and zero-initializes its flow x tunnel tensor.
  void finish_pair();

  std::size_t num_pairs() const noexcept { return demands_.num_rows(); }
  std::size_t num_tunnels(std::size_t pair) const noexcept {
    return pair_tunnels_[pair + 1] - pair_tunnels_[pair];
  }
  /// The pair's dense allocation tensor, flow-major. Valid until reset().
  std::span<double> x(std::size_t pair) noexcept { return x_.row(pair); }
  std::span<const double> x(std::size_t pair) const noexcept {
    return x_.row(pair);
  }

  /// Runs `iterations` projection/refill passes; the last projects hard,
  /// so the repaired tensor read back through x(pair) fits every link up
  /// to rounding. Throws std::invalid_argument when `iterations` is 0.
  void run(std::size_t iterations);

 private:
  /// Step 1: per-link usage from flow-major tunnel sums.
  void merge_usage();
  /// Step 4 for one pair, against residual_.
  void refill_pair(std::size_t p);

  std::vector<double> capacity_;
  util::FlatRows<double> demands_;        ///< one row per pair
  util::FlatRows<double> x_;              ///< one row per pair, flow-major
  util::FlatRows<topo::EdgeId> tunnel_links_;  ///< one row per tunnel
  std::vector<std::size_t> pair_tunnels_{0};   ///< pair -> tunnel row range

  // Scratch, reused across run() calls and iterations.
  std::vector<double> tunnel_sums_;  ///< one pair's column sums
  std::vector<double> per_flow_;     ///< one pair's flow shortfalls
  std::vector<double> usage_;
  std::vector<double> scale_;
  std::vector<double> residual_;
};

}  // namespace megate::te
