#include "megate/te/repair_kernel.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace megate::te {

void RepairKernel::reset(std::span<const double> capacity) {
  capacity_.assign(capacity.begin(), capacity.end());
  demands_.clear();
  x_.clear();
  tunnel_links_.clear();
  pair_tunnels_.assign(1, 0);
  usage_.assign(capacity_.size(), 0.0);
  scale_.assign(capacity_.size(), 0.0);
  residual_.assign(capacity_.size(), 0.0);
}

std::size_t RepairKernel::begin_pair(std::span<const double> flow_demands) {
  const std::size_t p = demands_.add_row();
  demands_.extend(flow_demands);
  return p;
}

void RepairKernel::add_tunnel(std::span<const topo::EdgeId> links) {
  tunnel_links_.add_row();
  tunnel_links_.extend(links);
}

void RepairKernel::finish_pair() {
  const std::size_t p = demands_.num_rows() - 1;
  const std::size_t tunnels = tunnel_links_.num_rows() - pair_tunnels_.back();
  if (tunnels == 0) {
    throw std::logic_error("RepairKernel pair closed with no tunnels");
  }
  pair_tunnels_.push_back(tunnel_links_.num_rows());
  x_.add_row();
  x_.extend_fill(demands_.row_size(p) * tunnels, 0.0);
}

void RepairKernel::merge_usage() {
  std::fill(usage_.begin(), usage_.end(), 0.0);
  for (std::size_t p = 0; p < num_pairs(); ++p) {
    const std::size_t t0 = pair_tunnels_[p];
    const std::size_t nt = pair_tunnels_[p + 1] - t0;
    const std::size_t nf = demands_.row_size(p);
    const std::span<const double> xp = x_.row(p);
    tunnel_sums_.assign(nt, 0.0);
    // Flow-major accumulation, matching the original TealSolver loop — the
    // bit-identity contract pins this summation order.
    for (std::size_t i = 0; i < nf; ++i) {
      for (std::size_t a = 0; a < nt; ++a) {
        tunnel_sums_[a] += xp[i * nt + a];
      }
    }
    for (std::size_t a = 0; a < nt; ++a) {
      const double s = tunnel_sums_[a];
      for (topo::EdgeId e : tunnel_links_.row(t0 + a)) usage_[e] += s;
    }
  }
}

void RepairKernel::refill_pair(std::size_t p) {
  const std::size_t t0 = pair_tunnels_[p];
  const std::size_t nt = pair_tunnels_[p + 1] - t0;
  const std::size_t nf = demands_.row_size(p);
  const std::span<const double> dem = demands_.row(p);
  const std::span<double> xp = x_.row(p);
  per_flow_.resize(nf);
  double unallocated = 0.0;
  for (std::size_t i = 0; i < nf; ++i) {
    double got = 0.0;
    for (std::size_t a = 0; a < nt; ++a) got += xp[i * nt + a];
    per_flow_[i] = std::max(0.0, dem[i] - got);
    unallocated += per_flow_[i];
  }
  for (std::size_t a = 0; a < nt && unallocated > 1e-12; ++a) {
    double room = std::numeric_limits<double>::infinity();
    for (topo::EdgeId e : tunnel_links_.row(t0 + a)) {
      room = std::min(room, residual_[e]);
    }
    if (room <= 1e-12) continue;
    const double grant = std::min(room, unallocated);
    const double frac = grant / unallocated;
    for (std::size_t i = 0; i < nf; ++i) {
      const double add = per_flow_[i] * frac;
      xp[i * nt + a] += add;
      per_flow_[i] -= add;
    }
    for (topo::EdgeId e : tunnel_links_.row(t0 + a)) residual_[e] -= grant;
    unallocated -= grant;
  }
}

void RepairKernel::run(std::size_t iterations) {
  if (iterations == 0) {
    throw std::invalid_argument("RepairKernel::run needs iterations >= 1");
  }
  const std::size_t num_links = capacity_.size();
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const bool last = iter + 1 == iterations;
    merge_usage();
    // Per-link multiplicative projection factor — soft (damped) on early
    // iterations, hard on the last for feasibility.
    for (std::size_t e = 0; e < num_links; ++e) {
      const double cap = capacity_[e];
      if (cap <= 0.0) {
        scale_[e] = usage_[e] > 0.0 ? 0.0 : 1.0;
      } else if (usage_[e] > cap) {
        const double hard = cap / usage_[e];
        scale_[e] = last ? hard : 0.5 * (1.0 + hard);  // damped step
      } else {
        scale_[e] = 1.0;
      }
    }
    // Scale each tunnel column by its min link factor. Before a refill,
    // re-sum the projected column into usage_ (tunnel-major, as the
    // original refill did) for the residual.
    std::fill(usage_.begin(), usage_.end(), 0.0);
    for (std::size_t p = 0; p < num_pairs(); ++p) {
      const std::size_t t0 = pair_tunnels_[p];
      const std::size_t nt = pair_tunnels_[p + 1] - t0;
      const std::size_t nf = demands_.row_size(p);
      const std::span<double> xp = x_.row(p);
      for (std::size_t a = 0; a < nt; ++a) {
        const std::span<const topo::EdgeId> links = tunnel_links_.row(t0 + a);
        double factor = 1.0;
        for (topo::EdgeId e : links) factor = std::min(factor, scale_[e]);
        if (factor < 1.0) {
          for (std::size_t i = 0; i < nf; ++i) xp[i * nt + a] *= factor;
        }
        if (last) continue;
        double tunnel_sum = 0.0;
        for (std::size_t i = 0; i < nf; ++i) tunnel_sum += xp[i * nt + a];
        for (topo::EdgeId e : links) usage_[e] += tunnel_sum;
      }
    }
    if (last) break;
    // Refill: the projection frees capacity other pairs could use; walk
    // the pairs in order, each taking its remainder from what is left.
    for (std::size_t e = 0; e < num_links; ++e) {
      residual_[e] = capacity_[e] - usage_[e];
    }
    for (std::size_t p = 0; p < num_pairs(); ++p) refill_pair(p);
  }
}

}  // namespace megate::te
