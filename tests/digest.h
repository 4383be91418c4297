#pragma once
// Bit-exact digests for the golden tests: an FNV-1a hash over 64-bit
// words and a canonical walk of a te::TeSolution. A recorded digest pins
// every float operation upstream of it; "close" never matches.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "megate/te/types.h"

namespace megate::testing {

/// FNV-1a over 64-bit words: order-sensitive and exact on double bits
/// (distinguishes -0.0 from 0.0).
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

inline std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Every TeSolution field except the wall-clock solve_time_s, pairs in
/// (src, dst) order so hash-map iteration order cannot leak in.
inline void digest_te_solution(Digest& d, const te::TeSolution& sol) {
  d.add(sol.solver_name);
  d.add(sol.satisfied_gbps);
  d.add(sol.total_demand_gbps);
  d.add(static_cast<std::uint64_t>(sol.iterations));
  d.add(static_cast<std::uint64_t>(sol.est_memory_bytes));
  d.add(static_cast<std::uint64_t>(sol.solved));
  std::vector<topo::SitePair> keys;
  keys.reserve(sol.pairs.size());
  for (const auto& [pair, alloc] : sol.pairs) keys.push_back(pair);
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  d.add(static_cast<std::uint64_t>(keys.size()));
  for (const topo::SitePair& k : keys) {
    const te::PairAllocation& a = sol.pairs.at(k);
    d.add(static_cast<std::uint64_t>(k.src));
    d.add(static_cast<std::uint64_t>(k.dst));
    d.add(static_cast<std::uint64_t>(a.tunnel_alloc.size()));
    for (double v : a.tunnel_alloc) d.add(v);
    d.add(static_cast<std::uint64_t>(a.flow_tunnel.size()));
    for (std::int32_t t : a.flow_tunnel) {
      d.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(t)));
    }
  }
}

/// Every tunnel of a TunnelSet (links, latency_ms and weight bits) with
/// pairs in (src, dst) order, then all five TunnelBuildStats fields. Pairs
/// present with an empty list (a repaired pair left with no path) hash
/// differently from absent pairs.
inline void digest_tunnel_set(Digest& d, const topo::TunnelSet& ts) {
  std::vector<topo::SitePair> keys;
  keys.reserve(ts.num_pairs());
  for (const auto& [pair, tunnels] : ts.all()) keys.push_back(pair);
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  d.add(static_cast<std::uint64_t>(keys.size()));
  for (const topo::SitePair& k : keys) {
    const auto& tunnels = ts.tunnels(k.src, k.dst);
    d.add(static_cast<std::uint64_t>(k.src));
    d.add(static_cast<std::uint64_t>(k.dst));
    d.add(static_cast<std::uint64_t>(tunnels.size()));
    for (const topo::Tunnel& t : tunnels) {
      d.add(static_cast<std::uint64_t>(t.links.size()));
      for (topo::EdgeId e : t.links) d.add(static_cast<std::uint64_t>(e));
      d.add(t.latency_ms);
      d.add(t.weight);
    }
  }
  const topo::TunnelBuildStats& s = ts.stats();
  d.add(static_cast<std::uint64_t>(s.pairs_built));
  d.add(static_cast<std::uint64_t>(s.pairs_unreachable));
  d.add(static_cast<std::uint64_t>(s.pairs_budget_excluded));
  d.add(static_cast<std::uint64_t>(s.paths_budget_filtered));
  d.add(static_cast<std::uint64_t>(s.middlepoints));
}

}  // namespace megate::testing
