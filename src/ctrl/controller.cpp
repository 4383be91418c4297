#include "megate/ctrl/controller.h"

#include <algorithm>
#include <charconv>

#include "megate/dataplane/host_stack.h"

namespace megate::ctrl {

std::string path_key(std::uint64_t instance_id) {
  return "path/" + std::to_string(instance_id);
}

namespace {

void append_uint(std::string& out, std::uint32_t v) {
  char buf[10];  // 2^32 - 1 has ten digits
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void append_hops(std::string& out, const std::vector<std::uint32_t>& hops) {
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i) out.push_back(',');
    append_uint(out, hops[i]);
  }
}

/// Appends one route-table entry, "dst:h1,h2" ('*' for the wildcard).
void append_route(std::string& out, std::uint32_t dst_site,
                  const std::vector<std::uint32_t>& hops) {
  if (dst_site == dataplane::kAnyDstSite) {
    out.push_back('*');
  } else {
    append_uint(out, dst_site);
  }
  out.push_back(':');
  append_hops(out, hops);
}

}  // namespace

std::string encode_hops(const std::vector<std::uint32_t>& hops) {
  std::string out;
  append_hops(out, hops);
  return out;
}

std::vector<std::uint32_t> decode_hops(const std::string& text) {
  std::vector<std::uint32_t> hops;
  const char* p = text.data();
  const char* end = p + text.size();
  while (p < end) {
    std::uint32_t v = 0;
    auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc{}) break;  // malformed tail: keep what parsed
    hops.push_back(v);
    p = next;
    if (p < end && *p == ',') ++p;
  }
  return hops;
}

std::string encode_routes(const std::vector<RouteEntry>& routes) {
  std::string out;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (i) out.push_back('|');
    append_route(out, routes[i].dst_site, routes[i].hops);
  }
  return out;
}

std::vector<RouteEntry> decode_routes(const std::string& text) {
  std::vector<RouteEntry> routes;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('|', pos);
    if (end == std::string::npos) end = text.size();
    const std::string entry = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) continue;  // malformed entry: skip
    RouteEntry r;
    const std::string site = entry.substr(0, colon);
    if (site == "*") {
      r.dst_site = dataplane::kAnyDstSite;
    } else {
      std::uint32_t v = 0;
      auto [p, ec] = std::from_chars(site.data(), site.data() + site.size(), v);
      if (ec != std::errc{}) continue;
      r.dst_site = v;
    }
    r.hops = decode_hops(entry.substr(colon + 1));
    routes.push_back(std::move(r));
  }
  return routes;
}

std::uint64_t Controller::full_table_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const auto& [instance, encoded] : live_) {
    bytes += path_key(instance).size() + encoded.size();
  }
  return bytes;
}

Version Controller::publish_solution(const te::TeProblem& problem,
                                     const te::TeSolution& sol) {
  // Every assigned flow is a candidate route for its (source instance,
  // destination site). Sorting them by (instance, site) lays each
  // instance's table out contiguously with its sites ascending — the
  // canonical encoding, so an unchanged table produces a byte-identical
  // string and therefore no delta entry. The sort is stable, so equal
  // (instance, site) candidates stay in solution order.
  struct Candidate {
    std::uint64_t instance;
    std::uint32_t dst_site;
    double demand;
    const topo::Tunnel* tunnel;
  };
  std::vector<Candidate> candidates;
  for (const auto& [pair, alloc] : sol.pairs) {
    if (alloc.flow_tunnel.empty()) continue;
    auto it = problem.traffic->pairs().find(pair);
    if (it == problem.traffic->pairs().end()) continue;
    const auto& flows = it->second;
    const auto& tunnels = problem.tunnels->tunnels(pair.src, pair.dst);
    for (std::size_t i = 0;
         i < flows.size() && i < alloc.flow_tunnel.size(); ++i) {
      const std::int32_t t = alloc.flow_tunnel[i];
      if (t < 0 || static_cast<std::size_t>(t) >= tunnels.size()) continue;
      candidates.push_back(Candidate{flows[i].src, pair.dst,
                                     flows[i].demand_gbps, &tunnels[t]});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.instance != b.instance ? a.instance < b.instance
                                                     : a.dst_site < b.dst_site;
                   });

  // One pass over the instances: encode each table, diff it against
  // live_ and update live_ in place.
  KvDelta delta;
  std::string encoded;
  std::vector<std::uint32_t> hops;
  std::vector<std::uint64_t> routed;  // ascending
  for (std::size_t i = 0; i < candidates.size();) {
    const std::uint64_t instance = candidates[i].instance;
    routed.push_back(instance);
    encoded.clear();
    while (i < candidates.size() && candidates[i].instance == instance) {
      // When several flows of the same (instance, destination site) land
      // on different tunnels, the largest flow's tunnel wins — the
      // instance-level pinning of §4.1; the first flow on a tie.
      const std::uint32_t site = candidates[i].dst_site;
      const Candidate* best = &candidates[i];
      double best_demand = -1.0;
      for (; i < candidates.size() && candidates[i].instance == instance &&
             candidates[i].dst_site == site;
           ++i) {
        if (candidates[i].demand <= best_demand) continue;
        best_demand = candidates[i].demand;
        best = &candidates[i];
      }
      hops.clear();
      for (topo::EdgeId e : best->tunnel->links) {
        hops.push_back(problem.graph->link(e).dst);
      }
      if (!encoded.empty()) encoded.push_back('|');
      append_route(encoded, site, hops);
    }
    auto [it, inserted] = live_.try_emplace(instance);
    if (!inserted && it->second == encoded) continue;  // unchanged
    it->second = encoded;
    delta.upserts.emplace_back(path_key(instance), encoded);
  }

  // Instances that lost every assigned flow: erased, in instance order.
  // live_ now holds every routed instance, so only a surplus means any.
  std::vector<std::uint64_t> gone;
  if (live_.size() > routed.size()) {
    for (auto it = live_.begin(); it != live_.end();) {
      if (std::binary_search(routed.begin(), routed.end(), it->first)) {
        ++it;
      } else {
        gone.push_back(it->first);
        it = live_.erase(it);
      }
    }
    std::sort(gone.begin(), gone.end());
  }
  for (const std::uint64_t instance : gone) {
    delta.erases.push_back(path_key(instance));
  }
  last_upserts_ = delta.upserts.size();
  last_erases_ = delta.erases.size();
  last_bytes_ = delta.bytes();
  published_ += delta.upserts.size();
  erased_ += delta.erases.size();
  return db_->publish_delta(delta);
}

Version Controller::publish_path(std::uint64_t instance_id,
                                 const std::vector<std::uint32_t>& hops) {
  ++published_;
  RouteEntry r;
  r.dst_site = dataplane::kAnyDstSite;
  r.hops = hops;
  KvDelta delta;
  delta.upserts.emplace_back(path_key(instance_id), encode_routes({r}));
  last_upserts_ = 1;
  last_erases_ = 0;
  last_bytes_ = delta.bytes();
  live_[instance_id] = delta.upserts.front().second;
  return db_->publish_delta(delta);
}

}  // namespace megate::ctrl
