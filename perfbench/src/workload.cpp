#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "bench_common.h"

namespace perfbench {

namespace tm = megate::tm;
namespace topo = megate::topo;

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::size_t interval_count(const WorkloadSpec& w, double seconds) {
  const double n = std::round(seconds / w.nominal_interval_s);
  return std::clamp(static_cast<std::size_t>(std::max(n, 0.0)), kMinIntervals,
                    kMaxIntervals);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double target_demand_gbps(const topo::Graph& g,
                          const topo::TunnelSet& tunnels) {
  return tm::total_link_capacity_gbps(g) *
         megate::bench::InstanceOptions{}.load /
         megate::bench::mean_shortest_hops(tunnels);
}

EndpointLayout make_layout(const WorkloadSpec& w, const topo::Graph& g) {
  std::vector<std::uint32_t> per_site =
      tm::generate_endpoints_with_total(g, w.endpoints, kEndpointShape,
                                        kLayoutSeed)
          .per_site();
  double total = 0.0;
  for (std::uint32_t n : per_site) total += n;
  const double scale = static_cast<double>(w.endpoints) / total;
  for (std::uint32_t& n : per_site) {
    n = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::llround(n * scale)));
  }
  return EndpointLayout(std::move(per_site));
}

TrafficMatrix make_traffic(const WorkloadSpec& w, const topo::Graph& g,
                           const EndpointLayout& layout, double target_gbps,
                           std::uint64_t seed, std::uint64_t interval) {
  tm::TrafficOptions opt;
  opt.active_pair_fraction = w.active_pairs;
  opt.target_total_gbps = target_gbps;
  return tm::generate_traffic(g, layout, opt,
                              mix_seed(seed, 0x1000 + interval));
}

DemandStream make_churn(const TrafficMatrix& base, std::uint64_t seed,
                        std::size_t horizon) {
  tm::ChurnOptions opt;
  opt.seed = mix_seed(seed, 0xC0);
  opt.horizon_s = static_cast<double>(horizon);
  opt.flow_scale_events = kScaleEventsPerInterval * horizon;
  opt.flash_crowds = kFlashCrowdsPerInterval * horizon;
  opt.endpoint_arrivals = kArrivalsPerInterval * horizon;
  opt.endpoint_departures = kDeparturesPerInterval * horizon;
  opt.diurnal_steps = horizon / kDiurnalEvery;
  return DemandStream::generate(base, opt);
}

InputSource::InputSource(const WorkloadSpec& w, const topo::Graph& g,
                         const EndpointLayout& layout, double target_gbps,
                         std::uint64_t seed)
    : w_(w),
      g_(g),
      layout_(layout),
      target_gbps_(target_gbps),
      seed_(seed) {
  if (w_.churn) stream_ = make_churn(initial(), seed_, kChurnHorizon);
}

TrafficMatrix InputSource::initial() const {
  return make_traffic(w_, g_, layout_, target_gbps_, seed_, 0);
}

InputStep InputSource::advance(TrafficMatrix& m, std::uint64_t interval) {
  InputStep step;
  if (!w_.churn) {
    m = make_traffic(w_, g_, layout_, target_gbps_, seed_, interval);
    return step;
  }
  // Events in [interval - 1, interval); the cursor keeps them in order.
  const double end = static_cast<double>(interval);
  while (stream_.cursor() < stream_.events().size() &&
         stream_.events()[stream_.cursor()].time_s < end) {
    const tm::DemandEvent* ev = stream_.next_due(end);
    DemandStream::apply(*ev, m);
    ++step.events;
    step.changed_flows += ev->changes.size();
    step.log += ev->to_log();
    step.log.push_back('\n');
  }
  return step;
}

std::vector<tm::EndpointId> InputSource::arrivals() const {
  std::set<tm::EndpointId> ids;
  for (const tm::DemandEvent& ev : stream_.events()) {
    if (ev.kind != tm::DemandEventKind::kEndpointArrival) continue;
    for (const tm::FlowChange& c : ev.changes) ids.insert(c.src);
  }
  return {ids.begin(), ids.end()};
}

std::vector<std::pair<tm::EndpointId, std::uint32_t>> InputSource::connections(
    std::size_t intervals) const {
  std::vector<std::pair<tm::EndpointId, std::uint32_t>> out;
  const auto add_matrix = [&](const TrafficMatrix& m) {
    for (const auto& [pair, flows] : m.pairs()) {
      for (const tm::EndpointDemand& f : flows) {
        out.emplace_back(f.src, pair.dst);
      }
    }
  };
  add_matrix(initial());
  if (w_.churn) {
    for (const tm::DemandEvent& ev : stream_.events()) {
      for (const tm::FlowChange& c : ev.changes) {
        out.emplace_back(c.src, c.pair.dst);
      }
    }
  } else {
    for (std::uint64_t k = 1; k <= intervals; ++k) {
      add_matrix(make_traffic(w_, g_, layout_, target_gbps_, seed_, k));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace perfbench
