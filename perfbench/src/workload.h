#pragma once
// Workload definitions and seeded input generation for the TE-interval
// benchmark. Everything a run feeds the program — endpoint layout, each
// interval's demand matrix, the churn timeline — is derived here from the
// workload seed, so the same seed reproduces the same inputs byte for
// byte (checked by inputs_test.cpp) and the program under test only ever
// receives generated inputs.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "megate/tm/demand_stream.h"
#include "megate/tm/endpoints.h"
#include "megate/tm/traffic.h"
#include "megate/topo/generators.h"
#include "megate/topo/tunnels.h"

namespace perfbench {

using megate::tm::DemandStream;
using megate::tm::EndpointLayout;
using megate::tm::TrafficMatrix;

struct WorkloadSpec {
  const char* name;
  megate::topo::TopologyKind kind;
  std::uint64_t endpoints;
  /// Share of ordered site pairs that exchange traffic. B4's 12 data
  /// centres all talk to each other; on a topology that small a random
  /// 60% of pairs would leave each matrix's bottlenecks to chance.
  double active_pairs;
  /// true: one incremental solve per interval over a churning matrix;
  /// false: a fresh demand matrix and a cold solve per interval.
  bool churn;
  /// Typical interval wall time on a 4-core machine. It only turns a run's
  /// seconds into a fixed interval count (interval_count), so the work in
  /// a run, and the memory the hosts' flow maps reach, does not depend on
  /// how fast the program under test is.
  double nominal_interval_s;
};

/// BENCHMARK.json lists b4-endpoints and twan-churn. cogentco-cold runs
/// by hand only: its 15 s serial tunnel build per set-up and its 3 s
/// solves leave too few intervals per run for steady medians within the
/// benchmark's time budget (see perfbench/README.md).
inline constexpr WorkloadSpec kWorkloads[] = {
    {"cogentco-cold", megate::topo::TopologyKind::kCogentco, 19'700, 0.6,
     false, 3.0},
    {"b4-endpoints", megate::topo::TopologyKind::kB4, 250'000, 1.0, false,
     3.0},
    {"twan-churn", megate::topo::TopologyKind::kTwan, 100'000, 0.6, true,
     2.5},
};

/// Topology generator seed, endpoint-layout seed and Weibull endpoint
/// shape, fixed across runs: the workload seed varies demand (each
/// interval's matrix and the churn timeline), never the WAN or where its
/// endpoints live.
inline constexpr std::uint64_t kTopologySeed = 42;
inline constexpr std::uint64_t kLayoutSeed = 42;
inline constexpr double kEndpointShape = 0.8;

/// Churn per TE interval on the churn workload (the stream is generated
/// once for the run's horizon; event times are uniform, so these are
/// per-interval means). One diurnal step lands every kDiurnalEvery
/// intervals: a step rescales every flow and so dirties every pair.
inline constexpr std::size_t kScaleEventsPerInterval = 70;
inline constexpr std::size_t kFlashCrowdsPerInterval = 1;
inline constexpr std::size_t kArrivalsPerInterval = 2;
inline constexpr std::size_t kDeparturesPerInterval = 2;
inline constexpr std::size_t kDiurnalEvery = 8;
/// Bounds on the timed intervals of one run. A traced run needs at least
/// one whole block of four (untraced, traced, traced, untraced); the churn
/// stream covers every interval a run can reach.
inline constexpr std::size_t kMinIntervals = 4;
inline constexpr std::size_t kMaxIntervals = 64;
inline constexpr std::size_t kChurnHorizon = kMaxIntervals;

const WorkloadSpec* find_workload(std::string_view name);

/// Timed intervals in a run of `seconds`: seconds / nominal_interval_s,
/// rounded and clamped to [kMinIntervals, kMaxIntervals].
std::size_t interval_count(const WorkloadSpec& w, double seconds);

/// splitmix64-style combination of a seed and a stream id.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Demand total that loads the WAN to the benches' default offered load
/// (bench::InstanceOptions::load) of its routable capacity.
double target_demand_gbps(const megate::topo::Graph& g,
                          const megate::topo::TunnelSet& tunnels);

/// Weibull endpoint counts per site, rescaled so they total about
/// w.endpoints (a 12-site sample's total strays far from its mean).
EndpointLayout make_layout(const WorkloadSpec& w,
                           const megate::topo::Graph& g);

/// Demand matrix of interval `interval` (0 = the set-up interval) for the
/// cold workloads; the churn workload's base matrix is interval 0.
TrafficMatrix make_traffic(const WorkloadSpec& w, const megate::topo::Graph& g,
                           const EndpointLayout& layout, double target_gbps,
                           std::uint64_t seed, std::uint64_t interval);

/// The churn timeline covering intervals [1, horizon]: events with
/// time_s in [k-1, k) are applied before timed interval k.
DemandStream make_churn(const TrafficMatrix& base, std::uint64_t seed,
                        std::size_t horizon);

/// What one interval's input step changed.
struct InputStep {
  std::size_t events = 0;
  std::size_t changed_flows = 0;
  std::string log;  ///< the applied events' to_log() lines
};

/// Advances `m` to the inputs of timed interval `interval` (>= 1): a fresh
/// matrix on the cold workloads, the due churn events on the churn one.
class InputSource {
 public:
  InputSource(const WorkloadSpec& w, const megate::topo::Graph& g,
              const EndpointLayout& layout, double target_gbps,
              std::uint64_t seed);

  TrafficMatrix initial() const;
  InputStep advance(TrafficMatrix& m, std::uint64_t interval);

  /// Endpoints that appear through churn arrivals (hosts are created for
  /// them at set-up so every published key has an agent).
  std::vector<megate::tm::EndpointId> arrivals() const;

  /// (source endpoint, destination site) of every flow the run's inputs
  /// can carry: the set-up matrix and `intervals` timed ones on the cold
  /// workloads, the base matrix and every churn event on the churn one.
  /// Sorted, no duplicates.
  std::vector<std::pair<megate::tm::EndpointId, std::uint32_t>> connections(
      std::size_t intervals) const;

 private:
  const WorkloadSpec& w_;
  const megate::topo::Graph& g_;
  const EndpointLayout& layout_;
  double target_gbps_;
  std::uint64_t seed_;
  DemandStream stream_;
};

}  // namespace perfbench
