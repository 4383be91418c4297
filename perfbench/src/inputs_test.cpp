// Checks that a workload seed fixes the benchmark's inputs: the same seed
// reproduces every interval's demand matrix (tm::DemandStream::fingerprint)
// and the churn event log byte for byte, and another seed changes both.
// Covers the cold-matrix path (b4-endpoints) and the churn path
// (twan-churn) over the first kIntervals intervals. Exit code 0 = pass.

#include <cstdio>
#include <string>
#include <vector>

#include "workload.h"

namespace {

using namespace megate;

struct Trace {
  std::vector<std::uint64_t> fingerprints;  // interval 0..n-1
  std::string log;                          // churn events, in order
};

Trace inputs(const perfbench::WorkloadSpec& w, std::uint64_t seed,
             std::size_t intervals) {
  topo::GeneratorOptions gopt;
  gopt.seed = perfbench::kTopologySeed;
  const topo::Graph g = topo::make_topology(w.kind, gopt);
  const topo::TunnelSet tunnels = topo::build_tunnels(g);
  const tm::EndpointLayout layout = perfbench::make_layout(w, g);
  perfbench::InputSource src(w, g, layout,
                             perfbench::target_demand_gbps(g, tunnels), seed);
  Trace t;
  tm::TrafficMatrix m = src.initial();
  t.fingerprints.push_back(tm::DemandStream::fingerprint(m));
  for (std::size_t k = 1; k < intervals; ++k) {
    t.log += src.advance(m, k).log;
    t.fingerprints.push_back(tm::DemandStream::fingerprint(m));
  }
  return t;
}

constexpr std::size_t kIntervals = 4;

int failures = 0;

void expect(bool ok, const char* workload, const char* what) {
  std::printf("%s %s: %s\n", ok ? "PASS" : "FAIL", workload, what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  for (const char* name : {"b4-endpoints", "twan-churn"}) {
    const perfbench::WorkloadSpec& w = *perfbench::find_workload(name);
    const Trace a = inputs(w, 7, kIntervals);
    const Trace b = inputs(w, 7, kIntervals);
    const Trace c = inputs(w, 8, kIntervals);
    expect(a.fingerprints == b.fingerprints, name,
           "same seed, same matrix fingerprints");
    expect(a.log == b.log, name, "same seed, same churn log");
    bool all_differ = true;
    for (std::size_t k = 0; k < kIntervals; ++k) {
      all_differ = all_differ && a.fingerprints[k] != c.fingerprints[k];
    }
    expect(all_differ, name, "other seed, every matrix differs");
    if (w.churn) {
      expect(!a.log.empty() && a.log != c.log, name,
             "other seed, churn log differs");
    }
  }
  return failures == 0 ? 0 : 1;
}
