// Golden digests pinning topo::build_tunnels and topo::repair_tunnels bit
// for bit.
//
// Their output feeds every solver: stage 1 keys on tunnel order and
// weight, the stage-2 memo and the chaos fingerprints hash routes, and the
// hop-budget stats attribute empty pairs. Each case hashes the whole TunnelSet (testing::digest_tunnel_set:
// pairs in (src, dst) order, each tunnel's links, latency and weight bits,
// and all five TunnelBuildStats fields), so a change to the search kernel,
// a tie-break, the pair loop or the unreachable/budget-excluded
// attribution shows up here even when the tunnels still look "close".
//
// The constants were recorded from the tunnel code that ran three Dijkstra
// copies and two pair loops, before they became one of each. A mismatch
// means the tunnel output changed; if that is intended, re-record the
// constants and say why in CHANGES.md.
//
// Coverage: B4 and a 30-site TWAN at budgets {3,4,5,unlimited} x both
// backends (TWAN at budget 3 has two budget-excluded ksp pairs), Deltacom
// for the centrality backend at every budget and for ksp unlimited, and
// repair after seeded link failures on both backends (two pairs lose
// every admissible path there, so repair writes empty lists).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "megate/topo/failures.h"
#include "megate/topo/generators.h"
#include "megate/topo/tunnels.h"
#include "digest.h"

namespace megate::topo {
namespace {

using testing::Digest;
using testing::digest_tunnel_set;
using testing::hex;

struct DigestCase {
  std::uint32_t budget = 0;  ///< max_sr_hops; 0 = unlimited
  TunnelSelection selection = TunnelSelection::kKsp;
  const char* digest = "";
};

std::string digest_of(const TunnelSet& ts) {
  Digest d;
  digest_tunnel_set(d, ts);
  return hex(d.value());
}

const char* name_of(TunnelSelection s) {
  return s == TunnelSelection::kKsp ? "ksp" : "centrality";
}

Graph topology(TopologyKind kind) {
  GeneratorOptions gopt;
  gopt.twan_sites = 30;
  return make_topology(kind, gopt);
}

void expect_recorded(TopologyKind kind, const std::vector<DigestCase>& cases) {
  const Graph g = topology(kind);
  for (const DigestCase& c : cases) {
    TunnelOptions opt;
    opt.max_sr_hops = c.budget;
    opt.selection = c.selection;
    EXPECT_EQ(digest_of(build_tunnels(g, opt)), c.digest)
        << to_string(kind) << " budget=" << c.budget << " "
        << name_of(c.selection);
  }
}

constexpr auto kKsp = TunnelSelection::kKsp;
constexpr auto kCentrality = TunnelSelection::kCentrality;

const std::vector<DigestCase> kB4Cases = {
    {3, kKsp, "0x0c19bf779b6fd259"},
    {4, kKsp, "0x46c33c3e4b1bfe6d"},
    {5, kKsp, "0xc9e9333e4de2a3f4"},
    {0, kKsp, "0xc04e62f4770f96c2"},
    {3, kCentrality, "0xade0609024a821bb"},
    {4, kCentrality, "0x15da058884cd2be9"},
    {5, kCentrality, "0x22b3a829d6d716fe"},
    {0, kCentrality, "0xd38ac4fed12bb377"},
};

const std::vector<DigestCase> kTwanCases = {
    {3, kKsp, "0x7214756e74ddec83"},
    {4, kKsp, "0xb6c328147beb8dc1"},
    {5, kKsp, "0x12ed1b2211072a74"},
    {0, kKsp, "0xf18d101f58ebb776"},
    {3, kCentrality, "0x20316ea352216191"},
    {4, kCentrality, "0xc5dc37dd7e0a441a"},
    {5, kCentrality, "0xcc33cf90e09aaa35"},
    {0, kCentrality, "0x79723bff9e6a4a85"},
};

TEST(TunnelDigest, B4MatchesRecorded) {
  expect_recorded(TopologyKind::kB4, kB4Cases);
}

TEST(TunnelDigest, TwanMatchesRecorded) {
  expect_recorded(TopologyKind::kTwan, kTwanCases);
}

TEST(TunnelDigest, DeltacomMatchesRecorded) {
  expect_recorded(TopologyKind::kDeltacom,
                  {
                      {3, kCentrality, "0x406010da687d9dfa"},
                      {4, kCentrality, "0x8cbb72b81be36470"},
                      {5, kCentrality, "0x32358644eee1fc1c"},
                      {0, kCentrality, "0x8daaea37641aeb8f"},
                      {0, kKsp, "0x4fb87ee01a338bc6"},
                  });
}

TEST(TunnelDigest, RepairAfterLinkFailuresMatchesRecorded) {
  const std::vector<DigestCase> cases = {
      {3, kKsp, "0xc22032b0991e2674"},
      {3, kCentrality, "0x95af5714334d9a10"},
  };
  for (const DigestCase& c : cases) {
    Graph g = topology(TopologyKind::kB4);
    TunnelOptions opt;
    opt.max_sr_hops = c.budget;
    opt.selection = c.selection;
    TunnelSet ts = build_tunnels(g, opt);
    ASSERT_EQ(inject_link_failures(g, 3, 11).size(), 3u);
    repair_tunnels(g, ts, opt);
    EXPECT_EQ(ts.stats().pairs_budget_excluded, 12u)
        << "repair should leave two more pairs without an admissible path";
    EXPECT_EQ(digest_of(ts), c.digest) << name_of(c.selection);
  }
}

// The default TunnelOptions are the unlimited-budget ksp build.
TEST(TunnelDigest, DefaultOptionsBuildTheUnlimitedKspSet) {
  EXPECT_EQ(digest_of(build_tunnels(topology(TopologyKind::kB4))),
            kB4Cases[3].digest);
  EXPECT_EQ(digest_of(build_tunnels(topology(TopologyKind::kTwan))),
            kTwanCases[3].digest);
}

}  // namespace
}  // namespace megate::topo
