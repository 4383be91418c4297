// Tests for megate::ctrl — the sharded KV store, controller publication,
// endpoint agents (bottom-up pull loop), the §6.4 sync cost model and the
// persistent-connection pressure simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/connection_manager.h"
#include "megate/ctrl/controller.h"
#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/sync_model.h"
#include "megate/ctrl/transport.h"
#include "megate/te/megate_solver.h"
#include "megate/tm/traffic.h"
#include "megate/util/stats.h"
#include "test_helpers.h"

namespace megate::ctrl {
namespace {

// --- KvStore ---------------------------------------------------------------

TEST(KvStore, PutGetErase) {
  KvStore kv(2);
  kv.put("a", "1");
  const GetResult hit = kv.try_get("a");
  EXPECT_EQ(hit.status, GetStatus::kOk);
  EXPECT_EQ(hit.value, "1");
  EXPECT_EQ(kv.try_get("missing").status, GetStatus::kMiss);
  kv.put("a", "2");
  EXPECT_EQ(kv.try_get("a").value, "2");
  EXPECT_TRUE(kv.erase("a"));
  EXPECT_FALSE(kv.erase("a"));
  EXPECT_EQ(kv.size(), 0u);
}

TEST(KvStore, PublishBumpsVersionAtomically) {
  KvStore kv(2);
  EXPECT_EQ(kv.version(), 0u);
  const Version v1 = kv.publish({{"x", "1"}, {"y", "2"}});
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(kv.version(), 1u);
  EXPECT_EQ(kv.try_get("x").value, "1");
  // The GetResult's version stamps the snapshot the read observed.
  EXPECT_GE(kv.try_get("x").version, v1);
  const Version v2 = kv.publish({{"x", "3"}});
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(kv.try_get("x").value, "3");
  EXPECT_EQ(kv.try_get("y").value, "2");
}

TEST(KvStore, RejectsZeroShards) {
  EXPECT_THROW(KvStore(0), std::invalid_argument);
}

TEST(KvStore, CountsQueries) {
  KvStore kv(2);
  kv.put("k", "v");
  const auto before = kv.query_count();
  (void)kv.try_get("k");
  (void)kv.try_get("k");
  (void)kv.try_get("nope");
  EXPECT_EQ(kv.query_count(), before + 3);
}

TEST(KvStore, KeysSpreadAcrossShards) {
  KvStore kv(4);
  for (int i = 0; i < 100; ++i) kv.put("key" + std::to_string(i), "v");
  EXPECT_EQ(kv.size(), 100u);
}

TEST(KvStore, ConcurrentReadersAndWriters) {
  KvStore kv(4);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&kv, w] {
      for (int i = 0; i < 500; ++i) {
        // append, not `const char* + std::string&&`: GCC 12 flags the
        // latter with a false -Wrestrict at -O3.
        std::string key = "k";
        key.append(std::to_string(w)).append("/").append(std::to_string(i));
        kv.put(key, "v");
        (void)kv.try_get("k0/" + std::to_string(i % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(kv.size(), 4u * 500u);
}

// --- controller encode/decode ---------------------------------------------

TEST(Controller, HopCodecRoundTrip) {
  const std::vector<std::uint32_t> hops{1, 22, 333, 4444};
  EXPECT_EQ(decode_hops(encode_hops(hops)), hops);
  EXPECT_TRUE(decode_hops("").empty());
  EXPECT_TRUE(encode_hops({}).empty());
}

TEST(Controller, DecodeToleratesMalformedTail) {
  EXPECT_EQ(decode_hops("1,2,junk"), (std::vector<std::uint32_t>{1, 2}));
}

TEST(Controller, RouteCodecRoundTrip) {
  std::vector<RouteEntry> routes;
  routes.push_back({7, {1, 2, 3}});
  routes.push_back({dataplane::kAnyDstSite, {9}});
  EXPECT_EQ(decode_routes(encode_routes(routes)), routes);
  EXPECT_TRUE(decode_routes("").empty());
}

TEST(Controller, RouteCodecSkipsMalformedEntries) {
  auto routes = decode_routes("5:1,2|garbage|8:3");
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0].dst_site, 5u);
  EXPECT_EQ(routes[1].dst_site, 8u);
  EXPECT_EQ(routes[1].hops, (std::vector<std::uint32_t>{3}));
}

TEST(Controller, PublishPathStoresEntry) {
  KvStore kv(2);
  Controller ctrl(&kv);
  const Version v = ctrl.publish_path(42, {7, 8});
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(kv.try_get(path_key(42)).value, "*:7,8");
  EXPECT_EQ(ctrl.entries_published(), 1u);
}

TEST(Controller, PublishSolutionWritesPerSourceInstance) {
  auto s = megate::testing::make_scenario(6, 10, 10, 0.2);
  te::MegaTeSolver solver;
  te::TeSolution sol = solver.solve(s->problem(), {}).solution;
  KvStore kv(2);
  Controller ctrl(&kv);
  ctrl.publish_solution(s->problem(), sol);
  EXPECT_EQ(kv.version(), 1u);
  EXPECT_GT(ctrl.entries_published(), 0u);
  // Every assigned flow's source instance must have a route-table entry
  // for the flow's destination site whose hop list ends at that site.
  std::size_t verified = 0;
  for (const auto& [pair, alloc] : sol.pairs) {
    auto it = s->traffic.pairs().find(pair);
    if (it == s->traffic.pairs().end()) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (alloc.flow_tunnel[i] < 0) continue;
      const GetResult entry = kv.try_get(path_key(it->second[i].src));
      ASSERT_TRUE(entry.ok());
      auto routes = decode_routes(entry.value);
      auto match = std::find_if(routes.begin(), routes.end(),
                                [&](const RouteEntry& r) {
                                  return r.dst_site == pair.dst;
                                });
      ASSERT_NE(match, routes.end());
      ASSERT_FALSE(match->hops.empty());
      EXPECT_EQ(match->hops.back(), pair.dst);
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
}

// --- publish_solution parity -------------------------------------------------

// The nested-table publish algorithm the flat single pass replaced, kept
// as the reference: per-instance hash tables of picked routes, a sorted
// per-instance encode, then a diff against the previous interval's
// encoded tables (`live`, updated in place).
KvDelta reference_publish(const te::TeProblem& problem,
                          const te::TeSolution& sol,
                          std::unordered_map<std::uint64_t, std::string>& live) {
  struct Picked {
    double demand = -1.0;
    RouteEntry route;
  };
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint32_t, Picked>>
      tables;
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
      Picked& slot = tables[flows[i].src][pair.dst];
      if (flows[i].demand_gbps <= slot.demand) continue;
      slot.demand = flows[i].demand_gbps;
      slot.route.dst_site = pair.dst;
      slot.route.hops.clear();
      for (topo::EdgeId e : tunnels[t].links) {
        slot.route.hops.push_back(problem.graph->link(e).dst);
      }
    }
  }
  std::unordered_map<std::uint64_t, std::string> fresh;
  for (const auto& [instance, by_site] : tables) {
    std::vector<RouteEntry> routes;
    for (const auto& [site, picked] : by_site) routes.push_back(picked.route);
    std::sort(routes.begin(), routes.end(),
              [](const RouteEntry& a, const RouteEntry& b) {
                return a.dst_site < b.dst_site;
              });
    fresh.emplace(instance, encode_routes(routes));
  }
  KvDelta delta;
  for (const auto& [instance, encoded] : fresh) {
    auto it = live.find(instance);
    if (it != live.end() && it->second == encoded) continue;
    delta.upserts.emplace_back(path_key(instance), encoded);
  }
  for (const auto& [instance, encoded] : live) {
    if (fresh.find(instance) == fresh.end()) {
      delta.erases.push_back(path_key(instance));
    }
  }
  live = std::move(fresh);
  return delta;
}

/// An in-process transport that also keeps the last published delta.
class RecordingTransport final : public KvTransport {
 public:
  Version version() override { return inner_.version(); }
  GetResult get(const std::string& key) override { return inner_.get(key); }
  MultiGetResult multi_get(const std::vector<std::string>& keys) override {
    return inner_.multi_get(keys);
  }
  Version publish(
      const std::vector<std::pair<std::string, std::string>>& batch) override {
    return inner_.publish(batch);
  }
  Version publish_delta(const KvDelta& delta) override {
    last = delta;
    return inner_.publish_delta(delta);
  }
  void put(const std::string& key, std::string value) override {
    inner_.put(key, std::move(value));
  }
  std::size_t num_shards() const override { return inner_.num_shards(); }
  std::size_t shard_index(const std::string& key) const override {
    return inner_.shard_index(key);
  }
  void set_shard_up(std::size_t shard, bool up) override {
    inner_.set_shard_up(shard, up);
  }
  bool shard_up(std::size_t shard) const override {
    return inner_.shard_up(shard);
  }
  const char* name() const noexcept override { return "recording"; }

  KvStore store{2};
  KvDelta last;

 private:
  InProcessTransport inner_{&store};
};

std::map<std::string, std::string> upsert_set(const KvDelta& d) {
  return {d.upserts.begin(), d.upserts.end()};
}
std::set<std::string> erase_set(const KvDelta& d) {
  return {d.erases.begin(), d.erases.end()};
}

TEST(Controller, PublishSolutionMatchesReferenceAcrossChurn) {
  std::size_t erases = 0;
  std::size_t unchanged_intervals = 0;
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    auto s = megate::testing::make_scenario(8, 14, 12, 0.2, seed);
    const tm::EndpointLayout layout(
        std::vector<std::uint32_t>(s->graph.num_nodes(), 12));
    tm::TrafficOptions topts;
    topts.flows_per_endpoint = 1.5;
    topts.target_total_gbps = tm::total_link_capacity_gbps(s->graph) * 0.2;
    RecordingTransport db;
    Controller ctrl(&db);
    std::unordered_map<std::uint64_t, std::string> ref_live;
    te::MegaTeSolver solver;
    // Matrix seeds per interval: a repeat (empty delta), fresh matrices
    // (instances appear and vanish) and a return to an earlier one.
    for (const std::uint64_t tm_seed :
         {seed, seed, seed + 1, seed + 2, seed + 1}) {
      s->traffic = tm::generate_traffic(s->graph, layout, topts, tm_seed);
      const te::TeSolution sol = solver.solve(s->problem(), {}).solution;
      ctrl.publish_solution(s->problem(), sol);
      const KvDelta ref = reference_publish(s->problem(), sol, ref_live);
      // Same keys, byte-identical values, same erases; the order within
      // a delta is not part of the contract.
      EXPECT_EQ(upsert_set(db.last), upsert_set(ref));
      EXPECT_EQ(erase_set(db.last), erase_set(ref));
      EXPECT_EQ(db.last.upserts.size(), ref.upserts.size());
      EXPECT_EQ(db.last.erases.size(), ref.erases.size());
      EXPECT_EQ(ctrl.last_publish_upserts(), ref.upserts.size());
      EXPECT_EQ(ctrl.last_publish_erases(), ref.erases.size());
      EXPECT_EQ(ctrl.last_publish_bytes(), ref.bytes());
      erases += ref.erases.size();
      if (ref.empty()) ++unchanged_intervals;
    }
    // The store holds exactly the reference's tables.
    EXPECT_EQ(db.store.size(), ref_live.size());
    std::uint64_t full_bytes = 0;
    for (const auto& [instance, encoded] : ref_live) {
      EXPECT_EQ(db.store.try_get(path_key(instance)).value, encoded);
      full_bytes += path_key(instance).size() + encoded.size();
    }
    EXPECT_EQ(ctrl.full_table_bytes(), full_bytes);
  }
  EXPECT_GT(erases, 0u) << "churn must exercise the erase path";
  EXPECT_GT(unchanged_intervals, 0u) << "a repeated matrix publishes nothing";
}

TEST(Controller, PublishSolutionEqualDemandTieKeepsFirstFlow) {
  // Two tunnels 0 -> 2: direct, and via site 1.
  topo::Graph g;
  for (const char* name : {"a", "b", "c"}) g.add_node(name);
  const topo::EdgeId direct = g.add_link(0, 2, 10.0, 1.0);
  const topo::EdgeId hop1 = g.add_link(0, 1, 10.0, 1.0);
  const topo::EdgeId hop2 = g.add_link(1, 2, 10.0, 1.0);
  topo::TunnelSet tunnels;
  topo::Tunnel t0, t1;
  t0.links = {direct};
  t1.links = {hop1, hop2};
  tunnels.set_tunnels(0, 2, {t0, t1});

  const std::uint64_t inst = tm::make_endpoint(0, 1);
  const std::uint64_t other = tm::make_endpoint(0, 2);
  tm::TrafficMatrix traffic;
  // `inst` has three flows to site 2: two tied at 4 Gbps (the first on
  // the via-1 tunnel), one smaller. `other`: a tie, then a larger flow.
  traffic.add({inst, tm::make_endpoint(2, 0), 4.0});
  traffic.add({inst, tm::make_endpoint(2, 1), 4.0});
  traffic.add({inst, tm::make_endpoint(2, 2), 1.0});
  traffic.add({other, tm::make_endpoint(2, 0), 2.0});
  traffic.add({other, tm::make_endpoint(2, 1), 2.0});
  traffic.add({other, tm::make_endpoint(2, 2), 3.0});
  te::TeProblem problem;
  problem.graph = &g;
  problem.tunnels = &tunnels;
  problem.traffic = &traffic;
  te::TeSolution sol;
  sol.pairs[topo::SitePair{0, 2}].flow_tunnel = {1, 0, 0, 0, 1, 1};

  RecordingTransport db;
  Controller ctrl(&db);
  ctrl.publish_solution(problem, sol);
  EXPECT_EQ(db.store.try_get(path_key(inst)).value, "2:1,2");
  EXPECT_EQ(db.store.try_get(path_key(other)).value, "2:1,2");
  std::unordered_map<std::uint64_t, std::string> ref_live;
  EXPECT_EQ(upsert_set(db.last),
            upsert_set(reference_publish(problem, sol, ref_live)));
}

// --- endpoint agent ---------------------------------------------------------

TEST(Agent, PullsOnVersionChange) {
  KvStore kv(2);
  AgentOptions opt;
  opt.poll_interval_s = 1.0;
  opt.spread_interval_s = 1.0;
  EndpointAgent agent(5, &kv, nullptr, opt);
  agent.tick(0.5);  // before any publish: nothing to apply
  EXPECT_EQ(agent.applied_version(), 0u);
  kv.publish({{path_key(5), "*:1,2,3"}});
  agent.tick(3.0);
  EXPECT_EQ(agent.applied_version(), 1u);
  EXPECT_EQ(agent.hops_for(99), (std::vector<std::uint32_t>{1, 2, 3}))
      << "wildcard route applies to every destination site";
}

TEST(Agent, InstallsIntoHostStack) {
  KvStore kv(2);
  dataplane::HostStack stack;
  stack.on_sys_enter_execve(1, 5);
  dataplane::FiveTuple t;
  t.src_ip = 1;
  t.dst_ip = 2;
  t.proto = dataplane::kProtoUdp;
  t.src_port = 100;
  t.dst_port = 200;
  stack.on_conntrack_event(t, 1);

  AgentOptions opt;
  opt.poll_interval_s = 1.0;
  EndpointAgent agent(5, &kv, &stack, opt);
  kv.publish({{path_key(5), "*:9,10"}});
  agent.tick(5.0);
  // The stack now encapsulates this instance's packets with SR.
  dataplane::Buffer frame;
  dataplane::EthernetHeader eth;
  eth.serialize(frame);
  dataplane::Ipv4Header ip;
  ip.protocol = dataplane::kProtoUdp;
  ip.src_ip = 1;
  ip.dst_ip = 2;
  ip.total_length = dataplane::kIpv4HeaderSize + dataplane::kUdpHeaderSize;
  ip.serialize(frame);
  dataplane::UdpHeader udp;
  udp.src_port = 100;
  udp.dst_port = 200;
  udp.serialize(frame);
  auto v = stack.tc_egress(frame, 0xFF);
  EXPECT_EQ(v.action, dataplane::TcVerdict::Action::kEncapsulated);
}

TEST(Agent, PollCountTracksInterval) {
  KvStore kv(2);
  AgentOptions opt;
  opt.poll_interval_s = 2.0;
  opt.spread_interval_s = 2.0;
  EndpointAgent agent(3, &kv, nullptr, opt);
  agent.tick(10.0);
  // phase in [0,2) then every 2 s until 10 -> 5 or 6 polls.
  EXPECT_GE(agent.polls(), 5u);
  EXPECT_LE(agent.polls(), 6u);
}

TEST(Agent, SyncLagsBoundedByPollInterval) {
  KvStore kv(2);
  AgentOptions opt;
  opt.poll_interval_s = 10.0;
  opt.spread_interval_s = 10.0;
  auto lags = measure_sync_lags(kv, 500, opt, /*publish_at=*/30.0,
                                /*horizon=*/60.0, /*step=*/0.25);
  ASSERT_EQ(lags.size(), 500u);
  for (double lag : lags) {
    EXPECT_GE(lag, -0.26);  // tick quantization
    EXPECT_LE(lag, opt.poll_interval_s + 0.26)
        << "eventual consistency within one poll interval";
  }
  // Spreading: lags should cover the interval, not cluster at one point.
  const double spread = util::percentile(lags, 95) -
                        util::percentile(lags, 5);
  EXPECT_GT(spread, 0.5 * opt.poll_interval_s);
}

// --- sync cost model ---------------------------------------------------------

TEST(SyncModel, MatchesPaperPressureTest) {
  SyncCostModel m;
  // Fig. 13 anchor: 6,000 connections -> 90% CPU, 750 MB.
  EXPECT_NEAR(m.top_down_cpu_percent(6000), 90.0, 1e-9);
  EXPECT_NEAR(m.top_down_memory_mb(6000), 750.0, 1e-9);
}

TEST(SyncModel, MatchesPaperMillionEndpointFigures) {
  SyncCostModel m;
  // Fig. 14 anchor: 1M endpoints -> >= 167 cores, ~125 GB.
  const SyncResources r = m.top_down(1'000'000);
  EXPECT_NEAR(r.cpu_cores, 167.0, 1.0);
  EXPECT_NEAR(r.memory_gb, 122.0, 3.0);
  const SyncResources b = m.bottom_up(1'000'000);
  EXPECT_DOUBLE_EQ(b.cpu_cores, 1.0);
  EXPECT_DOUBLE_EQ(b.memory_gb, 1.0);
  EXPECT_EQ(b.db_shards, 2u);  // 100k QPS over two 80k shards
}

TEST(SyncModel, SmallFleetsFitOneCore) {
  SyncCostModel m;
  const SyncResources r = m.top_down(1000);
  EXPECT_DOUBLE_EQ(r.cpu_cores, 1.0);
  EXPECT_LE(r.memory_gb, 0.25);
}

TEST(SyncModel, MonotoneInEndpoints) {
  SyncCostModel m;
  double prev_cores = 0.0;
  for (std::uint64_t n : {1000ull, 10000ull, 100000ull, 1000000ull}) {
    const SyncResources r = m.top_down(n);
    EXPECT_GE(r.cpu_cores, prev_cores);
    prev_cores = r.cpu_cores;
  }
}

// --- connection manager pressure sim ------------------------------------

TEST(ConnectionManager, CalibratedCpuAtSixThousand) {
  ConnectionManager cm;
  cm.connect(6000);
  cm.run(100.0);
  EXPECT_NEAR(cm.cpu_utilization(), 0.90, 1e-9);
  EXPECT_NEAR(cm.memory_mb(), 750.0, 1e-6);
}

TEST(ConnectionManager, ScalesLinearly) {
  ConnectionManager cm;
  cm.connect(3000);
  cm.run(50.0);
  EXPECT_NEAR(cm.cpu_utilization(), 0.45, 1e-9);
}

TEST(ConnectionManager, PushAddsWork) {
  ConnectionManager a, b;
  a.connect(1000);
  b.connect(1000);
  a.run(10.0);
  b.run(10.0);
  b.push_config_all();
  EXPECT_GT(b.cpu_utilization(), a.cpu_utilization());
}

TEST(ConnectionManager, DisconnectClamps) {
  ConnectionManager cm;
  cm.connect(10);
  cm.disconnect(100);
  EXPECT_EQ(cm.connections(), 0u);
}

}  // namespace
}  // namespace megate::ctrl
