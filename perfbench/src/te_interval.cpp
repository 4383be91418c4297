// TE-interval benchmark program.
//
// Runs one workload as a closed loop: one controller runs TE intervals
// back to back, each starting after the previous one ended. An interval
// is
//
//   te::MegaTeSolver::solve -> ctrl::Controller::publish_solution (into an
//   in-process ctrl::KvStore) -> every host's ctrl::EndpointAgent pulls
//   the new version (tick -> try_pull_batch, installing routes into its
//   dataplane::HostStack) -> one small UDP packet per installed route
//   goes through HostStack::tc_egress (SR encap).
//
// The interval timer starts when the demand matrix goes to solve and
// stops after the last packet; inputs are generated before the timer
// starts and every output is checked after it stops. Prints a
// human-readable summary ('#' lines) and, last, one JSON result line.
//
//   te_interval --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-dir DIR]
//
// A run sets up kSetups times from scratch (setup_s is the median), then
// holds a fixed number of intervals, derived from S and the workload's
// nominal interval cost (perfbench::interval_count), so the work done
// does not depend on how fast the program is. Every connection the run's
// inputs can use is opened at set-up and the hosts' flow counters are
// collected after each interval, so the fleet's maps do not grow with
// the interval count. --trace 1 turns
// on the solver's own spans and traces every other pair of intervals
// (obs spans around every layer call); it reports per-layer metrics from
// the traced intervals and writes the spans to
// DIR/trace-<workload>-<seed>.jsonl. See perfbench/README.md.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "megate/ctrl/agent.h"
#include "megate/ctrl/controller.h"
#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/transport.h"
#include "megate/dataplane/host_stack.h"
#include "megate/dataplane/packet.h"
#include "megate/dataplane/sr_header.h"
#include "megate/dataplane/vxlan.h"
#include "megate/obs/metrics.h"
#include "megate/obs/span.h"
#include "megate/te/checker.h"
#include "megate/te/megate_solver.h"
#include "megate/te/types.h"
#include "workload.h"

namespace {

using namespace megate;
using perfbench::InputSource;
using perfbench::WorkloadSpec;

constexpr std::size_t kInstancesPerHost = 16;
constexpr double kPollIntervalS = 1.0;  // simulated agent poll period
constexpr std::uint32_t kUnderlayDst = 0x0A0000FE;
constexpr std::size_t kSetups = 3;  // set-ups per run; setup_s is the median

// --- clocks ----------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double rss_mb() {
  long pages = 0, resident = 0;
  std::ifstream in("/proc/self/statm");
  in >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail of a sample and its percentile: the highest order statistic
/// with at least 10 samples beyond it once there are 100 or more samples
/// (p90 or higher); below that, the p90 interpolated between neighbouring
/// order statistics, which a single slow sample moves only part-way.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n >= 100) {
    return {v[n - 11], 100.0 * static_cast<double>(n - 10) /
                           static_cast<double>(n)};
  }
  const double pos = 0.9 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  return {v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]), 90.0};
}

// --- tracing ---------------------------------------------------------------

struct Cost {
  double wall = 0.0;
  double cpu = 0.0;
};

struct SpanRow {
  std::uint64_t interval;
  std::string name;
  double start_s, wall_s, cpu_s;
};

/// Times layer calls from outside. Wall time is always taken (two clock
/// reads); with tracing on, each call also becomes an obs::Span and a
/// recorded row with its process-CPU delta.
class Tracer {
 public:
  explicit Tracer(obs::MetricsRegistry* registry) : registry_(registry) {}

  bool on() const noexcept { return registry_ != nullptr; }
  void set_interval(std::uint64_t k) noexcept { interval_ = k; }

  template <typename F>
  Cost time(const char* name, F&& fn) {
    if (!on()) {
      const double t0 = wall_now();
      fn();
      return {wall_now() - t0, 0.0};
    }
    const double c0 = cpu_now();
    const double t0 = wall_now();
    {
      obs::Span span(*registry_, name);
      fn();
    }
    const Cost c{wall_now() - t0, cpu_now() - c0};
    rows_.push_back({interval_, name, t0 - epoch_, c.wall, c.cpu});
    return c;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const SpanRow& r : rows_) {
      out << "{\"interval\":" << r.interval << ",\"span\":\"" << r.name
          << "\",\"start_s\":" << r.start_s << ",\"wall_s\":" << r.wall_s
          << ",\"cpu_s\":" << r.cpu_s << "}\n";
    }
    for (const obs::SpanRecord& r : registry_->tracer().records()) {
      out << "{\"obs_path\":\"" << r.path << "\",\"thread\":" << r.thread
          << ",\"start_s\":" << r.start_s
          << ",\"wall_s\":" << r.duration_s << "}\n";
    }
  }

 private:
  obs::MetricsRegistry* registry_;
  std::uint64_t interval_ = 0;
  double epoch_ = wall_now();
  std::vector<SpanRow> rows_;
};

// --- the system under test -------------------------------------------------

/// Controller-side transport: forwards to the store and keeps the last
/// delta, which names the tables (and routes) this interval installs.
class RecordingTransport final : public ctrl::KvTransport {
 public:
  explicit RecordingTransport(ctrl::KvStore* store) : inner_(store) {}
  const ctrl::KvDelta& last_delta() const noexcept { return last_; }

  ctrl::Version version() override { return inner_.version(); }
  ctrl::GetResult get(const std::string& k) override { return inner_.get(k); }
  ctrl::MultiGetResult multi_get(
      const std::vector<std::string>& keys) override {
    return inner_.multi_get(keys);
  }
  ctrl::Version publish(
      const std::vector<std::pair<std::string, std::string>>& b) override {
    return inner_.publish(b);  // unused: Controller publishes deltas
  }
  ctrl::Version publish_delta(const ctrl::KvDelta& delta) override {
    last_ = delta;
    return inner_.publish_delta(delta);
  }
  void put(const std::string& k, std::string v) override {
    inner_.put(k, std::move(v));
  }
  std::size_t num_shards() const override { return inner_.num_shards(); }
  std::size_t shard_index(const std::string& k) const override {
    return inner_.shard_index(k);
  }
  void set_shard_up(std::size_t s, bool up) override {
    inner_.set_shard_up(s, up);
  }
  bool shard_up(std::size_t s) const override { return inner_.shard_up(s); }
  const char* name() const noexcept override { return "recording"; }

 private:
  ctrl::InProcessTransport inner_;
  ctrl::KvDelta last_;
};

struct Loc {
  std::uint32_t host;
  std::uint16_t slot;
};

struct Packet {
  dataplane::TcVerdict::Action action;
  dataplane::DropReason reason;
  dataplane::Buffer frame;
};

/// Everything one interval measured and checked.
struct IntervalRec {
  bool traced = false;
  bool solve_ok = true;
  std::size_t pulls = 0, pulls_failed = 0;
  std::size_t routes = 0, packets = 0, packets_failed = 0;
  double wall = 0.0, cpu = 0.0;
  Cost solve, publish, pull, encap;
  double stage1 = 0.0, stage2 = 0.0;
  te::IncrementalStats inc;
  double satisfied = 0.0;
  std::uint64_t upserts = 0, erases = 0, bytes = 0, full_bytes = 0;
  double host_p50_us = 0.0, host_tail_us = 0.0;
  std::uint64_t snapshot_rebuilds = 0, multi_get_retries = 0;
  double payload_mb = 0.0;
  std::size_t drops_sr_too_long = 0, drops_malformed = 0, passed = 0;
  std::size_t flows = 0, events = 0, changed_flows = 0;

  bool ok() const noexcept {
    return solve_ok && pulls_failed == 0 && packets_failed == 0;
  }
};

struct System {
  const WorkloadSpec& w;
  std::uint64_t seed;
  std::size_t threads;

  topo::Graph graph;
  topo::TunnelSet tunnels;
  std::optional<tm::EndpointLayout> layout;
  std::optional<InputSource> inputs;
  tm::TrafficMatrix traffic;

  ctrl::KvStore store;
  ctrl::InProcessTransport agent_db{&store};
  RecordingTransport ctrl_db{&store};
  ctrl::Controller controller{static_cast<ctrl::KvTransport*>(&ctrl_db)};
  std::vector<dataplane::HostStack> stacks;
  std::vector<ctrl::EndpointAgent> agents;
  std::unordered_map<std::uint64_t, Loc> where;

  te::MegaTeSolver solver;
  std::uint64_t next_interval = 0;  // 0 = the set-up interval
  std::vector<Packet> packets;      // reused across intervals

  System(const WorkloadSpec& spec, std::uint64_t s, std::size_t t)
      : w(spec), seed(s), threads(t) {}

  te::TeProblem problem() const {
    te::TeProblem p;
    p.graph = &graph;
    p.tunnels = &tunnels;
    p.traffic = &traffic;
    return p;
  }
};

/// One host per kInstancesPerHost consecutive endpoints of a site.
void add_hosts(System& sys, const std::vector<tm::EndpointId>& endpoints) {
  std::vector<std::vector<std::uint64_t>> groups;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const bool fresh =
        i == 0 || groups.back().size() == kInstancesPerHost ||
        tm::endpoint_site(endpoints[i]) !=
            tm::endpoint_site(groups.back().front());
    if (fresh) groups.emplace_back();
    groups.back().push_back(endpoints[i]);
  }
  ctrl::AgentOptions aopt;
  aopt.poll_interval_s = kPollIntervalS;
  aopt.batch_pull = true;
  sys.stacks.reserve(sys.stacks.size() + groups.size());
  for (auto& ids : groups) {
    const auto host = static_cast<std::uint32_t>(sys.stacks.size());
    dataplane::HostStackOptions hopt;
    hopt.host_ip = 0x0A000000u + host;
    auto& stack = sys.stacks.emplace_back(hopt);
    for (std::size_t slot = 0; slot < ids.size(); ++slot) {
      stack.on_sys_enter_execve(static_cast<dataplane::Pid>(slot + 1),
                                ids[slot]);
      sys.where[ids[slot]] = Loc{host, static_cast<std::uint16_t>(slot)};
    }
  }
  // Agents point at their stacks; the stack vector no longer grows.
  std::size_t host = sys.agents.size();
  for (auto& ids : groups) {
    sys.agents.emplace_back(std::move(ids), &sys.agent_db, &sys.stacks[host++],
                            aopt);
  }
}

dataplane::FiveTuple flow_tuple(std::uint64_t instance, std::uint16_t slot,
                                std::uint32_t dst_site) {
  dataplane::FiveTuple t;
  t.src_ip = dataplane::make_overlay_ip(tm::endpoint_site(instance),
                                        tm::endpoint_index(instance));
  t.dst_ip = dataplane::make_overlay_ip(dst_site, 1);
  t.proto = dataplane::kProtoUdp;
  t.src_port = static_cast<std::uint16_t>(10000 + slot);
  t.dst_port = 443;
  return t;
}

/// Opens, at set-up, the connection of every (instance, destination site)
/// the run's inputs can route (conntrack event -> contk_map and inf_map),
/// so the fleet's maps are full before the first timed interval and do
/// not grow with the interval count.
void open_connections(
    System& sys,
    const std::vector<std::pair<tm::EndpointId, std::uint32_t>>& conns) {
  for (const auto& [instance, dst_site] : conns) {
    const auto loc = sys.where.find(instance);
    if (loc == sys.where.end()) continue;  // the packet check reports it
    sys.stacks[loc->second.host].on_conntrack_event(
        flow_tuple(instance, loc->second.slot, dst_site),
        loc->second.slot + 1u);
  }
}

dataplane::Buffer udp_frame(const dataplane::FiveTuple& t) {
  constexpr std::size_t kPayload = 64;
  dataplane::Buffer b;
  b.reserve(dataplane::kEthernetHeaderSize + dataplane::kIpv4HeaderSize +
            dataplane::kUdpHeaderSize + kPayload);
  dataplane::EthernetHeader eth;
  eth.serialize(b);
  dataplane::Ipv4Header ip;
  ip.protocol = t.proto;
  ip.src_ip = t.src_ip;
  ip.dst_ip = t.dst_ip;
  ip.total_length = static_cast<std::uint16_t>(
      dataplane::kIpv4HeaderSize + dataplane::kUdpHeaderSize + kPayload);
  ip.serialize(b);
  dataplane::UdpHeader udp;
  udp.src_port = t.src_port;
  udp.dst_port = t.dst_port;
  udp.length = static_cast<std::uint16_t>(dataplane::kUdpHeaderSize + kPayload);
  udp.serialize(b);
  b.insert(b.end(), kPayload, 0xAB);
  return b;
}

std::optional<std::uint64_t> instance_of_key(const std::string& key) {
  constexpr std::string_view kPrefix = "path/";
  if (key.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  std::uint64_t id = 0;
  const char* first = key.data() + kPrefix.size();
  const char* last = key.data() + key.size();
  auto [p, ec] = std::from_chars(first, last, id);
  if (ec != std::errc{} || p != last) return std::nullopt;
  return id;
}

/// SR hop list carried by an encapsulated frame (outer Ethernet, IPv4,
/// UDP and VXLAN, then the SR header), or nullopt if it has none.
std::optional<std::vector<std::uint32_t>> sr_hops(
    const dataplane::Buffer& frame) {
  constexpr std::size_t kVxlanAt = dataplane::kEthernetHeaderSize +
                                   dataplane::kIpv4HeaderSize +
                                   dataplane::kUdpHeaderSize;
  if (frame.size() < kVxlanAt + dataplane::kVxlanHeaderSize) {
    return std::nullopt;
  }
  const dataplane::ConstBytes bytes(frame);
  auto vx = dataplane::VxlanHeader::parse(bytes.subspan(kVxlanAt));
  if (!vx || !vx->megate_sr) return std::nullopt;
  auto sr = dataplane::SrHeader::parse(
      bytes.subspan(kVxlanAt + dataplane::kVxlanHeaderSize));
  if (!sr) return std::nullopt;
  return sr->hops;
}

/// Runs one TE interval on sys.traffic and checks it. The timer covers
/// solve, publish, fleet pull and encap; the checks run after it stops.
IntervalRec run_interval(System& sys, Tracer& tr) {
  IntervalRec rec;
  rec.traced = tr.on();
  const std::uint64_t k = sys.next_interval++;
  tr.set_interval(k);
  const te::TeProblem problem = sys.problem();
  te::SolveContext ctx;
  ctx.incremental = sys.w.churn;
  const double now_s = static_cast<double>(k + 1) * kPollIntervalS;
  const std::uint64_t rebuilds0 = sys.store.snapshot_rebuilds();
  const std::uint64_t retries0 = sys.store.multi_get_retries();
  std::vector<double> host_us;
  if (tr.on()) host_us.reserve(sys.agents.size());

  // ---- timer start ----
  const double c0 = cpu_now();
  const double t0 = wall_now();
  te::SolveReport report;
  rec.solve = tr.time("te", [&] { report = sys.solver.solve(problem, ctx); });
  ctrl::Version version = 0;
  rec.publish = tr.time("ctrl.publish", [&] {
    version = sys.controller.publish_solution(problem, report.solution);
  });
  rec.pull = tr.time("ctrl.pull", [&] {
    for (ctrl::EndpointAgent& agent : sys.agents) {
      if (!tr.on()) {
        agent.tick(now_s);
        continue;
      }
      const double h0 = wall_now();
      agent.tick(now_s);
      host_us.push_back(1e6 * (wall_now() - h0));
    }
  });
  const ctrl::KvDelta& delta = sys.ctrl_db.last_delta();
  std::vector<std::size_t> first_packet;  // per upsert, into sys.packets
  first_packet.reserve(delta.upserts.size() + 1);
  sys.packets.clear();
  rec.encap = tr.time("dataplane.encap", [&] {
    for (const auto& [key, value] : delta.upserts) {
      first_packet.push_back(sys.packets.size());
      const auto id = instance_of_key(key);
      if (!id) continue;
      const auto loc = sys.where.find(*id);
      if (loc == sys.where.end()) continue;
      dataplane::HostStack& stack = sys.stacks[loc->second.host];
      for (const ctrl::RouteEntry& r :
           sys.agents[loc->second.host].routes_for(*id)) {
        dataplane::TcVerdict v = stack.tc_egress(
            udp_frame(flow_tuple(*id, loc->second.slot, r.dst_site)),
            kUnderlayDst);
        sys.packets.push_back({v.action, v.drop_reason, std::move(v.packet)});
      }
    }
  });
  rec.wall = wall_now() - t0;
  rec.cpu = cpu_now() - c0;
  // ---- timer stop; checks below ----
  first_packet.push_back(sys.packets.size());
  rec.packets = sys.packets.size();

  const te::TeSolution& sol = report.solution;
  te::CheckOptions copt;
  copt.require_flow_assignment = true;
  rec.solve_ok = report.ok() && sol.solved &&
                 te::check_solution(problem, sol, copt).ok &&
                 te::count_hop_budget_violations(
                     problem, sol,
                     static_cast<std::uint32_t>(dataplane::kSrMaxHops)) == 0;
  rec.stage1 = report.stage1_seconds;
  rec.stage2 = report.stage2_seconds;
  rec.inc = report.incremental;
  rec.satisfied = sol.satisfied_ratio();
  rec.flows = sys.traffic.num_flows();

  for (const ctrl::EndpointAgent& agent : sys.agents) {
    ++rec.pulls;
    if (agent.applied_version() != version || agent.failed_pulls() != 0) {
      ++rec.pulls_failed;
    }
  }
  // Every packet must carry exactly the published route; every instance
  // of a published table must have one packet per route; every erased
  // table must be gone from its agent.
  for (std::size_t u = 0; u < delta.upserts.size(); ++u) {
    const auto& [key, value] = delta.upserts[u];
    const std::vector<ctrl::RouteEntry> want = ctrl::decode_routes(value);
    const std::size_t begin = first_packet[u], end = first_packet[u + 1];
    rec.routes += want.size();
    if (want.size() != end - begin) {
      rec.packets_failed += std::max(want.size(), end - begin);
      continue;
    }
    for (std::size_t j = 0; j < want.size(); ++j) {
      const Packet& p = sys.packets[begin + j];
      if (p.action == dataplane::TcVerdict::Action::kPass) ++rec.passed;
      if (p.reason == dataplane::DropReason::kSrTooLong) {
        ++rec.drops_sr_too_long;
      } else if (p.action == dataplane::TcVerdict::Action::kDropMalformed) {
        ++rec.drops_malformed;
      }
      const auto hops = p.action == dataplane::TcVerdict::Action::kEncapsulated
                            ? sr_hops(p.frame)
                            : std::nullopt;
      if (!hops || *hops != want[j].hops) ++rec.packets_failed;
    }
  }
  for (const std::string& key : delta.erases) {
    const auto id = instance_of_key(key);
    const auto loc = id ? sys.where.find(*id) : sys.where.end();
    if (loc == sys.where.end() ||
        !sys.agents[loc->second.host].routes_for(*id).empty()) {
      ++rec.pulls_failed;
    }
  }

  // Each touched host's agent collects (and clears) its flow counters, as
  // it does every TE period, so traffic_map holds one interval's flows.
  std::vector<std::uint32_t> touched;
  for (const auto& [key, value] : delta.upserts) {
    const auto id = instance_of_key(key);
    const auto loc = id ? sys.where.find(*id) : sys.where.end();
    if (loc != sys.where.end()) touched.push_back(loc->second.host);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (std::uint32_t host : touched) sys.stacks[host].collect_flow_report();

  rec.upserts = sys.controller.last_publish_upserts();
  rec.erases = sys.controller.last_publish_erases();
  rec.bytes = sys.controller.last_publish_bytes();
  rec.full_bytes = sys.controller.full_table_bytes();
  rec.snapshot_rebuilds = sys.store.snapshot_rebuilds() - rebuilds0;
  rec.multi_get_retries = sys.store.multi_get_retries() - retries0;
  rec.payload_mb = static_cast<double>(sys.store.payload_bytes()) / 1e6;
  if (!host_us.empty()) {
    rec.host_p50_us = median(host_us);
    rec.host_tail_us = tail(host_us).first;
  }
  return rec;
}

/// Set-up: everything a restarted controller pays before its first
/// interval, timed layer by layer.
struct SetupRec {
  Cost graph, tunnels, inputs, hosts, initial;
  double publish_s = 0.0;
  double total_s = 0.0;
  double rss_mb = 0.0;
  bool ok = true;
};

/// `solver_metrics` stays set on the solver for the whole run (null on a
/// timed run); setting it later would drop the incremental state.
/// `intervals` is the number of timed intervals that will follow.
SetupRec set_up(System& sys, Tracer& tr, obs::MetricsRegistry* solver_metrics,
                std::size_t intervals) {
  SetupRec s;
  const double t0 = wall_now();
  s.graph = tr.time("topo.graph", [&] {
    topo::GeneratorOptions gopt;
    gopt.seed = perfbench::kTopologySeed;
    sys.graph = topo::make_topology(sys.w.kind, gopt);
  });
  const double tc0 = cpu_now();
  s.tunnels = tr.time("topo.tunnels", [&] {
    sys.tunnels = topo::build_tunnels(sys.graph, topo::TunnelOptions{});
  });
  s.tunnels.cpu = cpu_now() - tc0;
  s.inputs = tr.time("tm.inputs", [&] {
    sys.layout.emplace(perfbench::make_layout(sys.w, sys.graph));
    sys.inputs.emplace(sys.w, sys.graph, *sys.layout,
                       perfbench::target_demand_gbps(sys.graph, sys.tunnels),
                       sys.seed);
    sys.traffic = sys.inputs->initial();
  });
  s.hosts = tr.time("ctrl.hosts", [&] {
    std::vector<tm::EndpointId> eps;
    for (topo::NodeId site = 0; site < sys.layout->num_sites(); ++site) {
      for (std::uint32_t i = 0; i < sys.layout->endpoints_at(site); ++i) {
        eps.push_back(tm::make_endpoint(site, i));
      }
    }
    const auto arrivals = sys.inputs->arrivals();
    eps.insert(eps.end(), arrivals.begin(), arrivals.end());
    add_hosts(sys, eps);
    open_connections(sys, sys.inputs->connections(intervals));
  });
  te::MegaTeOptions opt;
  opt.threads = sys.threads;
  opt.metrics = solver_metrics;
  sys.solver.set_options(opt);
  IntervalRec first;
  s.initial = tr.time("setup.interval",
                      [&] { first = run_interval(sys, tr); });
  s.publish_s = first.publish.wall;
  s.total_s = wall_now() - t0;
  s.rss_mb = rss_mb();
  s.ok = first.ok();
  return s;
}

/// Field-wise medians of repeated set-ups; the last one's RSS.
SetupRec median_setup(const std::vector<SetupRec>& setups) {
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const SetupRec& s : setups) v.push_back(f(s));
    return median(v);
  };
  SetupRec m;
  m.graph.wall = med([](auto& s) { return s.graph.wall; });
  m.tunnels.wall = med([](auto& s) { return s.tunnels.wall; });
  m.tunnels.cpu = med([](auto& s) { return s.tunnels.cpu; });
  m.publish_s = med([](auto& s) { return s.publish_s; });
  m.total_s = med([](auto& s) { return s.total_s; });
  m.rss_mb = setups.back().rss_mb;
  for (const SetupRec& s : setups) m.ok = m.ok && s.ok;
  return m;
}

using Recs = std::vector<IntervalRec>;

/// Runs `count` timed intervals. With a `traced` tracer they go untraced,
/// traced, traced, untraced, untraced, traced, ... (ABBA), so a drift
/// across the run, such as the hosts' flow maps filling up, weighs on the
/// traced and the untraced intervals alike.
Recs run_intervals(System& sys, Tracer& untraced, Tracer* traced,
                   std::size_t count) {
  Recs recs;
  for (std::size_t i = 0; i < count; ++i) {
    const bool trace_this = traced != nullptr && (i % 4 == 1 || i % 4 == 2);
    const perfbench::InputStep step =
        sys.inputs->advance(sys.traffic, sys.next_interval);
    IntervalRec rec = run_interval(sys, trace_this ? *traced : untraced);
    rec.events = step.events;
    rec.changed_flows = step.changed_flows;
    std::printf("# interval %llu%s: %.4fs = solve %.4f + publish %.4f + "
                "pull %.4f + encap %.4f; satisfied %.4f; rss %.0f MB%s\n",
                static_cast<unsigned long long>(sys.next_interval - 1),
                rec.traced ? " (traced)" : "", rec.wall, rec.solve.wall,
                rec.publish.wall, rec.pull.wall, rec.encap.wall,
                rec.satisfied, rss_mb(), rec.ok() ? "" : " FAILED");
    recs.push_back(std::move(rec));
  }
  return recs;
}

Recs subset(const Recs& recs, bool traced) {
  Recs out;
  for (const IntervalRec& r : recs) {
    if (r.traced == traced) out.push_back(r);
  }
  return out;
}

/// Interval wall times with failed intervals sorted as the slowest.
std::vector<double> interval_samples(const Recs& recs) {
  std::vector<double> v;
  for (const IntervalRec& r : recs) {
    v.push_back(r.ok() ? r.wall : std::numeric_limits<double>::max());
  }
  return v;
}

template <typename F>
std::vector<double> collect(const Recs& recs, F&& f) {
  std::vector<double> v;
  for (const IntervalRec& r : recs) v.push_back(static_cast<double>(f(r)));
  return v;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-28s %16.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = std::stoull(val);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(val);
    } else if (flag == "--trace") {
      a.trace = val == "1";
    } else if (flag == "--trace-dir") {
      a.trace_dir = val;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "te_interval: %s\n", e.what());
    return 2;
  }
  const WorkloadSpec* w = perfbench::find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "te_interval: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // Solver pool + this main thread stay within the usable CPUs.
  const std::size_t cpus = usable_cpus();
  const std::size_t threads = std::max<std::size_t>(1, cpus - 1);
  const std::size_t count = perfbench::interval_count(*w, args.seconds);
  std::printf("# workload=%s seed=%llu seconds=%g intervals=%zu trace=%d "
              "cpus=%zu solver_threads=%zu\n",
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, count, args.trace ? 1 : 0, cpus, threads);

  obs::MetricsRegistry registry;
  Tracer untraced(nullptr);
  Tracer tracer(&registry);
  // Set up kSetups times from scratch and report the medians; the last
  // system runs the timed intervals.
  std::unique_ptr<System> sys;
  std::vector<SetupRec> setups;
  for (std::size_t r = 0; r < kSetups; ++r) {
    sys.reset();  // free the previous fleet before building the next
    sys = std::make_unique<System>(*w, args.seed, threads);
    const SetupRec& s = setups.emplace_back(
        set_up(*sys, untraced, args.trace ? &registry : nullptr, count));
    std::printf("# setup %zu: graph %.3fs tunnels %.3fs (cpu %.3fs) inputs "
                "%.3fs hosts %.3fs (%zu hosts) first interval %.3fs (publish "
                "%.3fs) total %.3fs\n",
                r + 1, s.graph.wall, s.tunnels.wall, s.tunnels.cpu,
                s.inputs.wall, s.hosts.wall, sys->agents.size(),
                s.initial.wall, s.publish_s, s.total_s);
  }
  const SetupRec setup = median_setup(setups);

  const Recs all =
      run_intervals(*sys, untraced, args.trace ? &tracer : nullptr, count);
  if (args.trace) {
    const std::string path = args.trace_dir + "/trace-" + w->name + "-" +
                             std::to_string(args.seed) + ".jsonl";
    tracer.write(path);
    std::printf("# spans: %s\n", path.c_str());
  }

  // Attempted / failed operations over the run's intervals: each interval
  // (solve + audit), each agent pull, each packet.
  std::uint64_t attempted = 0, failed = 0;
  for (const IntervalRec& r : all) {
    attempted += 1 + r.pulls + std::max(r.routes, r.packets);
    failed += (r.solve_ok ? 0 : 1) + r.pulls_failed + r.packets_failed;
  }
  const bool correct = setup.ok && failed == 0;

  // Per-layer metrics come from the traced intervals only.
  const Recs ph = args.trace ? subset(all, true) : all;
  std::vector<Metric> m;
  const auto walls = interval_samples(ph);
  const auto [tail_s, tail_pct] = tail(walls);
  std::printf("# intervals=%zu interval_tail_s is p%.1f\n", ph.size(),
              tail_pct);
  if (!args.trace) {
    // The solve's own median is reported per layer (te.solve_s) rather than
    // gated end to end: on b4-endpoints it is ~0.06 s of short parallel
    // phases whose run-to-run spread under host contention exceeds any
    // usable bound. interval_s carries it where the solve dominates.
    std::printf("# solve_s (not gated)  %16.9g s\n",
                median(collect(ph, [](auto& r) { return r.solve.wall; })));
    m = {
        {"setup_s", setup.total_s, "s"},
        {"interval_s", median(walls), "s"},
        {"interval_tail_s", tail_s, "s"},
        {"sync_s", median(collect(ph, [](auto& r) {
           return r.publish.wall + r.pull.wall;
         })),
         "s"},
        {"satisfied_ratio",
         median(collect(ph, [](auto& r) { return r.satisfied; })),
         "fraction"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const double n = static_cast<double>(ph.size());
    const auto per_interval = [&](auto f) {
      double s = 0.0;
      for (const IntervalRec& r : ph) s += static_cast<double>(f(r));
      return s / n;
    };
    const auto med = [&](auto f) { return median(collect(ph, f)); };
    // Whole ABBA blocks only, so that a linear drift cancels out.
    const auto whole = static_cast<std::ptrdiff_t>(all.size() / 4 * 4);
    const Recs blocks(all.begin(), all.begin() + whole);
    const double overhead =
        ratio(median(interval_samples(subset(blocks, true))),
              median(interval_samples(subset(blocks, false)))) -
        1.0;
    double drops_total = 0.0;
    for (const IntervalRec& r : ph) {
      drops_total += static_cast<double>(r.drops_sr_too_long +
                                         r.drops_malformed + r.passed);
    }
    m = {
        {"topo.graph_s", setup.graph.wall, "s"},
        {"topo.tunnels_s", setup.tunnels.wall, "s"},
        {"topo.tunnels_cpu_s", setup.tunnels.cpu, "s"},
        {"topo.tunnels", static_cast<double>(sys->tunnels.total_tunnels()),
         "count"},
        {"topo.pairs", static_cast<double>(sys->tunnels.num_pairs()),
         "count"},
        {"te.solve_s", med([](auto& r) { return r.solve.wall; }), "s"},
        {"te.solve_cpu_s", med([](auto& r) { return r.solve.cpu; }), "s"},
        {"te.parallel_eff", med([&](auto& r) {
           return ratio(r.solve.cpu,
                        r.solve.wall * static_cast<double>(cpus));
         }),
         "fraction"},
        {"te.other_s",
         med([](auto& r) { return r.solve.wall - r.stage1 - r.stage2; }),
         "s"},
        {"te.dirty_pair_ratio", med([](auto& r) {
           // A cold solve recomputes every pair.
           if (!r.inc.used_incremental) return 1.0;
           return ratio(static_cast<double>(r.inc.dirty_pairs),
                        static_cast<double>(r.inc.dirty_pairs +
                                            r.inc.clean_pairs));
         }),
         "fraction"},
        {"lp.stage1_s", med([](auto& r) { return r.stage1; }), "s"},
        {"lp.stage1_share",
         med([](auto& r) { return ratio(r.stage1, r.solve.wall); }),
         "fraction"},
        {"lp.warm_rounds",
         per_interval([](auto& r) { return r.inc.warm_start_rounds; }),
         "count"},
        {"lp.cold_rounds",
         per_interval([](auto& r) { return r.inc.cold_lp_rounds; }),
         "count"},
        {"ssp.stage2_s", med([](auto& r) { return r.stage2; }), "s"},
        {"ssp.memo_hit_ratio", med([](auto& r) {
           return ratio(static_cast<double>(r.inc.ssp_cache_hits),
                        static_cast<double>(r.inc.ssp_cache_hits +
                                            r.inc.ssp_cache_misses));
         }),
         "fraction"},
        {"ctrl.initial_publish_s", setup.publish_s, "s"},
        {"ctrl.publish_s", med([](auto& r) { return r.publish.wall; }), "s"},
        {"ctrl.publish_cpu_s", med([](auto& r) { return r.publish.cpu; }),
         "s"},
        {"ctrl.publish_upserts", med([](auto& r) { return r.upserts; }),
         "count"},
        {"ctrl.publish_erases", med([](auto& r) { return r.erases; }),
         "count"},
        {"ctrl.publish_bytes", med([](auto& r) { return r.bytes; }), "B"},
        {"ctrl.delta_ratio", med([](auto& r) {
           return ratio(static_cast<double>(r.bytes),
                        static_cast<double>(r.full_bytes));
         }),
         "fraction"},
        {"ctrl.pull_s", med([](auto& r) { return r.pull.wall; }), "s"},
        {"ctrl.pull_host_p50_us", med([](auto& r) { return r.host_p50_us; }),
         "us"},
        {"ctrl.pull_host_tail_us",
         med([](auto& r) { return r.host_tail_us; }), "us"},
        {"ctrl.pulls_failed",
         per_interval([](auto& r) { return r.pulls_failed; }), "count"},
        {"kv.snapshot_rebuilds",
         per_interval([](auto& r) { return r.snapshot_rebuilds; }), "count"},
        {"kv.multi_get_retries",
         per_interval([](auto& r) { return r.multi_get_retries; }), "count"},
        {"kv.payload_mb", med([](auto& r) { return r.payload_mb; }), "MB"},
        {"dataplane.routes_installed", med([](auto& r) { return r.routes; }),
         "count"},
        {"dataplane.encap_s", med([](auto& r) { return r.encap.wall; }), "s"},
        {"dataplane.packets", med([](auto& r) { return r.packets; }),
         "count"},
        {"dataplane.ns_per_packet", med([](auto& r) {
           return ratio(1e9 * r.encap.wall, static_cast<double>(r.packets));
         }),
         "ns"},
        {"dataplane.drops", drops_total / n, "count"},
        {"dataplane.drops.sr_too_long",
         per_interval([](auto& r) { return r.drops_sr_too_long; }), "count"},
        {"dataplane.drops.malformed",
         per_interval([](auto& r) { return r.drops_malformed; }), "count"},
        {"dataplane.drops.no_route",
         per_interval([](auto& r) { return r.passed; }), "count"},
        {"proc.interval_cpu_s", med([](auto& r) { return r.cpu; }), "s"},
        {"proc.setup_rss_mb", setup.rss_mb, "MB"},
        {"obs.span_coverage", med([](auto& r) {
           return ratio(r.solve.wall + r.publish.wall + r.pull.wall +
                            r.encap.wall,
                        r.wall);
         }),
         "fraction"},
        {"obs.trace_overhead", overhead, "fraction"},
        {"tm.flows", med([](auto& r) { return r.flows; }), "count"},
        {"tm.churn_events", med([](auto& r) { return r.events; }), "count"},
        {"tm.changed_flows", med([](auto& r) { return r.changed_flows; }),
         "count"},
        {"failed_ratio",
         ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "fraction"},
    };
  }
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}
