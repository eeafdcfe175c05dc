// perfbench driver: times calls into the simulator's public entry points
// from outside the program and prints one JSON object on stdout.
//
//   perfbench_driver setup --workload W
//       Cold build + teardown of W's largest cluster in this (fresh)
//       process, then a standalone net::Fabric build of the same fabric.
//   perfbench_driver run --workload W --seed N --seconds T --trace 0|1
//       One warm-up repetition, then repetitions until T seconds of
//       measurement have elapsed and at least 21 calls were measured. With --trace 1 an observed pass follows:
//       a side run at another shard count, a Chrome-traced run and a
//       flight-recorded run of every configuration, wrapped in the
//       benchmark's own spans.
//
// A repetition calls every configuration of the workload once, in an order
// drawn from the seed. perfbench/run.py turns this output into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "exp/runner.hpp"
#include "exp/sweeps.hpp"
#include "net/fabric.hpp"
#include "obs/critical.hpp"
#include "obs/flight.hpp"
#include "serve/serve.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "workloads/options.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace gputn;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------ JSON output

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class JsonObj {
 public:
  JsonObj& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += jstr(key) + ":" + json;
    return *this;
  }
  JsonObj& num(const std::string& key, double v) { return raw(key, jnum(v)); }
  JsonObj& str(const std::string& key, const std::string& v) {
    return raw(key, jstr(v));
  }
  JsonObj& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string jarr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool starts_with(const std::string& s, const std::string& p) {
  return s.compare(0, p.size(), p) == 0;
}

bool ends_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(s.size() - p.size(), p.size(), p) == 0;
}

// ------------------------------------------------------------------ spans

/// The benchmark's own spans, kept in memory and emitted with the result.
class SpanLog {
 public:
  int open(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), parent, now_ms(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ms = now_ms(); }

  std::string json() const {
    std::vector<std::string> items;
    for (const Span& s : spans_) {
      items.push_back(JsonObj()
                          .str("name", s.name)
                          .num("parent", s.parent)
                          .num("start_ms", s.start_ms)
                          .num("end_ms", s.end_ms)
                          .done());
    }
    return jarr(items);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_ms;
    double end_ms;
  };
  double now_ms() const { return ms_between(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// records nothing, so untraced code paths pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent) : log_(log) {
    if (log_ != nullptr) id_ = log_->open(std::move(name), parent);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_ = -1;
};

// --------------------------------------------------------------- outcomes

/// Observers attached to one call. Trace needs shards == 1 (make_config
/// rejects the combination otherwise).
struct Observers {
  int shards = 1;
  sim::TraceRecorder* trace = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

/// What one runner call produced.
struct Outcome {
  bool ok = false;  ///< no exception escaped
  bool correct = false;
  std::string error;
  double total_us = 0.0;  ///< simulated completion time
  std::string digest_src;  ///< deterministic text the digest hashes
  std::vector<sim::StatRegistry> stats;  ///< one per simulated run
  std::string extra = "{}";  ///< workload-specific JSON
  std::string host = "{}";   ///< host-time figures (not digested)
};

/// stats_json without the per-shard engine ledgers, which legitimately
/// differ between shard counts (everything else is bit-identical).
std::string stable_stats_json(const sim::StatRegistry& reg) {
  sim::StatRegistry out;
  auto keep = [](const std::string& k) {
    return !starts_with(k, "util.shard") && !starts_with(k, "util.engine");
  };
  for (const auto& [k, v] : reg.counters()) {
    if (keep(k)) out.counter(k) = v;
  }
  for (const auto& [k, v] : reg.accumulators()) {
    if (keep(k)) out.accumulator(k) = v;
  }
  for (const auto& [k, v] : reg.histograms()) {
    if (keep(k)) out.histogram(k) = v;
  }
  return sim::stats_json(out);
}

double p99_us(const sim::StatRegistry& reg, const std::string& name) {
  const sim::Histogram* h = reg.find_histogram(name);
  return h != nullptr && h->count() > 0 ? h->quantile(0.99) / 1000.0 : 0.0;
}

Outcome from_result(const workloads::ResultBase& r) {
  Outcome o;
  o.ok = true;
  o.correct = r.correct;
  o.total_us = sim::to_us(r.total_time);
  o.digest_src = r.label + "|" + r.mode + "|" + std::to_string(r.nodes) + "|" +
                 std::to_string(r.total_time) + "|" +
                 (r.correct ? "1" : "0") + "|" + stable_stats_json(r.net_stats);
  o.stats.push_back(r.net_stats);
  return o;
}

// ------------------------------------------------------- per-layer folding

/// Which per-layer resource a util.<res>.busy_ps ledger belongs to.
std::string resource_kind(const std::string& res) {
  if (starts_with(res, "link.") || starts_with(res, "sw.")) return "link";
  for (const char* k : {"nic.cmd", "dma.tx", "dma.rx", "gpu.cu", "cpu"}) {
    if (ends_with(res, std::string(".") + k)) return k;
  }
  return "";
}

/// Counter sums and maxima over a set of simulated runs.
struct LayerAgg {
  std::map<std::string, double> sum;
  std::map<std::string, double> max;

  void fold(const sim::StatRegistry& r) {
    for (const char* k :
         {"net.link.packets", "net.switch.packets", "net.credit_stalls",
          "net.messages", "fault.drops", "rel.retransmits", "rel.dup_dropped",
          "rel.acks_tx", "serve.qp.posted", "serve.qp.doorbells", "serve.ops",
          "serve.slo_ok"}) {
      sum[k] += static_cast<double>(r.counter_value(k));
    }
    const double window = static_cast<double>(r.counter_value("util.window_ps"));
    for (const auto& [key, busy] : r.counters()) {
      if (!starts_with(key, "util.") || !ends_with(key, ".busy_ps")) continue;
      const std::string res = key.substr(5, key.size() - 5 - 8);
      const std::string kind = resource_kind(res);
      if (kind.empty()) continue;
      const std::string p = "util." + res;
      const double cap = static_cast<double>(r.counter_value(p + ".capacity"));
      if (window > 0 && cap > 0) {
        double& m = max[kind + ".busy_max"];
        m = std::max(m, static_cast<double>(busy) / (cap * window));
      }
      sum[kind + ".ops"] += static_cast<double>(r.counter_value(p + ".ops"));
      sum[kind + ".bytes"] += static_cast<double>(r.counter_value(p + ".bytes"));
      sum[kind + ".q_time_ps"] +=
          static_cast<double>(r.counter_value(p + ".q.time_ps"));
    }
    for (const char* h :
         {"lat.wire", "lat.tx_queue", "lat.trigger_to_fire", "lat.end_to_end"}) {
      double& m = max[std::string(h) + ".p99_us"];
      m = std::max(m, p99_us(r, h));
    }
    // trig.* stays in each NIC's own registry (export_net_stats forwards
    // only rel.*); every triggered send that delivered leaves one
    // lat.trigger_to_fire sample, which is the exported count of fires.
    const sim::Histogram* fired = r.find_histogram("lat.trigger_to_fire");
    sum["lat.trigger_to_fire.count"] +=
        fired != nullptr ? static_cast<double>(fired->count()) : 0.0;
  }

  std::string json() const {
    JsonObj o;
    for (const auto& [k, v] : sum) o.num(k, v);
    for (const auto& [k, v] : max) o.num(k, v);
    return o.done();
  }
};

// -------------------------------------------------------------- workloads

workloads::Registry& registry() {
  static workloads::Registry reg = [] {
    workloads::Registry r;
    workloads::register_builtin_workloads(r);
    return r;
  }();
  return reg;
}

/// One configuration of a workload: one runner call per repetition.
struct Config {
  std::string name;
  std::function<Outcome(const Observers&)> run;
};

/// The largest cluster a workload builds, sized the way its runner sizes
/// it, for the set-up measurement.
struct SetupSpec {
  cluster::SystemConfig sys;
  int nodes = 0;
};

/// Measured calls all run the sequential engine (shards = 1): on a shared
/// machine the multi-shard engine's barrier rounds stall whenever one
/// worker loses its core, which made a 64-rank allreduce's host time swing
/// by 2-3x between runs. Multi-shard runs are side runs of the observed
/// pass, reported as sim.shard_speedup.
struct Workload {
  std::vector<Config> configs;
  int side_shards = 0;  ///< shard count of the observed pass's side run
  bool observable = true;  ///< trace / flight recorders can be attached
  int jobs = 1;         ///< exp::Runner threads (sweep-mini)
  SetupSpec setup;
};

constexpr double kServeRungs[] = {1e6, 1.5e6, 2e6, 3e6, 4e6};
// Per tenant per rung. At 8000 the realized Poisson arrival span is within
// ~1% of requests / rate, so achieved_rps falls below 95% of the offered
// rate only when a backlog grows, and the worst-tenant p99 of a rung moves
// by ~1% between seeds (at 4000 one seed in ten read 20% higher).
constexpr int kServeRequests = 8000;
constexpr int kLossSeeds = 10;  // loss seeds 1..10
constexpr int kSweepJobs = 4;   // capped at the hardware thread count
// Measured calls per run, at least: the tail percentile (the highest with
// ten samples beyond it) lies above the median only from 21 samples on.
constexpr std::size_t kMinSamples = 21;

int hw_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Shard count of the observed pass's side run; none on a one-thread host.
int side_shards() { return hw_threads() >= 2 ? 2 : 0; }

Config registry_allreduce(std::string name, workloads::Strategy st,
                          workloads::RunOptions base, std::string mb,
                          cluster::SystemConfig sys) {
  return Config{std::move(name), [=](const Observers& ob) {
                  workloads::RunOptions o = base;
                  o.strategy = st;
                  o.shards = ob.shards;
                  o.trace = ob.trace;
                  o.flight = ob.flight;
                  o.quiet = true;
                  workloads::WorkloadParams p;
                  p.set("mb", mb);
                  return from_result(
                      registry().find("allreduce")->run(o, p, sys));
                }};
}

/// DRAM per node as run_allreduce sizes it for `elements` fp32 values.
std::uint64_t allreduce_dram(std::uint64_t elements, int nodes) {
  const std::uint64_t vec = elements * sizeof(float);
  return vec + 4 * (vec / static_cast<std::uint64_t>(nodes)) + (8u << 20);
}

Workload fabric_allreduce() {
  Workload w;
  w.side_shards = side_shards();
  workloads::RunOptions base;
  base.nodes = 64;
  base.topology = "fat-tree:k=8";
  const auto sys = cluster::SystemConfig::table2();
  for (auto st : {workloads::Strategy::kCpu, workloads::Strategy::kGpuTn}) {
    w.configs.push_back(
        registry_allreduce(workloads::strategy_name(st), st, base, "2", sys));
  }
  w.setup.sys = workloads::with_fabric_overrides(base, sys);
  w.setup.sys.dram_bytes = allreduce_dram(512 * 1024, 64);
  w.setup.nodes = 64;
  return w;
}

serve::ServeConfig serve_base(std::uint64_t seed) {
  serve::ServeConfig c;
  c.clients = 2;
  c.servers = 2;
  c.tenants = 4;
  c.zipf = 0.99;
  c.read_fraction = 0.5;
  c.slo = sim::us(10);
  c.requests = kServeRequests;
  c.seed = seed;
  c.quiet = true;
  return c;
}

Workload serve_ladder(std::uint64_t seed) {
  Workload w;
  w.side_shards = side_shards();
  for (double rate : kServeRungs) {
    for (auto st : {workloads::Strategy::kCpu, workloads::Strategy::kGpuTn}) {
      char name[64];
      std::snprintf(name, sizeof name, "%s@%g", workloads::strategy_name(st),
                    rate);
      w.configs.push_back(Config{name, [=](const Observers& ob) {
        serve::ServeConfig c = serve_base(seed);
        c.strategy = st;
        c.offered_load = rate;
        c.shards = ob.shards;
        c.trace = ob.trace;
        c.flight = ob.flight;
        serve::ServeResult r = serve::run_serve(c, cluster::SystemConfig::table2());
        Outcome o = from_result(r);
        double worst_p50 = 0.0;
        double worst_p99 = 0.0;
        for (const serve::TenantSummary& t : r.tenants) {
          worst_p50 = std::max(worst_p50, t.p50_ns / 1000.0);
          worst_p99 = std::max(worst_p99, t.p99_ns / 1000.0);
        }
        o.extra = JsonObj()
                      .num("offered_rps", rate * c.tenants)
                      .num("achieved_rps", r.achieved_rps())
                      .num("requests", static_cast<double>(r.requests_total))
                      .num("worst_p50_us", worst_p50)
                      .num("worst_p99_us", worst_p99)
                      .num("slo_us", sim::to_us(c.slo))
                      .done();
        o.digest_src += "|" + o.extra;
        return o;
      }});
    }
  }
  serve::ServeConfig c = serve_base(seed);
  w.setup.sys = cluster::SystemConfig::table2();
  const std::uint64_t footprint =
      c.keyspace * c.value_bytes +
      static_cast<std::uint64_t>(c.tenants * c.window) * (4 * c.value_bytes + 512);
  w.setup.sys.dram_bytes = std::max(w.setup.sys.dram_bytes, footprint + (8u << 20));
  w.setup.nodes = c.clients + c.servers;
  return w;
}

Workload sweep_mini() {
  const int jobs = std::min(kSweepJobs, hw_threads());
  Workload w;
  w.observable = false;  // mini_sweep_plan's closures take no observers
  w.jobs = jobs;
  w.configs.push_back(Config{"mini", [jobs](const Observers&) {
    exp::Plan plan = exp::mini_sweep_plan();
    exp::RunSummary s = exp::Runner(jobs).run(plan);
    Outcome o;
    o.ok = s.failures == 0;
    o.correct = s.all_correct();
    o.digest_src = exp::results_json(s);
    std::vector<std::string> points;
    for (const exp::RunResult& r : s.results) {
      if (!r.ok && o.error.empty()) o.error = r.id + ": " + r.error;
      JsonObj p;
      p.str("id", r.id).flag("ok", r.ok);
      if (r.ok) {
        o.stats.push_back(r.result.net_stats);
        o.total_us += sim::to_us(r.result.total_time);
        p.flag("correct", r.result.correct)
            .num("total_us", sim::to_us(r.result.total_time))
            .num("e2e_p99_us", p99_us(r.result.net_stats, "lat.end_to_end"));
      }
      points.push_back(p.done());
    }
    // Host time per point and the pool's efficiency: the share of the
    // jobs x sweep-time budget the points kept busy.
    std::vector<double> point_ms;
    double busy_ms = 0.0;
    for (const exp::RunResult& r : s.results) {
      point_ms.push_back(r.wall_ms);
      busy_ms += r.wall_ms;
    }
    std::sort(point_ms.begin(), point_ms.end());
    o.extra = JsonObj().raw("points", jarr(points)).done();
    o.host = JsonObj()
                 .num("point_ms_median",
                      point_ms.empty() ? 0.0 : point_ms[point_ms.size() / 2])
                 .num("pool_efficiency", busy_ms / (jobs * s.wall_ms))
                 .done();
    return o;
  }});
  // The largest cluster of the sweep by DRAM: the 4-node fig09 Jacobi
  // points keep the Table 2 default backing per node.
  w.setup.sys = cluster::SystemConfig::table2();
  w.setup.nodes = 4;
  return w;
}

Workload allreduce_lossy() {
  Workload w;
  workloads::RunOptions base;
  base.nodes = 16;
  for (int s = 1; s <= kLossSeeds; ++s) {
    const auto sys = cluster::SystemConfig::table2_with_loss(0.001, s);
    for (auto st : {workloads::Strategy::kCpu, workloads::Strategy::kGpuTn}) {
      w.configs.push_back(registry_allreduce(
          std::string(workloads::strategy_name(st)) + "/loss-seed" +
              std::to_string(s),
          st, base, "1", sys));
    }
  }
  w.setup.sys = cluster::SystemConfig::table2_with_loss(0.001, 1);
  w.setup.sys.dram_bytes = allreduce_dram(256 * 1024, 16);
  w.setup.nodes = 16;
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fabric-allreduce") return fabric_allreduce();
  if (name == "serve-ladder") return serve_ladder(seed);
  if (name == "sweep-mini") return sweep_mini();
  if (name == "allreduce-lossy") return allreduce_lossy();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------- set-up

/// Discards everything: the set-up fabric carries no traffic.
class NullSink : public net::MessageSink {
 public:
  void deliver(net::Message&&) override {}
};

struct SetupTimes {
  double build_ms = 0.0;
  double teardown_ms = 0.0;
  double net_build_ms = 0.0;
};

SetupTimes measure_setup(const SetupSpec& spec, SpanLog* spans, int parent) {
  SetupTimes t;
  {
    auto t0 = Clock::now();
    std::unique_ptr<sim::ShardEngine> engine;
    std::unique_ptr<cluster::Cluster> c;
    {
      ScopedSpan s(spans, "cluster.build", parent);
      engine = std::make_unique<sim::ShardEngine>(1);
      c = std::make_unique<cluster::Cluster>(*engine, spec.sys, spec.nodes);
    }
    auto t1 = Clock::now();
    {
      ScopedSpan s(spans, "cluster.teardown", parent);
      c.reset();
      engine.reset();
    }
    auto t2 = Clock::now();
    t.build_ms = ms_between(t0, t1);
    t.teardown_ms = ms_between(t1, t2);
  }
  {
    ScopedSpan s(spans, "net.build", parent);
    auto t0 = Clock::now();
    sim::Simulator simulator;
    std::vector<NullSink> sinks(static_cast<std::size_t>(spec.nodes));
    {
      net::Fabric fabric(simulator, spec.sys.fabric);
      for (NullSink& sink : sinks) fabric.add_node(&sink);
      fabric.finalize();
    }
    t.net_build_ms = ms_between(t0, Clock::now());
  }
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int cmd_setup(const std::string& workload) {
  Workload w = make_workload(workload, 1);
  SetupTimes t = measure_setup(w.setup, nullptr, -1);
  std::printf("%s\n", JsonObj()
                          .num("cluster_build_ms", t.build_ms)
                          .num("cluster_teardown_ms", t.teardown_ms)
                          .num("net_build_ms", t.net_build_ms)
                          .done()
                          .c_str());
  return 0;
}

// ------------------------------------------------------------------- run

struct Timed {
  Outcome outcome;
  double ms = 0.0;
  std::uint64_t digest = 0;
};

Timed timed_call(const Config& c, const Observers& ob) {
  Timed t;
  auto t0 = Clock::now();
  try {
    t.outcome = c.run(ob);
  } catch (const std::exception& e) {
    t.outcome = Outcome{};
    t.outcome.error = e.what();
  }
  t.ms = ms_between(t0, Clock::now());
  t.digest = t.outcome.ok ? fnv1a(t.outcome.digest_src) : 0;
  return t;
}

std::string outcome_json(const std::string& config, const Timed& t) {
  const Outcome& o = t.outcome;
  LayerAgg agg;
  for (const sim::StatRegistry& r : o.stats) agg.fold(r);
  return JsonObj()
      .str("config", config)
      .flag("ok", o.ok)
      .flag("correct", o.correct)
      .str("error", o.error)
      .num("total_us", o.total_us)
      .num("e2e_p99_us",
           o.stats.size() == 1 ? p99_us(o.stats[0], "lat.end_to_end") : 0.0)
      .str("digest", hex64(t.digest))
      .raw("layer", agg.json())
      .raw("extra", o.extra)
      .done();
}

/// Per-path blame totals (picoseconds per category) from a flight dump.
std::string blame_json(obs::FlightRecorder& flight) {
  obs::Analysis a = obs::analyze_flight(flight.json(), "perfbench");
  std::map<std::string, std::map<std::string, double>> paths;
  for (const obs::AnalyzedRun& run : a.runs) {
    for (const obs::PathTable& p : run.paths) {
      for (const obs::CategoryRow& row : p.rows) {
        paths[p.path][row.category] += static_cast<double>(row.total_ps);
      }
    }
  }
  JsonObj out;
  for (const auto& [path, cats] : paths) {
    JsonObj c;
    for (const auto& [cat, ps] : cats) c.num(cat, ps);
    out.raw(path, c.done());
  }
  return out.done();
}

int cmd_run(const std::string& name, std::uint64_t seed, double seconds,
            bool trace) {
  Workload w = make_workload(name, seed);
  const std::size_t n = w.configs.size();
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  std::vector<std::string> calls;
  std::vector<std::string> reference(n);
  std::vector<std::uint64_t> ref_digest(n, 0);
  std::vector<bool> ref_ok(n, false);

  auto record = [&](std::size_t c, const Timed& t, bool warmup) {
    const bool match = t.outcome.ok && t.digest == ref_digest[c];
    calls.push_back(JsonObj()
                        .num("config", static_cast<double>(c))
                        .num("ms", t.ms)
                        .flag("warmup", warmup)
                        .flag("ok", t.outcome.ok)
                        .flag("correct", t.outcome.correct)
                        .flag("digest_match", match)
                        .raw("host", t.outcome.host)
                        .done());
  };

  // Warm-up repetition: the reference outcome of every configuration.
  std::shuffle(order.begin(), order.end(), rng);
  for (std::size_t c : order) {
    Timed t = timed_call(w.configs[c], Observers{});
    ref_digest[c] = t.digest;
    ref_ok[c] = t.outcome.ok;
    reference[c] = outcome_json(w.configs[c].name, t);
    record(c, t, true);
  }

  const auto start = Clock::now();
  int reps = 0;
  while (static_cast<std::size_t>(reps) * n < kMinSamples ||
         ms_between(start, Clock::now()) < seconds * 1000.0) {
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t c : order) {
      record(c, timed_call(w.configs[c], Observers{}), false);
    }
    ++reps;
  }
  const double measured_ms = ms_between(start, Clock::now());
  const double rss = peak_rss_mb();

  JsonObj out;
  out.num("jobs", w.jobs)
      .num("hw_threads", hw_threads())
      .num("reps", reps)
      .num("measured_ms", measured_ms)
      .num("peak_rss_mb", rss)
      .raw("reference", jarr(reference))
      .raw("calls", jarr(calls));

  if (trace) {
    SpanLog spans;
    std::vector<std::string> observed;
    {
      ScopedSpan pass(&spans, "observed_pass", -1);
      measure_setup(w.setup, &spans, pass.id());  // warm; spans only
      for (std::size_t c = 0; c < n; ++c) {
        ScopedSpan cs(&spans, "config", pass.id());
        JsonObj o;
        o.str("config", w.configs[c].name);
        bool drift_ok = true;
        auto check = [&](const Timed& t) {
          drift_ok = drift_ok && t.outcome.ok == ref_ok[c] &&
                     t.digest == ref_digest[c];
        };
        if (w.side_shards > 0) {
          ScopedSpan s(&spans, "run.side", cs.id());
          Timed t = timed_call(w.configs[c], Observers{w.side_shards});
          check(t);
          o.num("side_ms", t.ms);
        }
        if (w.observable) {
          sim::TraceRecorder recorder;
          Timed t;
          {
            ScopedSpan s(&spans, "run.traced", cs.id());
            t = timed_call(w.configs[c], Observers{1, &recorder});
          }
          check(t);
          o.num("traced_ms", t.ms)
              .num("trace_events", static_cast<double>(recorder.event_count()));
          obs::FlightRecorder flight;
          {
            ScopedSpan s(&spans, "run.flight", cs.id());
            t = timed_call(w.configs[c], Observers{1, nullptr, &flight});
          }
          check(t);
          o.num("flight_ms", t.ms);
          ScopedSpan s(&spans, "stats", cs.id());
          o.raw("blame", blame_json(flight));
        } else {
          Timed t;
          {
            ScopedSpan s(&spans, "run.traced", cs.id());
            t = timed_call(w.configs[c], Observers{});
          }
          ScopedSpan s(&spans, "stats", cs.id());
          check(t);
          o.num("traced_ms", t.ms);
        }
        o.flag("drift_ok", drift_ok);
        observed.push_back(o.done());
      }
    }
    out.raw("observed", jarr(observed)).raw("spans", spans.json());
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver setup --workload W\n"
               "       perfbench_driver run --workload W --seed N "
               "--seconds T --trace 0|1\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0) {
      usage("malformed arguments");
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  auto arg = [&](const std::string& k, const std::string& dflt) {
    auto it = args.find(k);
    return it != args.end() ? it->second : dflt;
  };
  try {
    const std::string workload = arg("workload", "");
    if (workload.empty()) usage("--workload is required");
    if (cmd == "setup") return cmd_setup(workload);
    if (cmd == "run") {
      return cmd_run(workload, std::stoull(arg("seed", "1")),
                     std::stod(arg("seconds", "10")), arg("trace", "0") == "1");
    }
    usage("unknown command");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
