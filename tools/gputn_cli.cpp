// gputn — command-line driver for the simulation experiments.
//
//   gputn config     [--loss P] [--seed S] [--shards S]
//   gputn sweep      [--jobs N] [--stats-json FILE]
//   gputn report     FILE... [--baseline FILE] [--threshold PCT] [--top N]
//   gputn analyze    FILE... [--baseline FILE] [--threshold PCT] [--top N]
//                    [--exemplar ID --trace OUT]
//   gputn whatif     WORKLOAD [workload flags] [fabric/fault flags]
//                    [--strategies A,B] [--knobs K1,K2] [--scales 0.5,2,inf]
//                    [--jobs N] [--json FILE] [--baseline FILE]
//                    [--threshold PCT] [--tolerance PCT] [--top N]
//                    [--no-curve]
//   gputn WORKLOAD   [workload flags] [fabric/fault flags]
//                    [--replicas R] [--jobs N] [--shards S]
//                    [--trace FILE] [--stats-json FILE] [--timeseries FILE]
//                    [--sample-interval NS] [--flight FILE]
//                    [--flight-sample P] [--flight-capacity N]
//                    [--flight-exemplars K]
//
// Fabric/fault flags: --nodes N --topology SPEC --routing R --credits N
// --loss P --seed S. Every command also takes --log-level L.
//
// Each flag is declared once: the driver's in kFlags below (name, value,
// the commands that take it, a help line), each workload's parameters in
// its workloads::Registry entry. Parsing, per-command acceptance, the
// unknown-flag error (exit 2, naming the flag) and the usage text that
// `gputn` with no arguments prints all read those declarations.
//
// --seed is the run's one seed: it seeds fault injection and, for serve,
// the request schedule. --replicas R runs seeds S..S+R-1 as an exp::Plan,
// so each replica differs in both; results come in seed order and are
// bit-identical for every --jobs value. --shards splits one run over DES
// worker threads with bit-identical output. The pairwise run-mode x
// observer rules are workloads::kFlagRules, printed by `gputn config`.
//
// `gputn report` ranks resources by busy fraction from stats/sweep JSON;
// `gputn analyze` turns a --flight dump into critical-path blame tables
// and --exemplar ID --trace OUT dumps one op as a Chrome trace; `gputn
// whatif` re-runs a workload under virtually scaled hardware knobs and
// ranks them. With --baseline each diffs against an earlier output and
// exits 1 past --threshold, which makes it usable as a CI gate.
//
// Exit code: 0 on success, 1 on a verification failure, regression,
// runtime or I/O error, 2 on bad arguments.
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/plan.hpp"
#include "exp/runner.hpp"
#include "exp/sweeps.hpp"
#include "obs/critical.hpp"
#include "obs/flight.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/whatif.hpp"
#include "sim/log.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/units.hpp"
#include "workloads/registry.hpp"

using namespace gputn;
using namespace gputn::workloads;

namespace {

/// The commands, as bits of Flag::commands. kRun is every registered
/// workload.
enum : unsigned {
  kConfig = 1u << 0,
  kSweep = 1u << 1,
  kReport = 1u << 2,
  kAnalyze = 1u << 3,
  kWhatif = 1u << 4,
  kRun = 1u << 5,
  kAll = (1u << 6) - 1,
};

struct Command {
  const char* name;
  unsigned bit;
  const char* operands;  ///< positional arguments, for the usage text
  const char* help;
};

constexpr Command kCommands[] = {
    {"config", kConfig, "",
     "print the system parameters, flag matrix and whatif knobs"},
    {"sweep", kSweep, "", "run the fig09+fig10+ablation mini-sweep"},
    {"report", kReport, "FILE...",
     "bottleneck attribution from stats/sweep JSON"},
    {"analyze", kAnalyze, "FILE...",
     "critical-path blame tables from a --flight dump"},
    {"whatif", kWhatif, "WORKLOAD",
     "causal hardware sensitivity profile (counterfactual re-runs)"},
};

/// One driver flag. Workload parameters are declared in the Registry.
struct Flag {
  const char* name;
  const char* value;  ///< usage placeholder; nullptr = boolean flag
  unsigned commands;  ///< the commands that take it
  const char* help;
};

constexpr Flag kFlags[] = {
    {"nodes", "N", kRun | kWhatif,
     "node count, where the workload is size-flexible"},
    {"topology", "SPEC", kRun | kWhatif,
     "star|fat-tree:k=8|torus:4x4x4|dragonfly:a=4,h=2,p=2"},
    {"routing", "R", kRun | kWhatif, "deterministic|adaptive"},
    {"credits", "N", kRun | kWhatif,
     "switch output-port credits (0 = unlimited)"},
    {"loss", "P", kConfig | kRun | kWhatif,
     "per-packet loss rate on every link; enables reliable delivery"},
    {"seed", "S", kConfig | kRun | kWhatif,
     "the run's seed: fault injection and serve's request schedule "
     "(default 1)"},
    {"replicas", "R", kRun, "run seeds S..S+R-1 on the parallel engine"},
    {"jobs", "N", kRun | kSweep | kWhatif,
     "worker threads for multi-point runs (default: one per core)"},
    {"shards", "S", kConfig | kRun,
     "split one run over S DES worker threads, bit-identical output"},
    {"trace", "FILE", kRun | kAnalyze,
     "Chrome-trace JSON of the run (analyze: of the --exemplar op)"},
    {"stats-json", "FILE", kRun | kSweep,
     "counters and latency histograms as JSON"},
    {"timeseries", "FILE", kRun,
     "sampled link/NIC/CU series; .csv selects CSV, else JSON"},
    {"sample-interval", "NS", kRun,
     "--timeseries interval in simulated ns (default 1000)"},
    {"flight", "FILE", kRun, "per-op flight recorder dump for analyze"},
    {"flight-sample", "P", kRun, "record 1 in P ops (default 1)"},
    {"flight-capacity", "N", kRun, "op-ring capacity (default 4096)"},
    {"flight-exemplars", "K", kRun,
     "slowest ops kept per tenant (default 4)"},
    {"log-level", "L", kAll, "trace|debug|info|warn|error|off (default warn)"},
    {"baseline", "FILE", kReport | kAnalyze | kWhatif,
     "diff against an earlier output; exit 1 on a regression"},
    {"threshold", "PCT", kReport | kAnalyze | kWhatif,
     "regression threshold (default 5; analyze 10)"},
    {"top", "N", kReport | kAnalyze | kWhatif,
     "rows shown per table (default 0 = all)"},
    {"exemplar", "ID", kAnalyze, "op id to dump with --trace"},
    {"strategies", "A,B", kWhatif, "strategies (default CPU,GPU-TN)"},
    {"knobs", "K1,K2", kWhatif, "knob subset (default all, see config)"},
    {"scales", "X,Y", kWhatif, "knob speed factors (default 0.5,2,inf)"},
    {"tolerance", "PCT", kWhatif,
     "measured-vs-predicted divergence band (default 2)"},
    {"json", "FILE", kWhatif, "write the report as JSON"},
    {"no-curve", nullptr, kWhatif, "skip the virtual-speedup curve"},
};

const Command* find_command(const std::string& name) {
  for (const Command& c : kCommands) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

const Flag* find_flag(const std::string& name) {
  for (const Flag& f : kFlags) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

/// "--name VALUE" for the usage text.
std::string synopsis(const std::string& name, const std::string& value) {
  return "--" + name + (value.empty() ? "" : " " + value);
}

[[noreturn]] void usage() {
  std::string u = "usage: gputn <command> [operands] [flags]\n\ncommands:\n";
  auto line = [&u](const std::string& left, const std::string& help) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "  %-26s %s\n", left.c_str(),
                  help.c_str());
    u += buf;
  };
  for (const Command& c : kCommands) {
    line(std::string(c.name) + " " + c.operands, c.help);
  }
  for (const WorkloadEntry& e : Registry::instance().entries()) {
    line(e.name, e.description);
    for (const ParamSpec& p : e.params) {
      line("  " + synopsis(p.name, p.value), p.help);
    }
  }
  u += "\nflags [the commands that take them; run = any workload]:\n";
  for (const Flag& f : kFlags) {
    std::string where;
    for (const Command& c : kCommands) {
      if (f.commands & c.bit) where += std::string(",") + c.name;
    }
    if (f.commands & kRun) where += ",run";
    line(synopsis(f.name, f.value != nullptr ? f.value : ""),
         std::string(f.help) + " [" +
             (f.commands == kAll ? "all" : where.substr(1)) + "]");
  }
  std::fputs(u.c_str(), stderr);
  std::exit(2);
}

/// A parsed command line: driver flags, the workload's declared
/// parameters, and positional operands.
struct Args {
  WorkloadParams flags;
  WorkloadParams params;
  std::vector<std::string> operands;

  bool has(const std::string& k) const { return flags.has(k); }
  std::string get(const std::string& k) const { return flags.get(k, ""); }
  /// Validated numeric flag; `dflt` when absent (unchecked).
  long get_int(const std::string& k, long dflt, long min, long max) const {
    return has(k) ? flags.get_int(k, dflt, min, max) : dflt;
  }
  double get_double(const std::string& k, double dflt, double min,
                    double max) const {
    return has(k) ? flags.get_double(k, dflt, min, max) : dflt;
  }
};

/// Parse argv[first..] for command `cmd`: the kFlags entries that take
/// `bit`, the parameters `entry` declares (nullptr: none) and, when
/// `operands` is set, positional arguments. Throws std::invalid_argument
/// naming the first argument the declarations do not allow.
Args parse_args(int argc, char** argv, int first, const std::string& cmd,
                unsigned bit, const WorkloadEntry* entry, bool operands) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (!operands) {
        throw std::invalid_argument(cmd + " takes no argument '" + arg + "'");
      }
      a.operands.push_back(arg);
      continue;
    }
    std::string key = arg.substr(2);
    const Flag* f = find_flag(key);
    const ParamSpec* p = entry != nullptr ? entry->param(key) : nullptr;
    WorkloadParams* into = nullptr;
    bool takes_value = false;
    if (f != nullptr && (f->commands & bit) != 0) {
      into = &a.flags;
      takes_value = f->value != nullptr;
    } else if (p != nullptr) {
      into = &a.params;
      takes_value = !p->value.empty();
    } else if (f != nullptr) {
      throw std::invalid_argument(arg + " does not apply to " + cmd);
    } else {
      throw std::invalid_argument("unknown flag " + arg + " for " + cmd);
    }
    std::string value;
    if (takes_value) {
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        throw std::invalid_argument(arg + " needs a value");
      }
      value = argv[++i];
    }
    into->set(key, value);
  }
  return a;
}

void apply_log_level(const Args& args) {
  if (!args.has("log-level")) return;
  // In sim::LogLevel order.
  const char* kLevels[] = {"trace", "debug", "info", "warn", "error", "off"};
  const std::string l = args.get("log-level");
  for (int i = 0; i < 6; ++i) {
    if (l == kLevels[i]) {
      sim::LogConfig::set_level(static_cast<sim::LogLevel>(i));
      return;
    }
  }
  throw std::invalid_argument("unknown log level '" + l + "'");
}

int jobs_flag(const Args& args) {
  return static_cast<int>(args.get_int("jobs", 0, 0, 4096));
}

/// What the fabric and fault flags set up (--nodes --topology --routing
/// --credits --loss --seed), shared by workload runs, whatif and config.
struct RunSetup {
  RunOptions opts;
  double loss = 0.0;
  long seed = 1;

  /// Table 2 with this run's fault injection, seeded with `s`.
  cluster::SystemConfig system(long s) const {
    return cluster::SystemConfig::table2_with_loss(
        loss, static_cast<std::uint64_t>(s));
  }
};

RunSetup run_setup(const Args& args) {
  RunSetup r;
  // nodes stays 0 (= workload default) without --nodes. Empty topology /
  // routing and credits -1 keep the Table 2 fabric (star, deterministic,
  // unlimited); spec strings are validated when the fabric is finalized.
  r.opts.nodes = static_cast<int>(args.get_int("nodes", 0, 2, 1 << 16));
  r.opts.topology = args.get("topology");
  r.opts.routing = args.get("routing");
  r.opts.credits =
      static_cast<int>(args.get_int("credits", -1, -1, 1 << 20));
  r.loss = args.get_double("loss", 0.0, 0.0, 1.0);
  r.seed = args.get_int("seed", 1, 0, LONG_MAX - (1 << 20));
  return r;
}

/// The --flight-* knobs as a recorder config (shared by single runs and the
/// per-replica recorders). The sampling seed is the run seed, so replicas
/// (seed S, S+1, ...) make independent keep decisions.
obs::FlightConfig flight_config(const Args& args, long seed) {
  obs::FlightConfig cfg;
  cfg.sample_period = static_cast<std::uint64_t>(
      args.get_int("flight-sample", 1, 1, 1L << 30));
  cfg.capacity = static_cast<std::size_t>(
      args.get_int("flight-capacity", 4096, 1, 1 << 24));
  cfg.exemplars_per_tenant = static_cast<std::size_t>(
      args.get_int("flight-exemplars", 4, 0, 4096));
  cfg.seed = static_cast<std::uint64_t>(seed);
  return cfg;
}

/// Write one artifact through `fill`, flushed and checked: bytes that fail
/// at close time (disk full, dead mount) must surface here, not in a
/// destructor nobody checks. Prints "  <label>: <path><note>", or reports
/// the failure on stderr and returns 1: an unwritable artifact must fail
/// the run, not silently vanish (these files gate CI).
int write_artifact(const std::string& path, const char* label,
                   const char* what,
                   const std::function<void(std::ostream&)>& fill,
                   const std::string& note = "") {
  std::ofstream out(path);
  if (out) {
    fill(out);
    out << std::flush;
  }
  if (!out.good()) {
    std::fprintf(stderr, "gputn: cannot write %s to '%s'\n", what,
                 path.c_str());
    return 1;
  }
  std::printf("  %s: %s%s\n", label, path.c_str(), note.c_str());
  return 0;
}

/// --trace / --stats-json / --timeseries / --flight handling shared by every
/// workload subcommand. Owns the TraceRecorder, TimeSeries and
/// FlightRecorder for the run and writes the artifacts at the end.
class ObservabilityFlags {
 public:
  explicit ObservabilityFlags(const Args& args, long seed)
      : trace_path_(args.get("trace")),
        stats_path_(args.get("stats-json")),
        ts_path_(args.get("timeseries")),
        flight_path_(args.get("flight")) {
    if (!ts_path_.empty()) {
      long interval_ns = args.get_int("sample-interval", 1000, 1, 1L << 40);
      ts_ = std::make_unique<obs::TimeSeries>(sim::ns(interval_ns));
    }
    if (!flight_path_.empty()) {
      flight_ =
          std::make_unique<obs::FlightRecorder>(flight_config(args, seed));
    }
  }

  /// Recorder to hand to the workload config, or nullptr when not requested.
  sim::TraceRecorder* trace() {
    return trace_path_.empty() ? nullptr : &recorder_;
  }
  /// Sampler to hand to the workload config, or nullptr when not requested.
  obs::TimeSeries* timeseries() { return ts_.get(); }
  /// Flight recorder for the run, or nullptr when not requested.
  obs::FlightRecorder* flight() { return flight_.get(); }

  /// Write the requested artifacts; returns 0, or 1 on I/O failure.
  int finish(const ResultBase& res) {
    int rc = 0;
    if (!trace_path_.empty()) {
      rc |= write_artifact(
          trace_path_, "trace", "trace",
          [&](std::ostream& o) { recorder_.write_json(o); },
          " (" + std::to_string(recorder_.event_count()) + " events)");
    }
    if (!stats_path_.empty()) {
      rc |= write_artifact(stats_path_, "stats", "stats",
                           [&](std::ostream& o) {
                             o << res.stats_json() << "\n";
                           });
    }
    if (ts_ != nullptr) {
      bool csv = ts_path_.size() >= 4 &&
                 ts_path_.compare(ts_path_.size() - 4, 4, ".csv") == 0;
      rc |= write_artifact(
          ts_path_, "timeseries", "timeseries",
          [&](std::ostream& o) {
            if (csv) {
              ts_->write_csv(o);
            } else {
              ts_->write_json(o);
            }
          },
          " (" + std::to_string(ts_->rows()) + " samples)");
    }
    if (flight_ != nullptr) {
      flight_->set_run_info(res.label, !res.mode.empty()
                                           ? res.mode
                                           : strategy_name(res.strategy));
      rc |= write_artifact(
          flight_path_, "flight", "flight dump",
          [&](std::ostream& o) { o << flight_->json() << "\n"; },
          " (" + std::to_string(flight_->offered()) + " ops offered, " +
              std::to_string(flight_->recorded()) + " recorded)");
    }
    return rc;
  }

 private:
  std::string trace_path_;
  std::string stats_path_;
  std::string ts_path_;
  std::string flight_path_;
  sim::TraceRecorder recorder_;
  std::unique_ptr<obs::TimeSeries> ts_;
  std::unique_ptr<obs::FlightRecorder> flight_;
};

/// Write a merged sweep JSON when --stats-json was given; 0 or 1 (I/O).
int write_sweep_json(const Args& args, const gputn::exp::RunSummary& summary) {
  const std::string path = args.get("stats-json");
  if (path.empty()) return 0;
  return write_artifact(path, "stats", "stats",
                        [&](std::ostream& o) {
                          o << gputn::exp::results_json(summary) << "\n";
                        });
}

/// Report a completed multi-point run in plan order; returns the exit code.
int report_sweep(const gputn::exp::RunSummary& summary, int jobs) {
  // A point fails when it threw or ran but did not verify; the summary's
  // own `failures` counts only the former.
  std::size_t failed = 0;
  for (const auto& r : summary.results) {
    if (r.ok) {
      std::printf("[%-28s] ", r.id.c_str());
      r.result.report();
    } else {
      std::printf("[%-28s] FAILED: %s\n", r.id.c_str(), r.error.c_str());
    }
    if (!r.ok || !r.result.correct) ++failed;
  }
  std::printf("%zu points, %d jobs, %.2f s host time, %zu failed\n",
              summary.results.size(), jobs, summary.wall_ms / 1000.0, failed);
  return failed == 0 ? 0 : 1;
}

/// `gputn <workload> --replicas R`: the run-point list for seeds S..S+R-1.
/// `flights`, when non-empty, holds one recorder per replica (plan order);
/// per-point recorders are what lets --flight compose with --jobs and stay
/// bit-identical — no replica ever shares recorder state with another.
gputn::exp::Plan replica_plan(
    const WorkloadEntry& entry, const RunSetup& setup,
    const WorkloadParams& params, long replicas,
    const std::vector<std::unique_ptr<obs::FlightRecorder>>& flights) {
  gputn::exp::Plan plan;
  RunOptions opts = setup.opts;
  for (long r = 0; r < replicas; ++r) {
    long s = setup.seed + r;
    opts.flight = flights.empty() ? nullptr
                                  : flights[static_cast<std::size_t>(r)].get();
    plan.add_workload(Registry::instance(),
                      entry.name + "/seed" + std::to_string(s), entry.name,
                      opts, params, setup.system(s));
  }
  return plan;
}

/// Write the plan-order merged flight dump for a --replicas run; 0 or 1.
int write_merged_flight(
    const Args& args, const gputn::exp::RunSummary& summary,
    const std::vector<std::unique_ptr<obs::FlightRecorder>>& flights) {
  if (flights.empty()) return 0;
  std::vector<std::pair<std::string, obs::FlightRecorder*>> points;
  for (std::size_t i = 0;
       i < summary.results.size() && i < flights.size(); ++i) {
    const auto& r = summary.results[i];
    if (r.ok) {
      flights[i]->set_run_info(r.result.label,
                               !r.result.mode.empty()
                                   ? r.result.mode
                                   : strategy_name(r.result.strategy));
    }
    points.emplace_back(r.id, flights[i].get());
  }
  return write_artifact(
      args.get("flight"), "flight", "flight dump",
      [&](std::ostream& o) {
        o << obs::merged_flight_json(std::move(points)) << "\n";
      },
      " (" + std::to_string(flights.size()) + " points)");
}

int run_workload(const WorkloadEntry& entry, const Args& args) {
  RunSetup setup = run_setup(args);
  long replicas = args.get_int("replicas", 1, 1, 1 << 20);
  int jobs = jobs_flag(args);
  int shards = static_cast<int>(args.get_int("shards", 1, 1, 4096));
  // Pairwise multi-run / observer flag rules come from the one shared table
  // (workloads::kFlagRules — also printed by `gputn config`), so the driver
  // cannot drift from make_config's own rejections.
  ActiveFlags active;
  active.replicas = replicas > 1;
  active.shards = shards > 1;
  active.trace = args.has("trace");
  active.timeseries = args.has("timeseries");
  active.flight = args.has("flight");
  if (std::string conflict = flag_conflict(active); !conflict.empty()) {
    throw std::invalid_argument(conflict);
  }
  if (replicas > 1) {
    // Seed-replicated run through the parallel engine. Each replica is an
    // isolated simulation; the merged report/JSON is in plan (seed) order
    // and bit-identical for any --jobs value.
    std::vector<std::unique_ptr<obs::FlightRecorder>> flights;
    if (args.has("flight")) {
      for (long r = 0; r < replicas; ++r) {
        flights.push_back(std::make_unique<obs::FlightRecorder>(
            flight_config(args, setup.seed + r)));
      }
    }
    gputn::exp::Runner runner(jobs);
    gputn::exp::RunSummary summary = runner.run(
        replica_plan(entry, setup, args.params, replicas, flights));
    int rc = report_sweep(summary, runner.jobs());
    int io_rc = write_sweep_json(args, summary);
    int fl_rc = write_merged_flight(args, summary, flights);
    if (rc != 0) return rc;
    return io_rc != 0 ? io_rc : fl_rc;
  }

  ObservabilityFlags obs(args, setup.seed);
  RunOptions opts = setup.opts;
  opts.trace = obs.trace();
  opts.timeseries = obs.timeseries();
  opts.flight = obs.flight();
  opts.shards = shards;
  ResultBase res = entry.run(opts, args.params, setup.system(setup.seed));
  int obs_rc = obs.finish(res);
  return res.correct ? obs_rc : 1;
}

/// `gputn config`: the system a run with these flags would simulate.
int run_config(const Args& args) {
  RunSetup setup = run_setup(args);
  cluster::SystemConfig sys = setup.system(setup.seed);
  std::printf("%s", sys.describe().c_str());
  // The DES engine a run with these parameters would use: --shards
  // workers with the conservative lookahead the fabric derives (the
  // minimum cross-shard wire propagation = link latency on every
  // built-in topology).
  long shards = args.get_int("shards", 1, 1, 4096);
  std::printf("Engine:   %ld shard%s (%s DES), lookahead %.0f ns "
              "(min cross-shard wire latency)\n",
              shards, shards == 1 ? "" : "s",
              shards == 1 ? "sequential" : "conservative parallel",
              sim::to_ns(sys.fabric.link_latency));
  std::printf("\n%s", flag_matrix().c_str());
  std::printf("\nWhatif knobs (gputn whatif --knobs ...):\n");
  for (const obs::Knob& k : obs::knob_registry()) {
    std::printf("  %-15s %-9s %s\n", k.name.c_str(), k.kind.c_str(),
                k.description.c_str());
  }
  return 0;
}

/// `gputn sweep`: the built-in mini-sweep on the parallel engine.
int run_sweep(const Args& args) {
  gputn::exp::Runner runner(jobs_flag(args));
  gputn::exp::RunSummary summary = runner.run(gputn::exp::mini_sweep_plan());
  int rc = report_sweep(summary, runner.jobs());
  int io_rc = write_sweep_json(args, summary);
  return rc != 0 ? rc : io_rc;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// --threshold and --top into report, analyze or whatif options.
template <typename Opt>
void read_gate(const Args& args, Opt& opt) {
  opt.threshold_pct = args.get_double("threshold", opt.threshold_pct, 0.0,
                                      1e6);
  opt.top = static_cast<int>(args.get_int("top", opt.top, 0, 1 << 20));
}

/// The front end report and analyze share: each FILE is loaded, rendered
/// and, with --baseline, diffed against the baseline; `each` then does any
/// per-file extra (nonzero = failure). Returns 1 when a diff regressed or
/// `each` failed, else 0. Unreadable or malformed input throws.
template <typename Opt, typename Load, typename Render, typename Diff,
          typename Each>
int render_files(const Args& args, Opt opt, Load load, Render render,
                 Diff diff, Each each) {
  if (args.operands.empty()) {
    throw std::invalid_argument("expected at least one FILE");
  }
  read_gate(args, opt);
  std::string baseline = args.get("baseline");
  decltype(load(std::string(), std::string())) base;
  if (!baseline.empty()) base = load(slurp(baseline), baseline);
  int rc = 0;
  for (const std::string& f : args.operands) {
    auto doc = load(slurp(f), f);
    std::fputs(render(doc, opt).c_str(), stdout);
    if (!baseline.empty()) {
      auto d = diff(doc, base, opt);
      std::fputs(d.text.c_str(), stdout);
      if (d.regressions > 0) rc = 1;
    }
    if (each(doc, f) != 0) rc = 1;
  }
  return rc;
}

/// `gputn report FILE...`: stats/sweep JSON -> bottleneck attribution.
int run_report(const Args& args) {
  return render_files(args, obs::ReportOptions{}, obs::parse_report,
                      obs::render_report, obs::diff_reports,
                      [](const obs::Report&, const std::string&) { return 0; });
}

/// `gputn analyze FILE...`: flight dumps -> critical-path blame tables,
/// plus --exemplar ID --trace OUT to dump one op as a Chrome trace.
int run_analyze(const Args& args) {
  const bool want_exemplar = args.has("exemplar");
  const std::string trace_out = args.get("trace");
  if (want_exemplar == trace_out.empty()) {
    throw std::invalid_argument("--exemplar and --trace go together");
  }
  // Op ids use all 64 bits (tenant ops set the top one), so not get_int.
  const std::string id = args.get("exemplar");
  char* end = nullptr;
  errno = 0;
  const std::uint64_t exemplar = std::strtoull(id.c_str(), &end, 10);
  if (want_exemplar && (id.empty() || id[0] == '-' || *end != '\0' ||
                        errno == ERANGE)) {
    throw std::invalid_argument("--exemplar: expected an op id, got '" + id +
                                "'");
  }
  return render_files(
      args, obs::AnalyzeOptions{}, obs::analyze_flight, obs::render_analysis,
      obs::diff_analyses, [&](const obs::Analysis& a, const std::string& f) {
        if (!want_exemplar) return 0;
        for (const obs::AnalyzedRun& run : a.runs) {
          if (obs::dump_exemplar_trace(run, exemplar, trace_out)) {
            std::printf("  exemplar %llu: %s\n",
                        static_cast<unsigned long long>(exemplar),
                        trace_out.c_str());
            return 0;
          }
        }
        std::fprintf(stderr,
                     "gputn: no op with id %llu in '%s' (or '%s' is not "
                     "writable)\n",
                     static_cast<unsigned long long>(exemplar), f.c_str(),
                     trace_out.c_str());
        return 1;
      });
}

/// Comma-split a list flag value ("a,b,c" -> {"a","b","c"}, empties
/// dropped).
std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// `gputn whatif WORKLOAD [...]`: the causal what-if profiler.
int run_whatif_cmd(const WorkloadEntry& entry, const Args& args) {
  obs::WhatifOptions opt;
  opt.jobs = jobs_flag(args);
  opt.tolerance_pct = args.get_double("tolerance", opt.tolerance_pct, 0.0,
                                      100.0);
  read_gate(args, opt);
  opt.curve = !args.has("no-curve");
  opt.knobs = split_csv(args.get("knobs"));
  if (args.has("strategies")) {
    opt.strategies.clear();
    for (const std::string& name : split_csv(args.get("strategies"))) {
      bool found = false;
      for (Strategy s : kTaxonomyStrategies) {
        if (name == strategy_name(s)) {
          opt.strategies.push_back(s);
          found = true;
        }
      }
      if (!found) {
        throw std::invalid_argument("unknown strategy: " + name +
                                    " (CPU, HDN, GDS, GPU-TN, GHN, GNN)");
      }
    }
  }
  if (args.has("scales")) {
    opt.scales.clear();
    for (const std::string& tok : split_csv(args.get("scales"))) {
      if (tok == "inf") {
        opt.scales.push_back(obs::kInfiniteSpeed);
        continue;
      }
      WorkloadParams p;
      p.set("scales", tok);
      opt.scales.push_back(p.get_double("scales", 0.0, 1e-6, 1e12));
    }
  }

  RunSetup setup = run_setup(args);
  // Parse the baseline before burning the matrix: a corrupt file fails in
  // milliseconds, not after the full counterfactual sweep.
  std::string baseline = args.get("baseline");
  obs::WhatifReport base;
  if (!baseline.empty()) base = obs::parse_whatif(slurp(baseline), baseline);

  obs::WhatifReport rep =
      obs::run_whatif(Registry::instance(), entry.name, args.params,
                      setup.opts, setup.system(setup.seed), opt);
  std::fputs(obs::render_whatif(rep, opt).c_str(), stdout);

  int rc = 0;
  for (const obs::StrategyReport& sr : rep.strategies) {
    if (!sr.baseline_ok) rc = 1;
  }
  if (const std::string path = args.get("json"); !path.empty()) {
    rc |= write_artifact(path, "whatif", "whatif report",
                         [&](std::ostream& o) { o << obs::whatif_json(rep); });
  }
  if (!baseline.empty()) {
    obs::WhatifDiff d = obs::diff_whatif(rep, base, opt.threshold_pct);
    std::fputs(d.text.c_str(), stdout);
    if (d.regressions > 0) rc = 1;
  }
  return rc;
}

/// Parse the command line against the declarations and run the command.
int dispatch(int argc, char** argv) {
  const std::string cmd = argv[1];
  const Command* command = find_command(cmd);
  const WorkloadEntry* entry = Registry::instance().find(cmd);
  if (command == nullptr && entry == nullptr) usage();
  const unsigned bit = command != nullptr ? command->bit : kRun;
  int first = 2;
  if (bit == kWhatif) {
    // WORKLOAD comes first: its declaration decides which flags follow.
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) usage();
    entry = Registry::instance().find(argv[2]);
    if (entry == nullptr) {
      throw std::invalid_argument(std::string("unknown workload: ") +
                                  argv[2]);
    }
    first = 3;
  }
  const Args args = parse_args(argc, argv, first, cmd, bit, entry,
                               (bit & (kReport | kAnalyze)) != 0);
  apply_log_level(args);
  switch (bit) {
    case kConfig: return run_config(args);
    case kSweep: return run_sweep(args);
    case kReport: return run_report(args);
    case kAnalyze: return run_analyze(args);
    case kWhatif: return run_whatif_cmd(*entry, args);
    default: return run_workload(*entry, args);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_builtin_workloads(Registry::instance());
  if (argc < 2) usage();
  // Bad arguments surface as std::invalid_argument (exit 2); unreadable or
  // malformed input and simulation failures (deadlock watchdog, reliability
  // giving up under a pathological loss rate) as other exceptions (exit 1).
  try {
    return dispatch(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "gputn: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gputn: %s\n", e.what());
    return 1;
  }
}
