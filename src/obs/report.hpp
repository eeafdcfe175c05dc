// Bottleneck attribution report over exported stats (`gputn report`).
//
// Reads the JSON our own exporters write — a single-run stats file
// (sim::stats_json: {"counters", "accumulators", "histograms"}) or a sweep
// results file (exp::results_json: an array of points each carrying a
// nested "stats" object) — and derives, per point:
//   * the resource attribution table from the util.* utilization-ledger
//     counters (ranked by busy fraction over util.window_ps, saturated
//     resources flagged, time-weighted queue means and queue p99s), and
//   * the latency decomposition summary from the lat.* stage histograms,
//     and
//   * the serving summary from the serve.t<i>.* SLO counters (per-tenant
//     SLO-goodput and tail latency), when the stats came from `gputn serve`.
// Two reports can be diffed metric-by-metric; regressions past a
// configurable threshold on the gated metrics (total_time_ps and lat.*
// mean/p50/p90/p99/p999, where lat.serve.t<i>.p999 is each tenant's tail;
// serve.t<i>.goodput_rps is gated in the opposite direction — a *drop*
// past the threshold regresses) make the diff "failing", which is what lets
// `gputn report NEW.json --baseline OLD.json` act as a CI perf gate.
// lat.* metrics present on only one side are printed as "(metric absent)"
// rows; a gated lat.* metric the candidate *lost* counts as a regression
// (new metrics appearing only in the candidate do not).
//
// The functions are pure (string -> struct -> string) so tests can pin the
// rendered output exactly; all formatting is fixed-width and deterministic.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace gputn::obs {

/// One double printed with a printf format, e.g. fmt("%.2f", v): the
/// number formatting the report, blame and what-if renderers share.
inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

struct ReportOptions {
  double saturation_pct = 90.0;  ///< flag resources busier than this
  double threshold_pct = 5.0;    ///< diff: allowed regression on gated metrics
  int top = 0;                   ///< show only the N busiest resources (0=all)
};

/// One resource's utilization-ledger summary (util.<name>.* counters).
struct ResourceRow {
  std::string name;
  std::uint64_t busy_ps = 0;
  std::uint64_t capacity = 1;
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  bool has_queue = false;
  std::uint64_t q_max = 0;
  std::uint64_t q_time_ps = 0;
  double q_p99 = 0.0;

  /// Busy percentage of `window_ps` across all `capacity` units.
  double busy_pct(std::uint64_t window_ps) const {
    if (window_ps == 0 || capacity == 0) return 0.0;
    return 100.0 * static_cast<double>(busy_ps) /
           (static_cast<double>(capacity) * static_cast<double>(window_ps));
  }
  /// Time-weighted mean queue depth over `window_ps`.
  double q_mean(std::uint64_t window_ps) const {
    if (window_ps == 0) return 0.0;
    return static_cast<double>(q_time_ps) / static_cast<double>(window_ps);
  }
};

/// One lat.* stage histogram (values recorded in nanoseconds).
struct LatencyRow {
  std::string stage;  ///< name with the "lat." prefix stripped
  std::uint64_t count = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;
};

/// One serving tenant's SLO summary (serve.t<i>.* counters plus the
/// lat.serve.t<i> histogram's tail).
struct ServeRow {
  int tenant = 0;
  std::uint64_t ops = 0;
  std::uint64_t slo_ok = 0;
  std::uint64_t bytes = 0;
  double slo_pct = 0.0;      ///< slo_ok / ops
  double goodput_rps = 0.0;  ///< SLO-met ops per second of serve window
  double p999_ns = 0.0;      ///< lat.serve.t<i> p999
};

/// Everything derived from one stats object (a whole stats file, or one
/// point of a sweep file).
struct PointReport {
  std::string id;  ///< sweep point id; empty for a plain stats file
  bool ok = true;
  std::string error;             ///< failed sweep points carry this instead
  std::int64_t total_time_ps = -1;  ///< sweep points only (-1 = absent)
  std::uint64_t window_ps = 0;      ///< util.window_ps
  std::uint64_t serve_window_ps = 0;   ///< serve.window_ps (0 = not a serve run)
  std::vector<ResourceRow> resources;  ///< ranked by busy fraction, desc
  std::vector<LatencyRow> latency;     ///< name-sorted lat.* stages
  std::vector<ServeRow> serve;         ///< tenant-sorted serve.t<i>.* rows
  /// Every numeric leaf flattened to "counters.x" / "histograms.y.p99" /
  /// "total_time_ps" keys — the diffable view of the point.
  std::map<std::string, double> metrics;
};

struct Report {
  std::string source;  ///< file name (or test label) the report came from
  std::vector<PointReport> points;
};

/// Parse a stats or sweep JSON document. Throws std::runtime_error on
/// malformed JSON or an unrecognized document shape.
Report parse_report(const std::string& json_text, std::string source);

/// Render the attribution tables (one block per point).
std::string render_report(const Report& rep, const ReportOptions& opt);

struct Diff {
  std::string text;
  /// Gated metrics that regressed past ReportOptions::threshold_pct; the
  /// CLI exits nonzero when this is > 0.
  int regressions = 0;
};

/// Per-metric deltas of `cur` against `base`. Points are matched by id
/// (by position when ids are empty); unmatched points are reported but not
/// gated.
Diff diff_reports(const Report& cur, const Report& base,
                  const ReportOptions& opt);

}  // namespace gputn::obs
