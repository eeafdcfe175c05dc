#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "sim/json.hpp"

namespace gputn::obs {

namespace json = ::gputn::sim::json;

namespace {

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

bool starts_with(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}

/// Strip a known util.* metric suffix; returns the resource name or ""
/// when `key` (already without the "util." prefix) ends in none of them.
std::string split_metric(const std::string& key, std::string& metric) {
  static const char* suffixes[] = {".busy_ps", ".capacity", ".ops",
                                   ".bytes",   ".q.max",    ".q.time_ps"};
  for (const char* s : suffixes) {
    std::string suf = s;
    if (key.size() > suf.size() &&
        key.compare(key.size() - suf.size(), suf.size(), suf) == 0) {
      metric = suf.substr(1);  // drop the leading '.'
      return key.substr(0, key.size() - suf.size());
    }
  }
  metric.clear();
  return "";
}

/// Flatten the numeric leaves of a stats object into dotted keys
/// ("counters.net.bytes", "histograms.lat.wire.p99"). Histogram bucket
/// arrays are skipped: bucket-level diffs are noise, the derived quantiles
/// already cover them.
void flatten(const json::Value& v, const std::string& prefix,
             std::map<std::string, double>& out) {
  if (v.is_number()) {
    out[prefix] = v.number;
    return;
  }
  if (v.is_object()) {
    for (const auto& [k, child] : *v.object) {
      flatten(child, prefix.empty() ? k : prefix + "." + k, out);
    }
  }
  // Arrays (buckets, rows) and non-numeric scalars are not diffable.
}

/// Build one PointReport from a stats object ({"counters": ..., ...}).
PointReport point_from_stats(const json::Value& stats) {
  if (!stats.is_object() || !stats.has("counters")) {
    throw std::runtime_error(
        "not a stats object (no \"counters\" section)");
  }
  PointReport pt;
  flatten(stats, "", pt.metrics);

  std::map<std::string, ResourceRow> rows;
  std::map<int, ServeRow> serve_rows;
  if (stats.at("counters").is_object()) {
    for (const auto& [name, v] : *stats.at("counters").object) {
      if (!v.is_number()) continue;
      if (starts_with(name, "serve.")) {
        std::string key = name.substr(6);
        if (key == "window_ps") {
          pt.serve_window_ps = static_cast<std::uint64_t>(v.number);
        } else if (key.size() > 1 && key[0] == 't') {
          // serve.t<i>.{ops,slo_ok,bytes}
          char* end = nullptr;
          long tenant = std::strtol(key.c_str() + 1, &end, 10);
          if (end != nullptr && *end == '.' && tenant >= 0) {
            std::string metric = end + 1;
            ServeRow& row = serve_rows[static_cast<int>(tenant)];
            row.tenant = static_cast<int>(tenant);
            auto u = static_cast<std::uint64_t>(v.number);
            if (metric == "ops") row.ops = u;
            else if (metric == "slo_ok") row.slo_ok = u;
            else if (metric == "bytes") row.bytes = u;
          }
        }
        continue;
      }
      if (!starts_with(name, "util.")) continue;
      std::string key = name.substr(5);
      if (key == "window_ps") {
        pt.window_ps = static_cast<std::uint64_t>(v.number);
        continue;
      }
      std::string metric;
      std::string res = split_metric(key, metric);
      if (res.empty()) continue;
      ResourceRow& row = rows[res];
      row.name = res;
      auto u = static_cast<std::uint64_t>(v.number);
      if (metric == "busy_ps") row.busy_ps = u;
      else if (metric == "capacity") row.capacity = u;
      else if (metric == "ops") row.ops = u;
      else if (metric == "bytes") row.bytes = u;
      else if (metric == "q.max") { row.q_max = u; row.has_queue = true; }
      else if (metric == "q.time_ps") { row.q_time_ps = u; row.has_queue = true; }
    }
  }
  if (stats.has("histograms") && stats.at("histograms").is_object()) {
    for (const auto& [name, h] : *stats.at("histograms").object) {
      if (!h.is_object()) continue;
      if (starts_with(name, "util.") && name.size() >= 13 &&
          name.compare(name.size() - 7, 7, ".qdepth") == 0) {
        std::string res = name.substr(5, name.size() - 5 - 7);
        auto it = rows.find(res);
        if (it != rows.end()) {
          it->second.q_p99 = json::num_or(h, "p99");
          it->second.has_queue = true;
        }
      } else if (starts_with(name, "lat.")) {
        LatencyRow lr;
        lr.stage = name.substr(4);
        lr.count = static_cast<std::uint64_t>(json::num_or(h, "count"));
        lr.mean_ns = json::num_or(h, "mean");
        lr.p50_ns = json::num_or(h, "p50");
        lr.p90_ns = json::num_or(h, "p90");
        lr.p99_ns = json::num_or(h, "p99");
        lr.p999_ns = json::num_or(h, "p999");
        lr.max_ns = json::num_or(h, "max");
        pt.latency.push_back(std::move(lr));
      }
    }
  }

  pt.resources.reserve(rows.size());
  for (auto& [name, row] : rows) pt.resources.push_back(std::move(row));
  // Rank by busy fraction (busy_ps normalized by capacity — the shared
  // window cancels), busiest first; name-sorted within ties so the table
  // is deterministic.
  std::stable_sort(pt.resources.begin(), pt.resources.end(),
                   [](const ResourceRow& a, const ResourceRow& b) {
                     double fa = static_cast<double>(a.busy_ps) /
                                 static_cast<double>(a.capacity ? a.capacity : 1);
                     double fb = static_cast<double>(b.busy_ps) /
                                 static_cast<double>(b.capacity ? b.capacity : 1);
                     if (fa != fb) return fa > fb;
                     return a.name < b.name;
                   });

  // Finalize the serving rows: derived SLO-hit / goodput values, tenant
  // tail from the lat.serve.t<i> histogram's flattened p999. The goodput
  // also becomes a diffable (higher-is-better gated) metric.
  for (auto& [tenant, row] : serve_rows) {
    row.slo_pct = row.ops > 0 ? 100.0 * static_cast<double>(row.slo_ok) /
                                    static_cast<double>(row.ops)
                              : 0.0;
    row.goodput_rps =
        pt.serve_window_ps > 0
            ? static_cast<double>(row.slo_ok) /
                  (static_cast<double>(pt.serve_window_ps) / 1e12)
            : 0.0;
    auto it = pt.metrics.find("histograms.lat.serve.t" +
                              std::to_string(tenant) + ".p999");
    if (it != pt.metrics.end()) row.p999_ns = it->second;
    pt.metrics["serve.t" + std::to_string(tenant) + ".goodput_rps"] =
        row.goodput_rps;
    pt.serve.push_back(row);
  }
  return pt;
}

}  // namespace

Report parse_report(const std::string& json_text, std::string source) {
  Report rep;
  rep.source = std::move(source);
  json::Value doc = json::parse(json_text);
  if (doc.is_object()) {
    rep.points.push_back(point_from_stats(doc));
    return rep;
  }
  if (doc.is_array()) {
    for (const json::Value& entry : *doc.array) {
      if (!entry.is_object() || !entry.has("id")) {
        throw std::runtime_error(
            "not a sweep results array (points need \"id\")");
      }
      if (entry.has("ok") && entry.at("ok").kind == json::Value::Kind::kBool &&
          !entry.at("ok").boolean) {
        PointReport pt;
        pt.id = entry.at("id").string;
        pt.ok = false;
        pt.error = entry.has("error") ? entry.at("error").string : "failed";
        rep.points.push_back(std::move(pt));
        continue;
      }
      if (!entry.has("stats")) {
        throw std::runtime_error("sweep point '" + entry.at("id").string +
                                 "' has no \"stats\" object");
      }
      PointReport pt = point_from_stats(entry.at("stats"));
      pt.id = entry.at("id").string;
      pt.total_time_ps =
          static_cast<std::int64_t>(json::num_or(entry, "total_time_ps", -1.0));
      if (pt.total_time_ps >= 0) {
        pt.metrics["total_time_ps"] = static_cast<double>(pt.total_time_ps);
      }
      rep.points.push_back(std::move(pt));
    }
    return rep;
  }
  throw std::runtime_error("expected a stats object or sweep results array");
}

std::string render_report(const Report& rep, const ReportOptions& opt) {
  std::string out;
  for (const PointReport& pt : rep.points) {
    std::string title = pt.id.empty() ? rep.source : pt.id;
    if (!pt.ok) {
      out += "== " + title + " == FAILED: " + pt.error + "\n";
      continue;
    }
    out += "== " + title + " (window " +
           fmt("%.3f", static_cast<double>(pt.window_ps) / 1e9) + " ms)";
    if (pt.total_time_ps >= 0) {
      out += ", total " +
             fmt("%.3f", static_cast<double>(pt.total_time_ps) / 1e9) + " ms";
    }
    out += " ==\n";
    out += "  resource                busy%        ops       q.max  "
           "q.mean   q.p99\n";
    int shown = 0;
    for (const ResourceRow& r : pt.resources) {
      if (opt.top > 0 && shown >= opt.top) break;
      ++shown;
      out += "  " + r.name + std::string(r.name.size() < 22
                                             ? 22 - r.name.size()
                                             : 1, ' ');
      out += fmt("%7.1f", r.busy_pct(pt.window_ps));
      out += fmt("%11.0f", static_cast<double>(r.ops));
      if (r.has_queue) {
        out += fmt("%12.0f", static_cast<double>(r.q_max));
        out += fmt("%8.2f", r.q_mean(pt.window_ps));
        out += fmt("%8.1f", r.q_p99);
      } else {
        out += "           -       -       -";
      }
      if (r.busy_pct(pt.window_ps) > opt.saturation_pct) out += "  SATURATED";
      out += "\n";
    }
    if (pt.resources.empty()) {
      out += "  (no util.* counters — stats predate the utilization "
             "ledger)\n";
    }
    if (opt.top > 0 &&
        static_cast<int>(pt.resources.size()) > opt.top) {
      out += "  ... " +
             fmt_u64(pt.resources.size() - static_cast<std::size_t>(opt.top)) +
             " more resources (--top)\n";
    }
    if (!pt.latency.empty()) {
      out += "  latency stages (us)       count      mean       p50       "
             "p90       p99      p999       max\n";
      for (const LatencyRow& l : pt.latency) {
        out += "  " + l.stage +
               std::string(l.stage.size() < 24 ? 24 - l.stage.size() : 1, ' ');
        out += fmt("%9.0f", static_cast<double>(l.count));
        out += fmt("%10.3f", l.mean_ns / 1000.0);
        out += fmt("%10.3f", l.p50_ns / 1000.0);
        out += fmt("%10.3f", l.p90_ns / 1000.0);
        out += fmt("%10.3f", l.p99_ns / 1000.0);
        out += fmt("%10.3f", l.p999_ns / 1000.0);
        out += fmt("%10.3f", l.max_ns / 1000.0);
        out += "\n";
      }
    }
    if (!pt.serve.empty()) {
      out += "  serving tenants (window " +
             fmt("%.3f", static_cast<double>(pt.serve_window_ps) / 1e9) +
             " ms)\n";
      out += "  tenant          ops     slo_ok    slo%   goodput/s   "
             "p999_us\n";
      for (const ServeRow& s : pt.serve) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "  t%-6d %10llu %10llu  %5.1f%% %11.0f %9.1f\n",
                      s.tenant, static_cast<unsigned long long>(s.ops),
                      static_cast<unsigned long long>(s.slo_ok), s.slo_pct,
                      s.goodput_rps, s.p999_ns / 1000.0);
        out += line;
      }
    }
  }
  return out;
}

namespace {

/// Gated metrics: the ones a perf regression must not move past the
/// threshold — end-to-end time and the latency-stage quantiles/means.
bool is_gated(const std::string& key) {
  if (key == "total_time_ps") return true;
  if (!starts_with(key, "histograms.lat.")) return false;
  for (const char* s : {".mean", ".p50", ".p90", ".p99", ".p999"}) {
    std::string suf = s;
    if (key.size() > suf.size() &&
        key.compare(key.size() - suf.size(), suf.size(), suf) == 0) {
      return true;
    }
  }
  return false;
}

/// Gated in the opposite direction: these must not *drop* past the
/// threshold (serving goodput under an SLO).
bool is_gated_higher(const std::string& key) {
  static const char* suf = ".goodput_rps";
  std::string s = suf;
  return starts_with(key, "serve.t") && key.size() > s.size() &&
         key.compare(key.size() - s.size(), s.size(), s) == 0;
}

}  // namespace

Diff diff_reports(const Report& cur, const Report& base,
                  const ReportOptions& opt) {
  Diff d;
  // Match points by id, falling back to position for id-less (single
  // stats file) reports.
  for (std::size_t i = 0; i < cur.points.size(); ++i) {
    const PointReport& c = cur.points[i];
    const PointReport* b = nullptr;
    if (c.id.empty()) {
      if (i < base.points.size()) b = &base.points[i];
    } else {
      for (const PointReport& cand : base.points) {
        if (cand.id == c.id) {
          b = &cand;
          break;
        }
      }
    }
    std::string title = c.id.empty() ? cur.source : c.id;
    if (b == nullptr) {
      d.text += "== " + title + " == not in baseline, skipped\n";
      continue;
    }
    d.text += "== " + title + " vs baseline ==\n";
    int changed = 0;
    for (const auto& [key, cv] : c.metrics) {
      auto it = b->metrics.find(key);
      if (it == b->metrics.end()) continue;
      double bv = it->second;
      if (cv == bv) continue;
      ++changed;
      double pct = bv != 0.0 ? 100.0 * (cv - bv) / bv : 0.0;
      bool gated = is_gated(key);
      bool regressed = gated && bv > 0.0 && pct > opt.threshold_pct;
      if (is_gated_higher(key) && bv > 0.0 && pct < -opt.threshold_pct) {
        regressed = true;
      }
      if (regressed) ++d.regressions;
      d.text += "  " + key +
                std::string(key.size() < 40 ? 40 - key.size() : 1, ' ') +
                fmt("%14.3f", bv) + " ->" + fmt("%14.3f", cv) +
                fmt(" %+9.2f%%", pct);
      if (regressed) {
        d.text += "  REGRESSION (>" + fmt("%.1f", opt.threshold_pct) + "%)";
      }
      d.text += "\n";
    }
    // One-sided lat.* metrics are printed explicitly instead of being
    // silently folded into the summary count: a latency stage that exists
    // on only one side of a diff is exactly the kind of apples-to-oranges
    // comparison that must fail loudly. A *gated* lat.* metric the
    // candidate lost counts as a regression; metrics that are new in the
    // candidate (e.g. a newly exported quantile) do not.
    int only_cur = 0, only_base = 0;
    for (const auto& [key, cv] : c.metrics) {
      if (b->metrics.find(key) != b->metrics.end()) continue;
      if (starts_with(key, "histograms.lat.")) {
        d.text += "  " + key +
                  std::string(key.size() < 40 ? 40 - key.size() : 1, ' ') +
                  "(metric absent) ->" + fmt("%14.3f", cv) + "\n";
      } else {
        ++only_cur;
      }
    }
    for (const auto& [key, bv] : b->metrics) {
      if (c.metrics.find(key) != c.metrics.end()) continue;
      if (starts_with(key, "histograms.lat.")) {
        d.text += "  " + key +
                  std::string(key.size() < 40 ? 40 - key.size() : 1, ' ') +
                  fmt("%14.3f", bv) + " -> (metric absent)";
        if (is_gated(key)) {
          ++d.regressions;
          d.text += "  REGRESSION (lost metric)";
        }
        d.text += "\n";
      } else {
        ++only_base;
      }
    }
    if (changed == 0) d.text += "  no metric deltas\n";
    if (only_cur > 0 || only_base > 0) {
      d.text += "  " + fmt_u64(static_cast<std::uint64_t>(only_cur)) +
                " metrics only in current, " +
                fmt_u64(static_cast<std::uint64_t>(only_base)) +
                " only in baseline\n";
    }
  }
  d.text += d.regressions == 0
                ? "OK: no gated metric regressed\n"
                : "FAIL: " + fmt_u64(static_cast<std::uint64_t>(d.regressions)) +
                      " gated metric(s) regressed past " +
                      fmt("%.1f", opt.threshold_pct) + "%\n";
  return d;
}

}  // namespace gputn::obs
