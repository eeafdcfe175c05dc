// Experiment plans: the unit of work for the parallel experiment engine.
//
// Reproducing the paper's evaluation surface (Figures 8-11, Table 3, the
// ablations) means executing dozens of *independent* (config, workload,
// seed) simulation runs. A Plan enumerates those runs as an ordered list of
// RunPoints — each one a closure that constructs its own Simulator +
// Cluster, executes, and returns the sliced workloads::ResultBase — and the
// exp::Runner shards them across a thread pool (runner.hpp).
//
// The plan's *order* is the determinism anchor: results are always
// reported, merged, and serialized in plan order, never completion order,
// so every derived artifact is bit-identical for any --jobs value.
//
// Points can be added directly (add) from typed workload configs, or
// generically (add_workload) through workloads::Registry, which makes every
// registered workload sweepable with string parameters for free — the same
// validation path the CLI uses.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "workloads/options.hpp"
#include "workloads/registry.hpp"

namespace gputn::exp {

/// One independent simulation run. `run` must be self-contained: it builds
/// every piece of simulated hardware it needs and shares no mutable state
/// with any other point (see the ownership rule on sim::Simulator).
struct RunPoint {
  std::string id;  ///< stable human-readable key, e.g. "jacobi/n256/GPU-TN"
  std::function<workloads::ResultBase()> run;
};

/// An ordered list of run points. Build once, run with exp::Runner.
class Plan {
 public:
  /// Append a point; returns its index (== position in the results vector).
  std::size_t add(std::string id,
                  std::function<workloads::ResultBase()> run) {
    points_.push_back(RunPoint{std::move(id), std::move(run)});
    return points_.size() - 1;
  }

  /// Append a registry-dispatched point: `workload` is looked up in `reg`
  /// and `params` checked against its declaration immediately (throwing
  /// std::invalid_argument on an unknown name or parameter, so a bad plan
  /// fails at build time, not mid-sweep) and executed with
  /// opts.quiet forced on — parallel workers must not interleave stdout.
  std::size_t add_workload(const workloads::Registry& reg, std::string id,
                           const std::string& workload,
                           workloads::RunOptions opts,
                           workloads::WorkloadParams params,
                           cluster::SystemConfig sys);

  /// Move every point of `other` onto the end of this plan (for composing
  /// sweep helpers into one run, e.g. exp::mini_sweep_plan).
  void append(Plan other) {
    for (RunPoint& p : other.points_) points_.push_back(std::move(p));
  }

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const RunPoint& operator[](std::size_t i) const { return points_[i]; }
  const std::vector<RunPoint>& points() const { return points_; }

 private:
  std::vector<RunPoint> points_;
};

}  // namespace gputn::exp
