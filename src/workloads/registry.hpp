// Workload registry: one table mapping workload names to runners so the
// CLI (and any future driver) dispatches generically instead of hard-coding
// a subcommand per workload.
//
// A runner takes the shared RunOptions (strategy / node count / trace
// recorder), the workload-specific string parameters, and the system
// config; it validates the parameters (throwing std::invalid_argument on
// bad input so the driver can report a usage error instead of running with
// garbage), executes the workload, prints its report, and returns the
// sliced ResultBase for the driver's exit-code / stats-export plumbing.
//
// Each entry declares every parameter its runner reads. The declaration is
// the one source for the CLI's parser and usage text, and WorkloadEntry::run
// rejects any parameter it does not list, whoever the caller is.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "workloads/options.hpp"

namespace gputn::workloads {

/// Workload-specific CLI parameters as validated string key/values.
/// Unlike raw atol/atof, the typed getters reject non-numeric text and
/// enforce range bounds at parse time (throwing std::invalid_argument),
/// so e.g. `--iterations banana` or `--chunks 0` fail before the
/// simulation starts.
class WorkloadParams {
 public:
  void set(std::string key, std::string value) {
    values_[std::move(key)] = std::move(value);
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// Boolean flag: present (with or without a value) means true.
  bool flag(const std::string& key) const { return has(key); }

  std::string get(const std::string& key, const std::string& dflt) const;
  const std::map<std::string, std::string>& values() const { return values_; }

  /// Integer parameter with inclusive bounds; throws std::invalid_argument
  /// when the value is not an integer or out of [min, max].
  long get_int(const std::string& key, long dflt, long min, long max) const;

  /// Floating-point parameter with inclusive bounds; same validation.
  double get_double(const std::string& key, double dflt, double min,
                    double max) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Runs one workload and returns the common slice of its result.
using WorkloadRunner = std::function<ResultBase(
    const RunOptions&, const WorkloadParams&, const cluster::SystemConfig&)>;

/// One parameter a runner reads, given on the command line as `--name`.
struct ParamSpec {
  std::string name;   ///< e.g. "iterations"
  std::string value;  ///< usage placeholder, e.g. "K"; empty = boolean flag
  std::string help;   ///< one line for the usage text
};

struct WorkloadEntry {
  std::string name;          ///< CLI subcommand, e.g. "jacobi"
  std::string description;   ///< one-liner for the usage text
  std::vector<ParamSpec> params;  ///< every parameter `runner` reads
  WorkloadRunner runner;

  /// The declaration of `--key`, or nullptr when this workload has none.
  const ParamSpec* param(const std::string& key) const;
  /// Throws std::invalid_argument naming the first parameter in `p` that
  /// this entry does not declare.
  void validate(const WorkloadParams& p) const;
  /// validate(p), then run the workload.
  ResultBase run(const RunOptions& opts, const WorkloadParams& p,
                 const cluster::SystemConfig& sys) const;
};

/// Name -> runner table. Entries keep registration order for usage text.
class Registry {
 public:
  void add(WorkloadEntry entry);
  const WorkloadEntry* find(const std::string& name) const;
  const std::vector<WorkloadEntry>& entries() const { return entries_; }

  /// The process-wide registry the CLI uses.
  static Registry& instance();

 private:
  std::vector<WorkloadEntry> entries_;
};

/// Register microbench/jacobi/allreduce/broadcast into `reg`. Explicit
/// call (no static initializers) so tests control what is registered.
void register_builtin_workloads(Registry& reg);

}  // namespace gputn::workloads
