#include "exp/plan.hpp"

#include <stdexcept>
#include <utility>

namespace gputn::exp {

std::size_t Plan::add_workload(const workloads::Registry& reg, std::string id,
                               const std::string& workload,
                               workloads::RunOptions opts,
                               workloads::WorkloadParams params,
                               cluster::SystemConfig sys) {
  const workloads::WorkloadEntry* entry = reg.find(workload);
  if (entry == nullptr) {
    throw std::invalid_argument("exp::Plan: unknown workload '" + workload +
                                "'");
  }
  entry->validate(params);  // a misspelled parameter fails at build time
  opts.quiet = true;
  // The entry outlives the plan (registries are built once and never
  // shrink); capture it by pointer into the registry's storage.
  return add(std::move(id),
             [entry, opts, params = std::move(params),
              sys = std::move(sys)]() -> workloads::ResultBase {
               return entry->run(opts, params, sys);
             });
}

}  // namespace gputn::exp
