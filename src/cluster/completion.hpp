// One way to finish a workload run on a Cluster: per-shard completion
// monitors plus the simulated-time deadlock watchdog.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/units.hpp"

namespace gputn::cluster {

class Cluster;

/// Simulated-time budget of every workload run. A protocol bug that
/// livelocks (e.g. a poll loop whose flag never arrives) would otherwise
/// spin the event queue forever; past this budget the run is declared
/// deadlocked.
inline constexpr sim::Tick kRunBudget = sim::sec(10);

/// Tracks the processes whose completion ends a run, and finishes the run.
///
/// spawn() each such process, start_monitors(), then finish(). Anything the
/// run must drive between the two (the serving workload's setup phase)
/// goes in between. One monitor per shard joins that shard's processes and
/// records the tick the last of them finished; the run's finish is their
/// max, which equals the tick a single sequential join records (the
/// globally last process's finish), so it is the same at every shard
/// count.
class RunCompletion {
 public:
  explicit RunCompletion(Cluster& cluster);
  RunCompletion(const RunCompletion&) = delete;
  RunCompletion& operator=(const RunCompletion&) = delete;

  /// Spawn `task` on node `node`'s simulator as one of the run's processes.
  void spawn(int node, sim::Task<> task, std::string name);

  /// Spawn the per-shard monitors. Call once, after the last spawn().
  void start_monitors();

  /// Run the engine to kRunBudget, replay the cluster's flight spools, and
  /// return the tick the last process finished. Throws std::runtime_error
  /// "<workload>: deadlocked ..." when a process never finished.
  sim::Tick finish(std::string_view workload);

 private:
  Cluster& cluster_;
  std::vector<std::vector<sim::ProcessHandle>> by_shard_;
  std::vector<sim::Tick> shard_done_;
};

}  // namespace gputn::cluster
