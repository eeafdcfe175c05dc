#include "cluster/completion.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cluster/cluster.hpp"
#include "sim/sync.hpp"

namespace gputn::cluster {

RunCompletion::RunCompletion(Cluster& cluster)
    : cluster_(cluster),
      by_shard_(static_cast<std::size_t>(cluster.engine().shards())),
      shard_done_(by_shard_.size(), -1) {}

void RunCompletion::spawn(int node, sim::Task<> task, std::string name) {
  by_shard_[static_cast<std::size_t>(cluster_.node_shard(node))].push_back(
      cluster_.node_sim(node).spawn(std::move(task), std::move(name)));
}

void RunCompletion::start_monitors() {
  sim::ShardEngine& engine = cluster_.engine();
  for (std::size_t s = 0; s < by_shard_.size(); ++s) {
    if (by_shard_[s].empty()) {
      shard_done_[s] = 0;
      continue;
    }
    sim::Simulator& shard = engine.shard(static_cast<int>(s));
    shard.spawn(
        [](sim::Simulator& sh, std::vector<sim::ProcessHandle> hs,
           sim::Tick& out) -> sim::Task<> {
          co_await sim::join_all(std::move(hs));
          out = sh.now();
        }(shard, std::move(by_shard_[s]), shard_done_[s]),
        "monitor");
  }
}

sim::Tick RunCompletion::finish(std::string_view workload) {
  cluster_.engine().run_until(kRunBudget);
  sim::Tick finished_at = -1;
  for (sim::Tick t : shard_done_) {
    if (t < 0) {
      throw std::runtime_error(
          std::string(workload) +
          ": deadlocked (a process never finished within the " +
          std::to_string(kRunBudget / sim::sec(1)) +
          " s simulation budget)");
    }
    finished_at = std::max(finished_at, t);
  }
  cluster_.flush_flight();
  return finished_at;
}

}  // namespace gputn::cluster
