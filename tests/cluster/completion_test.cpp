// cluster::RunCompletion: the one way a workload run finishes. The finish
// tick is the last tracked process's finish at every shard count, and a
// process that never finishes trips the watchdog with the workload's name.
#include "cluster/completion.hpp"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "sim/sync.hpp"

namespace gputn::cluster {
namespace {

SystemConfig small_config() {
  SystemConfig c = SystemConfig::table2();
  c.dram_bytes = 4u << 20;
  return c;
}

sim::Task<> sleep_for(sim::Simulator& sim, sim::Tick t) {
  co_await sim.delay(t);
}

TEST(RunCompletion, FinishIsTheLastProcessAtEveryShardCount) {
  for (int shards : {1, 2, 4}) {
    sim::ShardEngine engine(shards);
    Cluster cluster(engine, small_config(), 4);
    RunCompletion done(cluster);
    for (int n = 0; n < 4; ++n) {
      done.spawn(n, sleep_for(cluster.node_sim(n), sim::us(1 + 2 * n)),
                 "sleeper");
    }
    done.start_monitors();
    EXPECT_EQ(done.finish("test"), sim::us(7)) << shards << " shards";
  }
}

TEST(RunCompletion, UnfinishedProcessTripsTheWatchdog) {
  sim::ShardEngine engine(1);
  sim::Event never(engine.shard(0));  // outlives the cluster's reap
  Cluster cluster(engine, small_config(), 2);
  RunCompletion done(cluster);
  done.spawn(0, sleep_for(cluster.node_sim(0), sim::us(1)), "finishes");
  done.spawn(
      1, [](sim::Event& ev) -> sim::Task<> { co_await ev.wait(); }(never),
      "stuck");
  done.start_monitors();
  try {
    done.finish("test");
    FAIL() << "a stuck process must trip the watchdog";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("test: deadlocked", 0), 0u)
        << e.what();
  }
}

}  // namespace
}  // namespace gputn::cluster
