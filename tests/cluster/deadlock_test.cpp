// A flag wait whose flag nobody writes: the run has nothing left to
// simulate, so RunCompletion reports the deadlock at once instead of
// polling to the 10 s budget (~1.7e8 poll events when every poll ran).
// Registered with a short ctest timeout: a return to polling fails it.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/completion.hpp"
#include "gpu/gpu.hpp"

namespace gputn::cluster {
namespace {

TEST(Deadlock, UnwrittenFlagReportsDeadlockAtOnce) {
  SystemConfig cfg = SystemConfig::table2();
  cfg.dram_bytes = 4u << 20;
  sim::ShardEngine engine(1);
  Cluster cluster(engine, cfg, 2);
  mem::Addr host_flag = cluster.node(0).rt().alloc_flag();
  mem::Addr gpu_flag = cluster.node(1).rt().alloc_flag();
  RunCompletion done(cluster);
  done.spawn(
      0,
      [](Node& n, mem::Addr f) -> sim::Task<> {
        co_await n.cpu().wait_value_ge(f, 1);
      }(cluster.node(0), host_flag),
      "host-waiter");
  done.spawn(
      1,
      [](Node& n, mem::Addr f) -> sim::Task<> {
        gpu::KernelDesc k;
        k.fn = [f](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          co_await ctx.wait_value_ge(f, 1);
        };
        auto rec = co_await n.rt().launch(std::move(k));
        co_await rec->done.wait();
      }(cluster.node(1), gpu_flag),
      "kernel-waiter");
  done.start_monitors();
  try {
    done.finish("test");
    FAIL() << "an unwritten flag must trip the watchdog";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("test: deadlocked", 0), 0u)
        << e.what();
  }
  EXPECT_LT(engine.executed_events(), 1000u)
      << "the waits must park, not poll to the budget";
}

}  // namespace
}  // namespace gputn::cluster
