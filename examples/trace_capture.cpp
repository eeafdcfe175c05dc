// Example: capture a Chrome-tracing timeline of a GPU-TN exchange.
//
// Runs the quickstart flow with tracing enabled and writes
// gputn_trace.json — open it at chrome://tracing or https://ui.perfetto.dev
// to see the kernel phases, the NIC command pipeline, and the trigger
// match/fire events on separate lanes per node.
//
// Usage: trace_capture [output.json]
#include <cstdio>

#include "cluster/cluster.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"

using namespace gputn;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "gputn_trace.json";

  sim::ShardEngine engine(1);
  sim::Simulator& sim = engine.shard(0);
  cluster::SystemConfig config = cluster::SystemConfig::table2();
  config.dram_bytes = 8u << 20;
  cluster::Cluster cluster(engine, config, 2);
  sim::TraceRecorder trace;
  cluster.enable_tracing(trace);

  auto& a = cluster.node(0);
  auto& b = cluster.node(1);
  constexpr std::uint64_t kBytes = 8192;
  constexpr int kWgs = 8;
  mem::Addr src = a.memory().alloc(kBytes);
  mem::Addr dst = b.memory().alloc(kBytes);
  mem::Addr flag = b.rt().alloc_flag();

  sim.spawn(
      [](cluster::Node& n, mem::Addr s, mem::Addr d, mem::Addr f)
          -> sim::Task<> {
        nic::PutDesc put;
        put.target = 1;
        put.local_addr = s;
        put.bytes = kBytes;
        put.remote_addr = d;
        put.remote_flag = f;
        co_await n.rt().trig_put(/*tag=*/1, /*threshold=*/kWgs, put);
        mem::Addr trig = n.rt().trigger_addr();
        gpu::KernelDesc k;
        k.name = "producer";
        k.num_wgs = kWgs;
        k.fn = [trig, s](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          ctx.store_data<std::uint64_t>(s + ctx.wg_id() * 8, 0xABC0 + ctx.wg_id());
          co_await ctx.compute_mem(kBytes / ctx.num_wgs());
          co_await ctx.barrier();
          co_await ctx.fence_system();
          co_await ctx.store_system(trig, 1);
        };
        co_await n.rt().launch_sync(std::move(k));
      }(a, src, dst, flag),
      "host0");
  sim.spawn(
      [](cluster::Node& n, mem::Addr f) -> sim::Task<> {
        co_await n.cpu().wait_value_ge(f, 1);
      }(b, flag),
      "host1");
  sim.run();

  if (!trace.write_json(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::printf("captured %zu events over %.2f us -> %s\n", trace.event_count(),
              sim::to_us(sim.now()), path);
  std::printf("open chrome://tracing or https://ui.perfetto.dev and load it\n");
  return 0;
}
