// End-to-end checks of the observability pipeline (flow tracing, latency
// histograms, structured export) against the acceptance criteria:
//   - a triggered put produces a flow that starts on the initiator's GPU
//     lane and terminates on the destination's NIC lane,
//   - lat.* histograms are always on and exported with quantiles,
//   - enabling tracing changes *nothing* about the simulation (zero
//     counter drift, identical stats JSON).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cluster/cluster.hpp"
#include "sim/json.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"
#include "workloads/jacobi.hpp"

namespace gputn {
namespace {

/// One GPU-triggered put between two nodes, traced.
sim::TraceRecorder traced_put(sim::StatRegistry* stats_out = nullptr) {
  sim::ShardEngine engine(1);
  sim::Simulator& sim = engine.shard(0);
  cluster::SystemConfig cfg = cluster::SystemConfig::table2();
  cfg.dram_bytes = 4u << 20;
  cluster::Cluster cluster(engine, cfg, 2);
  sim::TraceRecorder trace;
  cluster.enable_tracing(trace);

  auto& a = cluster.node(0);
  auto& b = cluster.node(1);
  mem::Addr src = a.memory().alloc(64);
  mem::Addr dst = b.memory().alloc(64);
  mem::Addr flag = b.rt().alloc_flag();
  sim.spawn(
      [](cluster::Node& n, mem::Addr s, mem::Addr d,
         mem::Addr f) -> sim::Task<> {
        nic::PutDesc put;
        put.target = 1;
        put.local_addr = s;
        put.bytes = 64;
        put.remote_addr = d;
        put.remote_flag = f;
        co_await n.rt().trig_put(1, 1, put);
        mem::Addr trig = n.rt().trigger_addr();
        gpu::KernelDesc k;
        k.num_wgs = 1;
        k.fn = [trig](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
          co_await ctx.fence_system();
          co_await ctx.store_system(trig, 1);
        };
        co_await n.rt().launch_sync(std::move(k));
      }(a, src, dst, flag),
      "host");
  sim.run();
  if (stats_out != nullptr) cluster.export_net_stats(*stats_out);
  return trace;
}

TEST(Observability, FlowLinksGpuLaneToRemoteNicLane) {
  sim::TraceRecorder trace = traced_put();
  auto parsed = sim::json::try_parse(trace.to_json());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_array());

  // Lane name -> tid, from the thread_name metadata records.
  std::map<std::string, double> lane_tid;
  for (const auto& e : *parsed->array) {
    if (e.at("ph").string == "M" && e.at("name").string == "thread_name") {
      lane_tid[e.at("args").at("name").string] = e.at("tid").number;
    }
  }
  ASSERT_TRUE(lane_tid.count("node0.gpu"));
  ASSERT_TRUE(lane_tid.count("node1.nic"));

  // The put's flow must begin on the initiator's GPU lane (the trigger
  // store) and end on the destination's NIC lane (the payload deposit),
  // sharing one flow id so the viewer draws the causality arrow.
  double start_id = -1, end_id = -2;
  bool start_in_slice = false, end_in_slice = false;
  for (const auto& e : *parsed->array) {
    std::string ph = e.at("ph").string;
    if (ph == "s" && e.at("tid").number == lane_tid["node0.gpu"]) {
      start_id = e.at("id").number;
      // A flow event only renders when a slice encloses it on its lane.
      for (const auto& s : *parsed->array) {
        if (s.at("ph").string == "X" &&
            s.at("tid").number == e.at("tid").number &&
            s.at("ts").number <= e.at("ts").number &&
            s.at("ts").number + s.at("dur").number >= e.at("ts").number) {
          start_in_slice = true;
        }
      }
    }
    if (ph == "f" && e.at("tid").number == lane_tid["node1.nic"]) {
      end_id = e.at("id").number;
      for (const auto& s : *parsed->array) {
        if (s.at("ph").string == "X" &&
            s.at("tid").number == e.at("tid").number &&
            s.at("ts").number <= e.at("ts").number &&
            s.at("ts").number + s.at("dur").number >= e.at("ts").number) {
          end_in_slice = true;
        }
      }
    }
  }
  EXPECT_EQ(start_id, end_id);
  EXPECT_GE(start_id, 1.0);
  EXPECT_TRUE(start_in_slice);
  EXPECT_TRUE(end_in_slice);
}

TEST(Observability, LatencyHistogramsAlwaysOn) {
  // No tracing enabled: the lat.* decomposition must still be recorded.
  sim::StatRegistry stats;
  {
    sim::TraceRecorder trace = traced_put(&stats);
  }
  for (const char* name : {"lat.trigger_to_fire", "lat.tx_queue", "lat.wire",
                           "lat.rx_to_deposit", "lat.end_to_end"}) {
    const sim::Histogram* h = stats.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GE(h->count(), 1u) << name;
    EXPECT_LE(h->quantile(0.5), h->quantile(0.99)) << name;
    EXPECT_LE(h->quantile(0.99), h->max()) << name;
  }
  // The stage decomposition must sum to no more than end-to-end (stages
  // are disjoint spans of one message's life).
  double e2e = stats.find_histogram("lat.end_to_end")->max();
  EXPECT_GT(e2e, 0.0);
  EXPECT_LE(stats.find_histogram("lat.wire")->max(), e2e);
}

workloads::JacobiResult small_jacobi(sim::TraceRecorder* trace) {
  workloads::JacobiConfig cfg;
  cfg.strategy = workloads::Strategy::kGpuTn;
  cfg.n = 16;
  cfg.iterations = 2;
  cfg.trace = trace;
  return workloads::run_jacobi(cfg);
}

TEST(Observability, TracingCausesZeroCounterDrift) {
  workloads::JacobiResult plain = small_jacobi(nullptr);
  sim::TraceRecorder trace;
  workloads::JacobiResult traced = small_jacobi(&trace);

  EXPECT_GT(trace.event_count(), 0u);
  EXPECT_EQ(plain.total_time, traced.total_time);
  // Identical serialized stats: every counter, accumulator and histogram
  // bucket matches bit-for-bit between the traced and untraced runs.
  EXPECT_EQ(sim::stats_json(plain.net_stats),
            sim::stats_json(traced.net_stats));
}

TEST(Observability, StatsJsonDeterministicAcrossRuns) {
  sim::TraceRecorder t1, t2;
  workloads::JacobiResult a = small_jacobi(&t1);
  workloads::JacobiResult b = small_jacobi(&t2);
  EXPECT_EQ(sim::stats_json(a.net_stats), sim::stats_json(b.net_stats));
  EXPECT_EQ(t1.to_json(), t2.to_json());
}

TEST(Observability, WorkloadExportsLatencyHistogramsAsJson) {
  workloads::JacobiResult res = small_jacobi(nullptr);
  auto parsed = sim::json::try_parse(sim::stats_json(res.net_stats));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->has("histograms"));
  const auto& histos = parsed->at("histograms");
  for (const char* name : {"lat.wire", "lat.end_to_end"}) {
    ASSERT_TRUE(histos.has(name)) << name;
    const auto& h = histos.at(name);
    EXPECT_GT(h.at("count").number, 0.0) << name;
    EXPECT_LE(h.at("p50").number, h.at("p90").number) << name;
    EXPECT_LE(h.at("p90").number, h.at("p99").number) << name;
    EXPECT_LE(h.at("p99").number, h.at("max").number) << name;
  }
}

}  // namespace
}  // namespace gputn
