#include "workloads/jacobi.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/completion.hpp"
#include "rt/collectives.hpp"
#include "sim/sync.hpp"

namespace gputn::workloads {

namespace {

// 2x2 torus decomposition. Ghost sides from the receiver's perspective.
enum Side { kNorth = 0, kSouth = 1, kWest = 2, kEast = 3 };
constexpr int kNodes = 4;
constexpr int kRows = 2, kCols = 2;

int node_id(int r, int c) {
  return ((r % kRows + kRows) % kRows) * kCols + ((c % kCols + kCols) % kCols);
}

/// Neighbor that fills my ghost side `s`.
int neighbor(int id, int s) {
  int r = id / kCols, c = id % kCols;
  switch (s) {
    case kNorth: return node_id(r - 1, c);
    case kSouth: return node_id(r + 1, c);
    case kWest: return node_id(r, c - 1);
    case kEast: return node_id(r, c + 1);
  }
  throw std::logic_error("bad side");
}

/// When I send my edge adjacent to my ghost side `s`, it becomes the
/// receiver's ghost on the opposite side.
int opposite(int s) {
  switch (s) {
    case kNorth: return kSouth;
    case kSouth: return kNorth;
    case kWest: return kEast;
    case kEast: return kWest;
  }
  throw std::logic_error("bad side");
}

std::uint64_t halo_tag(int iter, int side) {
  return static_cast<std::uint64_t>(iter) * 4 + static_cast<std::uint64_t>(side);
}

/// Per-node simulated state: an (n+2)^2 ghost-padded grid pair plus packed
/// edge (tx) and halo landing (rx) buffers, all in node memory.
struct NodeData {
  int n = 0;
  int id = 0;
  mem::Memory* mem = nullptr;
  mem::Addr grid[2] = {0, 0};  // current / next, (n+2)^2 doubles
  int cur = 0;
  mem::Addr tx[2][4] = {};       // packed outgoing edges (ping-pong), n doubles
  mem::Addr rx[2][4] = {};       // halo landing buffers (ping-pong)
  mem::Addr flag[4] = {};        // arrival flags, value = iter + 1
  mem::Addr local_flag[4] = {};  // GPU-TN local completion, value = iter + 1

  std::size_t row_bytes() const { return static_cast<std::size_t>(n) * 8; }
  std::size_t pitch() const { return static_cast<std::size_t>(n) + 2; }

  // One checked view per region. Grids and edge buffers hold no flag
  // word, so mutable views over them are safe; reads take const views.
  std::span<double> grid_view(int gridsel) {
    return mem->typed<double>(grid[gridsel], pitch() * pitch());
  }
  std::span<const double> grid_cview(int gridsel) const {
    return std::as_const(*mem).typed<double>(grid[gridsel], pitch() * pitch());
  }
  std::span<double> edge_view(mem::Addr edge) {
    return mem->typed<double>(edge, static_cast<std::size_t>(n));
  }
  std::span<const double> edge_cview(mem::Addr edge) const {
    return std::as_const(*mem).typed<double>(edge, static_cast<std::size_t>(n));
  }

  void alloc(mem::Memory& m, int n_, int id_) {
    n = n_;
    id = id_;
    mem = &m;
    std::size_t cells = pitch() * pitch();
    grid[0] = m.alloc(cells * 8);
    grid[1] = m.alloc(cells * 8);
    for (int p = 0; p < 2; ++p) {
      for (int s = 0; s < 4; ++s) {
        tx[p][s] = m.alloc(row_bytes());
        rx[p][s] = m.alloc(row_bytes());
      }
    }
    for (int s = 0; s < 4; ++s) {
      flag[s] = m.alloc(8);
      m.store<std::uint64_t>(flag[s], 0);
      local_flag[s] = m.alloc(8);
      m.store<std::uint64_t>(local_flag[s], 0);
    }
  }

  // Grid index of ghost-padded local coordinates i, j in [0, n+2).
  std::size_t at(int i, int j) const {
    return static_cast<std::size_t>(i) * pitch() + static_cast<std::size_t>(j);
  }

  void init_values() {
    int r0 = (id / kCols) * n, c0 = (id % kCols) * n;
    auto g0 = grid_view(0);
    auto g1 = grid_view(1);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        g0[at(i + 1, j + 1)] = jacobi_initial_value(r0 + i, c0 + j);
        g1[at(i + 1, j + 1)] = 0.0;
      }
    }
  }

  /// Pack the four interior edges of `gridsel` into tx[parity].
  void pack_edges(int gridsel, int parity) {
    auto g = grid_cview(gridsel);
    auto north = edge_view(tx[parity][kNorth]);
    auto south = edge_view(tx[parity][kSouth]);
    auto west = edge_view(tx[parity][kWest]);
    auto east = edge_view(tx[parity][kEast]);
    for (int j = 0; j < n; ++j) {
      north[j] = g[at(1, j + 1)];
      south[j] = g[at(n, j + 1)];
    }
    for (int i = 0; i < n; ++i) {
      west[i] = g[at(i + 1, 1)];
      east[i] = g[at(i + 1, n)];
    }
  }

  /// Unpack rx[parity] halos into the ghost layer of `gridsel`.
  void unpack_halos(int gridsel, int parity) {
    auto g = grid_view(gridsel);
    auto north = edge_cview(rx[parity][kNorth]);
    auto south = edge_cview(rx[parity][kSouth]);
    auto west = edge_cview(rx[parity][kWest]);
    auto east = edge_cview(rx[parity][kEast]);
    for (int j = 0; j < n; ++j) {
      g[at(0, j + 1)] = north[j];
      g[at(n + 1, j + 1)] = south[j];
    }
    for (int i = 0; i < n; ++i) {
      g[at(i + 1, 0)] = west[i];
      g[at(i + 1, n + 1)] = east[i];
    }
  }

  /// 5-point Jacobi step: cur -> next (functional; timing modelled by the
  /// executing agent).
  void stencil() {
    int nx = 1 - cur;
    auto from = grid_cview(cur);
    auto to = grid_view(nx);
    for (int i = 1; i <= n; ++i) {
      for (int j = 1; j <= n; ++j) {
        to[at(i, j)] = 0.25 * (from[at(i - 1, j)] + from[at(i + 1, j)] +
                               from[at(i, j - 1)] + from[at(i, j + 1)]);
      }
    }
    cur = nx;
  }
};

/// Modelled data traffic of one stencil iteration. The GPU streams
/// coalesced reads + writes (row reuse absorbed by the L2): 16 B/point.
std::uint64_t stencil_bytes(int n) {
  return static_cast<std::uint64_t>(n) * n * 16;
}
/// The host pays row re-reads and write-allocate on top: 40 B/point.
std::uint64_t cpu_stencil_bytes(int n) {
  return static_cast<std::uint64_t>(n) * n * 40;
}
double stencil_flops(int n) { return 4.0 * n * n; }
std::uint64_t pack_bytes(int n) {
  return static_cast<std::uint64_t>(n) * 8 * 4 * 2;  // 4 edges, read+write
}

struct Workspace {
  explicit Workspace(const cluster::SystemConfig& sys, const JacobiConfig& cfg)
      : engine(std::max(1, std::min(cfg.shards, kNodes))),
        cluster(engine, sys, kNodes),
        config(cfg) {
    for (int i = 0; i < kNodes; ++i) {
      data[i].alloc(cluster.node(i).memory(), cfg.n, i);
      data[i].init_values();
    }
  }
  sim::ShardEngine engine;
  cluster::Cluster cluster;
  JacobiConfig config;
  NodeData data[kNodes];
};

// ---------------------------------------------------------------------------
// Strategy executors. Per-iteration structure (identical data flow):
//   1. transmit tx[k%2] (edges of the current state) to the 4 neighbours
//   2. await the 4 halos for iteration k; unpack
//   3. stencil; pack the new edges into tx[(k+1)%2]
// ---------------------------------------------------------------------------

sim::Task<> cpu_node(Workspace& w, int id) {
  auto& node = w.cluster.node(id);
  auto& d = w.data[id];
  const int n = w.config.n;
  d.pack_edges(d.cur, 0);
  co_await node.cpu().compute_parallel(0, pack_bytes(n));

  for (int k = 0; k < w.config.iterations; ++k) {
    int p = k % 2;
    // Non-blocking sends/recvs (staging copies: pure-CPU eager protocol).
    std::vector<sim::ProcessHandle> ops;
    for (int s = 0; s < 4; ++s) {
      ops.push_back(w.cluster.node_sim(id).spawn(
          node.rt().send(neighbor(id, s), halo_tag(k, opposite(s)),
                         d.tx[p][s], d.row_bytes(), /*host_staging=*/true),
          "send"));
      ops.push_back(w.cluster.node_sim(id).spawn(
          node.rt().recv(neighbor(id, s), halo_tag(k, s), d.rx[p][s],
                         d.row_bytes(), /*host_staging=*/true),
          "recv"));
    }
    co_await sim::join_all(std::move(ops));
    d.unpack_halos(d.cur, p);
    d.stencil();
    d.pack_edges(d.cur, (k + 1) % 2);
    co_await node.cpu().compute_parallel(
        stencil_flops(n), cpu_stencil_bytes(n) + pack_bytes(n));
  }
}

/// The stencil kernel shared by HDN and GDS: unpack halos (parity p),
/// stencil, pack new edges into tx[1-p]; work-group 0 performs the
/// functional update, every work-group accounts its share of the traffic.
gpu::KernelDesc make_stencil_kernel(Workspace& w, int id, int parity) {
  auto& d = w.data[id];
  const int n = w.config.n;
  gpu::KernelDesc k;
  k.name = "jacobi";
  k.num_wgs = w.config.num_wgs;
  k.fn = [&d, n, parity](gpu::WorkGroupCtx& ctx) -> sim::Task<> {
    if (ctx.wg_id() == 0) {
      d.unpack_halos(d.cur, parity);
      d.stencil();
      d.pack_edges(d.cur, 1 - parity);
      ctx.mark_dirty();
    }
    co_await ctx.compute_mem((stencil_bytes(n) + pack_bytes(n)) /
                             static_cast<std::uint64_t>(ctx.num_wgs()));
  };
  return k;
}

sim::Task<> hdn_node(Workspace& w, int id) {
  auto& node = w.cluster.node(id);
  auto& d = w.data[id];
  d.pack_edges(d.cur, 0);
  co_await node.cpu().compute(sim::ns(200));  // initial host pack

  for (int k = 0; k < w.config.iterations; ++k) {
    int p = k % 2;
    // Kernel boundary: control is on the host, which drives MPI-style
    // send/recv (GPUDirect: zero copy).
    std::vector<sim::ProcessHandle> ops;
    for (int s = 0; s < 4; ++s) {
      ops.push_back(w.cluster.node_sim(id).spawn(
          node.rt().send(neighbor(id, s), halo_tag(k, opposite(s)),
                         d.tx[p][s], d.row_bytes()),
          "send"));
      ops.push_back(w.cluster.node_sim(id).spawn(
          node.rt().recv(neighbor(id, s), halo_tag(k, s), d.rx[p][s],
                         d.row_bytes()),
          "recv"));
    }
    co_await sim::join_all(std::move(ops));
    co_await node.rt().launch_sync(make_stencil_kernel(w, id, p));
  }
}

sim::Task<> gds_node(Workspace& w, int id) {
  auto& node = w.cluster.node(id);
  auto& d = w.data[id];
  d.pack_edges(d.cur, 0);
  co_await node.cpu().compute(sim::ns(200));

  // Pre-post the whole stream: [4 puts | 4 waits | kernel] per iteration.
  // The host's work ends after posting; the GPU front-end drives everything.
  std::shared_ptr<gpu::KernelRecord> last;
  for (int k = 0; k < w.config.iterations; ++k) {
    int p = k % 2;
    for (int s = 0; s < 4; ++s) {
      nic::PutDesc put;
      put.target = neighbor(id, s);
      put.local_addr = d.tx[p][s];
      put.bytes = d.row_bytes();
      auto& peer = w.data[put.target];
      put.remote_addr = peer.rx[p][opposite(s)];
      put.remote_flag = peer.flag[opposite(s)];
      put.flag_value = static_cast<std::uint64_t>(k) + 1;
      co_await node.rt().gds_stream_put(put);
    }
    for (int s = 0; s < 4; ++s) {
      node.rt().gds_stream_wait(d.flag[s], static_cast<std::uint64_t>(k) + 1);
    }
    last = co_await node.rt().launch(make_stencil_kernel(w, id, p));
  }
  co_await last->done.wait();
}

sim::Task<> gputn_node(Workspace& w, int id) {
  auto& node = w.cluster.node(id);
  auto& d = w.data[id];
  const int n = w.config.n;
  const int iters = w.config.iterations;
  const int wgs = w.config.num_wgs;
  d.pack_edges(d.cur, 0);
  co_await node.cpu().compute(sim::ns(200));

  auto register_iter = [&](int k) -> sim::Task<> {
    int p = k % 2;
    for (int s = 0; s < 4; ++s) {
      nic::PutDesc put;
      put.target = neighbor(id, s);
      put.local_addr = d.tx[p][s];
      put.bytes = d.row_bytes();
      auto& peer = w.data[put.target];
      put.remote_addr = peer.rx[p][opposite(s)];
      put.remote_flag = peer.flag[opposite(s)];
      put.flag_value = static_cast<std::uint64_t>(k) + 1;
      put.local_flag = d.local_flag[s];
      co_await node.rt().trig_put(halo_tag(k, s),
                                  static_cast<std::uint64_t>(wgs), put);
    }
  };

  // Sliding registration window: the prototype trigger table holds at most
  // 16 simultaneous entries (§3.3), so the host keeps <= 3 iterations (12
  // tags) registered and reclaims fired tags as their puts complete
  // locally. All of this overlaps the persistent kernel (§3.2).
  const int window = std::min(iters, 3);
  for (int k = 0; k < window; ++k) co_await register_iter(k);

  // One persistent kernel for the entire run (§5.3: "GPU-TN uses a single
  // kernel for the entire duration of the program").
  gpu::KernelDesc kern;
  kern.name = "jacobi-persistent";
  kern.num_wgs = wgs;
  mem::Addr trig = node.rt().trigger_addr();
  const bool overlap = w.config.overlap;
  kern.fn = [&d, n, iters, trig, overlap](gpu::WorkGroupCtx& ctx)
      -> sim::Task<> {
    // Interior points need no halos; the boundary ring does.
    std::uint64_t interior = n > 2 ? stencil_bytes(n - 2) : 0;
    std::uint64_t boundary = stencil_bytes(n) - interior;
    for (int k = 0; k < iters; ++k) {
      int p = k % 2;
      // Trigger the four halo puts for this iteration (threshold = #WGs:
      // every WG reaching this point means the previous pack is complete).
      for (int s = 0; s < 4; ++s) {
        co_await ctx.store_system(trig, halo_tag(k, s));
      }
      if (overlap) {
        // Compute the interior while the halos are in flight (§5.3's
        // unexploited overlap, implemented as an extension).
        co_await ctx.compute_mem(interior /
                                 static_cast<std::uint64_t>(ctx.num_wgs()));
      }
      // Await this iteration's halos from the NIC.
      for (int s = 0; s < 4; ++s) {
        co_await ctx.wait_value_ge(d.flag[s], static_cast<std::uint64_t>(k) + 1);
      }
      if (ctx.wg_id() == 0) {
        d.unpack_halos(d.cur, p);
        d.stencil();
        d.pack_edges(d.cur, 1 - p);
        ctx.mark_dirty();
      }
      std::uint64_t remaining =
          (overlap ? boundary : stencil_bytes(n)) + pack_bytes(n);
      co_await ctx.compute_mem(remaining /
                               static_cast<std::uint64_t>(ctx.num_wgs()));
      co_await ctx.fence_system();  // new edges visible before next trigger
    }
  };
  auto rec = co_await node.rt().launch(std::move(kern));

  // Host-side re-arming loop, fully off the critical path.
  for (int k = 0; k + window < iters; ++k) {
    for (int s = 0; s < 4; ++s) {
      co_await node.cpu().wait_value_ge(d.local_flag[s],
                                        static_cast<std::uint64_t>(k) + 1);
    }
    for (int s = 0; s < 4; ++s) node.triggered().release(halo_tag(k, s));
    co_await register_iter(k + window);
  }
  co_await rec->done.wait();
}

}  // namespace

double jacobi_initial_value(int gi, int gj) {
  return static_cast<double>((gi * 31 + gj * 17) % 97) / 97.0;
}

std::vector<double> jacobi_reference(int n, int iterations) {
  const int g = 2 * n;
  const std::size_t gs = static_cast<std::size_t>(g);
  std::vector<double> cur(gs * gs);
  std::vector<double> nxt(cur.size());
  for (int i = 0; i < g; ++i) {
    for (int j = 0; j < g; ++j) cur[i * gs + j] = jacobi_initial_value(i, j);
  }
  // Torus wrap resolved once per row and per edge column, not per access.
  for (int k = 0; k < iterations; ++k) {
    for (int i = 0; i < g; ++i) {
      const double* north = &cur[(i == 0 ? g - 1 : i - 1) * gs];
      const double* row = &cur[i * gs];
      const double* south = &cur[(i == g - 1 ? 0 : i + 1) * gs];
      double* out = &nxt[i * gs];
      for (int j = 0; j < g; ++j) {
        const int west = j == 0 ? g - 1 : j - 1;
        const int east = j == g - 1 ? 0 : j + 1;
        out[j] = 0.25 * (north[j] + south[j] + row[west] + row[east]);
      }
    }
    cur.swap(nxt);
  }
  return cur;
}

JacobiCheck check_jacobi(std::span<const std::span<const double>> grids,
                         int n, int iterations) {
  if (grids.size() != static_cast<std::size_t>(kNodes)) {
    throw std::invalid_argument("check_jacobi: one grid per node");
  }
  const std::vector<double> ref = jacobi_reference(n, iterations);
  const std::size_t g = 2 * static_cast<std::size_t>(n);
  const std::size_t pitch = static_cast<std::size_t>(n) + 2;
  JacobiCheck c;
  for (int node = 0; node < kNodes && c.correct; ++node) {
    const std::size_t r0 = static_cast<std::size_t>(node / kCols * n);
    const std::size_t c0 = static_cast<std::size_t>(node % kCols * n);
    for (int i = 0; i < n && c.correct; ++i) {
      const double* got = &grids[node][(i + 1) * pitch + 1];
      const double* want = &ref[(r0 + i) * g + c0];
      for (int j = 0; j < n; ++j) {
        if (node == 0) c.checksum += got[j];
        const double err = std::abs(got[j] - want[j]);
        c.max_error = std::max(c.max_error, err);
        if (!(err <= 1e-12)) {  // a NaN fails too
          c.correct = false;
          break;
        }
      }
    }
  }
  return c;
}

JacobiResult run_jacobi(const JacobiConfig& cfg,
                        const cluster::SystemConfig& sys) {
  cluster::SystemConfig adjusted = with_fabric_overrides(cfg, sys);
  std::uint64_t grid_bytes =
      2ull * (cfg.n + 2) * (cfg.n + 2) * 8 + 16ull * cfg.n * 8 + (1 << 20);
  adjusted.dram_bytes = std::max(adjusted.dram_bytes, grid_bytes + (4u << 20));

  Workspace w(adjusted, cfg);
  attach_observers(w.cluster, cfg);
  cluster::RunCompletion done(w.cluster);
  for (int i = 0; i < kNodes; ++i) {
    switch (cfg.strategy) {
      case Strategy::kCpu:
        done.spawn(i, cpu_node(w, i), "cpu_node");
        break;
      case Strategy::kHdn:
        done.spawn(i, hdn_node(w, i), "hdn_node");
        break;
      case Strategy::kGds:
        done.spawn(i, gds_node(w, i), "gds_node");
        break;
      case Strategy::kGpuTn:
        done.spawn(i, gputn_node(w, i), "gputn_node");
        break;
      case Strategy::kGhn:
      case Strategy::kGnn:
        throw std::invalid_argument(
            "jacobi: GHN/GNN are microbenchmark-only strategies");
    }
  }
  done.start_monitors();
  sim::Tick finished_at = done.finish("jacobi");

  JacobiResult res;
  res.strategy = cfg.strategy;
  res.nodes = kNodes;
  res.label = "jacobi";
  res.detail = std::to_string(cfg.n) + "x" + std::to_string(cfg.n) + " local, " +
               std::to_string(cfg.iterations) + " iters";
  res.n = cfg.n;
  res.iterations = cfg.iterations;
  res.total_time = finished_at;
  w.cluster.export_net_stats(res.net_stats, res.total_time);

  std::span<const double> grids[kNodes];
  for (int node = 0; node < kNodes; ++node) {
    grids[node] = w.data[node].grid_cview(w.data[node].cur);
  }
  JacobiCheck check = check_jacobi(grids, cfg.n, cfg.iterations);
  res.correct = check.correct;
  res.checksum = check.checksum;
  return res;
}

JacobiResult run_jacobi(const JacobiConfig& cfg) {
  return run_jacobi(cfg, cluster::SystemConfig::table2());
}

}  // namespace gputn::workloads
