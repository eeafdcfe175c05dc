// 2-D Jacobi relaxation (§5.3, Figure 9).
//
// A 2N x 2N global torus is split across 4 nodes in a 2x2 decomposition;
// each node iterates a 5-point stencil on its NxN block (with ghost layer)
// and exchanges four halo edges per iteration. The four strategies differ
// only in how the halo exchange is driven:
//
//   CPU    — OpenMP-style stencil on the host; MPI send/recv with eager
//            staging copies.
//   HDN    — stencil kernel per iteration; host does send/recv at every
//            kernel boundary ("exiting the kernel and returning to the host
//            for MPI send/receives after every round").
//   GDS    — communication pre-registered; stream = [kernel, puts, waits]
//            per iteration: boundaries remain, host does not.
//   GPU-TN — one persistent kernel for the whole run; edges are sent with
//            intra-kernel triggered puts and halos awaited by polling
//            NIC-written flags.
//
// The numerics are real: every strategy computes the same doubles, verified
// against a scalar reference of the global torus.
#pragma once

#include <span>
#include <vector>

#include "cluster/config.hpp"
#include "workloads/options.hpp"
#include "workloads/strategy.hpp"

namespace gputn::workloads {

/// Strategy/trace/nodes come from RunOptions; the 2x2 decomposition fixes
/// the node count at 4.
struct JacobiConfig : RunOptions {
  JacobiConfig() { nodes = 4; }
  int n = 256;          ///< local grid edge (Figure 9 x-axis: N x N local)
  int iterations = 10;  ///< measured iterations (steady state)
  /// Work-groups per stencil kernel (<= CU count so the GPU-TN persistent
  /// kernel stays resident).
  int num_wgs = 16;
  /// Overlap communication with interior compute (GPU-TN only). The
  /// paper's implementation "does not exploit overlap" (§5.3); with this
  /// flag the persistent kernel computes the halo-independent interior
  /// while the halos are in flight, then finishes the boundary ring.
  bool overlap = false;
};

struct JacobiResult : ResultBase {
  int n = 0;
  int iterations = 0;
  /// Average per measured iteration; 0 when iterations == 0 (the guarded
  /// ResultBase::per_op replaces the unconditional division this used to
  /// do, which was UB at iterations == 0).
  sim::Tick per_iteration() const { return per_op(iterations); }
  /// Sum over the local grid of node 0 after the last iteration.
  double checksum = 0.0;
};

JacobiResult run_jacobi(const JacobiConfig& cfg,
                        const cluster::SystemConfig& sys);
JacobiResult run_jacobi(const JacobiConfig& cfg);

// -- Data plane: the reference and the final check ------------------------

/// Deterministic initial condition at (gi, gj) of the global torus.
double jacobi_initial_value(int gi, int gj);

/// Scalar reference: the full 2n x 2n torus (row-major) after
/// `iterations` 5-point steps, each point summed north, south, west, east.
std::vector<double> jacobi_reference(int n, int iterations);

struct JacobiCheck {
  bool correct = true;
  double checksum = 0.0;   ///< sum over node 0's interior
  double max_error = 0.0;  ///< max |got - want| over the checked points
};

/// The final check over the four nodes' final grids (index = node id, each
/// (n+2)^2 ghost-padded, row-major): every interior point must be within
/// 1e-12 of jacobi_reference. The check stops at the first point that is
/// not, so checksum and max_error then cover the points up to it.
JacobiCheck check_jacobi(std::span<const std::span<const double>> grids,
                         int n, int iterations);

}  // namespace gputn::workloads
