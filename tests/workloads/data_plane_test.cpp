// The workloads' range-based data plane held to the direct formulas it
// replaces, and their final checks held to injected faults: a faster
// check must still fail on the data it exists to catch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "workloads/allreduce.hpp"
#include "workloads/jacobi.hpp"

namespace gputn::workloads {
namespace {

// -- Allreduce --------------------------------------------------------------

float direct_sum(int nodes, std::size_t i) {
  float want = 0.0f;
  for (int rk = 0; rk < nodes; ++rk) want += allreduce_input(rk, i);
  return want;
}

TEST(AllreduceDataPlane, ExpectedSumTableMatchesDirectSum) {
  for (int nodes = 1; nodes <= 64; ++nodes) {
    const auto table = allreduce_expected_sums(nodes);
    for (std::size_t i = 0; i < kInputPeriod; ++i) {
      EXPECT_EQ(table[i], direct_sum(nodes, i))
          << "nodes=" << nodes << " i=" << i;
    }
    // The table covers every index through the input's period.
    for (std::size_t i : {31ul, 997ul, 149550ul, 123456789ul}) {
      EXPECT_EQ(table[i % kInputPeriod], direct_sum(nodes, i))
          << "nodes=" << nodes << " i=" << i;
    }
  }
}

TEST(AllreduceDataPlane, SteppedFillMatchesDirectFormula) {
  std::vector<float> v(200000);
  for (int rank = 0; rank < 64; ++rank) {
    fill_allreduce_input(rank, v);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] != allreduce_input(rank, i)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "rank " << rank;
  }
}

/// Every rank's vector holding the correct result.
std::vector<std::vector<float>> reduced(int nodes, std::size_t elements) {
  const auto want = allreduce_expected_sums(nodes);
  std::vector<std::vector<float>> ranks(nodes, std::vector<float>(elements));
  for (auto& v : ranks) {
    for (std::size_t i = 0; i < elements; ++i) v[i] = want[i % kInputPeriod];
  }
  return ranks;
}

AllreduceCheck check(const std::vector<std::vector<float>>& ranks) {
  std::vector<std::span<const float>> views(ranks.begin(), ranks.end());
  return check_allreduce(views);
}

TEST(AllreduceCheckTest, PassesTheCorrectResult) {
  for (std::size_t elements : {100000ul, 200000ul}) {
    AllreduceCheck c = check(reduced(5, elements));
    EXPECT_TRUE(c.correct) << elements;
    EXPECT_EQ(c.max_error, 0.0) << elements;
  }
}

TEST(AllreduceCheckTest, CatchesOneChangedElementAtStrideOne) {
  // Up to 100 000 elements every element is checked.
  for (std::size_t i : {0ul, 1ul, 30ul, 77777ul, 99999ul}) {
    for (int rank : {0, 3}) {
      auto ranks = reduced(4, 100000);
      ranks[rank][i] += 3.0f;
      AllreduceCheck c = check(ranks);
      EXPECT_FALSE(c.correct) << "rank " << rank << " i " << i;
      EXPECT_EQ(c.max_error, 3.0) << "rank " << rank << " i " << i;
    }
  }
}

TEST(AllreduceCheckTest, CatchesOneChangedElementAtStride997) {
  // Above 100 000 elements every 997th element is checked.
  const std::size_t elements = 200000;
  for (std::size_t i : {0ul, 997ul, 997ul * 31, 997ul * 150, 997ul * 200}) {
    for (int rank : {0, 2}) {
      auto ranks = reduced(3, elements);
      ranks[rank][i] -= 5.0f;
      AllreduceCheck c = check(ranks);
      EXPECT_FALSE(c.correct) << "rank " << rank << " i " << i;
      EXPECT_EQ(c.max_error, 5.0) << "rank " << rank << " i " << i;
    }
  }
  auto ranks = reduced(3, elements);
  ranks[1][997 * 150 + 1] -= 5.0f;  // between two checked elements
  EXPECT_TRUE(check(ranks).correct) << "the stride is the contract";
}

TEST(AllreduceCheckTest, NanFails) {
  auto ranks = reduced(2, 1000);
  ranks[1][500] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(check(ranks).correct);
}

// -- Jacobi -----------------------------------------------------------------

/// The modulo-indexed reference the range-based one replaced: the oracle.
std::vector<double> modulo_reference(int n, int iterations) {
  int g = 2 * n;
  std::vector<double> cur(static_cast<std::size_t>(g) * g);
  std::vector<double> nxt(cur.size());
  for (int i = 0; i < g; ++i) {
    for (int j = 0; j < g; ++j) {
      cur[static_cast<std::size_t>(i) * g + j] = jacobi_initial_value(i, j);
    }
  }
  auto at = [g](std::vector<double>& v, int i, int j) -> double& {
    return v[static_cast<std::size_t>((i + g) % g) * g + (j + g) % g];
  };
  for (int k = 0; k < iterations; ++k) {
    for (int i = 0; i < g; ++i) {
      for (int j = 0; j < g; ++j) {
        at(nxt, i, j) = 0.25 * (at(cur, i - 1, j) + at(cur, i + 1, j) +
                                at(cur, i, j - 1) + at(cur, i, j + 1));
      }
    }
    cur.swap(nxt);
  }
  return cur;
}

TEST(JacobiDataPlane, ReferenceMatchesModuloOracleBitForBit) {
  for (int n : {1, 2, 3, 16}) {
    for (int iters = 0; iters <= 5; ++iters) {
      std::vector<double> got = jacobi_reference(n, iters);
      std::vector<double> want = modulo_reference(n, iters);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << "n=" << n << " iterations=" << iters;
    }
  }
}

constexpr int kCheckN = 16;
constexpr int kCheckIters = 3;

/// The four nodes' ghost-padded grids cut from the reference (2x2 blocks,
/// node id = block row * 2 + block column).
std::vector<std::vector<double>> final_grids() {
  const int n = kCheckN;
  const std::size_t pitch = n + 2, g = 2 * n;
  const std::vector<double> ref = jacobi_reference(n, kCheckIters);
  std::vector<std::vector<double>> grids(4, std::vector<double>(pitch * pitch));
  for (int node = 0; node < 4; ++node) {
    const std::size_t r0 = node / 2 * n, c0 = node % 2 * n;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        grids[node][(i + 1) * pitch + j + 1] = ref[(r0 + i) * g + c0 + j];
      }
    }
  }
  return grids;
}

JacobiCheck check(const std::vector<std::vector<double>>& grids) {
  std::vector<std::span<const double>> views(grids.begin(), grids.end());
  return check_jacobi(views, kCheckN, kCheckIters);
}

TEST(JacobiCheckTest, PassesTheReferenceAndSumsNodeZero) {
  auto grids = final_grids();
  JacobiCheck c = check(grids);
  EXPECT_TRUE(c.correct);
  EXPECT_EQ(c.max_error, 0.0);
  double sum = 0.0;
  for (int i = 1; i <= kCheckN; ++i) {
    for (int j = 1; j <= kCheckN; ++j) sum += grids[0][i * (kCheckN + 2) + j];
  }
  EXPECT_EQ(c.checksum, sum);
}

TEST(JacobiCheckTest, CatchesOneChangedPoint) {
  const std::size_t pitch = kCheckN + 2;
  for (int node = 0; node < 4; ++node) {
    for (std::size_t cell : {pitch + 1, 5 * pitch + 7, kCheckN * pitch + 16}) {
      auto grids = final_grids();
      const double before = grids[node][cell];
      grids[node][cell] += 0.5;
      JacobiCheck c = check(grids);
      EXPECT_FALSE(c.correct) << "node " << node << " cell " << cell;
      EXPECT_EQ(c.max_error, std::abs(grids[node][cell] - before))
          << "node " << node << " cell " << cell;
      EXPECT_NEAR(c.max_error, 0.5, 1e-15);
    }
  }
}

TEST(JacobiCheckTest, NanFails) {
  auto grids = final_grids();
  grids[3][5 * (kCheckN + 2) + 5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(check(grids).correct);
}

}  // namespace
}  // namespace gputn::workloads
