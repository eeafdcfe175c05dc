// Coroutine-frame pooling (sim::detail::frame_alloc / frame_free).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/units.hpp"

namespace gputn::sim {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kPooled = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kPooled = false;
#else
constexpr bool kPooled = true;
#endif
#else
constexpr bool kPooled = true;
#endif

TEST(FramePool, FreedFrameIsReusedBySameSizeClass) {
  void* a = detail::frame_alloc(200);
  detail::frame_free(a, 200);
  void* b = detail::frame_alloc(250);  // same 64-byte class as 200
  if (kPooled) {
    EXPECT_EQ(a, b);
  }
  detail::frame_free(b, 250);
  // Frames beyond the largest class go straight to the heap and back.
  void* big = detail::frame_alloc(1 << 16);
  detail::frame_free(big, 1 << 16);
}

Task<int> leaf(Simulator& sim, int v) {
  co_await sim.delay(ns(1));
  co_return v;
}

Task<> chain(Simulator& sim, int n, long& sum) {
  for (int i = 0; i < n; ++i) sum += co_await leaf(sim, i);
}

long run_chains() {
  Simulator sim;
  long sum = 0;
  for (int p = 0; p < 8; ++p) sim.spawn(chain(sim, 500, sum), "chain");
  sim.run();
  return sum;
}

TEST(FramePool, ThreadsRunSimulationsOnTheirOwnPools) {
  // Simulators on several threads allocate and free frames concurrently;
  // each thread's pool is private, so results match a serial run.
  const long expect = run_chains();
  std::vector<long> got(4, 0);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&got, t] {
      for (int k = 0; k < 5; ++k) got[static_cast<std::size_t>(t)] += run_chains();
    });
  }
  for (auto& th : ts) th.join();
  for (long g : got) EXPECT_EQ(g, 5 * expect);
}

}  // namespace
}  // namespace gputn::sim
