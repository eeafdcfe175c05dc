#include "mem/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>
#include <thread>

namespace gputn::mem {
namespace {

TEST(Memory, AllocRespectsAlignmentAndBounds) {
  Memory m(1 << 20);
  Addr a = m.alloc(100, 64);
  Addr b = m.alloc(100, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_NE(a, 0u);  // address 0 is never handed out
}

TEST(Memory, AllocThrowsWhenExhausted) {
  Memory m(4096);
  EXPECT_THROW(m.alloc(1 << 20), std::bad_alloc);
}

TEST(Memory, AllocRejectsBadAlignment) {
  Memory m(4096);
  EXPECT_THROW(m.alloc(8, 3), std::invalid_argument);
  EXPECT_THROW(m.alloc(8, 0), std::invalid_argument);
}

TEST(Memory, LoadStoreRoundTrip) {
  Memory m(1 << 16);
  Addr a = m.alloc(64);
  m.store<std::uint64_t>(a, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(m.load<std::uint64_t>(a), 0xdeadbeefcafe1234ull);
  m.store<double>(a + 8, 3.25);
  EXPECT_DOUBLE_EQ(m.load<double>(a + 8), 3.25);
}

TEST(Memory, OutOfBoundsAccessThrows) {
  Memory m(4096);
  std::uint64_t v = 0;
  EXPECT_THROW(m.read(4096, &v, 8), std::out_of_range);
  EXPECT_THROW(m.write(4090, &v, 8), std::out_of_range);
}

TEST(Memory, TypedSpanViewsBackingStore) {
  Memory m(1 << 16);
  Addr a = m.alloc(sizeof(float) * 8, 64);
  auto s = m.typed<float>(a, 8);
  for (int i = 0; i < 8; ++i) s[i] = static_cast<float>(i);
  EXPECT_FLOAT_EQ(m.load<float>(a + 4 * sizeof(float)), 4.0f);
}

TEST(Memory, BufferHelper) {
  Memory m(1 << 16);
  Buffer<std::uint32_t> buf(m, 16);
  EXPECT_EQ(buf.size(), 16u);
  EXPECT_EQ(buf.bytes(), 64u);
  buf[3] = 77;
  EXPECT_EQ(m.load<std::uint32_t>(buf.addr() + 3 * 4), 77u);
}

TEST(Memory, DramBytesEqualsRequestedSize) {
  Memory a(4096);
  Memory b((64ull << 20) + 8);
  EXPECT_EQ(a.dram_bytes(), 4096u);
  EXPECT_EQ(b.dram_bytes(), (64ull << 20) + 8);
}

TEST(Memory, FreshBackingReadsZeroEverywhere) {
  constexpr std::uint64_t kBytes = 64ull << 20;
  Memory m(kBytes);
  EXPECT_EQ(m.load<std::uint64_t>(kBytes - 8), 0u) << "last 8 bytes";
  EXPECT_EQ(m.load<std::uint64_t>(kBytes / 2), 0u) << "never allocated";
  EXPECT_THROW(m.load<std::uint64_t>(kBytes - 4), std::out_of_range);
}

/// Writes a pattern over a 64 MiB Memory, destroys it, and checks a Memory
/// rebuilt at the same size reads zero where the pattern was.
void expect_rebuilt_memory_reads_zero() {
  constexpr std::uint64_t kBytes = 64ull << 20;
  const Addr probes[] = {64, 4096, kBytes / 2, kBytes - 8};
  {
    Memory m(kBytes);
    for (Addr a : probes) m.store<std::uint64_t>(a, ~std::uint64_t{0});
    auto bulk = m.bytes(8192, 1 << 20);
    std::memset(bulk.data(), 0xab, bulk.size());
  }
  Memory m(kBytes);
  for (Addr a : probes) EXPECT_EQ(m.load<std::uint64_t>(a), 0u) << a;
  auto bulk = m.bytes(8192, 1 << 20);
  EXPECT_TRUE(std::all_of(bulk.begin(), bulk.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

TEST(Memory, RebuiltBackingReadsZeroOnMainThread) {
  expect_rebuilt_memory_reads_zero();
}

TEST(Memory, RebuiltBackingReadsZeroOnWorkerThread) {
  // The way an exp::Runner worker builds and tears down run points.
  std::thread worker(expect_rebuilt_memory_reads_zero);
  worker.join();
}

class RecordingHandler : public MmioHandler {
 public:
  void on_mmio_store(Addr addr, std::uint64_t value) override {
    last_addr = addr;
    last_value = value;
    ++stores;
  }
  Addr last_addr = 0;
  std::uint64_t last_value = 0;
  int stores = 0;
};

TEST(Memory, MmioRoutesToHandler) {
  Memory m(4096);
  RecordingHandler h1, h2;
  Addr w1 = m.map_mmio(8, &h1);
  Addr w2 = m.map_mmio(8, &h2);
  EXPECT_TRUE(m.is_mmio(w1));
  EXPECT_NE(w1, w2);
  m.mmio_store(w1, 42);
  m.mmio_store(w2, 43);
  EXPECT_EQ(h1.last_value, 42u);
  EXPECT_EQ(h2.last_value, 43u);
  EXPECT_EQ(h1.stores, 1);
}

TEST(Memory, MmioUnmappedThrows) {
  Memory m(4096);
  RecordingHandler h;
  Addr w = m.map_mmio(8, &h);
  EXPECT_THROW(m.mmio_store(w + 8, 1), std::out_of_range);
  EXPECT_THROW(m.mmio_store(kMmioBase + (1 << 30), 1), std::out_of_range);
}

TEST(Memory, FunctionalAccessToMmioThrows) {
  Memory m(4096);
  RecordingHandler h;
  Addr w = m.map_mmio(8, &h);
  std::uint64_t v;
  EXPECT_THROW(m.read(w, &v, 8), std::out_of_range);
}

struct CountingWatcher final : WriteWatcher {
  int writes = 0;
  bool gone = false;
  void on_watched_write(int) override { ++writes; }
  void on_memory_gone() override { gone = true; }
};

TEST(Memory, WatchHearsOverlappingWritesOnly) {
  CountingWatcher w;
  {
    Memory m(1 << 20);
    Addr flag = m.alloc(64);
    m.watch(flag + 8, &w, 0);
    m.store<std::uint64_t>(flag, 1);       // the word before
    m.store<std::uint64_t>(flag + 16, 1);  // the word after
    EXPECT_EQ(w.writes, 0);
    m.store<std::uint32_t>(flag + 12, 1);  // upper half of the word
    m.store<std::uint64_t>(flag + 8, 2);
    std::uint64_t block[4] = {};
    m.write(flag, block, sizeof(block));   // a copy spanning it
    EXPECT_EQ(w.writes, 3);
    m.unwatch(&w);
    m.store<std::uint64_t>(flag + 8, 3);
    EXPECT_EQ(w.writes, 3);
    m.watch(flag + 8, &w, 0);
  }
  EXPECT_TRUE(w.gone) << "the watcher hears the memory go away";
}

#ifndef NDEBUG
TEST(MemoryDeathTest, MutableViewOverWatchedWordAsserts) {
  Memory m(1 << 20);
  Addr flag = m.alloc(64);
  CountingWatcher w;
  m.watch(flag + 8, &w, 0);
  (void)m.bytes(flag + 16, 8);  // beside the word: fine
  EXPECT_DEATH((void)m.typed<std::uint64_t>(flag, 2), "watched flag word");
  m.unwatch(&w);
}
#endif

}  // namespace
}  // namespace gputn::mem
