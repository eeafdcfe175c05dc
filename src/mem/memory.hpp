// Per-node physical address space.
//
// The CPU, GPU, and NIC of a node share one coherent memory (the paper's
// high-performance SoC configuration, §5.1). Memory holds real backing bytes
// so workloads compute and verify actual data. Functional accesses (by
// compute models that account time in aggregate) are zero-time; timed
// transfers go through the DMA engine (dma.hpp).
//
// A separate MMIO window routes stores to device handlers — this is how the
// GPU's memory-mapped trigger-address stores reach the NIC (§3.1).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/units.hpp"

namespace gputn::mem {

using Addr = std::uint64_t;

/// Base of the MMIO window. DRAM allocations never reach this address.
inline constexpr Addr kMmioBase = Addr{1} << 48;

/// Device-side receiver for posted MMIO stores.
class MmioHandler {
 public:
  virtual ~MmioHandler() = default;
  virtual void on_mmio_store(Addr addr, std::uint64_t value) = 0;
};

/// Receiver of writes to watched 8-byte words (mem::FlagWait). A watcher
/// hears every write that overlaps one of its words, and hears when the
/// memory itself goes away.
class WriteWatcher {
 public:
  virtual ~WriteWatcher() = default;
  virtual void on_watched_write(int item) = 0;
  virtual void on_memory_gone() = 0;
};

class Memory {
 public:
  /// The backing store is one anonymous demand-zero mapping: the kernel
  /// hands out a zeroed page on first touch, so a run pays only for the
  /// pages it writes and never-written bytes read as zero. Throws
  /// std::bad_alloc when the mapping cannot be made (or dram_bytes is 0).
  explicit Memory(std::uint64_t dram_bytes);
  ~Memory();
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  /// Bump-allocate a DRAM region. Throws std::bad_alloc when exhausted.
  Addr alloc(std::uint64_t bytes, std::uint64_t align = 64);

  std::uint64_t dram_bytes() const { return dram_bytes_; }
  std::uint64_t allocated_bytes() const { return next_; }

  // -- Functional (zero-time) access --------------------------------------
  // Scalar store()/load() and write()/read() check every access and are
  // watch-aware: a write that overlaps a watched word is reported. Views
  // (bytes()/typed()) are checked once per region; a mutable view must
  // never cover a watched flag word, so readers take const views. Defined
  // inline, so store()/load() compile to fixed-size copies.
  void write(Addr addr, const void* src, std::size_t n) {
    check_range(addr, n);
    std::memcpy(dram_ + addr, src, n);
    if (watched(addr, n)) [[unlikely]] notify_watchers(addr, n);
  }
  void read(Addr addr, void* dst, std::size_t n) const {
    check_range(addr, n);
    std::memcpy(dst, dram_ + addr, n);
  }

  template <typename T>
  void store(Addr addr, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(addr, &value, sizeof(T));
  }
  template <typename T>
  T load(Addr addr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    read(addr, &v, sizeof(T));
    return v;
  }

  /// Direct view into backing bytes (bounds-checked).
  std::span<std::byte> bytes(Addr addr, std::size_t n);
  std::span<const std::byte> bytes(Addr addr, std::size_t n) const;

  /// Typed view of a region; debug builds assert that addr is aligned
  /// for T.
  template <typename T>
  std::span<T> typed(Addr addr, std::size_t count) {
    assert(addr % alignof(T) == 0 && "misaligned typed view");
    auto b = bytes(addr, count * sizeof(T));
    return {reinterpret_cast<T*>(b.data()), count};
  }
  template <typename T>
  std::span<const T> typed(Addr addr, std::size_t count) const {
    assert(addr % alignof(T) == 0 && "misaligned typed view");
    auto b = bytes(addr, count * sizeof(T));
    return {reinterpret_cast<const T*>(b.data()), count};
  }

  // -- Write watches -------------------------------------------------------
  /// Report every write() overlapping the 8-byte word at `word` to `w` as
  /// item `item`. Writes through mutable bytes()/typed() views bypass the
  /// hook; debug builds assert that no such view covers a watched word.
  void watch(Addr word, WriteWatcher* w, int item);
  /// Drop all of `w`'s watches.
  void unwatch(WriteWatcher* w);

  // -- MMIO ----------------------------------------------------------------
  /// Map `bytes` of MMIO space to a handler; returns the window base.
  Addr map_mmio(std::uint64_t bytes, MmioHandler* handler);
  bool is_mmio(Addr addr) const { return addr >= kMmioBase; }
  /// Route a posted store to the owning device. Timing (bus latency) is
  /// modelled by the initiating agent.
  void mmio_store(Addr addr, std::uint64_t value);

 private:
  void check_range(Addr addr, std::size_t n) const {
    if (is_mmio(addr) || addr + n > dram_bytes_ || addr + n < addr)
        [[unlikely]] {
      range_error(addr);
    }
  }
  [[noreturn]] void range_error(Addr addr) const;
  bool watched(Addr addr, std::size_t n) const {
    return addr < watch_hi_ && addr + n > watch_lo_;
  }
  void notify_watchers(Addr addr, std::size_t n);

  struct Watch {
    Addr word;
    WriteWatcher* w;
    int item;
  };
  std::vector<Watch> watches_;  // a handful at a time: scanned, not sorted
  // Bounds of the watched words: [watch_lo_, watch_hi_), empty when
  // nothing is watched, so an unwatched write costs one compare.
  Addr watch_lo_ = ~Addr{0};
  Addr watch_hi_ = 0;

  std::byte* dram_ = nullptr;
  std::uint64_t dram_bytes_;
  std::uint64_t next_ = 64;  // never hand out address 0
  Addr next_mmio_ = kMmioBase;
  // MMIO window base -> (limit, handler)
  std::map<Addr, std::pair<Addr, MmioHandler*>> mmio_;
};

/// Convenience owner for an allocated region with typed element access.
template <typename T>
class Buffer {
 public:
  Buffer() = default;
  Buffer(Memory& memory, std::size_t count)
      : mem_(&memory),
        addr_(memory.alloc(count * sizeof(T), alignof(T) > 64 ? alignof(T) : 64)),
        count_(count) {}

  Addr addr() const { return addr_; }
  std::size_t size() const { return count_; }
  std::uint64_t bytes() const { return count_ * sizeof(T); }
  std::span<T> span() { return mem_->typed<T>(addr_, count_); }
  T& operator[](std::size_t i) { return span()[i]; }

 private:
  Memory* mem_ = nullptr;
  Addr addr_ = 0;
  std::size_t count_ = 0;
};

}  // namespace gputn::mem
