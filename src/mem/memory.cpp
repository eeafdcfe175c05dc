#include "mem/memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <new>

namespace gputn::mem {

Memory::Memory(std::uint64_t dram_bytes) : dram_bytes_(dram_bytes) {
  void* p = ::mmap(nullptr, dram_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  dram_ = static_cast<std::byte*>(p);
}

Memory::~Memory() {
  for (const Watch& w : watches_) w.w->on_memory_gone();
  ::munmap(dram_, dram_bytes_);
}

Addr Memory::alloc(std::uint64_t bytes, std::uint64_t align) {
  if (align == 0 || (align & (align - 1)) != 0) {
    throw std::invalid_argument("alignment must be a power of two");
  }
  Addr base = (next_ + align - 1) & ~(align - 1);
  if (base + bytes > dram_bytes_) throw std::bad_alloc();
  next_ = base + bytes;
  return base;
}

void Memory::check_range(Addr addr, std::size_t n) const {
  if (is_mmio(addr)) {
    throw std::out_of_range("functional access to MMIO window");
  }
  if (addr + n > dram_bytes_ || addr + n < addr) {
    throw std::out_of_range("memory access out of bounds");
  }
}

void Memory::write(Addr addr, const void* src, std::size_t n) {
  check_range(addr, n);
  std::memcpy(dram_ + addr, src, n);
  if (watched(addr, n)) [[unlikely]] notify_watchers(addr, n);
}

void Memory::notify_watchers(Addr addr, std::size_t n) {
  // Index-based: a watcher must not add or drop watches from the
  // callback, but indexing keeps the walk safe if one does.
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    const Watch& w = watches_[i];
    if (w.word < addr + n && w.word + 8 > addr) {
      w.w->on_watched_write(w.item);
    }
  }
}

void Memory::watch(Addr word, WriteWatcher* w, int item) {
  watches_.push_back(Watch{word, w, item});
  watch_lo_ = std::min(watch_lo_, word);
  watch_hi_ = std::max(watch_hi_, word + 8);
}

void Memory::unwatch(WriteWatcher* w) {
  std::erase_if(watches_, [w](const Watch& x) { return x.w == w; });
  watch_lo_ = ~Addr{0};
  watch_hi_ = 0;
  for (const Watch& x : watches_) {
    watch_lo_ = std::min(watch_lo_, x.word);
    watch_hi_ = std::max(watch_hi_, x.word + 8);
  }
}

void Memory::read(Addr addr, void* dst, std::size_t n) const {
  check_range(addr, n);
  std::memcpy(dst, dram_ + addr, n);
}

std::span<std::byte> Memory::bytes(Addr addr, std::size_t n) {
  check_range(addr, n);
  assert(!watched(addr, n) ||
         std::none_of(watches_.begin(), watches_.end(),
                      [&](const Watch& w) {
                        return w.word < addr + n && w.word + 8 > addr;
                      }) ||
         !"mutable view over a watched flag word: write it with write()");
  return {dram_ + addr, n};
}

std::span<const std::byte> Memory::bytes(Addr addr, std::size_t n) const {
  check_range(addr, n);
  return {dram_ + addr, n};
}

Addr Memory::map_mmio(std::uint64_t bytes, MmioHandler* handler) {
  Addr base = next_mmio_;
  next_mmio_ += (bytes + 4095) & ~std::uint64_t{4095};  // page-align windows
  mmio_.emplace(base, std::make_pair(base + bytes, handler));
  return base;
}

void Memory::mmio_store(Addr addr, std::uint64_t value) {
  auto it = mmio_.upper_bound(addr);
  if (it == mmio_.begin()) throw std::out_of_range("unmapped MMIO store");
  --it;
  auto [limit, handler] = it->second;
  if (addr >= limit) throw std::out_of_range("unmapped MMIO store");
  handler->on_mmio_store(addr, value);
}

}  // namespace gputn::mem
