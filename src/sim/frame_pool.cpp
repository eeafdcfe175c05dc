// Per-thread coroutine-frame free lists (sim/task.hpp).
#include <cstdint>
#include <new>

#include "sim/task.hpp"

namespace gputn::sim::detail {

namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kPassThrough = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kPassThrough = true;
#else
constexpr bool kPassThrough = false;
#endif
#else
constexpr bool kPassThrough = false;
#endif

constexpr std::size_t kGrain = 64;
constexpr std::size_t kClasses = 32;  // frames up to 2 KiB
// Each class keeps at most this many bytes of free frames per thread.
constexpr std::size_t kBytesPerClass = std::size_t{64} << 10;

struct FreeFrame {
  FreeFrame* next;
};

struct Pool {
  FreeFrame* head[kClasses] = {};
  std::uint32_t count[kClasses] = {};
  ~Pool();
};

// Trivially destructible, so it stays readable after `pool` is destroyed
// at thread exit: frames freed later go straight to the heap.
thread_local bool pool_gone = false;
thread_local Pool pool;

Pool::~Pool() {
  for (std::size_t c = 0; c < kClasses; ++c) {
    while (FreeFrame* f = head[c]) {
      head[c] = f->next;
      ::operator delete(f);
    }
  }
  pool_gone = true;
}

std::size_t size_class(std::size_t n) { return (n + kGrain - 1) / kGrain - 1; }

}  // namespace

void* frame_alloc(std::size_t n) {
  std::size_t c = size_class(n);
  if (kPassThrough || c >= kClasses) return ::operator new(n);
  // Always the class size, so any thread's pool may take it back.
  if (pool_gone) return ::operator new((c + 1) * kGrain);
  if (FreeFrame* f = pool.head[c]) {
    pool.head[c] = f->next;
    --pool.count[c];
    return f;
  }
  return ::operator new((c + 1) * kGrain);
}

void frame_free(void* p, std::size_t n) noexcept {
  std::size_t c = size_class(n);
  if (kPassThrough || c >= kClasses || pool_gone ||
      pool.count[c] >= kBytesPerClass / ((c + 1) * kGrain)) {
    ::operator delete(p);
    return;
  }
  auto* f = static_cast<FreeFrame*>(p);
  f->next = pool.head[c];
  pool.head[c] = f;
  ++pool.count[c];
}

}  // namespace gputn::sim::detail
