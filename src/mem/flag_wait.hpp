// Flag waits: the one way simulated code spins on memory words.
//
// A FlagWait is an awaitable sim::ParkedPoll over words of one Memory:
// `co_await` returns at the first hop of its poll cycle at which a watched
// word is >= its target, exactly when the equivalent spin loop would have
// returned, but without executing the polls in between (sim/poll.hpp).
// While parked it hears writes through Memory's write hook.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "mem/memory.hpp"
#include "sim/poll.hpp"
#include "sim/simulator.hpp"

namespace gputn::mem {

class FlagWait final : public sim::ParkedPoll, private WriteWatcher {
 public:
  /// A one-hop cycle: every `first.delay`, check per `first.check`.
  FlagWait(sim::Simulator& sim, Memory& memory, sim::PollHop first)
      : ParkedPoll(sim, {first, {}}, 1), mem_(&memory) {}
  /// A two-hop cycle (e.g. a pause step, then a timed load that checks).
  FlagWait(sim::Simulator& sim, Memory& memory, sim::PollHop first,
           sim::PollHop second)
      : ParkedPoll(sim, {first, second}, 2), mem_(&memory) {}
  ~FlagWait() override { stop_watching(); }

  /// Watch one more word: satisfied once *addr >= value. May be called
  /// while the wait is suspended (a waiter joining a multiplexed poll).
  FlagWait& add(Addr addr, std::uint64_t value);

  int words() const override { return static_cast<int>(flags_.size()); }
  bool satisfied(int item) const override;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  sim::PollResult await_resume() const { return result(); }

 private:
  struct Flag {
    Addr addr;
    std::uint64_t value;
  };
  void on_watched_write(int item) override { written(item); }
  void on_memory_gone() override { mem_ = nullptr; }
  void on_done() override { stop_watching(); }
  void stop_watching();

  Memory* mem_;
  std::vector<Flag> flags_;
  bool watching_ = false;
};

}  // namespace gputn::mem
