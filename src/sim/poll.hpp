// Parked flag polls: "wait until a watched word satisfies its target,
// polling on a fixed cycle", without executing the polls that see nothing.
//
// A spin loop (`while (*flag < v) co_await delay(P);`) runs one event per
// poll. A ParkedPoll produces exactly the same simulation with none of the
// empty polls: the waiter parks on its watched words, and the write that
// first satisfies one works out which poll ("hop") of the cycle would have
// seen it. Only that hop runs, at the same tick and in the same place among
// same-tick events as the spin loop's poll event would have. DESIGN.md
// ("Parked polls") states the ordering contract; in short:
//
//  * The hop cycle is a short list of (delay, check) steps. Hop h runs at
//    park tick + the cumulative delays of hops 1..h. A hop checks all
//    watched words, none (a pacing step), or one word in rotation.
//  * An elided hop's place among same-tick events is its spin-loop event's
//    (when, seq) key, recovered from a short log of the events the engine
//    executed while some poll was parked.
//  * When the engine runs a multi-shard window (or a cycle would tie with
//    another parked cycle it cannot rank), the poll runs every hop as a
//    timed event instead — the spin loop itself — so sharded runs stay
//    bit-identical to sequential ones.
//
// The engine side lives here and in Simulator; the watched words are
// memory (mem::FlagWait wires the write hook and the comparisons).
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>

#include "sim/units.hpp"

namespace gputn::sim {

class Simulator;
class PollEngine;

/// One step of a poll cycle: sleep `delay`, then check.
struct PollHop {
  static constexpr int kNone = -2;    ///< pacing step: checks nothing
  static constexpr int kAll = -1;     ///< checks every watched word
  static constexpr int kRotate = -3;  ///< hop h checks word (h - 1) % words
  Tick delay = 0;
  int check = kAll;
};

/// How a poll ended: the hop that saw a satisfied word (hops are counted
/// from 1 at the park point, so `hops` is also the number of polls the
/// spin loop would have run) and that word's index.
struct PollResult {
  std::uint64_t hops = 0;
  int item = -1;
};

/// The engine record of one flag wait. The owner (mem::FlagWait) says
/// which words exist and whether one is satisfied, reports every write to a
/// watched word through written(), and parks with park(). The object must
/// stay at a fixed address from park() until the coroutine resumes — it
/// lives in the awaiting coroutine's frame.
class ParkedPoll {
 public:
  /// `cycle` holds one or two hops; a one-hop cycle may rotate.
  ParkedPoll(Simulator& sim, std::array<PollHop, 2> cycle, int hops);
  virtual ~ParkedPoll();
  ParkedPoll(const ParkedPoll&) = delete;
  ParkedPoll& operator=(const ParkedPoll&) = delete;

  /// Number of watched words.
  virtual int words() const = 0;
  /// True when word `item` currently satisfies its target.
  virtual bool satisfied(int item) const = 0;

  const PollResult& result() const { return result_; }

 protected:
  /// Start waiting at the current tick; `h` resumes at the first hop that
  /// sees a satisfied word.
  void park(std::coroutine_handle<> h);
  /// Word `item` was written (or added) while waiting.
  void written(int item);
  /// True when this wait runs every hop as a timed event (a multi-shard
  /// engine, or a cycle that would tie with another grid): it needs no
  /// write hook. Otherwise the owner watches its words from park() on.
  bool always_timed() const { return always_timed_; }
  /// The wait ended: the owner stops watching.
  virtual void on_done() {}

 private:
  friend class PollEngine;
  enum class State { kIdle, kParked, kTimed, kDone };
  enum class Wake { kNone, kResolver, kInjected };

  Tick hop_delay(std::uint64_t h) const;
  int hop_check(std::uint64_t h) const;
  Tick hop_tick(std::uint64_t h) const;
  bool hop_checks(std::uint64_t h, int item) const;
  /// Index of the first hop whose tick is >= t.
  std::uint64_t first_hop_at_or_after(Tick t) const;
  bool timed() const;
  void schedule_timed_hop(std::uint64_t h);
  /// Runs hop `h` as an event: ends the wait, parks, or keeps hopping.
  void run_hop(std::uint64_t h);
  void finish(std::uint64_t h, int item);

  Simulator* sim_;
  std::array<PollHop, 2> cycle_;
  int m_;               // hops per cycle (1 or 2)
  Tick period_ = 0;     // sum of the cycle's delays
  State state_ = State::kIdle;
  bool always_timed_ = false;
  std::coroutine_handle<> handle_;
  PollResult result_;
  Tick t0_ = 0;  // hop 0: the park point

  // Parked-state bookkeeping (owned by PollEngine).
  int slot_ = -1;
  std::uint64_t anchor_h_ = 0;      // first hop whose key is known
  std::uint64_t anchor_s_ = 0;      // its schedule-counter key
  std::uint64_t anchor_after_ = 0;  // it follows this log entry (or none)
  struct Grid* grid_ = nullptr;
  Wake wake_ = Wake::kNone;
  std::uint64_t wake_h_ = 0;
  std::uint64_t wake_gen_ = 0;
};

}  // namespace gputn::sim
