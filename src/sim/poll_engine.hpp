// Engine side of parked polls (sim/poll.hpp): the executed-event log, the
// grids that rank same-tick polls, and the wake-up arithmetic. Internal to
// the simulator; callers use ParkedPoll through mem::FlagWait.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/poll.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace gputn::sim {

/// Parked polls whose hops fall on the same ticks with the same delays
/// (same cycle, same phase). Their hops at a common tick keep one relative
/// order forever — the spin-loop order — which `members` records.
struct Grid {
  Tick period = 0;
  Tick phase = 0;
  int m = 1;
  std::array<Tick, 2> delays{};
  std::vector<ParkedPoll*> members;
};

class PollEngine {
 public:
  explicit PollEngine(Simulator& sim) : sim_(sim) {}

  /// Slot table: events that act on a poll name it by (slot, generation),
  /// so an event outliving its poll is a no-op instead of a dangling call.
  int acquire_slot(ParkedPoll* p);
  void release_slot(int slot);
  ParkedPoll* lookup(int slot, std::uint64_t gen) const;

  /// True when `p`'s cycle could tie with a parked poll of another cycle
  /// on a tick with equal delays (which no rank orders): `p` then runs
  /// timed.
  bool conflicts(const ParkedPoll& p) const;

  /// `p` parks in the current event, its next hop being `h`.
  void park(ParkedPoll& p, std::uint64_t h);
  /// Parked `p`'s injected hop found nothing: its next hop is `h`.
  void reanchor(ParkedPoll& p, std::uint64_t h);
  /// `p` stops being parked (its wait ended, or its frame is destroyed).
  void unpark(ParkedPoll& p);
  /// A write satisfied word `item` of parked `p`.
  void written(ParkedPoll& p, int item);
  /// The injected hop of `p` runs now.
  void resume(ParkedPoll& p);

  /// Run-loop hooks, called only while some poll is parked (inline: they
  /// run before every event then).
  void before_fifo_event() { log(kFifoKey, 0); }
  void before_drain_event(std::uint64_t seq) {
    if (seq == 0) return;  // resolver: schedules nothing, writes nothing
    if (seq & kVirtualBit) {
      log_injected();
    } else {
      log(seq, 0);
    }
  }
  bool has_injections() const { return !to_inject_.empty(); }
  /// Inserts the wake-ups decided for the current tick into the drain.
  void flush_injections();
  /// The run loop left its event (or never entered one).
  void outside_events() { cur_idx_ = kNoIdx; }

 private:
  static constexpr std::uint64_t kNoIdx = ~std::uint64_t{0};
  // Drain keys: a real event's key is its schedule counter (>= 1); 0 marks
  // a resolver, which runs first at its tick and is not logged; injected
  // hops carry the virtual bit over their counter key. FIFO events (all
  // scheduled at their own tick) follow every hop of that tick.
  static constexpr std::uint64_t kVirtualBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kFifoKey = kVirtualBit - 1;

  /// One executed event: its tick, order key and the schedule counter
  /// before it ran. `vd` > 0 marks an injected hop (key = its counter key,
  /// vd = its delay).
  struct Entry {
    Tick tick;
    std::uint64_t key;
    std::uint64_t counter;
    Tick vd;
  };
  /// A same-tick wake waiting to be inserted, or inserted and not yet run.
  struct Injected {
    ParkedPoll* p;
    std::uint64_t s;
    Tick d;
  };

  void log(std::uint64_t key, Tick vd);
  void log_injected();
  void trim();
  const Entry& at(std::uint64_t idx) const { return log_[idx - base_]; }
  std::size_t first_at_or_after(Tick t) const;
  std::uint64_t counter_after_tick(std::size_t i) const;
  /// Schedule counter at the place of a hop (key s, delay d) at tick t.
  std::uint64_t position(Tick t, std::uint64_t s, Tick d,
                         std::uint64_t after) const;
  /// Counter key of hop `j` of `p` (hop j - 1 must have run).
  std::uint64_t key_of(const ParkedPoll& p, std::uint64_t j) const;
  /// True when hop `j` of `p` (at the current tick) precedes the current
  /// event.
  bool passed(const ParkedPoll& p, std::uint64_t j) const;
  /// True when injected wake `a` runs before injected wake `b`.
  static bool runs_before(const Injected& a, const Injected& b);
  static int rank(const ParkedPoll& p);
  void join_grid(ParkedPoll& p);
  void leave_grid(ParkedPoll& p);
  void inject(ParkedPoll& p, std::uint64_t h);
  void stop_log();

  Simulator& sim_;
  std::vector<ParkedPoll*> slots_;
  std::vector<int> free_slots_;
  std::vector<std::unique_ptr<Grid>> grids_;
  int parked_ = 0;

  std::vector<Entry> log_;
  std::uint64_t base_ = 0;        // global index of log_[0]
  std::uint64_t cur_idx_ = kNoIdx;
  std::size_t trim_at_ = 8192;

  std::vector<Injected> to_inject_;  // decided, not yet in the drain
  std::vector<Injected> injected_;   // in the drain, in execution order
  std::uint64_t injected_key_ = 0;   // key of the injected hop running now
};

inline void PollEngine::log(std::uint64_t key, Tick vd) {
  if (log_.size() >= trim_at_) trim();
  log_.push_back(Entry{sim_.now(), key, sim_.next_seq_, vd});
  cur_idx_ = base_ + log_.size() - 1;
}

}  // namespace gputn::sim
