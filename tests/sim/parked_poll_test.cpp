// Parked flag polls against the spin loops they replace.
//
// Every scenario runs twice on fresh simulators: once with each waiter
// written as a plain spin loop (one delay event per poll, exactly the loops
// the simulator's components used to run), once with mem::FlagWait. Every
// actor appends (tick, actor, action) to one trace, including a sampler
// that records Simulator::pending_events() the way obs::TimeSeries reads
// it. The two traces must be identical: same wake-ups at the same ticks in
// the same order, same hop counts, same everything that follows.
#include "mem/flag_wait.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "mem/dma.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/units.hpp"

namespace gputn::mem {
namespace {

using sim::PollHop;
using sim::PollResult;
using sim::Tick;

struct Rec {
  Tick t;
  int actor;
  std::string what;
  bool operator==(const Rec&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Rec& r) {
  return os << "(" << r.t << ", " << r.actor << ", " << r.what << ")";
}

enum class Mode { kSpin, kParked, kTimed };

struct Rig {
  explicit Rig(Mode m) : mode(m) { sim.set_timed_polls(m == Mode::kTimed); }
  Mode mode;
  sim::Simulator sim;
  Memory memory{1 << 20};
  DmaEngine dma{sim, memory, sim::Bandwidth::bytes_per_sec(8e9), sim::ns(7)};
  std::vector<Rec> trace;
  void log(int actor, std::string what) {
    trace.push_back(Rec{sim.now(), actor, std::move(what)});
  }
};

struct Word {
  Addr addr;
  std::uint64_t value;
};

/// A dynamic watch list, as the serving workload's reactor keeps one: words
/// may join while the poller spins.
struct Mux {
  std::vector<Word> words;
  FlagWait* spinning = nullptr;
  void add(Word w) {
    words.push_back(w);
    if (spinning != nullptr) spinning->add(w.addr, w.value);
  }
};

std::vector<Word> one(Addr a, std::uint64_t v) { return {Word{a, v}}; }

int hop_checks(const std::vector<PollHop>& cycle, std::uint64_t h,
               std::size_t words, std::size_t i) {
  const PollHop& hop = cycle[(h - 1) % cycle.size()];
  if (hop.check == PollHop::kAll) return 1;
  if (hop.check == PollHop::kNone) return 0;
  return (h - 1) % words == i ? 1 : 0;
}

/// The wait under test: a spin loop, or a FlagWait with the same cycle.
sim::Task<PollResult> wait(Rig& r, std::vector<Word> words,
                           std::vector<PollHop> cycle, Mux* mux = nullptr) {
  if (r.mode == Mode::kSpin) {
    for (std::uint64_t h = 1;; ++h) {
      co_await r.sim.delay(cycle[(h - 1) % cycle.size()].delay);
      const auto& ws = mux != nullptr ? mux->words : words;
      for (std::size_t i = 0; i < ws.size(); ++i) {
        if (hop_checks(cycle, h, ws.size(), i) &&
            r.memory.load<std::uint64_t>(ws[i].addr) >= ws[i].value) {
          co_return PollResult{h, static_cast<int>(i)};
        }
      }
    }
  }
  FlagWait w = cycle.size() == 1
                   ? FlagWait(r.sim, r.memory, cycle[0])
                   : FlagWait(r.sim, r.memory, cycle[0], cycle[1]);
  for (const Word& x : mux != nullptr ? mux->words : words) {
    w.add(x.addr, x.value);
  }
  if (mux != nullptr) mux->spinning = &w;
  PollResult res = co_await w;
  if (mux != nullptr) mux->spinning = nullptr;
  co_return res;
}

/// Samples pending_events() every `every` until nothing else is pending,
/// like obs::TimeSeries.
void sampler(Rig& r, Tick every) {
  r.log(99, "pending " + std::to_string(r.sim.pending_events()));
  if (r.sim.pending_events() > 0) {
    r.sim.schedule_in(every, [&r, every] { sampler(r, every); });
  }
}

void write_at(Rig& r, Tick from, Tick at, Addr a, std::uint64_t v,
              int actor) {
  r.sim.schedule_at(from, [&r, at, a, v, actor] {
    r.sim.schedule_at(at, [&r, a, v, actor] {
      r.memory.store<std::uint64_t>(a, v);
      r.log(actor, "store " + std::to_string(v));
    });
  });
}

std::string res(const PollResult& p) {
  return "wake hops=" + std::to_string(p.hops) +
         " item=" + std::to_string(p.item);
}

// --- hand-written cases -----------------------------------------------------

std::vector<Rec> write_at_own_tick(Mode m) {
  Rig r(m);
  Addr f = r.memory.alloc(8);
  const std::vector<PollHop> cpu = {{sim::ns(60)}};
  r.sim.spawn(
      [](Rig& r, Addr f, std::vector<PollHop> c) -> sim::Task<> {
        r.log(1, res(co_await wait(r, one(f, 1), c)));
        r.log(1, res(co_await wait(r, one(f, 2), c)));
        r.log(1, res(co_await wait(r, one(f, 3), c)));
      }(r, f, cpu),
      "poller");
  // Poll ticks are multiples of 60 ns. A write at a poll tick scheduled
  // before the poll's own event was scheduled (at the previous poll) runs
  // first and is seen by that poll; one scheduled after it is not.
  write_at(r, 0, sim::ns(600), f, 1, 2);
  write_at(r, sim::ns(1150), sim::ns(1200), f, 2, 3);
  write_at(r, sim::ns(1740), sim::ns(1800), f, 3, 4);
  sampler(r, sim::ns(37));
  r.sim.run();
  r.log(0, "end");
  return r.trace;
}

TEST(ParkedPoll, WriteAtThePollsOwnTick) {
  auto spin = write_at_own_tick(Mode::kSpin);
  EXPECT_EQ(write_at_own_tick(Mode::kParked), spin);
  EXPECT_EQ(write_at_own_tick(Mode::kTimed), spin);
  // The first wait sees its write at 600 ns (hop 10), the second misses
  // the 1200 ns write by one poll.
  ASSERT_GE(spin.size(), 4u);
  bool saw_1260 = false;
  for (const Rec& x : spin) {
    if (x.actor == 1 && x.t == sim::ns(1260)) saw_1260 = true;
  }
  EXPECT_TRUE(saw_1260);
}

std::vector<Rec> co_grid(Mode m) {
  Rig r(m);
  std::vector<Addr> f;
  for (int i = 0; i < 4; ++i) f.push_back(r.memory.alloc(8));
  const std::vector<PollHop> cyc = {{sim::ns(120)}};
  // Four pollers on one 120 ns grid (parked at 0 and at 120 ns), each
  // re-waiting after it wakes, plus a writer on the grid's ticks.
  for (int i = 0; i < 4; ++i) {
    r.sim.schedule_at(i < 2 ? 0 : sim::ns(120), [&r, f, cyc, i] {
      r.sim.spawn(
          [](Rig& r, std::vector<Addr> f, std::vector<PollHop> c,
             int i) -> sim::Task<> {
            for (std::uint64_t round = 1; round <= 3; ++round) {
              PollResult p =
                  co_await wait(r, one(f[static_cast<std::size_t>(i)], round), c);
              r.log(10 + i, res(p));
              // Work that schedules events between the co-grid hops.
              r.memory.store<std::uint64_t>(
                  f[static_cast<std::size_t>((i + 1) % 4)], round);
              co_await r.sim.delay(sim::ns(1));
            }
          }(r, f, cyc, i),
          "poller");
    });
  }
  write_at(r, 0, sim::ns(480), f[0], 1, 2);
  write_at(r, sim::ns(700), sim::ns(720), f[2], 3, 3);
  write_at(r, sim::ns(10), sim::ns(1200), f[3], 3, 4);
  write_at(r, sim::ns(1100), sim::ns(1200), f[0], 3, 5);
  write_at(r, sim::ns(1500), sim::ns(1560), f[1], 3, 6);
  sampler(r, sim::ns(41));
  r.sim.run();
  r.log(0, "end");
  return r.trace;
}

TEST(ParkedPoll, CoGridPollersKeepTheirOrder) {
  auto spin = co_grid(Mode::kSpin);
  EXPECT_EQ(co_grid(Mode::kParked), spin);
  EXPECT_EQ(co_grid(Mode::kTimed), spin);
}

std::vector<Rec> multi_word_reset_and_dma(Mode m) {
  Rig r(m);
  Addr a = r.memory.alloc(8);
  Addr b = r.memory.alloc(8);
  Addr src = r.memory.alloc(64);
  r.memory.store<std::uint64_t>(src, 7);
  Mux mux;
  mux.words.push_back({a, 1});
  r.sim.spawn(
      [](Rig& r, Mux& mux) -> sim::Task<> {
        const std::vector<PollHop> cyc = {{sim::ns(60)}};
        for (int k = 0; k < 3; ++k) {
          r.log(1, res(co_await wait(r, std::vector<Word>(), cyc, &mux)));
          // Drop whatever is satisfied, as the reactor does.
          std::erase_if(mux.words, [&](const Word& w) {
            return r.memory.load<std::uint64_t>(w.addr) >= w.value;
          });
          if (mux.words.empty()) co_return;
        }
      }(r, mux),
      "mux");
  // A word joins while the poller spins; a write satisfies a word and a
  // reset takes it back below the target before the next poll.
  r.sim.schedule_at(sim::ns(250), [&] { mux.add({b, 7}); });
  write_at(r, 0, sim::ns(400), a, 1, 2);
  write_at(r, 0, sim::ns(410), a, 0, 3);
  write_at(r, 0, sim::ns(700), a, 1, 4);
  // The DMA engine's copy lands the value 7 on word b.
  r.sim.schedule_at(sim::ns(900), [&] {
    r.sim.spawn(r.dma.copy(b, src, 8), "dma");
  });
  sampler(r, sim::ns(29));
  r.sim.run();
  r.log(0, "end");
  return r.trace;
}

TEST(ParkedPoll, MultiWordResetAndDmaWrites) {
  auto spin = multi_word_reset_and_dma(Mode::kSpin);
  EXPECT_EQ(multi_word_reset_and_dma(Mode::kParked), spin);
  EXPECT_EQ(multi_word_reset_and_dma(Mode::kTimed), spin);
}

// --- randomized scenarios -----------------------------------------------------

/// Pollers of every cycle shape (host, GPU pause + load, rotating kernel
/// sweep, GDS) on words that writers raise and reset at ticks that often
/// land on poll grids, from events scheduled at varying times before.
/// Woken pollers write, schedule, and wait again from the resumed hop.
std::vector<Rec> random_scenario(Mode m, std::uint64_t seed) {
  Rig r(m);
  std::mt19937_64 rng(seed);
  const int kWords = 6;
  std::vector<Addr> words;
  for (int i = 0; i < kWords; ++i) words.push_back(r.memory.alloc(8));
  Addr src = r.memory.alloc(64);
  r.memory.store<std::uint64_t>(src, 3);
  const std::vector<std::vector<PollHop>> cycles = {
      {{sim::ns(60)}},
      {{sim::ns(100), PollHop::kNone}, {sim::ns(120), PollHop::kAll}},
      {{sim::ns(120), PollHop::kRotate}},
      {{sim::ns(100)}},
      {{sim::ns(40)}},
  };
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  auto tick = [&](Tick span) {
    // Half the ticks on a 20 ns lattice, where poll grids meet.
    Tick t = static_cast<Tick>(rng() % static_cast<std::uint64_t>(span));
    return pick(2) == 0 ? t - t % sim::ns(20) : t;
  };
  const int pollers = 3 + pick(5);
  for (int p = 0; p < pollers; ++p) {
    struct Step {
      std::vector<Word> w;
      int cycle;
      int write;  // word written after waking, or -1
      Tick pause;
    };
    std::vector<Step> steps;
    for (int k = 0, n = 1 + pick(4); k < n; ++k) {
      Step s;
      s.cycle = pick(static_cast<int>(cycles.size()));
      for (int i = 0, nw = 1 + pick(3); i < nw; ++i) {
        s.w.push_back({words[static_cast<std::size_t>(pick(kWords))],
                       static_cast<std::uint64_t>(1 + pick(3))});
      }
      s.write = pick(3) == 0 ? pick(kWords) : -1;
      s.pause = pick(2) == 0 ? 0 : static_cast<Tick>(pick(200)) * 1000;
      steps.push_back(s);
    }
    Tick start = tick(sim::ns(600));
    r.sim.schedule_at(start, [&r, steps, cycles, words, p] {
      r.sim.spawn(
          [](Rig& r, std::vector<Step> steps,
             std::vector<std::vector<PollHop>> cycles,
             std::vector<Addr> words, int p) -> sim::Task<> {
            for (const Step& s : steps) {
              PollResult res_ = co_await wait(
                  r, s.w, cycles[static_cast<std::size_t>(s.cycle)]);
              r.log(10 + p, res(res_));
              if (s.write >= 0) {
                Addr a = words[static_cast<std::size_t>(s.write)];
                r.memory.store<std::uint64_t>(
                    a, r.memory.load<std::uint64_t>(a) + 1);
              }
              if (s.pause > 0) co_await r.sim.delay(s.pause);
            }
            r.log(10 + p, "done");
          }(r, steps, cycles, words, p),
          "poller");
    });
  }
  for (int i = 0, n = 10 + pick(20); i < n; ++i) {
    Tick at = tick(sim::us(4));
    Tick from = at > 0 ? static_cast<Tick>(rng() % static_cast<std::uint64_t>(at))
                       : 0;
    from = std::min(from, at);
    Addr a = words[static_cast<std::size_t>(pick(kWords))];
    if (pick(6) == 0) {
      r.sim.schedule_at(at, [&r, a, src] {
        r.sim.spawn(r.dma.copy(a, src, 8), "dma");
      });
      continue;
    }
    std::uint64_t v = static_cast<std::uint64_t>(pick(4));
    write_at(r, from, at, a, v, 2);
  }
  // Release everyone eventually.
  for (int i = 0; i < kWords; ++i) {
    write_at(r, 0, sim::us(5), words[static_cast<std::size_t>(i)], 1000, 3);
  }
  sampler(r, sim::ns(53));
  r.sim.run();
  r.log(0, "end");
  return r.trace;
}

TEST(ParkedPoll, RandomScenariosMatchTheSpinLoops) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    auto spin = random_scenario(Mode::kSpin, seed);
    auto parked = random_scenario(Mode::kParked, seed);
    ASSERT_EQ(parked, spin) << "seed " << seed;
    ASSERT_EQ(random_scenario(Mode::kTimed, seed), spin) << "seed " << seed;
  }
}

TEST(ParkedPoll, ParkedPollsRunNoEmptyHops) {
  Rig spin(Mode::kSpin);
  Rig parked(Mode::kParked);
  for (Rig* r : {&spin, &parked}) {
    Addr f = r->memory.alloc(8);
    r->sim.spawn(
        [](Rig& r, Addr f) -> sim::Task<> {
          std::vector<PollHop> cyc(1, PollHop{sim::ns(60)});
          PollResult p = co_await wait(r, one(f, 1), cyc);
          r.log(1, res(p));
        }(*r, f),
        "poller");
    write_at(*r, 0, sim::us(60), f, 1, 2);
    r->sim.run();
  }
  EXPECT_EQ(parked.trace, spin.trace);
  EXPECT_GE(spin.sim.executed_events(), 1000u);
  EXPECT_LE(parked.sim.executed_events(), 10u);
}

}  // namespace
}  // namespace gputn::mem
