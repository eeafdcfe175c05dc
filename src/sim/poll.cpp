#include "sim/poll.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "sim/poll_engine.hpp"
#include "sim/simulator.hpp"

namespace gputn::sim {

// --- ParkedPoll ------------------------------------------------------------

ParkedPoll::ParkedPoll(Simulator& sim, std::array<PollHop, 2> cycle,
                       int hops)
    : sim_(&sim), cycle_(cycle), m_(hops) {
  if (m_ < 1 || m_ > 2 || cycle_[0].delay <= 0 ||
      (m_ == 2 && (cycle_[1].delay <= 0 || cycle_[0].check == PollHop::kRotate ||
                   cycle_[1].check == PollHop::kRotate))) {
    throw std::invalid_argument("poll cycle: one or two hops with delay > 0");
  }
  period_ = cycle_[0].delay + (m_ == 2 ? cycle_[1].delay : 0);
}

ParkedPoll::~ParkedPoll() {
  if (slot_ < 0) return;
  PollEngine& eng = sim_->polls();
  if (state_ == State::kParked) eng.unpark(*this);
  eng.release_slot(slot_);
}

bool ParkedPoll::timed() const {
  return sim_->timed_polls_ || sim_->polls().conflicts(*this);
}

Tick ParkedPoll::hop_delay(std::uint64_t h) const {
  return cycle_[(h - 1) % static_cast<std::uint64_t>(m_)].delay;
}

int ParkedPoll::hop_check(std::uint64_t h) const {
  return cycle_[(h - 1) % static_cast<std::uint64_t>(m_)].check;
}

Tick ParkedPoll::hop_tick(std::uint64_t h) const {
  if (h == 0) return t0_;
  std::uint64_t k = h - 1;
  auto m = static_cast<std::uint64_t>(m_);
  Tick t = t0_ + static_cast<Tick>(k / m) * period_ + cycle_[0].delay;
  if (k % m == 1) t += cycle_[1].delay;
  return t;
}

bool ParkedPoll::hop_checks(std::uint64_t h, int item) const {
  int c = hop_check(h);
  if (c == PollHop::kAll) return true;
  if (c == PollHop::kNone) return false;
  return static_cast<int>((h - 1) % static_cast<std::uint64_t>(words())) ==
         item;
}

std::uint64_t ParkedPoll::first_hop_at_or_after(Tick t) const {
  if (t <= t0_) return 1;
  auto x = static_cast<std::uint64_t>(t - t0_);
  auto p = static_cast<std::uint64_t>(period_);
  auto m = static_cast<std::uint64_t>(m_);
  std::uint64_t full = x / p;
  std::uint64_t r = x % p;
  if (r == 0) return full * m;
  return full * m +
         (r <= static_cast<std::uint64_t>(cycle_[0].delay) ? 1 : 2);
}

void ParkedPoll::park(std::coroutine_handle<> h) {
  handle_ = h;
  t0_ = sim_->now();
  PollEngine& eng = sim_->polls();
  slot_ = eng.acquire_slot(this);
  if (timed()) {
    always_timed_ = true;
    state_ = State::kTimed;
    schedule_timed_hop(1);
    return;
  }
  eng.park(*this, 1);
}

void ParkedPoll::written(int item) {
  if (state_ == State::kParked) sim_->polls().written(*this, item);
}

void ParkedPoll::run_hop(std::uint64_t h) {
  int c = hop_check(h);
  bool any = false;
  for (int i = 0, n = words(); i < n; ++i) {
    if (!satisfied(i)) continue;
    if (c != PollHop::kNone && hop_checks(h, i)) {
      finish(h, i);
      return;
    }
    any = true;
  }
  PollEngine& eng = sim_->polls();
  if (state_ == State::kTimed) {
    // Keep hopping while a word this hop did not look at is satisfied
    // (the hop that reads it is near); otherwise nothing can end the wait
    // without a write, so park again from this hop.
    if (always_timed_ || any || c == PollHop::kNone || eng.conflicts(*this)) {
      schedule_timed_hop(h + 1);
    } else {
      eng.park(*this, h + 1);
    }
    return;
  }
  // An injected hop whose word fell back below its target.
  if (any) {
    eng.unpark(*this);
    state_ = State::kTimed;
    schedule_timed_hop(h + 1);
  } else {
    eng.reanchor(*this, h + 1);
  }
}

void ParkedPoll::schedule_timed_hop(std::uint64_t h) {
  PollEngine* eng = &sim_->polls();
  int slot = slot_;
  std::uint64_t gen = ++wake_gen_;
  sim_->schedule_at(hop_tick(h), [eng, slot, gen, h] {
    if (ParkedPoll* p = eng->lookup(slot, gen)) p->run_hop(h);
  });
}

void ParkedPoll::finish(std::uint64_t h, int item) {
  result_ = PollResult{h, item};
  if (state_ == State::kParked) sim_->polls().unpark(*this);
  on_done();
  sim_->polls().release_slot(slot_);
  slot_ = -1;
  state_ = State::kDone;
  handle_.resume();
}

// --- PollEngine: slots and grids ------------------------------------------

int PollEngine::acquire_slot(ParkedPoll* p) {
  if (!free_slots_.empty()) {
    int s = free_slots_.back();
    free_slots_.pop_back();
    slots_[static_cast<std::size_t>(s)] = p;
    return s;
  }
  slots_.push_back(p);
  return static_cast<int>(slots_.size()) - 1;
}

void PollEngine::release_slot(int slot) {
  slots_[static_cast<std::size_t>(slot)] = nullptr;
  free_slots_.push_back(slot);
}

ParkedPoll* PollEngine::lookup(int slot, std::uint64_t gen) const {
  ParkedPoll* p = slots_[static_cast<std::size_t>(slot)];
  return p != nullptr && p->wake_gen_ == gen ? p : nullptr;
}

bool PollEngine::conflicts(const ParkedPoll& p) const {
  const Tick phase = p.t0_ % p.period_;
  for (const auto& g : grids_) {
    if (g->members.empty()) continue;
    if (g->m == p.m_ && g->delays[0] == p.cycle_[0].delay &&
        (g->m == 1 || g->delays[1] == p.cycle_[1].delay)) {
      continue;  // same cycle: distinct phases never share a tick
    }
    for (int i = 0; i < p.m_; ++i) {
      Tick d = p.cycle_[static_cast<std::size_t>(i)].delay;
      Tick off_p = p.cycle_[0].delay + (i == 1 ? p.cycle_[1].delay : 0);
      for (int k = 0; k < g->m; ++k) {
        if (g->delays[static_cast<std::size_t>(k)] != d) continue;
        // Hops of equal delay meet iff their offsets agree modulo the
        // gcd of the periods.
        Tick gcd = std::gcd(g->period, p.period_);
        Tick off_g = g->delays[0] + (k == 1 ? g->delays[1] : 0);
        Tick diff = (phase + off_p) - (g->phase + off_g);
        if (((diff % gcd) + gcd) % gcd == 0) return true;
      }
    }
  }
  return false;
}

int PollEngine::rank(const ParkedPoll& p) {
  const auto& mem = p.grid_->members;
  return static_cast<int>(std::find(mem.begin(), mem.end(), &p) -
                          mem.begin());
}

void PollEngine::join_grid(ParkedPoll& p) {
  Tick phase = p.t0_ % p.period_;
  Grid* grid = nullptr;
  Grid* spare = nullptr;
  for (auto& g : grids_) {
    if (g->members.empty()) {
      spare = g.get();
    } else if (g->period == p.period_ && g->phase == phase && g->m == p.m_ &&
               g->delays[0] == p.cycle_[0].delay &&
               (p.m_ == 1 || g->delays[1] == p.cycle_[1].delay)) {
      grid = g.get();
      break;
    }
  }
  if (grid == nullptr) {
    // Emptied grids are kept for reuse: most parks open a grid of one.
    if (spare == nullptr) {
      grids_.push_back(std::make_unique<Grid>());
      spare = grids_.back().get();
    }
    grid = spare;
    grid->period = p.period_;
    grid->phase = phase;
    grid->m = p.m_;
    grid->delays = {p.cycle_[0].delay, p.m_ == 2 ? p.cycle_[1].delay : 0};
  }
  // The newcomer's hops follow, at every common tick, exactly the members
  // whose hop at this tick precedes the park event (or that parked at
  // this tick already): a prefix of the member order.
  Tick now = sim_.now();
  auto& mem = grid->members;
  std::size_t pos = 0;
  for (std::size_t i = mem.size(); i > 0; --i) {
    ParkedPoll& a = *mem[i - 1];
    std::uint64_t j = a.first_hop_at_or_after(now);
    if (a.hop_tick(j) != now || passed(a, j)) {
      pos = i;
      break;
    }
  }
  mem.insert(mem.begin() + static_cast<std::ptrdiff_t>(pos), &p);
  p.grid_ = grid;
}

void PollEngine::leave_grid(ParkedPoll& p) {
  std::erase(p.grid_->members, &p);
  p.grid_ = nullptr;
}

// --- PollEngine: park, wake, resume ---------------------------------------

void PollEngine::park(ParkedPoll& p, std::uint64_t h) {
  if (parked_++ == 0) {
    // Start the log with a stand-in for the current event: no parked hop
    // can fall on this tick before it, so only its identity matters.
    log_.clear();
    base_ = 0;
    trim_at_ = 8192;
    log_.push_back(Entry{sim_.now(), kFifoKey, sim_.next_seq_, 0});
    cur_idx_ = 0;
    sim_.poll_log_ = true;
  }
  p.state_ = ParkedPoll::State::kParked;
  p.wake_ = ParkedPoll::Wake::kNone;
  ++p.wake_gen_;
  ++sim_.parked_idle_;
  // Hop h's spin-loop event is scheduled right here: its key is the
  // counter now.
  p.anchor_h_ = h;
  p.anchor_s_ = sim_.next_seq_;
  p.anchor_after_ = kNoIdx;
  join_grid(p);
  for (int i = 0, n = p.words(); i < n; ++i) {
    if (p.satisfied(i)) {
      written(p, i);
      break;
    }
  }
}

void PollEngine::reanchor(ParkedPoll& p, std::uint64_t h) {
  p.anchor_h_ = h;
  p.anchor_s_ = sim_.next_seq_;
  p.anchor_after_ = kNoIdx;
}

void PollEngine::unpark(ParkedPoll& p) {
  if (p.wake_ == ParkedPoll::Wake::kNone) --sim_.parked_idle_;
  p.wake_ = ParkedPoll::Wake::kNone;
  ++p.wake_gen_;
  leave_grid(p);
  p.state_ = ParkedPoll::State::kIdle;
  if (--parked_ == 0) stop_log();
}

void PollEngine::stop_log() {
  sim_.poll_log_ = false;
  log_.clear();
  base_ = 0;
  cur_idx_ = kNoIdx;
}

void PollEngine::written(ParkedPoll& p, int item) {
  if (p.wake_ == ParkedPoll::Wake::kInjected || !p.satisfied(item)) return;
  // The first hop after the writer that checks anything: for a rotating
  // cycle it may read another word, and the hops run timed from there.
  Tick now = sim_.now();
  std::uint64_t h = std::max(p.first_hop_at_or_after(now), p.anchor_h_);
  if (p.hop_tick(h) == now && passed(p, h)) ++h;
  while (p.hop_check(h) == PollHop::kNone) ++h;
  if (p.wake_ == ParkedPoll::Wake::kResolver) {
    // A pending wake came from an earlier write, so it is never later.
    assert(p.wake_h_ <= h);
    return;
  }
  --sim_.parked_idle_;
  if (p.hop_tick(h) == now) {
    inject(p, h);
    return;
  }
  p.wake_ = ParkedPoll::Wake::kResolver;
  p.wake_h_ = h;
  std::uint64_t gen = ++p.wake_gen_;
  int slot = p.slot_;
  PollEngine* eng = this;
  // Resolvers carry key 0: they run first at their tick, when every hop
  // before the wake hop has run, and place the hop itself.
  sim_.schedule_keyed(p.hop_tick(h), 0, [eng, slot, gen] {
    if (ParkedPoll* q = eng->lookup(slot, gen)) eng->inject(*q, q->wake_h_);
  });
}

void PollEngine::inject(ParkedPoll& p, std::uint64_t h) {
  p.wake_ = ParkedPoll::Wake::kInjected;
  p.wake_h_ = h;
  ++p.wake_gen_;
  to_inject_.push_back(Injected{&p, key_of(p, h), p.hop_delay(h)});
}

bool PollEngine::runs_before(const Injected& a, const Injected& b) {
  if (a.s != b.s) return a.s < b.s;
  // Equal counter keys: the hop scheduled at the earlier tick (the longer
  // delay) was scheduled first; equal delays share a grid, whose order
  // is the spin loop's.
  if (a.d != b.d) return a.d > b.d;
  return rank(*a.p) < rank(*b.p);
}

void PollEngine::flush_injections() {
  Tick now = sim_.now();
  auto& drain = sim_.drain_;
  for (const Injected& in : to_inject_) {
    // Walk the drain from its tail (next to run) past every event that
    // runs before the hop.
    std::size_t pos = drain.size();
    std::size_t k = 0;  // injected hops passed so far
    while (pos > 0) {
      const auto& item = drain[pos - 1];
      if (item.when != now) break;
      if (item.seq & kVirtualBit) {
        if (!runs_before(injected_[k], in)) break;
        ++k;
      } else if (item.seq > in.s) {
        break;
      }
      --pos;
    }
    ParkedPoll* p = in.p;
    int slot = p->slot_;
    std::uint64_t gen = p->wake_gen_;
    PollEngine* eng = this;
    drain.insert(drain.begin() + static_cast<std::ptrdiff_t>(pos),
                 Simulator::Item{now, kVirtualBit | in.s,
                                 EventFn([eng, slot, gen] {
                                   if (ParkedPoll* q = eng->lookup(slot, gen)) {
                                     eng->resume(*q);
                                   }
                                 })});
    injected_.insert(injected_.begin() + static_cast<std::ptrdiff_t>(k), in);
    ++sim_.pending_;
  }
  to_inject_.clear();
}

void PollEngine::resume(ParkedPoll& p) {
  Tick now = sim_.now();
  std::uint64_t s = injected_key_;
  // Settle every grid partner whose elided hop at this tick ties with
  // this one on the counter key: the grid order says which side of it the
  // partner's hop ran on, which the log alone cannot tell later.
  for (ParkedPoll* a : p.grid_->members) {
    if (a == &p) continue;
    if (a->wake_ == ParkedPoll::Wake::kInjected && a->hop_tick(a->wake_h_) == now) {
      continue;
    }
    std::uint64_t j = a->first_hop_at_or_after(now);
    if (a->hop_tick(j) != now || a->anchor_h_ > j) continue;
    std::uint64_t sa = key_of(*a, j);
    if (sa != s) continue;
    if (rank(*a) < rank(p)) {
      a->anchor_h_ = j + 1;
      a->anchor_s_ = sim_.next_seq_;
      a->anchor_after_ = kNoIdx;
    } else {
      a->anchor_h_ = j;
      a->anchor_s_ = sa;
      a->anchor_after_ = cur_idx_;
    }
  }
  // Back to an idle parked poll for the hop itself, which ends the wait,
  // re-anchors, or leaves for timed hops.
  p.wake_ = ParkedPoll::Wake::kNone;
  ++p.wake_gen_;
  ++sim_.parked_idle_;
  p.run_hop(p.wake_h_);
}

// --- PollEngine: the log ---------------------------------------------------

void PollEngine::log_injected() {
  const Injected in = injected_.front();
  injected_.erase(injected_.begin());
  injected_key_ = in.s;
  log(in.s, in.d);
}

void PollEngine::trim() {
  // Re-anchor every parked poll at its latest hop that has fully run, then
  // drop the entries no anchor can reach.
  Tick now = sim_.now();
  Tick keep = now;
  std::uint64_t keep_idx = cur_idx_ == kNoIdx ? base_ + log_.size() : cur_idx_;
  for (ParkedPoll* p : slots_) {
    if (p == nullptr || p->state_ != ParkedPoll::State::kParked) continue;
    std::uint64_t k = p->first_hop_at_or_after(now);
    if (k > 1) --k;  // latest hop strictly before now (or hop 1)
    if (p->hop_tick(k) < now && k > p->anchor_h_) {
      std::uint64_t s = key_of(*p, k);
      p->anchor_h_ = k;
      p->anchor_s_ = s;
      p->anchor_after_ = kNoIdx;
    }
    keep = std::min(keep, p->hop_tick(p->anchor_h_));
    if (p->anchor_after_ != kNoIdx) keep_idx = std::min(keep_idx, p->anchor_after_);
  }
  std::size_t cut = first_at_or_after(keep);
  cut = std::min<std::size_t>(cut, keep_idx - base_);
  if (cut > 0) {
    log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(cut));
    base_ += cut;
  }
  trim_at_ = std::max<std::size_t>(8192, 2 * log_.size());
}

std::size_t PollEngine::first_at_or_after(Tick t) const {
  return static_cast<std::size_t>(
      std::partition_point(log_.begin(), log_.end(),
                           [t](const Entry& e) { return e.tick < t; }) -
      log_.begin());
}

std::uint64_t PollEngine::counter_after_tick(std::size_t i) const {
  return i < log_.size() ? log_[i].counter : sim_.next_seq_;
}

namespace {
/// True when a hop with counter key `s` and delay `d` runs before the
/// logged event `e` at the same tick.
template <typename EntryT>
bool hop_before(std::uint64_t s, Tick d, const EntryT& e) {
  if (e.vd == 0) return e.key > s;
  if (s != e.key) return s < e.key;
  // Tied injected hop: the longer delay was scheduled first. Equal delays
  // (the same grid) were settled when the injected hop ran.
  return d > e.vd;
}
}  // namespace

std::uint64_t PollEngine::position(Tick t, std::uint64_t s, Tick d,
                                   std::uint64_t after) const {
  std::size_t i = after != kNoIdx ? static_cast<std::size_t>(after + 1 - base_)
                                  : first_at_or_after(t);
  for (; i < log_.size() && log_[i].tick == t; ++i) {
    if (hop_before(s, d, log_[i])) return log_[i].counter;
  }
  return counter_after_tick(i);
}

std::uint64_t PollEngine::key_of(const ParkedPoll& p, std::uint64_t j) const {
  if (j == p.anchor_h_) return p.anchor_s_;
  // Walk back to the latest hop whose tick ran no event: the counter there
  // is the counter before the next logged event, whatever came earlier.
  std::uint64_t start = p.anchor_h_;
  std::uint64_t s = p.anchor_s_;
  for (std::uint64_t k = j - 1;; --k) {
    Tick t = p.hop_tick(k);
    std::size_t i = first_at_or_after(t);
    if ((i == log_.size() || log_[i].tick != t) && k != p.anchor_h_) {
      start = k + 1;
      s = counter_after_tick(i);
      break;
    }
    if (k == p.anchor_h_) break;
  }
  for (std::uint64_t k = start; k < j; ++k) {
    s = position(p.hop_tick(k), s, p.hop_delay(k),
                 k == p.anchor_h_ ? p.anchor_after_ : kNoIdx);
  }
  return s;
}

bool PollEngine::passed(const ParkedPoll& p, std::uint64_t j) const {
  if (p.wake_ == ParkedPoll::Wake::kInjected && p.wake_h_ == j) return false;
  if (p.anchor_h_ > j) return true;
  if (cur_idx_ == kNoIdx) return true;
  std::uint64_t s = key_of(p, j);
  Tick d = p.hop_delay(j);
  std::uint64_t after = j == p.anchor_h_ ? p.anchor_after_ : kNoIdx;
  std::size_t i = after != kNoIdx ? static_cast<std::size_t>(after + 1 - base_)
                                  : first_at_or_after(sim_.now());
  for (auto end = static_cast<std::size_t>(cur_idx_ - base_); i <= end; ++i) {
    if (hop_before(s, d, log_[i])) return true;
  }
  return false;
}

}  // namespace gputn::sim
