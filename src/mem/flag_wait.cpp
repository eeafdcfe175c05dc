#include "mem/flag_wait.hpp"

namespace gputn::mem {

FlagWait& FlagWait::add(Addr addr, std::uint64_t value) {
  flags_.push_back(Flag{addr, value});
  int item = words() - 1;
  if (watching_) {
    mem_->watch(addr, this, item);
    written(item);
  }
  return *this;
}

bool FlagWait::satisfied(int item) const {
  const Flag& f = flags_[static_cast<std::size_t>(item)];
  return mem_->load<std::uint64_t>(f.addr) >= f.value;
}

void FlagWait::await_suspend(std::coroutine_handle<> h) {
  park(h);
  if (always_timed()) return;
  // Nothing runs between park() and here, so no write can be missed.
  watching_ = true;
  for (int i = 0; i < words(); ++i) {
    mem_->watch(flags_[static_cast<std::size_t>(i)].addr, this, i);
  }
}

void FlagWait::stop_watching() {
  if (watching_ && mem_ != nullptr) mem_->unwatch(this);
  watching_ = false;
}

}  // namespace gputn::mem
