#include "runner/watchdog.h"

#include <signal.h>
#include <unistd.h>

#include <cstdio>

namespace pcpda {

Watchdog::Watchdog(std::chrono::milliseconds resolution)
    : resolution_(resolution.count() > 0 ? resolution
                                         : std::chrono::milliseconds(1)),
      monitor_([this] { Loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  monitor_.join();
}

void Watchdog::SetStopSources(const std::atomic<bool>* stop,
                              const std::atomic<bool>* also_stop) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_sources_[0] = stop;
    stop_sources_[1] = also_stop;
  }
  cv_.notify_all();
}

std::uint64_t Watchdog::Arm(std::atomic<bool>* flag,
                            std::chrono::milliseconds budget) {
  std::uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticket = next_ticket_++;
    Entry entry;
    entry.flag = flag;
    entry.deadline = budget.count() > 0
                         ? std::chrono::steady_clock::now() + budget
                         : std::chrono::steady_clock::time_point::max();
    entry.budget = budget;
    armed_.emplace(ticket, entry);
  }
  cv_.notify_all();
  return ticket;
}

void Watchdog::Disarm(std::uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.erase(ticket);
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (shutdown_) return;
    if (armed_.empty()) {
      // Nothing armed: sleep until there is, costing nothing per batch
      // that never arms a deadline.
      cv_.wait(lock,
               [this] { return shutdown_ || !armed_.empty(); });
      continue;
    }
    // The stop sources have no edge to wait on (plain atomics, typically
    // set from a signal handler), so poll at the resolution while
    // anything is armed.
    cv_.wait_for(lock, resolution_);
    if (shutdown_) return;
    bool stop = false;
    for (const std::atomic<bool>* source : stop_sources_) {
      stop = stop || (source != nullptr &&
                      source->load(std::memory_order_relaxed));
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto it = armed_.begin(); it != armed_.end();) {
      Entry& entry = it->second;
      if (entry.fired && now >= entry.deadline + entry.budget) {
        // One more full budget without unwinding: the code is not
        // polling its flag, and only the process's death ends it.
        std::fprintf(stderr,
                     "watchdog: a job ignored its cancel for %lld ms past "
                     "its wall budget; killing the process\n",
                     static_cast<long long>(entry.budget.count()));
        ::kill(::getpid(), SIGKILL);
      }
      if (!entry.fired && (stop || now >= entry.deadline)) {
        entry.flag->store(true, std::memory_order_relaxed);
        entry.fired = true;
      }
      if (entry.fired && entry.budget.count() <= 0) {
        it = armed_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

}  // namespace pcpda
