#ifndef PCPDA_RUNNER_WATCHDOG_H_
#define PCPDA_RUNNER_WATCHDOG_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>

namespace pcpda {

/// A wall-clock watchdog for cooperative cancellation: callers arm a
/// cancel flag with a budget, and a monitor thread sets the flag once the
/// budget elapses (or immediately for every armed flag when the optional
/// stop source fires, e.g. a SIGINT handler). The watched code observes
/// the flag at its own safe points — SimulatorOptions::cancel checks once
/// per tick — so nothing is ever killed mid-mutation; a job is
/// "abandoned" by asking it to stop and letting it unwind.
///
/// Code that ignores its flag is not waited on forever: a flag armed with
/// a budget that is still armed one more full budget after its deadline
/// ends the process with SIGKILL. A crash-safe caller (the campaign
/// engine) then treats the hang as a crash on resume.
///
/// Wall-clock timeouts are inherently nondeterministic; the campaign
/// layer treats them as quarantine-grade outcomes and leans on the
/// deterministic SimulatorOptions::max_sim_ticks budget wherever
/// byte-identical resume matters.
class Watchdog {
 public:
  /// `resolution` bounds how late a timeout can fire and how often the
  /// stop source is polled.
  explicit Watchdog(
      std::chrono::milliseconds resolution = std::chrono::milliseconds(5));
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Fires every armed flag (current and future) as soon as `stop` or
  /// `also_stop` becomes true. Null clears a source. Both must outlive the
  /// watchdog or the next SetStopSources call.
  void SetStopSources(const std::atomic<bool>* stop,
                      const std::atomic<bool>* also_stop = nullptr);

  /// Arms `flag` to be set after `budget` elapses, and the process to be
  /// killed if the ticket is still armed after 2 x `budget`; a
  /// zero/negative budget means neither (the flag then only fires via
  /// the stop source). `flag` must stay valid until Disarm. Returns a
  /// ticket for Disarm.
  std::uint64_t Arm(std::atomic<bool>* flag,
                    std::chrono::milliseconds budget);

  /// Disarms a ticket; safe to call after the flag already fired.
  void Disarm(std::uint64_t ticket);

 private:
  struct Entry {
    std::atomic<bool>* flag = nullptr;
    /// time_point::max() means "no deadline, stop source only".
    std::chrono::steady_clock::time_point deadline;
    std::chrono::milliseconds budget{0};
    /// The flag is set; the entry stays until Disarm or the kill.
    bool fired = false;
  };

  void Loop();

  const std::chrono::milliseconds resolution_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Entry> armed_;  // guarded by mu_
  const std::atomic<bool>* stop_sources_[2] = {};   // guarded by mu_
  std::uint64_t next_ticket_ = 1;                   // guarded by mu_
  bool shutdown_ = false;                           // guarded by mu_
  std::thread monitor_;
};

}  // namespace pcpda

#endif  // PCPDA_RUNNER_WATCHDOG_H_
