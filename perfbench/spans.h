// Span recording for the benchmark's traced run. Spans are opened by the
// benchmark's own code around calls into the library's public functions
// (in-program spans are out of scope), kept in memory, and summarized per
// round when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock Python's
/// time.monotonic_ns reads too).
std::int64_t NowNs();

struct Span {
  /// Layer call name, "<module>.<call>"; points at a string literal.
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  /// Id of the enclosing span; 0 for a top-level span of its round.
  std::int64_t parent = 0;
  int round = 0;
};

/// Thread-safe in-memory span store. Each span is stamped with the round
/// current when it closes; rounds never overlap.
class SpanRecorder {
 public:
  void set_round(int round) { round_.store(round); }

  /// Stores a closed span, stamping its round.
  void Record(Span span);
  /// A fresh span id (ids start at 1).
  std::int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  /// Moves out every span recorded so far.
  std::vector<Span> Take();

 private:
  std::atomic<int> round_{0};
  std::atomic<std::int64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span. A null recorder makes it a no-op, so the untraced count pass
/// runs the same code with no timing. The parent defaults to the innermost
/// ScopedSpan open on this thread; pass `parent` explicitly on worker
/// threads, where that stack starts empty.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::int64_t parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  const char* name_;
  std::int64_t id_ = 0;
  std::int64_t parent_ = 0;
  std::int64_t saved_current_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Per-name call count and busy time of one round.
struct LayerTotal {
  std::int64_t calls = 0;
  std::int64_t busy_ns = 0;
};

struct RoundSummary {
  std::map<std::string, LayerTotal> layers;
  /// Busy time of the round's top-level spans that fall inside
  /// [round_start_ns, round_end_ns].
  std::int64_t top_level_ns = 0;

  void Add(const RoundSummary& other);
};

RoundSummary Summarize(const std::vector<Span>& spans, int round,
                       std::int64_t round_start_ns,
                       std::int64_t round_end_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
