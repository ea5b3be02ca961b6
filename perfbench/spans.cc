#include "spans.h"

#include <time.h>

namespace perfbench {
namespace {

/// Innermost open ScopedSpan on this thread (0 = none).
thread_local std::int64_t current_span = 0;

}  // namespace

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SpanRecorder::Record(Span span) {
  span.round = round_.load();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       std::int64_t parent)
    : recorder_(recorder), name_(name) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->NextId();
  parent_ = parent >= 0 ? parent : current_span;
  saved_current_ = current_span;
  current_span = id_;
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  Span span;
  span.end_ns = NowNs();
  span.name = name_;
  span.start_ns = start_ns_;
  span.id = id_;
  span.parent = parent_;
  current_span = saved_current_;
  recorder_->Record(span);
}

void RoundSummary::Add(const RoundSummary& other) {
  for (const auto& [name, total] : other.layers) {
    layers[name].calls += total.calls;
    layers[name].busy_ns += total.busy_ns;
  }
  top_level_ns += other.top_level_ns;
}

RoundSummary Summarize(const std::vector<Span>& spans, int round,
                       std::int64_t round_start_ns,
                       std::int64_t round_end_ns) {
  RoundSummary summary;
  for (const Span& span : spans) {
    if (span.round != round) continue;
    LayerTotal& total = summary.layers[span.name];
    ++total.calls;
    total.busy_ns += span.end_ns - span.start_ns;
    if (span.parent == 0 && span.start_ns >= round_start_ns &&
        span.end_ns <= round_end_ns) {
      summary.top_level_ns += span.end_ns - span.start_ns;
    }
  }
  return summary;
}

}  // namespace perfbench
