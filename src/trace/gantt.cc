#include "trace/gantt.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/strings.h"

namespace pcpda {

namespace {

char RunChar(StepKind kind) {
  switch (kind) {
    case StepKind::kRead:
      return 'r';
    case StepKind::kWrite:
      return 'w';
    case StepKind::kCompute:
      return '#';
  }
  return '#';
}

/// Priority level -> '1'-based spec index character ('1' = highest).
char CeilingChar(Priority ceiling, const TransactionSet& set) {
  if (ceiling.is_dummy()) return '-';
  for (SpecId i = 0; i < set.size(); ++i) {
    if (set.priority(i) == ceiling) {
      const int index = static_cast<int>(i) + 1;
      if (index <= 9) return static_cast<char>('0' + index);
      return '+';
    }
  }
  return '?';
}

}  // namespace

std::string RenderGantt(const TransactionSet& set, const Trace& trace,
                        const GanttOptions& options) {
  // Columns cover the retained ticks [first, end]; a capacity-bounded
  // trace may have dropped the ticks before `first`.
  const Tick first = trace.first_tick();
  const Tick end = trace.end_tick();
  const auto column = [first](Tick t) {
    return static_cast<std::size_t>(t - first);
  };
  const std::size_t width = static_cast<std::size_t>(end - first);
  const std::size_t rows = static_cast<std::size_t>(set.size());
  std::vector<std::string> grid(rows, std::string(width + 1, ' '));

  // Released-but-unfinished spans from arrival/commit/drop events.
  struct Span {
    SpecId spec;
    Tick from;
    Tick to;  // exclusive
  };
  std::map<JobId, Span> spans;
  for (const TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case TraceKind::kArrival:
        spans[e.job] = {e.spec, e.tick, end};
        break;
      case TraceKind::kCommit:
      case TraceKind::kDrop:
        if (auto it = spans.find(e.job); it != spans.end()) {
          it->second.to = e.tick;
        }
        break;
      default:
        break;
    }
  }
  for (const auto& [job, span] : spans) {
    auto& row = grid[static_cast<std::size_t>(span.spec)];
    for (Tick t = std::max(span.from, first); t < span.to && t <= end; ++t) {
      if (row[column(t)] == ' ') row[column(t)] = '.';
    }
  }

  // Per-tick running/blocked states.
  for (const TickSpan& span : trace.spans()) {
    const TickRecord& record = span.record;
    const std::size_t from = column(span.begin);
    const std::size_t to = column(span.end);
    if (record.running_spec != kInvalidSpec) {
      std::string& row = grid[static_cast<std::size_t>(record.running_spec)];
      std::fill(row.begin() + from, row.begin() + to,
                RunChar(record.running_kind));
    }
    for (const BlockedSample& blocked : record.blocked) {
      std::string& row = grid[static_cast<std::size_t>(blocked.spec)];
      std::fill(row.begin() + from, row.begin() + to, 'B');
    }
  }

  // Event markers.
  for (const TraceEvent& e : trace.events()) {
    if (e.spec == kInvalidSpec || e.tick < first || e.tick > end) continue;
    auto& cell = grid[static_cast<std::size_t>(e.spec)][column(e.tick)];
    switch (e.kind) {
      case TraceKind::kArrival:
        if (cell == ' ' || cell == '.') cell = '^';
        break;
      case TraceKind::kCommit:
        if (cell == ' ' || cell == '.') cell = 'C';
        break;
      case TraceKind::kDeadlineMiss:
        cell = '!';
        break;
      default:
        break;
    }
  }

  // Assemble: tick ruler, rows, ceiling row.
  std::vector<std::string> lines;
  std::string ruler = PadRight("", 9);
  for (Tick t = first; t <= end; ++t) {
    ruler += (t % 5 == 0) ? static_cast<char>('0' + t % 10) : ' ';
  }
  lines.push_back(ruler);
  for (SpecId i = 0; i < set.size(); ++i) {
    lines.push_back(PadRight(set.spec(i).name, 8) + "|" +
                    grid[static_cast<std::size_t>(i)]);
  }
  if (options.show_ceiling) {
    std::string ceiling_row(width, '-');
    for (const TickSpan& span : trace.spans()) {
      std::fill(ceiling_row.begin() + column(span.begin),
                ceiling_row.begin() + column(span.end),
                CeilingChar(span.record.ceiling, set));
    }
    lines.push_back(PadRight("ceiling", 8) + "|" + ceiling_row);
  }
  if (options.show_legend) {
    lines.push_back(
        "legend: r/w/# run (read/write/compute), B blocked, . preempted, "
        "^ arrival, C commit, ! miss; ceiling row = Max_Sysceil as the "
        "index of the transaction holding that priority");
  }
  return Join(lines, "\n");
}

}  // namespace pcpda
