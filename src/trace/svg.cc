#include "trace/svg.h"

#include <algorithm>
#include <vector>

#include "common/strings.h"

namespace pcpda {
namespace {

constexpr int kMarginLeft = 90;
constexpr int kMarginTop = 34;
constexpr int kAxisHeight = 24;
constexpr int kCeilingHeight = 40;

const char* FillFor(StepKind kind) {
  switch (kind) {
    case StepKind::kRead:
      return "#4e9a06";  // green
    case StepKind::kWrite:
      return "#c4500e";  // orange
    case StepKind::kCompute:
      return "#3465a4";  // blue
  }
  return "#888888";
}

}  // namespace

std::string RenderSvg(const TransactionSet& set, const Trace& trace,
                      const SvgOptions& options) {
  const int ticks = static_cast<int>(trace.tick_count());
  const int rows = static_cast<int>(set.size());
  const int chart_w = ticks * options.tick_width;
  const int chart_h = rows * options.row_height;
  const int width = kMarginLeft + chart_w + 20;
  const int height = kMarginTop + chart_h + kAxisHeight +
                     (options.show_ceiling ? kCeilingHeight : 0) + 14;

  std::vector<std::string> out;
  out.push_back(StrFormat(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" "
      "height=\"%d\" font-family=\"sans-serif\" font-size=\"11\">",
      width, height));
  out.push_back(StrFormat(
      "<defs><pattern id=\"blocked\" width=\"6\" height=\"6\" "
      "patternUnits=\"userSpaceOnUse\" patternTransform=\"rotate(45)\">"
      "<rect width=\"6\" height=\"6\" fill=\"#f3d9d9\"/>"
      "<line x1=\"0\" y1=\"0\" x2=\"0\" y2=\"6\" stroke=\"#cc0000\" "
      "stroke-width=\"2\"/></pattern></defs>"));
  if (!options.title.empty()) {
    out.push_back(StrFormat(
        "<text x=\"%d\" y=\"18\" font-size=\"14\" font-weight=\"bold\">"
        "%s</text>",
        kMarginLeft, options.title.c_str()));
  }

  auto row_y = [&](SpecId spec) {
    return kMarginTop + static_cast<int>(spec) * options.row_height;
  };
  auto tick_x = [&](Tick t) {
    return kMarginLeft + static_cast<int>(t) * options.tick_width;
  };

  // Row labels and separators.
  for (SpecId i = 0; i < set.size(); ++i) {
    out.push_back(StrFormat(
        "<text x=\"%d\" y=\"%d\" text-anchor=\"end\">%s</text>",
        kMarginLeft - 8, row_y(i) + options.row_height / 2 + 4,
        set.spec(i).name.c_str()));
    out.push_back(StrFormat(
        "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#dddddd\"/>",
        kMarginLeft, row_y(i), kMarginLeft + chart_w, row_y(i)));
  }

  // Execution and blocking cells.
  const int pad = 4;
  const int cell_h = options.row_height - 2 * pad;
  for (const TickSpan& span : trace.spans()) {
    const TickRecord& record = span.record;
    for (Tick t = span.begin; t < span.end; ++t) {
      if (record.running_spec != kInvalidSpec) {
        out.push_back(StrFormat(
            "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" "
            "fill=\"%s\"/>",
            tick_x(t), row_y(record.running_spec) + pad,
            options.tick_width, cell_h, FillFor(record.running_kind)));
      }
      for (const BlockedSample& blocked : record.blocked) {
        out.push_back(StrFormat(
            "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" "
            "fill=\"url(#blocked)\"/>",
            tick_x(t), row_y(blocked.spec) + pad, options.tick_width,
            cell_h));
      }
    }
  }

  // Event markers: arrivals (up arrow), commits (flag), misses (cross).
  for (const TraceEvent& e : trace.events()) {
    if (e.spec == kInvalidSpec || e.tick < 0 || e.tick > ticks) continue;
    const int x = tick_x(e.tick);
    const int y = row_y(e.spec);
    switch (e.kind) {
      case TraceKind::kArrival:
        out.push_back(StrFormat(
            "<path d=\"M%d %d l4 7 h-8 z\" fill=\"#000000\"/>", x,
            y + 2));
        break;
      case TraceKind::kCommit:
        out.push_back(StrFormat(
            "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" "
            "stroke=\"#000000\" stroke-width=\"2\"/>",
            x, y + 2, x, y + options.row_height - 2));
        break;
      case TraceKind::kDeadlineMiss:
        out.push_back(StrFormat(
            "<text x=\"%d\" y=\"%d\" fill=\"#cc0000\" "
            "font-weight=\"bold\">x</text>",
            x - 3, y + options.row_height - 6));
        break;
      default:
        break;
    }
  }

  // Tick axis (every 5 ticks).
  const int axis_y = kMarginTop + chart_h + 14;
  for (Tick t = 0; t <= ticks; t += 5) {
    out.push_back(StrFormat(
        "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\" "
        "fill=\"#555555\">%lld</text>",
        tick_x(t), axis_y, static_cast<long long>(t)));
    out.push_back(StrFormat(
        "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" "
        "stroke=\"#bbbbbb\"/>",
        tick_x(t), kMarginTop, tick_x(t), kMarginTop + chart_h));
  }

  // Max_Sysceil step line mapped onto priority levels.
  if (options.show_ceiling && ticks > 0) {
    const int base_y = axis_y + kCeilingHeight;
    const int top = set.priority(0).level();
    const int bottom = set.priority(set.size() - 1).level();
    const int span = std::max(1, top - bottom + 1);
    auto level_y = [&](Priority p) {
      if (p.is_dummy()) return base_y;
      const int rel = p.level() - bottom + 1;
      return base_y - rel * (kCeilingHeight - 12) / span;
    };
    std::string points;
    for (const TickSpan& run : trace.spans()) {
      const int y = level_y(run.record.ceiling);
      for (Tick t = run.begin; t < run.end; ++t) {
        points += StrFormat("%d,%d %d,%d ", tick_x(t), y, tick_x(t + 1), y);
      }
    }
    out.push_back(StrFormat(
        "<polyline points=\"%s\" fill=\"none\" stroke=\"#888888\" "
        "stroke-dasharray=\"4 3\"/>",
        points.c_str()));
    out.push_back(StrFormat(
        "<text x=\"%d\" y=\"%d\" text-anchor=\"end\" fill=\"#888888\">"
        "Max_Sysceil</text>",
        kMarginLeft - 8, base_y - kCeilingHeight / 2));
  }

  out.push_back("</svg>");
  return Join(out, "\n");
}

}  // namespace pcpda
