#include "sched/wait_graph.h"

#include <algorithm>

#include "common/strings.h"

namespace pcpda {

const std::vector<JobId> WaitGraph::kNoHolders;

void WaitGraph::Clear() { edges_.clear(); }

void WaitGraph::SetWaits(JobId waiter, const std::vector<JobId>& holders) {
  if (holders.empty()) {
    edges_.erase(waiter);
    return;
  }
  // Fill the slot's own vector so it keeps its capacity across edges.
  std::vector<JobId>& edges = edges_[waiter];
  edges.assign(holders.begin(), holders.end());
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

void WaitGraph::ClearWaits(JobId waiter) { edges_.erase(waiter); }

bool WaitGraph::IsWaiting(JobId waiter) const {
  return edges_.contains(waiter);
}

const std::vector<JobId>& WaitGraph::HoldersBlocking(JobId waiter) const {
  const std::vector<JobId>* holders = edges_.find(waiter);
  return holders == nullptr ? kNoHolders : *holders;
}

std::vector<JobId> WaitGraph::waiters() const { return edges_.ids(); }

std::optional<std::vector<JobId>> WaitGraph::FindCycle() const {
  if (edges_.empty()) return std::nullopt;
  // Colors in a flat array parallel to the sorted ids the graph names.
  // The graph is only non-empty under contention, so it is small; an
  // array over [0, max id] would grow with the horizon.
  std::vector<JobId>& nodes = dfs_nodes_;
  nodes.clear();
  for (JobId waiter : edges_.ids()) {
    const std::vector<JobId>& holders = edges_.at(waiter);
    nodes.push_back(waiter);
    nodes.insert(nodes.end(), holders.begin(), holders.end());
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  dfs_color_.assign(nodes.size(), Color::kWhite);
  auto paint = [this, &nodes](JobId id) -> Color& {
    const auto at = std::lower_bound(nodes.begin(), nodes.end(), id);
    return dfs_color_[static_cast<std::size_t>(at - nodes.begin())];
  };
  std::vector<JobId>& path = dfs_path_;
  // Recursive DFS expressed iteratively via an explicit stack of
  // (node, next successor index).
  std::vector<std::pair<JobId, std::size_t>>& stack = dfs_stack_;
  for (JobId root : edges_.ids()) {
    if (paint(root) != Color::kWhite) continue;
    stack.clear();
    paint(root) = Color::kGray;
    stack.emplace_back(root, 0);
    path.assign(1, root);
    while (!stack.empty()) {
      auto& [node, next_index] = stack.back();
      const std::vector<JobId>& succ = HoldersBlocking(node);
      if (next_index == succ.size()) {
        paint(node) = Color::kBlack;
        stack.pop_back();
        path.pop_back();
        continue;
      }
      const JobId next = succ[next_index++];
      if (paint(next) == Color::kGray) {
        // Cycle: slice the current path from `next` onwards.
        auto start = std::find(path.begin(), path.end(), next);
        std::vector<JobId> cycle(start, path.end());
        // Rotate so the smallest id comes first (stable for tests).
        auto smallest = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), smallest, cycle.end());
        return cycle;
      }
      if (paint(next) == Color::kWhite) {
        paint(next) = Color::kGray;
        stack.emplace_back(next, 0);
        path.push_back(next);
      }
    }
  }
  return std::nullopt;
}

std::string WaitGraph::DebugString() const {
  std::vector<std::string> lines;
  for (JobId waiter : edges_.ids()) {
    std::vector<std::string> ids;
    const std::vector<JobId>& holders = edges_.at(waiter);
    ids.reserve(holders.size());
    for (JobId h : holders) {
      ids.push_back(StrFormat("%lld", static_cast<long long>(h)));
    }
    lines.push_back(StrFormat("%lld waits-for {%s}",
                              static_cast<long long>(waiter),
                              Join(ids, ",").c_str()));
  }
  return lines.empty() ? "(no waits)" : Join(lines, "\n");
}

}  // namespace pcpda
