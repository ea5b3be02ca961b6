#ifndef PCPDA_SCHED_WAIT_GRAPH_H_
#define PCPDA_SCHED_WAIT_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "plan/job_arena.h"

namespace pcpda {

/// The wait-for graph: an edge waiter -> holder means the waiter's lock
/// request is currently denied because of the holder. Rebuilt every tick by
/// the simulator; a cycle is a deadlock.
///
/// Edges live in a ring-keyed JobId slot map (see plan/job_arena.h):
/// holder lists are sorted-unique vectors, so lookups are O(1), iteration
/// is in ascending waiter id, and steady-state edge churn allocates
/// nothing — byte-identical to the std::map<JobId, std::set<JobId>> it
/// replaced.
class WaitGraph {
 public:
  void Clear();

  /// Replaces the waiter's outgoing edges. Duplicate holders collapse.
  /// `holders` must not point into this graph (e.g. HoldersBlocking).
  void SetWaits(JobId waiter, const std::vector<JobId>& holders);
  void ClearWaits(JobId waiter);

  bool IsWaiting(JobId waiter) const;
  /// Holders blocking `waiter`, ascending by id; empty when not waiting.
  const std::vector<JobId>& HoldersBlocking(JobId waiter) const;
  /// Jobs currently waiting (have outgoing edges), ascending by id.
  std::vector<JobId> waiters() const;
  /// Same ids without the copy; invalidated by any mutation.
  const std::vector<JobId>& waiter_ids() const { return edges_.ids(); }

  /// Finds a wait-for cycle if one exists. The returned cycle lists each
  /// member once, starting from the smallest job id in the cycle. The
  /// search itself allocates nothing once its scratch buffers are warm,
  /// so the simulator can run it after every contended dispatch.
  std::optional<std::vector<JobId>> FindCycle() const;

  std::string DebugString() const;

 private:
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };

  JobSlotMap<std::vector<JobId>> edges_;
  /// FindCycle's depth-first search state, kept between calls for its
  /// capacity only: the sorted nodes the graph names, their colors, the
  /// (node, next successor index) stack and the current path. A graph
  /// belongs to one run, so the const search may reuse them.
  mutable std::vector<JobId> dfs_nodes_;
  mutable std::vector<Color> dfs_color_;
  mutable std::vector<std::pair<JobId, std::size_t>> dfs_stack_;
  mutable std::vector<JobId> dfs_path_;

  static const std::vector<JobId> kNoHolders;
};

}  // namespace pcpda

#endif  // PCPDA_SCHED_WAIT_GRAPH_H_
