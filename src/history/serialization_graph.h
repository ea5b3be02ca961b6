#ifndef PCPDA_HISTORY_SERIALIZATION_GRAPH_H_
#define PCPDA_HISTORY_SERIALIZATION_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "history/history.h"

namespace pcpda {

/// The conflict serialization graph SG(H) over the committed transactions
/// of a history (Section 8 of the paper). Nodes are committed jobs; there
/// is an edge T_i -> T_j when an operation of T_i precedes and conflicts
/// with an operation of T_j (read/write or write/write on the same item,
/// ordered by effective time). Reads satisfied from the reader's own
/// workspace touch no other transaction and create no edges.
///
/// Storage is flat: each distinct node has a dense index (its rank by job
/// id), and the edges are a sorted, duplicate-free adjacency list (CSR)
/// over those indices, so successors come out in ascending job id.
class SerializationGraph {
 public:
  /// Builds SG(H) from the committed transactions of `history`.
  static SerializationGraph Build(const History& history);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return targets_.size(); }
  /// The committed jobs in commit order.
  const std::vector<JobId>& nodes() const { return nodes_; }
  /// Successors of `job`, ascending (empty when `job` is not a node).
  std::vector<JobId> successors(JobId job) const;
  bool HasEdge(JobId from, JobId to) const;
  /// Dense index of `job` (its rank among the distinct node ids), or -1
  /// when `job` is not a node.
  std::ptrdiff_t IndexOf(JobId job) const;

  /// Result of the acyclicity check.
  struct Result {
    bool serializable = true;
    /// A witness serial order (topological order of SG) when serializable.
    std::vector<JobId> serial_order;
    /// A cycle (first node repeated at the end) when not serializable.
    std::vector<JobId> cycle;
  };

  /// Checks acyclicity; produces a serial-order witness or a cycle. The
  /// depth-first search starts from the nodes in commit order and visits
  /// successors in ascending job id.
  Result CheckAcyclic() const;

  /// One line per distinct node, ascending: "id -> {succ,...}".
  std::string DebugString() const;

 private:
  /// Successor indices of node index `i`.
  const std::uint32_t* begin(std::size_t i) const {
    return targets_.data() + offsets_[i];
  }
  const std::uint32_t* end(std::size_t i) const {
    return targets_.data() + offsets_[i + 1];
  }

  std::vector<JobId> nodes_;
  /// Distinct node ids, ascending; a node's dense index is its position.
  std::vector<JobId> ids_;
  /// CSR: the successors of index i are targets_[offsets_[i], offsets_[i+1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> targets_;
};

/// Convenience: true when the history is conflict serializable.
bool IsSerializable(const History& history);

}  // namespace pcpda

#endif  // PCPDA_HISTORY_SERIALIZATION_GRAPH_H_
