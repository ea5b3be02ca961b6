#ifndef PCPDA_HISTORY_REPLAY_CHECKER_H_
#define PCPDA_HISTORY_REPLAY_CHECKER_H_

#include <string>
#include <vector>

#include "history/history.h"
#include "history/serialization_graph.h"

namespace pcpda {

/// A read whose observed value disagrees with the serial replay.
struct ReplayMismatch {
  JobId job = kInvalidJob;
  ItemId item = kInvalidItem;
  Tick tick = 0;
  /// What the transaction actually observed during the run.
  Value observed;
  /// What it would observe executing serially in the witness order.
  Value replayed;

  std::string DebugString() const;
};

/// Outcome of the replay check.
struct ReplayResult {
  bool serializable = false;
  /// Empty when every read matches the serial replay.
  std::vector<ReplayMismatch> mismatches;
  /// Reads that observed a value from a job absent from the committed
  /// history (still in flight when the horizon ended, under early lock
  /// release). The committed projection cannot validate them; they are
  /// skipped, not flagged.
  std::int64_t censored_reads = 0;

  bool ok() const { return serializable && mismatches.empty(); }
};

/// End-to-end witness validation, one level stronger than SG acyclicity:
/// extracts a serial order from the (acyclic) serialization graph, then
/// REPLAYS the committed transactions in that order against a fresh
/// database and verifies every recorded read observes exactly the value
/// the serial execution would produce. Conflict equivalence guarantees
/// this succeeds for any correct protocol + history capture, so a
/// mismatch pinpoints a bug in either. Reads from a transaction's own
/// workspace are validated against its own preceding write.
ReplayResult ReplaySerialWitness(const History& history,
                                 ItemId item_count);

/// The replay half of the above, for a caller that has already built
/// `graph` from `history` and has `check` = graph.CheckAcyclic().
ReplayResult ReplaySerialWitness(const History& history, ItemId item_count,
                                 const SerializationGraph& graph,
                                 const SerializationGraph::Result& check);

}  // namespace pcpda

#endif  // PCPDA_HISTORY_REPLAY_CHECKER_H_
