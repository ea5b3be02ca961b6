#include "history/replay_checker.h"

#include <algorithm>

#include "common/strings.h"

namespace pcpda {

std::string ReplayMismatch::DebugString() const {
  return StrFormat(
      "job %lld read d%d at t=%lld: observed %s, serial replay gives %s",
      static_cast<long long>(job), item, static_cast<long long>(tick),
      observed.DebugString().c_str(), replayed.DebugString().c_str());
}

ReplayResult ReplaySerialWitness(const History& history,
                                 ItemId item_count) {
  const SerializationGraph graph = SerializationGraph::Build(history);
  return ReplaySerialWitness(history, item_count, graph,
                             graph.CheckAcyclic());
}

ReplayResult ReplaySerialWitness(const History& history, ItemId item_count,
                                 const SerializationGraph& graph,
                                 const SerializationGraph::Result& check) {
  ReplayResult result;
  result.serializable = check.serializable;
  if (!check.serializable) return result;

  // The committed transaction of each node, by the graph's dense index
  // (a job committed twice maps to its last commit).
  std::vector<const CommittedTxn*> txn_of(graph.node_count(), nullptr);
  for (const CommittedTxn& txn : history.committed()) {
    txn_of[static_cast<std::size_t>(graph.IndexOf(txn.job))] = &txn;
  }

  // Replay state: the job whose write each item currently carries
  // (kInvalidJob = initial state). Reads-from identity is compared by
  // writer; version stamps differ between run and replay by construction.
  std::vector<JobId> last_writer(static_cast<std::size_t>(item_count),
                                 kInvalidJob);

  std::vector<const HistoryOp*> ops;
  std::vector<ItemId> own_writes;
  for (JobId job : check.serial_order) {
    const CommittedTxn* txn =
        txn_of[static_cast<std::size_t>(graph.IndexOf(job))];
    // Ops within a transaction replay in effect order, which is the
    // order they were recorded in.
    ops.clear();
    for (const HistoryOp& op : txn->ops) ops.push_back(&op);
    const auto by_seq = [](const HistoryOp* a, const HistoryOp* b) {
      return a->seq < b->seq;
    };
    if (!std::is_sorted(ops.begin(), ops.end(), by_seq)) {
      std::stable_sort(ops.begin(), ops.end(), by_seq);
    }
    // Items the transaction has written so far: its own workspace.
    own_writes.clear();
    for (const HistoryOp* op : ops) {
      if (op->kind == HistoryOp::Kind::kWrite) {
        own_writes.push_back(op->item);
        continue;
      }
      JobId expected;
      if (op->own_read) {
        // Served from the job's own workspace: it observes the job.
        expected = job;
      } else {
        // A read that observed a writer absent from the committed
        // history (a job still in flight when the horizon ended — legal
        // under early lock release, e.g. CCP) cannot be validated
        // against the committed projection: the serial witness has no
        // position for that writer. Count it as censored instead of
        // mismatched; dirty reads from *aborted* jobs never get here,
        // because strictness/workspace isolation (audited per tick)
        // keeps uncommitted-then-undone writes invisible.
        if (op->observed.writer != kInvalidJob &&
            graph.IndexOf(op->observed.writer) < 0) {
          ++result.censored_reads;
          continue;
        }
        expected =
            last_writer[static_cast<std::size_t>(op->item)];
      }
      if (op->observed.writer != expected) {
        ReplayMismatch mismatch;
        mismatch.job = job;
        mismatch.item = op->item;
        mismatch.tick = op->tick;
        mismatch.observed = op->observed;
        mismatch.replayed = Value{expected, 0};
        result.mismatches.push_back(mismatch);
      }
    }
    // Apply the transaction's writes at its (replayed) commit.
    for (ItemId item : own_writes) {
      last_writer[static_cast<std::size_t>(item)] = job;
    }
  }
  return result;
}

}  // namespace pcpda
