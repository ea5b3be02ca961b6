#ifndef PCPDA_HISTORY_HISTORY_H_
#define PCPDA_HISTORY_HISTORY_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "db/value.h"

namespace pcpda {

/// One read or write operation as it took effect in the execution history.
///
/// Effective times follow the transaction model: reads take effect when the
/// read step is admitted; update-in-place writes when the write step
/// completes; update-in-workspace writes at commit (this deferral is
/// exactly the paper's "dynamic adjustment of serialization order").
struct HistoryOp {
  enum class Kind : std::uint8_t { kRead, kWrite };

  Kind kind = Kind::kRead;
  ItemId item = kInvalidItem;
  Tick tick = 0;
  /// Global tie-breaker: total order of effects within a tick.
  std::int64_t seq = 0;
  /// For reads: the value observed.
  Value observed;
  /// For reads: satisfied from the job's own workspace (its own earlier
  /// write). Such reads create no inter-transaction conflicts.
  bool own_read = false;

  std::string DebugString() const;

  friend bool operator==(const HistoryOp&, const HistoryOp&) = default;
};

/// The operations of one committed transaction.
struct CommittedTxn {
  JobId job = kInvalidJob;
  SpecId spec = kInvalidSpec;
  int instance = 0;
  Tick commit_tick = 0;
  std::int64_t commit_seq = 0;
  std::vector<HistoryOp> ops;

  friend bool operator==(const CommittedTxn&, const CommittedTxn&) = default;
};

/// Accumulates the execution history of a run. Operations are buffered per
/// job and enter the committed history only when the job commits; aborted
/// work (2PL-HP restarts, deadlock victims) leaves no trace, matching the
/// standard definition of a history over committed transactions.
class History {
 public:
  void RecordRead(JobId job, ItemId item, Tick tick, std::int64_t seq,
                  Value observed, bool own_read);
  void RecordWrite(JobId job, ItemId item, Tick tick, std::int64_t seq);

  /// Moves the job's buffered operations into the committed history.
  void RecordCommit(JobId job, SpecId spec, int instance, Tick tick,
                    std::int64_t seq);
  /// Discards the job's buffered operations (abort/restart/drop).
  void DiscardPending(JobId job);

  const std::vector<CommittedTxn>& committed() const { return committed_; }
  std::size_t pending_jobs() const { return pending_.size(); }

  std::string DebugString() const;

  /// Committed history and still-buffered operations both compared.
  friend bool operator==(const History&, const History&) = default;

 private:
  std::map<JobId, std::vector<HistoryOp>> pending_;
  std::vector<CommittedTxn> committed_;
};

}  // namespace pcpda

#endif  // PCPDA_HISTORY_HISTORY_H_
