#ifndef PCPDA_CAMPAIGN_CHECKPOINT_H_
#define PCPDA_CAMPAIGN_CHECKPOINT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/spec.h"
#include "common/status.h"

namespace pcpda {

/// One completed job, as persisted in a shard checkpoint. This is the
/// unit of crash safety: a record is either fully on disk (its line ends
/// in '\n' and decodes) or it never happened. Carries everything the
/// merge step needs, so resuming never re-runs a recorded job.
struct JobRecord {
  std::int64_t job_id = 0;
  /// ToString(JobOutcome) for ok/failed/timeout, plus two outcomes that
  /// only the campaign layers emit: "generator_defect" (the generated
  /// scenario failed the lint pre-flight — a generator bug, not a
  /// protocol failure) and "crash" (the worker *process* died on this
  /// job; written by the supervisor after bisection isolates it).
  /// Cancelled and skipped jobs are never recorded — resume re-runs them.
  std::string outcome = "ok";
  int attempts = 1;
  /// ToString of the final StatusCode ("Ok" when the job succeeded).
  std::string code = "Ok";
  /// Final status message; empty when ok.
  std::string message;
  // --- metrics the merge aggregates (zero for failed jobs) -------------
  std::int64_t released = 0;
  std::int64_t committed = 0;
  std::int64_t misses = 0;
  std::int64_t blocking_ticks = 0;
  std::int64_t restarts = 0;
  std::int64_t deadlocks = 0;

  /// Poisoned jobs (captured exception, watchdog timeout, lint-rejected
  /// generated workload, or a worker-process death isolated by the
  /// supervisor's bisection) that were quarantined rather than merely
  /// failed.
  bool quarantined() const {
    return outcome == "timeout" || outcome == "generator_defect" ||
           outcome == "crash" ||
           (outcome == "failed" && code == "Internal");
  }
  /// A run that finished clean with every deadline met — the numerator
  /// of the paper's acceptance ratio.
  bool accepted() const { return outcome == "ok" && misses == 0; }

  friend bool operator==(const JobRecord&, const JobRecord&) = default;
};

/// Serializes `record` as one JSON object line (no trailing newline).
std::string EncodeJobRecord(const JobRecord& record);

/// Strict inverse of EncodeJobRecord: every field must be present and
/// well-formed, unknown keys are rejected. A checkpoint line that fails
/// to decode is treated as torn, not skipped.
StatusOr<JobRecord> DecodeJobRecord(const std::string& line);

/// A shard checkpoint read back from disk.
struct LoadedCheckpoint {
  /// Decoded records, in file (= completion) order.
  std::vector<JobRecord> records;
  /// Byte length of the valid prefix: header plus every complete record
  /// line. Anything past it is a torn tail from a crash mid-append.
  std::int64_t valid_bytes = 0;
  /// Bytes of torn tail discarded (0 for a clean file).
  std::int64_t torn_bytes = 0;

  /// The `jobs` no record holds, in their order: what is left to run.
  std::vector<CampaignJob> Unrecorded(
      const std::vector<CampaignJob>& jobs) const;
};

/// Loads a shard checkpoint. A missing file is an empty checkpoint. The
/// first line must be a header whose campaign fingerprint equals
/// `fingerprint` — resuming a different campaign into this checkpoint is
/// an error. A trailing partial line (crash mid-write) is reported via
/// torn_bytes and excluded from records; duplicate job ids keep the
/// first occurrence (a crash between write and index update can at worst
/// duplicate, never lose).
StatusOr<LoadedCheckpoint> LoadCheckpoint(const std::string& path,
                                          const std::string& fingerprint);

/// Append-only, group-commit writer for one shard checkpoint. Open()
/// creates the file with a header line, or — when resuming — truncates
/// it to `valid_bytes` first so a torn tail can never corrupt the records
/// appended after it. Append() is thread-safe (the batch completion hook
/// runs on worker threads) and returns once write(2) has put the line in
/// the file, so a process kill never loses a returned record.
///
/// With fsync on, one committer thread per writer makes the lines
/// durable: it waits for unsynced lines, fsyncs all of them in one call
/// outside the mutex, and then reports how many records became durable
/// through `on_durable`. Lines written while an fsync is in flight ride
/// the next one, so the batch grows with the disk's fsync latency. A
/// failed write or fsync is sticky: every later Append and Close
/// returns it.
class CheckpointWriter {
 public:
  /// Told how many more record lines are durable: covered by a completed
  /// fsync, or written when fsync is off. Called under no writer lock.
  /// With fsync on, only the committer thread calls it, one batch at a
  /// time; with fsync off, each Append calls it with 1 on its own thread
  /// after the write.
  using DurableCallback = std::function<void(std::int64_t count)>;

  CheckpointWriter() = default;
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Opens `path` for appending. `valid_bytes` == 0 (re)writes the file
  /// from scratch with a fresh header; > 0 keeps the valid prefix of an
  /// existing checkpoint and drops everything after it. With `fsync` on
  /// it starts the committer thread.
  Status Open(const std::string& path, const std::string& fingerprint,
              std::int64_t valid_bytes, bool fsync,
              DurableCallback on_durable = nullptr);

  /// Writes one record line. Does not wait for an fsync: durability
  /// is reported later through `on_durable`.
  Status Append(const JobRecord& record);

  /// Drains and joins the committer (its last fsync covers every line
  /// written) and closes; further Appends fail. Idempotent: every call
  /// returns the same status, including a sticky write/fsync error.
  Status Close();

 private:
  /// Writes one newline-terminated record line. Caller holds mu_; a
  /// failure becomes the sticky error_.
  Status WriteLine(const std::string& line);
  /// The committer thread's body (fsync on only).
  void CommitLoop();

  std::mutex mu_;
  std::condition_variable unsynced_cv_;  // the committer waits here
  DurableCallback on_durable_;
  int fd_ = -1;
  bool fsync_ = true;
  std::string path_;
  // Guarded by mu_.
  Status error_;               // first write/fsync/close failure, sticky
  bool dirty_ = false;         // bytes written since the last fsync began
  bool closing_ = false;       // Close() asked the committer to drain
  std::int64_t unsynced_ = 0;  // record lines written, not yet durable
  std::thread committer_;      // last: it uses every member above
};

/// Failing-writer shim for robustness tests: after `successes` more
/// record appends succeed, every further CheckpointWriter append fails
/// as ENOSPC would (Internal, "No space left on device") without
/// touching the file; like a real write error it is sticky for the
/// writer that hit it. -1 disables the shim (the default). Affects every
/// writer in the process; tests must reset it. Header lines written by
/// Open() do not consume the budget.
void SetCheckpointAppendFailureForTest(int successes);

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, fsync, rename over the target, fsync the directory. Readers
/// see either the old file or the new one, never a prefix.
Status WriteFileAtomic(const std::string& path,
                       const std::string& contents);

/// Creates `dir` and its missing parents; Internal on failure.
Status MakeDirectories(const std::string& dir);

/// Reads a whole file ("" for empty). NotFound when it does not exist.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace pcpda

#endif  // PCPDA_CAMPAIGN_CHECKPOINT_H_
