#include "protocols/occ.h"

#include "common/check.h"
#include "common/sorted_vector.h"
#include "core/lock_compat.h"

namespace pcpda {

namespace {

/// True when `job` has read an item `committing` is about to install.
bool ReadsCommitWrites(const Job& job, const Job& committing) {
  return SetsIntersect(job.data_read(), committing.workspace().items());
}

/// True when `job` will re-read, in its remaining steps, an item it has
/// already read and `committing` is about to overwrite.
bool RereadsOverwritten(const Job& job, const Job& committing) {
  const auto& body = job.spec().body;
  for (std::size_t i = job.step_index(); i < body.size(); ++i) {
    const Step& step = body[i];
    if (step.kind == StepKind::kRead &&
        committing.workspace().Contains(step.item) &&
        ContainsSorted(job.data_read(), step.item)) {
      return true;
    }
  }
  return false;
}

/// True when the spec's body writes nothing.
bool ReadOnly(const TransactionSpec& spec) {
  for (const Step& step : spec.body) {
    if (step.kind == StepKind::kWrite) return false;
  }
  return true;
}

}  // namespace

// --- OCC-BC -----------------------------------------------------------------

void OccBc::Decide(const LockRequest& request,
                   LockDecision& decision) const {
  PCPDA_CHECK(request.job != nullptr);
  // Optimistic execution: data access never blocks.
  decision.Grant(DecisionRule::kOccGrant);
}

std::vector<JobId> OccBc::CommitVictims(const Job& committing) const {
  // Broadcast commit: every active transaction that has read an item the
  // committing transaction overwrites is restarted.
  std::vector<JobId> victims;
  if (committing.workspace().empty()) return victims;
  for (const Job* other : view().active_jobs()) {
    if (other->id() != committing.id() &&
        ReadsCommitWrites(*other, committing)) {
      victims.push_back(other->id());
    }
  }
  return victims;
}

// --- OCC-DA -----------------------------------------------------------------

void OccDa::Decide(const LockRequest& request,
                   LockDecision& decision) const {
  PCPDA_CHECK(request.job != nullptr);
  if (request.mode == LockMode::kRead) {
    // A transaction constrained to serialize before some committed T_c
    // must not observe state from T_c's commit or anything later; the
    // snapshot version records the newest state it may still read.
    auto it = snapshot_.find(request.job->id());
    if (it != snapshot_.end() &&
        view().database().Read(request.item).version > it->second) {
      return decision.AbortRequester(DecisionRule::kOccDaConstraint);
    }
  }
  decision.Grant(DecisionRule::kOccGrant);
}

std::vector<JobId> OccDa::CommitVictims(const Job& committing) const {
  std::vector<JobId> victims;
  if (committing.workspace().empty()) return victims;
  for (const Job* other : view().active_jobs()) {
    if (other->id() == committing.id() ||
        !ReadsCommitWrites(*other, committing)) {
      continue;
    }
    // `other` must serialize before the committing transaction. Only a
    // READ-ONLY transaction can be tolerated with a snapshot constraint:
    // its slot is its snapshot version, its reads-from writers sit at or
    // below that slot, and every overwriter of its reads commits above
    // it — provably acyclic. A transaction that writes anything can pick
    // up outgoing write edges that contradict the constraint
    // transitively (we hit exactly that on random workloads), so it
    // restarts like under broadcast commit. Re-reads of an overwritten
    // item also restart: the single-version store cannot serve the old
    // value.
    if (!ReadOnly(other->spec()) || RereadsOverwritten(*other, committing)) {
      victims.push_back(other->id());
    }
    // Otherwise: tolerated — OnCommitApplied records the constraint.
  }
  return victims;
}

void OccDa::OnCommitApplied(const Job& committed) {
  snapshot_.erase(committed.id());
  if (committed.workspace().empty()) return;
  // The snapshot below excludes the committed writes: versions after the
  // pre-commit counter belong to T_c (or later) and are off-limits for
  // transactions serialized before it.
  const std::int64_t pre_commit_version =
      view().database().write_count() -
      static_cast<std::int64_t>(committed.workspace().size());
  // The committed job has left the active set already.
  for (const Job* other : view().active_jobs()) {
    if (!ReadsCommitWrites(*other, committed)) continue;
    auto [it, inserted] =
        snapshot_.try_emplace(other->id(), pre_commit_version);
    if (!inserted && it->second > pre_commit_version) {
      it->second = pre_commit_version;
    }
  }
}

void OccDa::OnAbortApplied(const Job& aborted) {
  snapshot_.erase(aborted.id());
}

}  // namespace pcpda
