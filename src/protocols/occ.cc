#include "protocols/occ.h"

#include "common/check.h"
#include "core/lock_compat.h"

namespace pcpda {

namespace {

/// Items the job will still read in its remaining steps.
std::set<ItemId> FutureReads(const Job& job) {
  std::set<ItemId> items;
  const auto& body = job.spec().body;
  for (std::size_t i = job.step_index(); i < body.size(); ++i) {
    if (body[i].kind == StepKind::kRead) items.insert(body[i].item);
  }
  return items;
}

/// Items the committing job is about to install.
std::set<ItemId> CommitWrites(const Job& committing) {
  std::set<ItemId> items;
  for (const auto& [item, value] : committing.workspace().writes()) {
    items.insert(item);
  }
  return items;
}

}  // namespace

// --- OCC-BC -----------------------------------------------------------------

LockDecision OccBc::Decide(const LockRequest& request) const {
  PCPDA_CHECK(request.job != nullptr);
  // Optimistic execution: data access never blocks.
  return LockDecision::Grant("occ");
}

std::vector<JobId> OccBc::CommitVictims(const Job& committing) const {
  // Broadcast commit: every active transaction that has read an item the
  // committing transaction overwrites is restarted.
  const std::set<ItemId> writes = CommitWrites(committing);
  std::vector<JobId> victims;
  if (writes.empty()) return victims;
  for (const Job* other : view().LiveJobs(committing.id())) {
    if (SetsIntersect(other->data_read(), writes)) {
      victims.push_back(other->id());
    }
  }
  return victims;
}

// --- OCC-DA -----------------------------------------------------------------

LockDecision OccDa::Decide(const LockRequest& request) const {
  PCPDA_CHECK(request.job != nullptr);
  if (request.mode == LockMode::kRead) {
    // A transaction constrained to serialize before some committed T_c
    // must not observe state from T_c's commit or anything later; the
    // snapshot version records the newest state it may still read.
    auto it = snapshot_.find(request.job->id());
    if (it != snapshot_.end() &&
        view().database().Read(request.item).version > it->second) {
      return LockDecision::AbortRequester("occ-da-constraint");
    }
  }
  return LockDecision::Grant("occ");
}

std::vector<JobId> OccDa::CommitVictims(const Job& committing) const {
  const std::set<ItemId> writes = CommitWrites(committing);
  std::vector<JobId> victims;
  if (writes.empty()) return victims;
  for (const Job* other : view().LiveJobs(committing.id())) {
    if (!SetsIntersect(other->data_read(), writes)) continue;
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
    const bool read_only = other->spec().WriteSet().empty();
    bool rereads_overwritten = false;
    for (ItemId item : FutureReads(*other)) {
      if (writes.contains(item) && other->data_read().contains(item)) {
        rereads_overwritten = true;
        break;
      }
    }
    if (!read_only || rereads_overwritten) {
      victims.push_back(other->id());
    }
    // Otherwise: tolerated — OnCommitApplied records the constraint.
  }
  return victims;
}

void OccDa::OnCommitApplied(const Job& committed) {
  before_.erase(committed.id());
  snapshot_.erase(committed.id());
  const std::set<ItemId> writes = CommitWrites(committed);
  if (writes.empty()) return;
  // The snapshot below excludes the committed writes: versions after the
  // pre-commit counter belong to T_c (or later) and are off-limits for
  // transactions serialized before it.
  const std::int64_t pre_commit_version =
      view().database().write_count() -
      static_cast<std::int64_t>(writes.size());
  for (const Job* other : view().LiveJobs(committed.id())) {
    if (!SetsIntersect(other->data_read(), writes)) continue;
    before_[other->id()].insert(committed.id());
    auto [it, inserted] =
        snapshot_.try_emplace(other->id(), pre_commit_version);
    if (!inserted && it->second > pre_commit_version) {
      it->second = pre_commit_version;
    }
  }
}

void OccDa::OnAbortApplied(const Job& aborted) {
  before_.erase(aborted.id());
  snapshot_.erase(aborted.id());
}

std::set<JobId> OccDa::MustPrecede(JobId job) const {
  auto it = before_.find(job);
  return it == before_.end() ? std::set<JobId>{} : it->second;
}

}  // namespace pcpda
