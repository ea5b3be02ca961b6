#include "sched/auditor.h"

#include <algorithm>

#include "common/check.h"
#include "common/strings.h"
#include "sched/inheritance.h"

namespace pcpda {
namespace {

/// Job lookup by id in the scope's scan list. The list holds every job
/// the simulator still keeps, so nullptr means the job retired on an
/// earlier tick and has been freed; the audit of its retirement tick
/// already reported it by its real state.
const Job* FindJob(const AuditScope& scope, JobId id) {
  for (const Job* job : *scope.jobs) {
    if (job->id() == id) return job;
  }
  return nullptr;
}

/// The ceiling the rule says `holder`'s lock on `item` raises in `mode`.
Priority RuleCeiling(CeilingRule rule, const StaticCeilings& ceilings,
                     ItemId item, LockMode mode) {
  switch (rule) {
    case CeilingRule::kNone:
      return Priority::Dummy();
    case CeilingRule::kAbsolute:
      return ceilings.Aceil(item);
    case CeilingRule::kReadWrite:
      return mode == LockMode::kWrite ? ceilings.Aceil(item)
                                      : ceilings.Wceil(item);
    case CeilingRule::kWriteOnRead:
      return mode == LockMode::kWrite ? Priority::Dummy()
                                      : ceilings.Wceil(item);
  }
  PCPDA_UNREACHABLE("bad CeilingRule");
}

}  // namespace

std::string AuditViolation::DebugString() const {
  return StrFormat("t=%lld [%s] %s", static_cast<long long>(tick),
                   check.c_str(), detail.c_str());
}

std::string AuditReport::DebugString() const {
  if (ok()) {
    return StrFormat("audit ok (%lld ticks)",
                     static_cast<long long>(ticks_audited));
  }
  std::vector<std::string> lines;
  lines.push_back(StrFormat(
      "audit FAILED: %d violation(s) over %lld ticks%s",
      static_cast<int>(violations.size()),
      static_cast<long long>(ticks_audited),
      suppressed > 0
          ? StrFormat(" (+%lld suppressed)",
                      static_cast<long long>(suppressed))
                .c_str()
          : ""));
  for (const AuditViolation& v : violations) {
    lines.push_back("  " + v.DebugString());
  }
  return Join(lines, "\n");
}

InvariantAuditor::InvariantAuditor(std::size_t max_violations)
    : max_violations_(max_violations) {}

void InvariantAuditor::Violate(Tick tick, const char* check,
                               std::string detail) {
  last_.push_back({check, std::move(detail)});
  Record(tick, last_.back());
}

void InvariantAuditor::Record(Tick tick, const Finding& finding) {
  if (report_.violations.size() >= max_violations_) {
    ++report_.suppressed;
    return;
  }
  report_.violations.push_back({tick, finding.check, finding.detail});
}

void InvariantAuditor::RepeatLastAudit(Tick tick, Tick ticks) {
  PCPDA_CHECK(ticks > 0);
  report_.ticks_audited += ticks;
  for (Tick t = tick; t < tick + ticks && !last_.empty(); ++t) {
    for (const Finding& finding : last_) Record(t, finding);
  }
}

void InvariantAuditor::AuditTick(const AuditScope& scope) {
  PCPDA_CHECK(scope.set != nullptr && scope.ceilings != nullptr &&
              scope.protocol != nullptr && scope.locks != nullptr &&
              scope.database != nullptr && scope.waits != nullptr &&
              scope.jobs != nullptr && scope.blocked != nullptr);
  ++report_.ticks_audited;
  last_.clear();
  const Tick tick = scope.tick;
  const LockTable& locks = *scope.locks;
  const Protocol& protocol = *scope.protocol;
  const CeilingRule rule = protocol.traits().ceiling_rule;

  // --- Lock table: holders are active, both index directions agree. ------
  std::size_t counted_locks = 0;
  for (JobId holder : locks.holders()) {
    const Job* job = FindJob(scope, holder);
    if (job == nullptr || !job->active()) {
      Violate(tick, "lock-holder-active",
              StrFormat("job %lld holds locks but is %s",
                        static_cast<long long>(holder),
                        job == nullptr ? "retired"
                                       : ToString(job->state())));
      continue;
    }
    for (ItemId item : locks.read_items(holder)) {
      if (!locks.HoldsRead(holder, item)) {
        Violate(tick, "lock-symmetry",
                StrFormat("job %lld lists read d%d but d%d's readers "
                          "disagree",
                          static_cast<long long>(holder), item, item));
      }
    }
    for (ItemId item : locks.write_items(holder)) {
      if (!locks.HoldsWrite(holder, item)) {
        Violate(tick, "lock-symmetry",
                StrFormat("job %lld lists write d%d but d%d's writers "
                          "disagree",
                          static_cast<long long>(holder), item, item));
      }
    }
  }
  for (ItemId item = 0; item < locks.item_count(); ++item) {
    counted_locks += locks.readers(item).size();
    counted_locks += locks.writers(item).size();
    for (JobId reader : locks.readers(item)) {
      if (!std::ranges::binary_search(locks.read_items(reader), item)) {
        Violate(tick, "lock-symmetry",
                StrFormat("d%d lists reader %lld but the job index "
                          "disagrees",
                          item, static_cast<long long>(reader)));
      }
    }
    for (JobId writer : locks.writers(item)) {
      if (!std::ranges::binary_search(locks.write_items(writer), item)) {
        Violate(tick, "lock-symmetry",
                StrFormat("d%d lists writer %lld but the job index "
                          "disagrees",
                          item, static_cast<long long>(writer)));
      }
    }
  }
  if (counted_locks != locks.lock_count()) {
    Violate(tick, "lock-count",
            StrFormat("lock_count()=%d but %d locks enumerated",
                      static_cast<int>(locks.lock_count()),
                      static_cast<int>(counted_locks)));
  }

  // --- Update-model invariants. ------------------------------------------
  if (protocol.traits().update_model == UpdateModel::kInPlace) {
    // Exclusive writers: one writer per item, no foreign readers beside it.
    for (ItemId item = 0; item < locks.item_count(); ++item) {
      const auto& writers = locks.writers(item);
      if (writers.size() > 1) {
        Violate(tick, "exclusive-write",
                StrFormat("d%d has %d concurrent writers", item,
                          static_cast<int>(writers.size())));
      }
      if (writers.size() == 1) {
        const JobId writer = *writers.begin();
        for (JobId reader : locks.readers(item)) {
          if (reader != writer) {
            Violate(tick, "exclusive-write",
                    StrFormat("d%d read-locked by %lld while %lld holds "
                              "the write lock",
                              item, static_cast<long long>(reader),
                              static_cast<long long>(writer)));
          }
        }
      }
    }
    // Strictness: in-place writes stay lock-protected until commit/abort,
    // so an undo-logged item must still be write-locked. Early-release
    // protocols (CCP) intentionally break this; they assume no aborts.
    if (!protocol.traits().releases_early) {
      for (const Job* job : *scope.jobs) {
        if (!job->active()) continue;
        for (const auto& [item, before] : job->undo_log()) {
          if (!locks.HoldsWrite(job->id(), item)) {
            Violate(tick, "strict-locks",
                    StrFormat("%s wrote d%d in place but no longer holds "
                              "its write lock",
                              job->DebugName().c_str(), item));
          }
        }
      }
    }
  } else {
    // Workspace isolation: no uncommitted write visible, no undo logging.
    for (ItemId item = 0; item < scope.database->item_count(); ++item) {
      const JobId writer = scope.database->Read(item).writer;
      if (writer == kInvalidJob) continue;
      const Job* job = FindJob(scope, writer);
      if (job != nullptr && job->active()) {
        Violate(tick, "workspace-isolation",
                StrFormat("d%d carries a write by active (uncommitted) "
                          "job %s",
                          item, job->DebugName().c_str()));
      }
    }
    for (const Job* job : *scope.jobs) {
      if (job->active() && !job->undo_log().empty()) {
        Violate(tick, "workspace-isolation",
                StrFormat("%s has in-place undo entries under the "
                          "workspace model",
                          job->DebugName().c_str()));
      }
    }
  }

  // --- Ceiling-protocol invariants. ---------------------------------------
  if (rule != CeilingRule::kNone) {
    // Sysceil: the protocol's reported ceiling must equal the maximum the
    // rule derives from the lock table (Max_Sysceil of the paper).
    Priority expected = Priority::Dummy();
    for (JobId holder : locks.holders()) {
      for (ItemId item : locks.read_items(holder)) {
        expected = Max(expected, RuleCeiling(rule, *scope.ceilings, item,
                                             LockMode::kRead));
      }
      for (ItemId item : locks.write_items(holder)) {
        expected = Max(expected, RuleCeiling(rule, *scope.ceilings, item,
                                             LockMode::kWrite));
      }
    }
    const Priority reported = protocol.CurrentCeiling();
    if (reported != expected) {
      Violate(tick, "sysceil",
              StrFormat("protocol reports ceiling %s but the lock table "
                        "implies %s",
                        reported.DebugString().c_str(),
                        expected.DebugString().c_str()));
    }

    // Theorem 1 (single blocking): a blocked job has at most one genuine
    // lower-priority blocker. A blocker whose running priority reaches the
    // blocked job's base priority is executing on behalf of an even
    // higher-priority waiter (inheritance) and is not a second independent
    // inversion source.
    for (const AuditBlocked& entry : *scope.blocked) {
      const Job* blocked = FindJob(scope, entry.job);
      if (blocked == nullptr || !blocked->active()) continue;
      lower_.clear();
      for (JobId blocker_id : *entry.blockers) {
        const Job* blocker = FindJob(scope, blocker_id);
        if (blocker == nullptr || !blocker->active()) continue;
        if (blocker->base_priority() < blocked->base_priority() &&
            blocker->running_priority() < blocked->base_priority()) {
          lower_.push_back(blocker_id);
        }
      }
      std::sort(lower_.begin(), lower_.end());
      lower_.erase(std::unique(lower_.begin(), lower_.end()), lower_.end());
      if (lower_.size() > 1) {
        Violate(tick, "single-blocking",
                StrFormat("%s is blocked by %d lower-priority jobs",
                          blocked->DebugName().c_str(),
                          static_cast<int>(lower_.size())));
      }
    }
  }

  // --- Wait graph: waiters are active; edges restricted to active jobs. --
  // running_ holds the active jobs' base priorities here; the inheritance
  // check below relaxes it in place. Only the waiter side must be active:
  // a holder that retired this tick stays in other waiters' edges until
  // the next resolution.
  running_.clear();
  for (const Job* job : *scope.jobs) {
    if (job->active()) running_[job->id()] = job->base_priority();
  }
  active_waits_.Clear();
  for (JobId waiter : scope.waits->waiter_ids()) {
    if (!running_.contains(waiter)) {
      const Job* job = FindJob(scope, waiter);
      Violate(tick, "wait-retired",
              StrFormat("job %lld waits on others but is %s",
                        static_cast<long long>(waiter),
                        job == nullptr ? "retired"
                                       : ToString(job->state())));
      continue;
    }
    holders_.clear();
    for (JobId holder : scope.waits->HoldersBlocking(waiter)) {
      if (running_.contains(holder)) holders_.push_back(holder);
    }
    if (!holders_.empty()) active_waits_.SetWaits(waiter, holders_);
  }

  // Theorem 2 (deadlock freedom): ceiling protocols never build a cycle.
  if (rule != CeilingRule::kNone) {
    if (auto cycle = active_waits_.FindCycle(); cycle.has_value()) {
      std::vector<std::string> ids;
      for (JobId id : *cycle) {
        ids.push_back(StrFormat("%lld", static_cast<long long>(id)));
      }
      Violate(tick, "wait-acyclic",
              "wait-for cycle [" + Join(ids, ",") + "]");
    }
  }

  // Inheritance: each active job's running priority equals the transitive
  // max over the waiters it blocks (or its base priority without
  // inheritance).
  ComputeRunningPriorities(running_, active_waits_,
                           protocol.traits().priority_inheritance);
  for (const Job* job : *scope.jobs) {
    if (!job->active()) continue;
    const Priority expected = running_.at(job->id());
    if (job->running_priority() != expected) {
      Violate(tick, "inheritance",
              StrFormat("%s runs at %s but the wait graph implies %s",
                        job->DebugName().c_str(),
                        job->running_priority().DebugString().c_str(),
                        expected.DebugString().c_str()));
    }
  }

  // --- Blocked bookkeeping sanity. ----------------------------------------
  for (const AuditBlocked& entry : *scope.blocked) {
    const Job* blocked = FindJob(scope, entry.job);
    if (blocked == nullptr) {
      Violate(tick, "blocked-sane",
              StrFormat("unknown job %lld recorded as blocked",
                        static_cast<long long>(entry.job)));
      continue;
    }
    const std::vector<JobId>& blockers = *entry.blockers;
    if (std::find(blockers.begin(), blockers.end(), entry.job) !=
        blockers.end()) {
      Violate(tick, "blocked-sane",
              blocked->DebugName() + " is recorded as blocking itself");
    }
  }
}

}  // namespace pcpda
