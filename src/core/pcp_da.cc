#include "core/pcp_da.h"

#include <algorithm>

#include "common/check.h"

namespace pcpda {

PcpDa::PcpDa(PcpDaOptions options)
    : Protocol(ProtocolKind::kPcpDa), options_(options) {}

Priority PcpDa::Sysceil(JobId self) const {
  Priority sysceil = Priority::Dummy();
  const LockTable& locks = view().locks();
  for (JobId holder : locks.holders()) {
    if (holder == self) continue;
    for (ItemId item : locks.read_items(holder)) {
      sysceil = Max(sysceil, view().ceilings().Wceil(item));
    }
  }
  return sysceil;
}

void PcpDa::CollectTstar(JobId self, Priority sysceil,
                         std::vector<JobId>& tstar) const {
  if (sysceil.is_dummy()) return;
  const LockTable& locks = view().locks();
  for (JobId holder : locks.holders()) {
    if (holder == self) continue;
    if (std::ranges::any_of(locks.read_items(holder), [&](ItemId item) {
          return view().ceilings().Wceil(item) == sysceil;
        })) {
      tstar.push_back(holder);
    }
  }
}

void PcpDa::Decide(const LockRequest& request, LockDecision& decision) const {
  PCPDA_CHECK(request.job != nullptr);
  const Job& job = *request.job;
  const JobId self = job.id();
  const ItemId x = request.item;
  const LockTable& locks = view().locks();

  if (request.mode == LockMode::kWrite) {
    // LC1: grant unless another transaction read-locks x. Write locks by
    // others do not conflict (blind workspace writes).
    for (JobId reader : locks.readers(x)) {
      if (reader != self) decision.jobs.push_back(reader);
    }
    if (decision.jobs.empty()) return decision.Grant(DecisionRule::kLc1);
    return decision.Block(BlockReason::kConflict, DecisionRule::kLc1Denied);
  }

  // Read request. First the Table-1 starred condition against current
  // write-lock holders of x: reading under T_L's write lock fixes the
  // serialization order requester -> T_L, which is only safe when
  // DataRead(T_L) ∩ WriteSet(requester) = ∅ (Case 2 otherwise).
  if (options_.enable_wr_guard) {
    for (JobId writer : locks.writers(x)) {
      if (writer == self) continue;
      const Job* holder = view().job(writer);
      PCPDA_CHECK(holder != nullptr);
      if (std::ranges::any_of(holder->data_read(), [&job](ItemId item) {
            return job.MayWrite(item);
          })) {
        decision.jobs.push_back(writer);
      }
    }
    if (!decision.jobs.empty()) {
      return decision.Block(BlockReason::kConflict,
                            DecisionRule::kWrGuardDenied);
    }
  }

  const Priority p = job.running_priority();
  const Priority sysceil = Sysceil(self);

  // LC2: the requester's priority clears the system ceiling.
  if (p > sysceil) return decision.Grant(DecisionRule::kLc2);

  // LC3/LC4 share the guard that T* will not write-lock x (otherwise the
  // new read lock could block T*, which may be executing at an inherited
  // priority above P_i — the deadlock of Example 5). T* goes straight into
  // the decision: it is the blocker set if no condition holds.
  std::vector<JobId>& tstar = decision.jobs;
  CollectTstar(self, sysceil, tstar);
  bool tstar_guard_ok = true;
  if (options_.enable_tstar_guard) {
    for (JobId holder_id : tstar) {
      const Job* holder = view().job(holder_id);
      PCPDA_CHECK(holder != nullptr);
      if (holder->MayWrite(x)) {
        tstar_guard_ok = false;
        break;
      }
    }
  }
  const Priority hpw = view().ceilings().Wceil(x);
  if (tstar_guard_ok) {
    // LC3: nobody at or above P_i will ever write x.
    if (p > hpw) return decision.Grant(DecisionRule::kLc3);
    // LC4: the requester itself is the highest-priority writer of x, and
    // no other transaction currently read-locks x.
    if (p == hpw && locks.NoReaderOtherThan(self, x)) {
      return decision.Grant(DecisionRule::kLc4);
    }
  }

  // Ceiling blocking by T* (unique per Lemma 6 in the paper's setting),
  // either through the T* guard or because no condition holds.
  decision.Block(BlockReason::kCeiling,
                 tstar_guard_ok ? DecisionRule::kCeilingDenied
                                : DecisionRule::kTstarGuardDenied);
}

Priority PcpDa::CurrentCeiling() const {
  Priority ceiling = Priority::Dummy();
  const LockTable& locks = view().locks();
  for (JobId holder : locks.holders()) {
    for (ItemId item : locks.read_items(holder)) {
      ceiling = Max(ceiling, view().ceilings().Wceil(item));
    }
  }
  return ceiling;
}

}  // namespace pcpda
