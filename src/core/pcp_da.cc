#include "core/pcp_da.h"

#include <algorithm>

#include "common/check.h"

namespace pcpda {

PcpDa::PcpDa(PcpDaOptions options) : options_(options) {}

PcpDa::SysceilInfo PcpDa::ComputeSysceil(JobId self) const {
  SysceilInfo info;
  info.sysceil = Priority::Dummy();
  const LockTable& locks = view().locks();
  for (JobId holder : locks.holders()) {
    if (holder == self) continue;
    for (ItemId item : locks.read_items(holder)) {
      const Priority w = view().ceilings().Wceil(item);
      if (w.is_dummy()) continue;
      if (w > info.sysceil) {
        info.sysceil = w;
        info.tstar.assign(1, holder);
      } else if (w == info.sysceil &&
                 std::find(info.tstar.begin(), info.tstar.end(), holder) ==
                     info.tstar.end()) {
        info.tstar.push_back(holder);
      }
    }
  }
  return info;
}

LockDecision PcpDa::Decide(const LockRequest& request) const {
  PCPDA_CHECK(request.job != nullptr);
  const Job& job = *request.job;
  const JobId self = job.id();
  const ItemId x = request.item;
  const LockTable& locks = view().locks();

  if (request.mode == LockMode::kWrite) {
    // LC1: grant unless another transaction read-locks x. Write locks by
    // others do not conflict (blind workspace writes).
    std::vector<JobId> other_readers;
    for (JobId reader : locks.readers(x)) {
      if (reader != self) other_readers.push_back(reader);
    }
    if (other_readers.empty()) return LockDecision::Grant("LC1");
    return LockDecision::Block(BlockReason::kConflict,
                               std::move(other_readers), "LC1-denied");
  }

  // Read request. First the Table-1 starred condition against current
  // write-lock holders of x: reading under T_L's write lock fixes the
  // serialization order requester -> T_L, which is only safe when
  // DataRead(T_L) ∩ WriteSet(requester) = ∅ (Case 2 otherwise).
  if (options_.enable_wr_guard) {
    std::vector<JobId> conflicting_writers;
    for (JobId writer : locks.writers(x)) {
      if (writer == self) continue;
      const Job* holder = view().job(writer);
      PCPDA_CHECK(holder != nullptr);
      if (std::ranges::any_of(holder->data_read(), [&job](ItemId item) {
            return job.MayWrite(item);
          })) {
        conflicting_writers.push_back(writer);
      }
    }
    if (!conflicting_writers.empty()) {
      return LockDecision::Block(BlockReason::kConflict,
                                 std::move(conflicting_writers),
                                 "wr-guard");
    }
  }

  const Priority p = job.running_priority();
  const SysceilInfo info = ComputeSysceil(self);

  // LC2: the requester's priority clears the system ceiling.
  if (p > info.sysceil) return LockDecision::Grant("LC2");

  // LC3/LC4 share the guard that T* will not write-lock x (otherwise the
  // new read lock could block T*, which may be executing at an inherited
  // priority above P_i — the deadlock of Example 5).
  bool tstar_guard_ok = true;
  if (options_.enable_tstar_guard) {
    for (JobId holder_id : info.tstar) {
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
    if (p > hpw) return LockDecision::Grant("LC3");
    // LC4: the requester itself is the highest-priority writer of x, and
    // no other transaction currently read-locks x.
    if (p == hpw && locks.NoReaderOtherThan(self, x)) {
      return LockDecision::Grant("LC4");
    }
  }

  // Ceiling blocking by T* (unique per Lemma 6 in the paper's setting).
  return LockDecision::Block(BlockReason::kCeiling, info.tstar,
                             "LC-denied");
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
