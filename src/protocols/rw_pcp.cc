#include "protocols/rw_pcp.h"

#include <algorithm>

#include "common/check.h"

namespace pcpda {

Priority RwPcp::ComputeSysceil(JobId self,
                               std::vector<JobId>& holders) const {
  Priority sysceil = Priority::Dummy();
  const LockTable& locks = view().locks();
  auto consider = [&](JobId holder, Priority ceiling) {
    if (ceiling.is_dummy()) return;
    if (ceiling > sysceil) {
      sysceil = ceiling;
      holders.assign(1, holder);
    } else if (ceiling == sysceil &&
               std::find(holders.begin(), holders.end(), holder) ==
                   holders.end()) {
      holders.push_back(holder);
    }
  };
  for (JobId holder : locks.holders()) {
    if (holder == self) continue;
    for (ItemId item : locks.write_items(holder)) {
      consider(holder, view().ceilings().Aceil(item));
    }
    for (ItemId item : locks.read_items(holder)) {
      consider(holder, view().ceilings().Wceil(item));
    }
  }
  return sysceil;
}

void RwPcp::Decide(const LockRequest& request,
                   LockDecision& decision) const {
  PCPDA_CHECK(request.job != nullptr);
  const Job& job = *request.job;
  const JobId self = job.id();
  const ItemId x = request.item;
  const LockTable& locks = view().locks();

  const Priority sysceil = ComputeSysceil(self, decision.jobs);
  if (job.running_priority() > sysceil) {
    // The ceiling test subsumes conflict checking: a conflicting holder of
    // x would have raised rwceil(x) to at least P_i.
    return decision.Grant();
  }
  // Classify the blocking the way Section 3 does: conflict blocking when x
  // itself is held in an incompatible mode, ceiling blocking otherwise.
  bool direct_conflict = !locks.NoWriterOtherThan(self, x);
  if (request.mode == LockMode::kWrite &&
      !locks.NoReaderOtherThan(self, x)) {
    direct_conflict = true;
  }
  decision.Block(direct_conflict ? BlockReason::kConflict
                                 : BlockReason::kCeiling);
}

Priority RwPcp::CurrentCeiling() const {
  Priority ceiling = Priority::Dummy();
  const LockTable& locks = view().locks();
  for (JobId holder : locks.holders()) {
    for (ItemId item : locks.write_items(holder)) {
      ceiling = Max(ceiling, view().ceilings().Aceil(item));
    }
    for (ItemId item : locks.read_items(holder)) {
      ceiling = Max(ceiling, view().ceilings().Wceil(item));
    }
  }
  return ceiling;
}

}  // namespace pcpda
