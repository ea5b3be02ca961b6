#include "protocols/opcp.h"

#include <algorithm>

#include "common/check.h"

namespace pcpda {

void Opcp::Decide(const LockRequest& request,
                  LockDecision& decision) const {
  PCPDA_CHECK(request.job != nullptr);
  const Job& job = *request.job;
  const JobId self = job.id();
  const ItemId x = request.item;
  const LockTable& locks = view().locks();

  Priority sysceil = Priority::Dummy();
  std::vector<JobId>& holders = decision.jobs;
  auto consider = [&](JobId holder, ItemId item) {
    const Priority ceiling = view().ceilings().Aceil(item);
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
    for (ItemId item : locks.read_items(holder)) consider(holder, item);
    for (ItemId item : locks.write_items(holder)) consider(holder, item);
  }

  if (job.running_priority() > sysceil) return decision.Grant();
  const bool direct_conflict = !locks.NoWriterOtherThan(self, x) ||
                               !locks.NoReaderOtherThan(self, x);
  decision.Block(direct_conflict ? BlockReason::kConflict
                                 : BlockReason::kCeiling);
}

Priority Opcp::CurrentCeiling() const {
  Priority ceiling = Priority::Dummy();
  const LockTable& locks = view().locks();
  for (JobId holder : locks.holders()) {
    for (ItemId item : locks.read_items(holder)) {
      ceiling = Max(ceiling, view().ceilings().Aceil(item));
    }
    for (ItemId item : locks.write_items(holder)) {
      ceiling = Max(ceiling, view().ceilings().Aceil(item));
    }
  }
  return ceiling;
}

}  // namespace pcpda
