#include "protocols/two_pl_pi.h"

#include "common/check.h"

namespace pcpda {

void TwoPlPi::Decide(const LockRequest& request,
                     LockDecision& decision) const {
  PCPDA_CHECK(request.job != nullptr);
  const JobId self = request.job->id();
  const ItemId x = request.item;
  const LockTable& locks = view().locks();

  std::vector<JobId>& conflicting = decision.jobs;
  for (JobId writer : locks.writers(x)) {
    if (writer != self) conflicting.push_back(writer);
  }
  if (request.mode == LockMode::kWrite) {
    for (JobId reader : locks.readers(x)) {
      if (reader != self) conflicting.push_back(reader);
    }
  }
  if (!conflicting.empty()) decision.Block(BlockReason::kConflict);
}

}  // namespace pcpda
