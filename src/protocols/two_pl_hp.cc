#include "protocols/two_pl_hp.h"

#include "common/check.h"

namespace pcpda {

void TwoPlHp::Decide(const LockRequest& request,
                     LockDecision& decision) const {
  PCPDA_CHECK(request.job != nullptr);
  const Job& job = *request.job;
  const JobId self = job.id();
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
  if (conflicting.empty()) return;

  bool requester_wins = true;
  for (JobId holder_id : conflicting) {
    const Job* holder = view().job(holder_id);
    PCPDA_CHECK(holder != nullptr);
    if (holder->base_priority() >= job.base_priority()) {
      requester_wins = false;
      break;
    }
  }
  if (requester_wins) {
    decision.AbortAndGrant(DecisionRule::kHpAbort);
  } else {
    decision.Block(BlockReason::kConflict);
  }
}

}  // namespace pcpda
