#include "protocols/protocol.h"

#include "common/check.h"

namespace pcpda {

void Protocol::Attach(const SimView* view) {
  PCPDA_CHECK(view != nullptr);
  view_ = view;
}

const SimView& Protocol::view() const {
  PCPDA_CHECK_MSG(view_ != nullptr, "protocol not attached to a run");
  return *view_;
}

std::vector<std::pair<ItemId, LockMode>> Protocol::EarlyReleases(
    const Job& job) const {
  (void)job;
  return {};
}

std::vector<JobId> Protocol::CommitVictims(const Job& committing) const {
  (void)committing;
  return {};
}

}  // namespace pcpda
