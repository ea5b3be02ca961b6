#include "protocols/protocol.h"

#include "common/check.h"

namespace pcpda {

const char* ToString(DecisionRule rule) {
  switch (rule) {
    case DecisionRule::kNone:
      return "";
    case DecisionRule::kLc1:
      return "LC1";
    case DecisionRule::kLc2:
      return "LC2";
    case DecisionRule::kLc3:
      return "LC3";
    case DecisionRule::kLc4:
      return "LC4";
    case DecisionRule::kLc1Denied:
      return "LC1-denied";
    case DecisionRule::kWrGuardDenied:
      return "wr-guard";
    case DecisionRule::kTstarGuardDenied:
    case DecisionRule::kCeilingDenied:
      return "LC-denied";
    case DecisionRule::kHpAbort:
      return "2PL-HP";
    case DecisionRule::kOccGrant:
      return "occ";
    case DecisionRule::kOccDaConstraint:
      return "occ-da-constraint";
  }
  return "unknown";
}

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
