#include "protocols/protocol.h"

#include "common/check.h"

namespace pcpda {

ProtocolTraits TraitsOf(ProtocolKind kind) {
  ProtocolTraits traits;
  switch (kind) {
    case ProtocolKind::kPcpDa:
      traits.update_model = UpdateModel::kWorkspace;
      traits.ceiling_rule = CeilingRule::kWriteOnRead;
      traits.priority_inheritance = true;
      traits.deadlock_free = true;
      traits.blocking_bound = BlockingBoundKind::kCeiling;
      return traits;
    case ProtocolKind::kRwPcp:
      traits.ceiling_rule = CeilingRule::kReadWrite;
      traits.priority_inheritance = true;
      traits.deadlock_free = true;
      traits.blocking_bound = BlockingBoundKind::kCeiling;
      return traits;
    case ProtocolKind::kCcp:
      traits.ceiling_rule = CeilingRule::kReadWrite;
      traits.priority_inheritance = true;
      traits.releases_early = true;
      traits.deadlock_free = true;
      traits.blocking_bound = BlockingBoundKind::kCeiling;
      return traits;
    case ProtocolKind::kOpcp:
      traits.ceiling_rule = CeilingRule::kAbsolute;
      traits.priority_inheritance = true;
      traits.deadlock_free = true;
      traits.blocking_bound = BlockingBoundKind::kCeiling;
      return traits;
    case ProtocolKind::kTwoPlPi:
      traits.priority_inheritance = true;
      traits.blocking_bound = BlockingBoundKind::kUnbounded;
      return traits;
    case ProtocolKind::kTwoPlHp:
      traits.resolves_by_restart = true;
      traits.deadlock_free = true;
      traits.blocking_bound = BlockingBoundKind::kPushThrough;
      return traits;
    case ProtocolKind::kOccBc:
    case ProtocolKind::kOccDa:
      traits.update_model = UpdateModel::kWorkspace;
      traits.resolves_by_restart = true;
      traits.deadlock_free = true;
      traits.blocking_bound = BlockingBoundKind::kNone;
      return traits;
  }
  PCPDA_UNREACHABLE("bad ProtocolKind");
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
