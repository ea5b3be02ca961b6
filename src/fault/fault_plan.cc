#include "fault/fault_plan.h"

#include <algorithm>

#include "common/check.h"
#include "common/strings.h"

namespace pcpda {

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kAbort:
      return "abort";
    case FaultKind::kRestartInCs:
      return "restart";
    case FaultKind::kOverrun:
      return "overrun";
    case FaultKind::kDelayArrival:
      return "delay";
    case FaultKind::kBurstArrival:
      return "burst";
  }
  return "unknown";
}

std::string FaultSpec::DebugString() const {
  std::string out = ToString(kind);
  out += spec == kInvalidSpec ? " *" : StrFormat(" spec=%d", spec);
  if (at != kNoTick) out += StrFormat(" at=%lld", static_cast<long long>(at));
  if (probability > 0.0) out += StrFormat(" prob=%.3f", probability);
  if (kind == FaultKind::kOverrun || kind == FaultKind::kDelayArrival) {
    out += StrFormat(" extra=%lld", static_cast<long long>(extra));
  }
  if (kind == FaultKind::kBurstArrival) out += StrFormat(" count=%d", count);
  return out;
}

Status ValidateFaultConfig(const FaultConfig& config,
                           const TransactionSet& set) {
  for (std::size_t i = 0; i < config.faults.size(); ++i) {
    const FaultSpec& fault = config.faults[i];
    const std::string where = StrFormat("fault #%d (%s)",
                                        static_cast<int>(i),
                                        ToString(fault.kind));
    const bool has_at = fault.at != kNoTick;
    const bool has_prob = fault.probability > 0.0;
    if (has_at == has_prob) {
      return Status::InvalidArgument(
          where + ": exactly one of at/probability must be set");
    }
    if (has_at && fault.at < 0) {
      return Status::InvalidArgument(where + ": at must be >= 0");
    }
    if (fault.probability < 0.0 || fault.probability > 1.0) {
      return Status::InvalidArgument(
          where + ": probability must be in [0, 1]");
    }
    if (fault.spec != kInvalidSpec &&
        (fault.spec < 0 || fault.spec >= set.size())) {
      return Status::InvalidArgument(
          where + StrFormat(": spec %d out of range", fault.spec));
    }
    if ((fault.kind == FaultKind::kOverrun ||
         fault.kind == FaultKind::kDelayArrival) &&
        fault.extra <= 0) {
      return Status::InvalidArgument(where + ": extra must be positive");
    }
    if (fault.kind == FaultKind::kBurstArrival && fault.count <= 0) {
      return Status::InvalidArgument(where + ": count must be positive");
    }
  }
  return Status::Ok();
}

FaultPlan::FaultPlan(const FaultConfig& config, const TransactionSet* set)
    : config_(config), set_(set), rng_(config.seed) {
  PCPDA_CHECK(set != nullptr);
}

bool FaultPlan::Fires(FaultSpec& fault, Tick tick) {
  if (fault.at == kNoTick) return rng_.Bernoulli(fault.probability);
  if (tick < fault.at) return false;
  fault.at = kNoTick;       // one-shot: disarm
  fault.probability = 0.0;  // and keep the trigger unset
  return true;
}

void FaultPlan::TransformArrivals(Tick tick, std::vector<Arrival>& due) {
  // Re-emit arrivals whose delay expires now, ahead of today's releases so
  // instance order stays close to release order.
  out_.clear();
  if (auto it = delayed_.find(tick); it != delayed_.end()) {
    out_.assign(it->second.begin(), it->second.end());
    delayed_.erase(it);
  }
  for (Arrival& arrival : due) {
    bool delayed = false;
    for (FaultSpec& fault : config_.faults) {
      if (fault.kind != FaultKind::kDelayArrival) continue;
      if (fault.spec != kInvalidSpec && fault.spec != arrival.spec) continue;
      if (!Fires(fault, tick)) continue;
      const Tick delay = rng_.UniformInt(1, fault.extra);
      Arrival moved = arrival;
      moved.tick = tick + delay;
      delayed_[tick + delay].push_back(moved);
      delay_ticks_ += delay;
      ++delayed_count_;
      delayed = true;
      break;
    }
    if (!delayed) out_.push_back(arrival);
  }
  for (FaultSpec& fault : config_.faults) {
    if (fault.kind != FaultKind::kBurstArrival) continue;
    if (!Fires(fault, tick)) continue;
    // A burst of the target spec (or of every spec when unscoped).
    std::vector<SpecId> targets;
    if (fault.spec != kInvalidSpec) {
      targets.push_back(fault.spec);
    } else {
      for (SpecId s = 0; s < set_->size(); ++s) targets.push_back(s);
    }
    for (SpecId spec : targets) {
      for (int i = 0; i < fault.count; ++i) {
        Arrival extra;
        extra.tick = tick;
        extra.spec = spec;
        extra.instance = kBurstInstanceBase + burst_seq_[spec]++;
        ++burst_count_;
        out_.push_back(extra);
      }
    }
  }
  due.swap(out_);
}

std::vector<JobFault> FaultPlan::JobFaultsAt(
    Tick tick, const std::vector<Job*>& active,
    const std::function<bool(JobId)>& holds_lock) {
  std::vector<JobFault> out;
  for (FaultSpec& fault : config_.faults) {
    if (fault.kind != FaultKind::kAbort &&
        fault.kind != FaultKind::kRestartInCs &&
        fault.kind != FaultKind::kOverrun) {
      continue;
    }
    const bool one_shot = fault.at != kNoTick;
    if (one_shot) {
      if (tick < fault.at) continue;
    } else if (!rng_.Bernoulli(fault.probability)) {
      continue;
    }
    // Lowest-id eligible job of the target spec. One-shot faults stay
    // armed until a target exists (first eligible tick >= at).
    const Job* target = nullptr;
    for (const Job* job : active) {
      if (fault.spec != kInvalidSpec && job->spec_id() != fault.spec) {
        continue;
      }
      if (fault.kind == FaultKind::kOverrun && job->BodyDone()) continue;
      if (fault.kind == FaultKind::kRestartInCs && !holds_lock(job->id())) {
        continue;
      }
      target = job;
      break;
    }
    if (target == nullptr) continue;
    if (one_shot) {
      fault.at = kNoTick;
      fault.probability = 0.0;
    }
    JobFault applied;
    applied.kind = fault.kind;
    applied.job = target->id();
    applied.extra = fault.kind == FaultKind::kOverrun ? fault.extra : 0;
    applied.note = StrFormat("fault:%s", ToString(fault.kind));
    out.push_back(std::move(applied));
  }
  return out;
}

}  // namespace pcpda
