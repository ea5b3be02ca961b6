#include "campaign/spec.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"

namespace pcpda {

Status CampaignSpec::Validate() const {
  if (scenarios < 1) {
    return Status::InvalidArgument(
        StrFormat("scenarios must be >= 1, got %d", scenarios));
  }
  if (utilizations.empty()) {
    return Status::InvalidArgument("utilization sweep is empty");
  }
  if (protocols.empty()) {
    return Status::InvalidArgument("protocol list is empty");
  }
  if (horizon <= 0) {
    return Status::InvalidArgument(
        StrFormat("horizon must be > 0, got %lld",
                  static_cast<long long>(horizon)));
  }
  if (shards < 1 || shards > num_cells()) {
    return Status::InvalidArgument(
        StrFormat("shards must be in [1, %lld] (one cell per shard "
                  "minimum), got %d",
                  static_cast<long long>(num_cells()), shards));
  }
  if (max_sim_ticks < 0 || wall_budget_ms < 0 || max_retries < 0) {
    return Status::InvalidArgument(
        "watchdog budgets and max_retries must be >= 0");
  }
  for (double u : utilizations) {
    if (u <= 0.0 || u > 1.0) {
      return Status::InvalidArgument(StrFormat(
          "utilization points must be in (0, 1], got %g", u));
    }
  }
  // Vet the workload shape once per sweep point with a throwaway rng:
  // a point the generator rejects would fail every scenario of its
  // column, which is a spec bug, not 'scenarios' failed jobs.
  for (double u : utilizations) {
    WorkloadParams params = workload;
    params.total_utilization = u;
    Rng rng(1);
    auto set = GenerateWorkload(params, rng);
    if (!set.ok()) {
      return Status::InvalidArgument(
          StrFormat("utilization point %g is infeasible for the "
                    "configured workload: %s",
                    u, set.status().message().c_str()));
    }
  }
  return Status::Ok();
}

std::string CampaignSpec::Fingerprint() const {
  std::vector<std::string> protos;
  protos.reserve(protocols.size());
  for (ProtocolKind kind : protocols) protos.push_back(ToString(kind));
  std::vector<std::string> utils;
  utils.reserve(utilizations.size());
  for (double u : utilizations) utils.push_back(StrFormat("%g", u));
  const WorkloadParams& w = workload;
  std::string gen = StrFormat(
      "%s txns=%d items=%d period=[%lld,%lld] ops=[%d,%d] wf=%g",
      ToString(w.distribution), w.num_transactions, w.num_items,
      static_cast<long long>(w.min_period),
      static_cast<long long>(w.max_period), w.min_ops, w.max_ops,
      w.write_fraction);
  if (w.distribution != UtilDistribution::kUUniFast) {
    gen += StrFormat(" tasku=[%g,%g]", w.min_task_utilization,
                     w.max_task_utilization);
    if (w.distribution == UtilDistribution::kExponential) {
      gen += StrFormat(" mean=%g", w.exp_mean_utilization);
    }
    if (w.distribution == UtilDistribution::kBimodal) {
      gen += StrFormat(" split=%g light=%g", w.bimodal_split,
                       w.bimodal_light_fraction);
    }
  }
  return StrFormat(
      "seed=%llu scenarios=%d horizon=%lld ticks=%lld retries=%d "
      "utils=[%s] protocols=[%s] gen={%s}",
      static_cast<unsigned long long>(base_seed), scenarios,
      static_cast<long long>(horizon),
      static_cast<long long>(effective_max_sim_ticks()), max_retries,
      Join(utils, ",").c_str(), Join(protos, ",").c_str(), gen.c_str());
}

std::int64_t CampaignSpec::CellBegin(int shard) const {
  PCPDA_CHECK(shard >= 0 && shard <= shards);
  const std::int64_t cells = num_cells();
  const std::int64_t base = cells / shards;
  const std::int64_t extra = cells % shards;
  // The first `extra` shards take base+1 cells each.
  const std::int64_t s = shard;
  return s * base + std::min<std::int64_t>(s, extra);
}

CampaignJob CampaignSpec::JobById(std::int64_t id) const {
  PCPDA_CHECK(id >= 0 && id < num_jobs());
  CampaignJob job;
  job.id = id;
  const std::int64_t cell = id / num_protocols();
  job.protocol_index = static_cast<int>(id % num_protocols());
  job.scenario_index = static_cast<int>(cell / num_utils());
  job.util_index = static_cast<int>(cell % num_utils());
  job.scenario_seed =
      SplitMixSeed(base_seed, static_cast<std::uint64_t>(cell));
  return job;
}

StatusOr<TransactionSet> CampaignSpec::CellWorkload(
    std::int64_t cell) const {
  PCPDA_CHECK(cell >= 0 && cell < num_cells());
  WorkloadParams params = workload;
  params.total_utilization =
      utilizations[static_cast<std::size_t>(cell % num_utils())];
  Rng rng(SplitMixSeed(base_seed, static_cast<std::uint64_t>(cell)));
  return GenerateWorkload(params, rng);
}

std::vector<CampaignJob> CampaignSpec::JobsForShard(int shard) const {
  PCPDA_CHECK(shard >= 0 && shard < shards);
  std::vector<CampaignJob> jobs;
  for (std::int64_t id = CellBegin(shard) * num_protocols();
       id < CellBegin(shard + 1) * num_protocols(); ++id) {
    jobs.push_back(JobById(id));
  }
  return jobs;
}

}  // namespace pcpda
