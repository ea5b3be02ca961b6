#ifndef PCPDA_CAMPAIGN_SPEC_H_
#define PCPDA_CAMPAIGN_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "protocols/factory.h"
#include "workload/generator.h"

namespace pcpda {

/// One job of a campaign grid. The grid is the cross product
/// scenario x utilization x protocol; a *cell* is one (scenario,
/// utilization) pair, i.e. one generated workload that every protocol
/// of the grid runs against. Ids are dense:
///
///   cell = scenario_index * |utilizations| + util_index
///   id   = cell * |protocols| + protocol_index
///
/// and scenario_seed = SplitMixSeed(base_seed, cell), so a job's inputs
/// depend only on (spec, id) — never on shard layout, worker count or
/// execution order. That is the entire determinism argument for
/// crash-safe resume (DESIGN.md §12).
struct CampaignJob {
  std::int64_t id = 0;
  int scenario_index = 0;
  int util_index = 0;
  int protocol_index = 0;
  std::uint64_t scenario_seed = 0;
};

/// Declarative description of an experiment campaign: which grid to run
/// and under what robustness policy. Everything that affects a job's
/// result is in here (and folded into Fingerprint()); everything that
/// only affects *how* the grid is executed — worker count, fsync, output
/// directory, fault injection — lives in CampaignOptions.
struct CampaignSpec {
  /// Base of the per-cell SplitMixSeed streams.
  std::uint64_t base_seed = 1;
  /// Random scenarios per utilization point.
  int scenarios = 100;
  /// Shards the grid is partitioned into. Each shard owns a contiguous
  /// range of cells (never a partial cell), checkpoints independently,
  /// and can be run by a separate invocation.
  int shards = 1;
  /// The utilization sweep (paper Section 10 sweeps 0.1 .. 0.9).
  std::vector<double> utilizations = {0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9};
  /// Protocols to compare at every point.
  std::vector<ProtocolKind> protocols;
  /// Workload shape; total_utilization is overridden per cell by the
  /// sweep value.
  WorkloadParams workload;
  /// Simulation horizon per job.
  Tick horizon = 3000;

  // --- robustness policy (JobPolicy fields, see runner/batch_runner.h) --
  /// Deterministic tick budget per attempt; 0 derives a generous default
  /// from the horizon (4x) so a runaway protocol cannot stall a shard.
  Tick max_sim_ticks = 0;
  /// Wall-clock budget per attempt in ms; 0 = unlimited (the tick budget
  /// is the primary guard; this is the backstop for genuine hangs).
  int wall_budget_ms = 0;
  /// Extra attempts for jobs that end in a captured exception.
  int max_retries = 1;

  int num_utils() const { return static_cast<int>(utilizations.size()); }
  int num_protocols() const { return static_cast<int>(protocols.size()); }
  std::int64_t num_cells() const {
    return static_cast<std::int64_t>(scenarios) * num_utils();
  }
  std::int64_t num_jobs() const { return num_cells() * num_protocols(); }

  /// The tick budget actually applied to jobs.
  Tick effective_max_sim_ticks() const {
    return max_sim_ticks > 0 ? max_sim_ticks : 4 * horizon;
  }

  /// Rejects empty axes, bad shard counts and utilization points that the
  /// generator would refuse for every scenario of a cell.
  Status Validate() const;

  /// Canonical one-line description of everything that affects job
  /// results. Stored in checkpoint headers and BENCH_campaign.json;
  /// resuming against a checkpoint whose fingerprint differs is an
  /// error, not a silent remix of two campaigns. Deliberately excludes
  /// shards/jobs/output knobs: a 3-shard rerun may reuse a 1-shard
  /// checkpoint.
  std::string Fingerprint() const;

  /// Expands the job descriptors of one shard, in id order. Shard s owns
  /// the contiguous cell range [CellBegin(s), CellBegin(s+1)).
  std::vector<CampaignJob> JobsForShard(int shard) const;

  /// First cell owned by `shard` (== num_cells() for shard == shards).
  std::int64_t CellBegin(int shard) const;

  /// The shard owning global job id `id`.
  int ShardOfJob(std::int64_t id) const;

  /// The job descriptor for a global job id.
  CampaignJob JobById(std::int64_t id) const;

  /// The workload every protocol of `cell` runs: generated from the
  /// cell's sweep point and SplitMixSeed(base_seed, cell), and from
  /// nothing else. Running, quarantining and merging all regenerate a
  /// cell through here, which is what makes their results agree.
  StatusOr<TransactionSet> CellWorkload(std::int64_t cell) const;

  bool operator==(const CampaignSpec&) const = default;
};

}  // namespace pcpda

#endif  // PCPDA_CAMPAIGN_SPEC_H_
