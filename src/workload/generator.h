#ifndef PCPDA_WORKLOAD_GENERATOR_H_
#define PCPDA_WORKLOAD_GENERATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "txn/spec.h"

namespace pcpda {

/// How a taskset's total utilization is split across transactions. The
/// non-default shapes follow the experiment-campaign generators of the
/// multiprocessor-locking literature (schedcat / rtsk-experiment):
/// acceptance-ratio curves are sensitive to whether utilization arrives
/// as many light tasks, a few heavy ones, or a controlled mix.
enum class UtilDistribution : std::uint8_t {
  /// Bini & Buttazzo's unbiased uniform split (the historical default).
  kUUniFast,
  /// Fixed-sum draw with per-task bounds: every task's share lands in
  /// [min_task_utilization, max_task_utilization] and the shares sum to
  /// the target exactly (randfixedsum-style).
  kRandFixedSum,
  /// Exponentially distributed shares with mean exp_mean_utilization,
  /// clamped to the per-task bounds and rescaled to the target sum —
  /// many light tasks, occasional heavy ones.
  kExponential,
  /// Classic bimodal mix: light tasks drawn uniformly below
  /// bimodal_split, heavy tasks above it, heavy with probability
  /// 1 - bimodal_light_fraction; rescaled to the target sum.
  kBimodal,
};

const char* ToString(UtilDistribution distribution);
/// Parses "uunifast", "randfixedsum", "exponential" or "bimodal".
std::optional<UtilDistribution> UtilDistributionByName(
    const std::string& name);

/// Parameters for random periodic transaction sets. Defaults give a
/// moderately contended, laptop-scale workload.
struct WorkloadParams {
  int num_transactions = 8;
  /// Size of the (memory-resident) database.
  int num_items = 20;
  /// Target processor utilization sum(C_i/Pd_i).
  double total_utilization = 0.6;
  /// How the total is split across transactions.
  UtilDistribution distribution = UtilDistribution::kUUniFast;
  /// Per-task share bounds for the non-UUniFast distributions. The total
  /// must satisfy n*min <= total <= n*max for those shapes.
  double min_task_utilization = 0.001;
  double max_task_utilization = 1.0;
  /// Mean of the kExponential per-task draw (before rescaling).
  double exp_mean_utilization = 0.1;
  /// kBimodal: light tasks are uniform in [min, split), heavy in
  /// [split, max]; a task is light with probability
  /// bimodal_light_fraction.
  double bimodal_split = 0.5;
  double bimodal_light_fraction = 8.0 / 9.0;
  /// Periods are drawn log-uniformly from [min_period, max_period].
  Tick min_period = 50;
  Tick max_period = 1000;
  /// Data operations per transaction, uniform in [min_ops, max_ops]
  /// (distinct items).
  int min_ops = 2;
  int max_ops = 5;
  /// Probability a data operation is a write.
  double write_fraction = 0.3;

  bool operator==(const WorkloadParams&) const = default;
};

/// UUniFast (Bini & Buttazzo): splits `total` into `n` unbiased uniform
/// utilizations. Exposed for tests.
std::vector<double> UUniFast(int n, double total, Rng& rng);

/// Splits `total` into `n` per-task utilizations using
/// `params.distribution`. For the bounded shapes the result respects
/// [min_task_utilization, max_task_utilization] per task and sums to
/// `total` (up to float round-off); preconditions are validated by
/// GenerateWorkload. Exposed for tests and the campaign layer.
std::vector<double> SampleUtilizations(int n, double total,
                                       const WorkloadParams& params,
                                       Rng& rng);

/// Generates a random periodic transaction set. Each transaction draws a
/// period, a target execution time C_i ≈ u_i * Pd_i (at least one tick per
/// operation), distinct data items and op kinds, then pads with compute
/// ticks; the set is ordered rate-monotonically.
StatusOr<TransactionSet> GenerateWorkload(const WorkloadParams& params,
                                          Rng& rng);

}  // namespace pcpda

#endif  // PCPDA_WORKLOAD_GENERATOR_H_
