// The pcpda_campaign flags that set CampaignSpec and CampaignOptions
// fields: one table row per flag, giving its name, its range and the
// field it sets. A supervised worker is the same binary run with the
// same flags, so this table is the only encoding of a campaign on the
// command line (DESIGN.md §14).

#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "campaign/campaign.h"
#include "common/parse.h"

namespace pcpda {
namespace {

using Hooks = CampaignOptions::TestHooks;
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// One flag occurrence: its value and the structs a row may set.
struct Arg {
  std::string value;
  bool has_value = false;
  CampaignSpec& spec;
  CampaignOptions& options;
};

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = list.find(',', start);
    parts.push_back(list.substr(start, comma - start));
    if (comma == std::string::npos) return parts;
    start = comma + 1;
  }
}

/// The field `member` names, inside whichever struct owns it.
template <typename C, typename T>
T& FieldOf(const Arg& arg, T C::*member) {
  if constexpr (std::is_same_v<C, CampaignSpec>) {
    return arg.spec.*member;
  } else if constexpr (std::is_same_v<C, WorkloadParams>) {
    return arg.spec.workload.*member;
  } else if constexpr (std::is_same_v<C, CampaignOptions>) {
    return arg.options.*member;
  } else {
    return arg.options.hooks.*member;
  }
}

/// A numeric field, parsed strictly inside [Min, Max].
template <auto Field, auto Min, auto Max>
Status Number(const Arg& arg) {
  auto& field = FieldOf(arg, Field);
  using T = std::remove_reference_t<decltype(field)>;
  const auto parsed = [&] {
    if constexpr (std::is_floating_point_v<T>) {
      return ParseDouble(arg.value, Min, Max);
    } else if constexpr (std::is_unsigned_v<T>) {
      return ParseUInt64(arg.value, Max);
    } else {
      return ParseInt64(arg.value, Min, Max);
    }
  }();
  if (!parsed.ok()) return parsed.status();
  field = static_cast<T>(*parsed);
  return Status::Ok();
}

/// A switch: sets the field to false and takes no "=value".
template <auto Field>
Status Off(const Arg& arg) {
  if (arg.has_value) return Status::InvalidArgument("takes no value");
  FieldOf(arg, Field) = false;
  return Status::Ok();
}

Status OutDir(const Arg& arg) {
  arg.options.out_dir = arg.value;
  return Status::Ok();
}

Status Utils(const Arg& arg) {
  std::vector<double> utils;
  for (const std::string& part : SplitCommas(arg.value)) {
    const auto util =
        ParseDouble(part, 0.0, std::numeric_limits<double>::max());
    if (!util.ok()) return util.status();
    utils.push_back(*util);
  }
  arg.spec.utilizations = std::move(utils);
  return Status::Ok();
}

Status Protocols(const Arg& arg) {
  std::vector<ProtocolKind> protocols;
  for (const std::string& part : SplitCommas(arg.value)) {
    const auto kind = ProtocolKindByName(part);
    if (!kind.has_value()) {
      return Status::InvalidArgument("unknown protocol '" + part + "'");
    }
    protocols.push_back(*kind);
  }
  arg.spec.protocols = std::move(protocols);
  return Status::Ok();
}

Status Distribution(const Arg& arg) {
  const auto dist = UtilDistributionByName(arg.value);
  if (!dist.has_value()) {
    return Status::InvalidArgument("unknown distribution '" + arg.value +
                                   "'");
  }
  arg.spec.workload.distribution = *dist;
  return Status::Ok();
}

struct Row {
  const char* name;
  Status (*apply)(const Arg&);
};

const Row kFlags[] = {
    // CampaignSpec: the grid and its robustness policy.
    {"--seed", Number<&CampaignSpec::base_seed, 0, kU64Max>},
    {"--scenarios", Number<&CampaignSpec::scenarios, 1, 1 << 30>},
    {"--shards", Number<&CampaignSpec::shards, 1, 1 << 20>},
    {"--utils", Utils},
    {"--protocols", Protocols},
    {"--horizon", Number<&CampaignSpec::horizon, 1, kMax>},
    {"--max-sim-ticks", Number<&CampaignSpec::max_sim_ticks, 0, kMax>},
    {"--wall-budget-ms", Number<&CampaignSpec::wall_budget_ms, 0, 1 << 30>},
    {"--retries", Number<&CampaignSpec::max_retries, 0, 1 << 20>},
    // CampaignSpec::workload: the generator's shape.
    {"--dist", Distribution},
    {"--txns", Number<&WorkloadParams::num_transactions, 1, 1 << 20>},
    {"--items", Number<&WorkloadParams::num_items, 1, 1 << 20>},
    {"--min-period", Number<&WorkloadParams::min_period, 1, kMax>},
    {"--max-period", Number<&WorkloadParams::max_period, 1, kMax>},
    {"--min-ops", Number<&WorkloadParams::min_ops, 0, 1 << 20>},
    {"--max-ops", Number<&WorkloadParams::max_ops, 0, 1 << 20>},
    {"--write-fraction", Number<&WorkloadParams::write_fraction, 0.0, 1.0>},
    {"--task-util-min",
     Number<&WorkloadParams::min_task_utilization, 0.0, 1.0>},
    {"--task-util-max",
     Number<&WorkloadParams::max_task_utilization, 0.0, 1.0>},
    {"--exp-mean", Number<&WorkloadParams::exp_mean_utilization, 0.0, 1.0>},
    {"--bimodal-split", Number<&WorkloadParams::bimodal_split, 0.0, 1.0>},
    {"--bimodal-light",
     Number<&WorkloadParams::bimodal_light_fraction, 0.0, 1.0>},
    // CampaignOptions: how this invocation runs the grid.
    {"--out", OutDir},
    {"--shard", Number<&CampaignOptions::only_shard, 0, 1 << 20>},
    {"--jobs", Number<&CampaignOptions::jobs, 1, 1 << 20>},
    {"--no-fsync", Off<&CampaignOptions::fsync>},
    {"--no-lint-preflight", Off<&CampaignOptions::lint_preflight>},
    {"--job-first", Number<&CampaignOptions::job_first, -1, kMax>},
    {"--job-last", Number<&CampaignOptions::job_last, -1, kMax>},
    // CampaignOptions::hooks.
    {"--inject-crash", Number<&Hooks::throw_job, -1, kMax>},
    {"--inject-hang", Number<&Hooks::hang_job, -1, kMax>},
    {"--inject-crash-job", Number<&Hooks::segv_job, -1, kMax>},
    {"--inject-spin-job", Number<&Hooks::spin_job, -1, kMax>},
    {"--inject-lint-defect-cell", Number<&Hooks::lint_defect_cell, -1, kMax>},
    {"--stop-after", Number<&Hooks::stop_after, -1, kMax>},
};

}  // namespace

Status ApplyCampaignFlag(const std::string& arg, CampaignSpec* spec,
                         CampaignOptions* options) {
  const std::size_t eq = arg.find('=');
  const std::string name = arg.substr(0, eq);
  for (const Row& row : kFlags) {
    if (name != row.name) continue;
    const Arg parsed{eq == std::string::npos ? "" : arg.substr(eq + 1),
                     eq != std::string::npos, *spec, *options};
    const Status status = row.apply(parsed);
    if (status.ok()) return status;
    return Status::InvalidArgument(name + ": " + status.message());
  }
  return Status::NotFound("unknown flag " + name);
}

}  // namespace pcpda
