#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/serialization_order.h"
#include "fuzz/fuzzer.h"
#include "fuzz/oracles.h"
#include "history/history.h"
#include "history/replay_checker.h"
#include "history/serialization_graph.h"
#include "runner/batch_runner.h"

namespace pcpda {
namespace {

// Handy builders for synthetic histories.
void Read(History& h, JobId job, ItemId item, Tick tick, std::int64_t seq,
          JobId from = kInvalidJob) {
  h.RecordRead(job, item, tick, seq, Value{from, 0}, false);
}
void Write(History& h, JobId job, ItemId item, Tick tick,
           std::int64_t seq) {
  h.RecordWrite(job, item, tick, seq);
}
void Commit(History& h, JobId job, Tick tick, std::int64_t seq) {
  h.RecordCommit(job, 0, 0, tick, seq);
}

// --- History bookkeeping ----------------------------------------------------

TEST(HistoryTest, PendingUntilCommit) {
  History h;
  Read(h, 1, 0, 0, 0);
  EXPECT_TRUE(h.committed().empty());
  EXPECT_EQ(h.pending_jobs(), 1u);
  Commit(h, 1, 2, 1);
  ASSERT_EQ(h.committed().size(), 1u);
  EXPECT_EQ(h.committed()[0].ops.size(), 1u);
  EXPECT_EQ(h.pending_jobs(), 0u);
}

TEST(HistoryTest, DiscardPendingDropsOps) {
  History h;
  Write(h, 1, 0, 0, 0);
  h.DiscardPending(1);
  Commit(h, 1, 2, 1);
  ASSERT_EQ(h.committed().size(), 1u);
  EXPECT_TRUE(h.committed()[0].ops.empty());
}

TEST(HistoryTest, CommitWithoutOps) {
  History h;
  Commit(h, 5, 1, 0);
  ASSERT_EQ(h.committed().size(), 1u);
  EXPECT_EQ(h.committed()[0].job, 5);
}

// --- SerializationGraph -----------------------------------------------------

TEST(SerializationGraphTest, EmptyHistorySerializable) {
  History h;
  EXPECT_TRUE(IsSerializable(h));
}

TEST(SerializationGraphTest, SingleTxnSerializable) {
  History h;
  Read(h, 1, 0, 0, 0);
  Write(h, 1, 0, 1, 1);
  Commit(h, 1, 2, 2);
  const auto graph = SerializationGraph::Build(h);
  EXPECT_EQ(graph.node_count(), 1u);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_TRUE(graph.CheckAcyclic().serializable);
}

TEST(SerializationGraphTest, ReadWriteEdgeDirection) {
  History h;
  Read(h, 1, 0, 0, 0);   // r1(x)
  Write(h, 2, 0, 1, 1);  // w2(x) after
  Commit(h, 1, 2, 2);
  Commit(h, 2, 3, 3);
  const auto graph = SerializationGraph::Build(h);
  EXPECT_TRUE(graph.HasEdge(1, 2));
  EXPECT_FALSE(graph.HasEdge(2, 1));
}

TEST(SerializationGraphTest, WriteWriteEdge) {
  History h;
  Write(h, 1, 0, 0, 0);
  Write(h, 2, 0, 1, 1);
  Commit(h, 1, 2, 2);
  Commit(h, 2, 3, 3);
  const auto graph = SerializationGraph::Build(h);
  EXPECT_TRUE(graph.HasEdge(1, 2));
}

TEST(SerializationGraphTest, ReadsDoNotConflict) {
  History h;
  Read(h, 1, 0, 0, 0);
  Read(h, 2, 0, 1, 1);
  Commit(h, 1, 2, 2);
  Commit(h, 2, 3, 3);
  const auto graph = SerializationGraph::Build(h);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(SerializationGraphTest, OwnReadsExcluded) {
  History h;
  h.RecordRead(1, 0, 1, 1, Value{1, 0}, /*own_read=*/true);
  Write(h, 2, 0, 0, 0);
  Commit(h, 2, 2, 2);
  Commit(h, 1, 3, 3);
  const auto graph = SerializationGraph::Build(h);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(SerializationGraphTest, DetectsTwoCycle) {
  History h;
  Read(h, 1, 0, 0, 0);   // r1(x)
  Read(h, 2, 1, 1, 1);   // r2(y)
  Write(h, 2, 0, 2, 2);  // w2(x): 1 -> 2
  Write(h, 1, 1, 3, 3);  // w1(y): 2 -> 1
  Commit(h, 1, 4, 4);
  Commit(h, 2, 5, 5);
  const auto result = SerializationGraph::Build(h).CheckAcyclic();
  EXPECT_FALSE(result.serializable);
  EXPECT_GE(result.cycle.size(), 2u);
}

TEST(SerializationGraphTest, SerialOrderWitnessIsTopological) {
  History h;
  Read(h, 1, 0, 0, 0);
  Write(h, 2, 0, 1, 1);  // 1 -> 2
  Read(h, 3, 1, 2, 2);
  Write(h, 1, 1, 3, 3);  // 3 -> 1
  Commit(h, 1, 4, 4);
  Commit(h, 2, 5, 5);
  Commit(h, 3, 6, 6);
  const auto graph = SerializationGraph::Build(h);
  const auto result = graph.CheckAcyclic();
  ASSERT_TRUE(result.serializable);
  ASSERT_EQ(result.serial_order.size(), 3u);
  // Every edge goes forward in the witness order.
  auto pos = [&](JobId j) {
    for (std::size_t i = 0; i < result.serial_order.size(); ++i) {
      if (result.serial_order[i] == j) return i;
    }
    return std::size_t{999};
  };
  for (JobId from : graph.nodes()) {
    for (JobId to : graph.successors(from)) {
      EXPECT_LT(pos(from), pos(to));
    }
  }
}

TEST(SerializationGraphTest, ThreeCycleDetected) {
  History h;
  Read(h, 1, 0, 0, 0);
  Write(h, 2, 0, 1, 1);  // 1->2
  Read(h, 2, 1, 2, 2);
  Write(h, 3, 1, 3, 3);  // 2->3
  Read(h, 3, 2, 4, 4);
  Write(h, 1, 2, 5, 5);  // 3->1
  Commit(h, 1, 6, 6);
  Commit(h, 2, 7, 7);
  Commit(h, 3, 8, 8);
  EXPECT_FALSE(IsSerializable(h));
}

TEST(SerializationGraphTest, TieBrokenBySeqWithinTick) {
  History h;
  Write(h, 1, 0, 5, 10);
  Write(h, 2, 0, 5, 11);  // same tick, later seq
  Commit(h, 1, 6, 12);
  Commit(h, 2, 6, 13);
  const auto graph = SerializationGraph::Build(h);
  EXPECT_TRUE(graph.HasEdge(1, 2));
  EXPECT_FALSE(graph.HasEdge(2, 1));
}

// --- Serialization-order constraints -----------------------------------------

TEST(SerializationOrderTest, DerivesReaderBeforeWriter) {
  History h;
  Read(h, 1, 0, 0, 0);
  Write(h, 2, 0, 3, 1);
  Commit(h, 1, 2, 2);
  Commit(h, 2, 4, 3);
  const auto constraints = DeriveOrderConstraints(h);
  ASSERT_EQ(constraints.size(), 1u);
  EXPECT_EQ(constraints[0].reader, 1);
  EXPECT_EQ(constraints[0].writer, 2);
  EXPECT_EQ(constraints[0].item, 0);
}

TEST(SerializationOrderTest, NoConstraintWhenWriteFirst) {
  History h;
  Write(h, 2, 0, 0, 0);
  Read(h, 1, 0, 1, 1);
  Commit(h, 2, 2, 2);
  Commit(h, 1, 3, 3);
  EXPECT_TRUE(DeriveOrderConstraints(h).empty());
}

TEST(SerializationOrderTest, ViolationWhenReaderCommitsLate) {
  History h;
  Read(h, 1, 0, 0, 0);   // reader reads first...
  Write(h, 2, 0, 1, 1);  // writer overwrites...
  Commit(h, 2, 2, 2);    // and commits BEFORE the reader
  Commit(h, 1, 3, 3);
  const auto violations = FindCommitOrderViolations(h);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].reader, 1);
}

TEST(SerializationOrderTest, HonoredWhenReaderCommitsFirst) {
  History h;
  Read(h, 1, 0, 0, 0);
  Commit(h, 1, 2, 1);
  Write(h, 2, 0, 3, 2);
  Commit(h, 2, 4, 3);
  EXPECT_TRUE(FindCommitOrderViolations(h).empty());
}

TEST(SerializationOrderTest, OwnReadsCreateNoConstraints) {
  History h;
  h.RecordRead(1, 0, 0, 0, Value{1, 0}, /*own_read=*/true);
  Write(h, 2, 0, 1, 1);
  Commit(h, 2, 2, 2);
  Commit(h, 1, 3, 3);
  EXPECT_TRUE(DeriveOrderConstraints(h).empty());
}

// --- Flat checker vs the map/set reference ----------------------------------

// The map/set checker SerializationGraph and ReplaySerialWitness used
// before their storage went flat, kept as the reference the flat checker
// must match: same nodes, edges, witness order, cycle, mismatches and
// censored reads.
namespace reference {

struct Graph {
  std::vector<JobId> nodes;
  std::map<JobId, std::set<JobId>> edges;
};

Graph Build(const History& history) {
  struct TaggedOp {
    JobId job;
    HistoryOp::Kind kind;
    Tick tick;
    std::int64_t seq;
  };
  Graph graph;
  std::map<ItemId, std::vector<TaggedOp>> per_item;
  for (const CommittedTxn& txn : history.committed()) {
    graph.nodes.push_back(txn.job);
    graph.edges[txn.job];
    for (const HistoryOp& op : txn.ops) {
      if (op.own_read) continue;
      per_item[op.item].push_back({txn.job, op.kind, op.tick, op.seq});
    }
  }
  for (auto& [item, ops] : per_item) {
    std::sort(ops.begin(), ops.end(),
              [](const TaggedOp& a, const TaggedOp& b) {
                if (a.tick != b.tick) return a.tick < b.tick;
                return a.seq < b.seq;
              });
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        if (ops[i].job == ops[j].job) continue;
        if (ops[i].kind != HistoryOp::Kind::kWrite &&
            ops[j].kind != HistoryOp::Kind::kWrite) {
          continue;
        }
        graph.edges[ops[i].job].insert(ops[j].job);
      }
    }
  }
  return graph;
}

std::size_t EdgeCount(const Graph& graph) {
  std::size_t count = 0;
  for (const auto& [node, successors] : graph.edges) {
    count += successors.size();
  }
  return count;
}

std::string DebugString(const Graph& graph) {
  std::vector<std::string> lines;
  for (const auto& [node, successors] : graph.edges) {
    std::vector<std::string> targets;
    for (JobId to : successors) {
      targets.push_back(StrFormat("%lld", static_cast<long long>(to)));
    }
    lines.push_back(StrFormat("%lld -> {%s}", static_cast<long long>(node),
                              Join(targets, ",").c_str()));
  }
  return Join(lines, "\n");
}

SerializationGraph::Result CheckAcyclic(const Graph& graph) {
  SerializationGraph::Result result;
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };
  std::map<JobId, Color> color;
  for (JobId node : graph.nodes) color[node] = Color::kWhite;
  const auto successors = [&graph](JobId job) -> const std::set<JobId>& {
    return graph.edges.at(job);
  };
  std::vector<JobId> post_order;
  for (JobId root : graph.nodes) {
    if (color[root] != Color::kWhite) continue;
    std::vector<std::pair<JobId, std::set<JobId>::const_iterator>> stack;
    color[root] = Color::kGray;
    stack.emplace_back(root, successors(root).begin());
    while (!stack.empty()) {
      auto& [node, it] = stack.back();
      if (it == successors(node).end()) {
        color[node] = Color::kBlack;
        post_order.push_back(node);
        stack.pop_back();
        continue;
      }
      const JobId next = *it;
      ++it;
      if (color[next] == Color::kWhite) {
        color[next] = Color::kGray;
        stack.emplace_back(next, successors(next).begin());
      } else if (color[next] == Color::kGray) {
        result.serializable = false;
        bool in_cycle = false;
        for (const auto& [n, unused] : stack) {
          if (n == next) in_cycle = true;
          if (in_cycle) result.cycle.push_back(n);
        }
        result.cycle.push_back(next);
        return result;
      }
    }
  }
  result.serial_order.assign(post_order.rbegin(), post_order.rend());
  return result;
}

ReplayResult Replay(const History& history, ItemId item_count) {
  ReplayResult result;
  const auto check = CheckAcyclic(Build(history));
  result.serializable = check.serializable;
  if (!check.serializable) return result;
  std::map<JobId, const CommittedTxn*> by_job;
  for (const CommittedTxn& txn : history.committed()) {
    by_job[txn.job] = &txn;
  }
  std::vector<JobId> last_writer(static_cast<std::size_t>(item_count),
                                 kInvalidJob);
  for (JobId job : check.serial_order) {
    const CommittedTxn* txn = by_job.at(job);
    std::vector<const HistoryOp*> ops;
    for (const HistoryOp& op : txn->ops) ops.push_back(&op);
    std::sort(ops.begin(), ops.end(),
              [](const HistoryOp* a, const HistoryOp* b) {
                return a->seq < b->seq;
              });
    std::map<ItemId, JobId> own_writes;
    for (const HistoryOp* op : ops) {
      if (op->kind == HistoryOp::Kind::kWrite) {
        own_writes[op->item] = job;
        continue;
      }
      JobId expected;
      if (op->own_read) {
        auto it = own_writes.find(op->item);
        expected = it != own_writes.end() ? it->second : job;
      } else {
        if (op->observed.writer != kInvalidJob &&
            !by_job.contains(op->observed.writer)) {
          ++result.censored_reads;
          continue;
        }
        expected = last_writer[static_cast<std::size_t>(op->item)];
      }
      if (op->observed.writer != expected) {
        ReplayMismatch mismatch;
        mismatch.job = job;
        mismatch.item = op->item;
        mismatch.tick = op->tick;
        mismatch.observed = op->observed;
        mismatch.replayed = Value{expected, 0};
        result.mismatches.push_back(mismatch);
      }
    }
    for (const auto& [item, writer] : own_writes) {
      last_writer[static_cast<std::size_t>(item)] = writer;
    }
  }
  return result;
}

}  // namespace reference

std::vector<std::string> Rendered(const ReplayResult& replay) {
  std::vector<std::string> out;
  for (const ReplayMismatch& m : replay.mismatches) {
    out.push_back(m.DebugString());
  }
  return out;
}

/// Checks the flat checker against the reference on one history. Returns
/// whether the history is serializable.
bool ExpectMatchesReference(const History& history, ItemId item_count,
                            const std::string& label) {
  const reference::Graph ref = reference::Build(history);
  const SerializationGraph flat = SerializationGraph::Build(history);
  EXPECT_EQ(flat.nodes(), ref.nodes) << label;
  EXPECT_EQ(flat.node_count(), ref.nodes.size()) << label;
  EXPECT_EQ(flat.edge_count(), reference::EdgeCount(ref)) << label;
  EXPECT_EQ(flat.DebugString(), reference::DebugString(ref)) << label;
  for (const auto& [from, successors] : ref.edges) {
    EXPECT_EQ(flat.successors(from),
              std::vector<JobId>(successors.begin(), successors.end()))
        << label;
  }

  const SerializationGraph::Result got = flat.CheckAcyclic();
  const SerializationGraph::Result want = reference::CheckAcyclic(ref);
  EXPECT_EQ(got.serializable, want.serializable) << label;
  EXPECT_EQ(got.serial_order, want.serial_order) << label;
  EXPECT_EQ(got.cycle, want.cycle) << label;
  EXPECT_EQ(IsSerializable(history), want.serializable) << label;

  const ReplayResult replay = ReplaySerialWitness(history, item_count);
  const ReplayResult replay_want = reference::Replay(history, item_count);
  const ReplayResult replay_reused =
      ReplaySerialWitness(history, item_count, flat, got);
  for (const ReplayResult* r : {&replay, &replay_reused}) {
    EXPECT_EQ(r->serializable, replay_want.serializable) << label;
    EXPECT_EQ(Rendered(*r), Rendered(replay_want)) << label;
    EXPECT_EQ(r->censored_reads, replay_want.censored_reads) << label;
  }
  return want.serializable;
}

TEST(FlatCheckerTest, MatchesReferenceOnEveryProtocolsHistories) {
  // Fuzzer scenarios, half of them with fault plans, run the way the
  // oracles run them (audited, deadlock victims aborted) under all 8
  // protocols.
  FuzzOptions options;
  options.seed = 11;
  options.fault_probability = 0.5;
  const ScenarioFuzzer fuzzer(options);
  int with_faults = 0, without_faults = 0;
  std::size_t committed = 0;
  std::set<ProtocolKind> protocols;
  for (int iteration = 0; iteration < 24; ++iteration) {
    const StatusOr<Scenario> scenario = fuzzer.MakeScenario(iteration);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    OracleOptions oracles;
    oracles.check_determinism = false;
    for (const RunSpec& spec : PlanOracleRuns(*scenario, oracles)) {
      const SimResult result = BatchRunner::RunOne(spec);
      if (!result.status.ok()) continue;
      const std::string label =
          StrFormat("iteration %d %s", iteration, ToString(spec.protocol));
      EXPECT_TRUE(ExpectMatchesReference(
          result.history, scenario->set.item_count(), label))
          << label;
      (scenario->faults.enabled() ? with_faults : without_faults) += 1;
      committed += result.history.committed().size();
      protocols.insert(spec.protocol);
    }
  }
  EXPECT_EQ(protocols.size(), AllProtocolKinds().size());
  EXPECT_GT(with_faults, 0);
  EXPECT_GT(without_faults, 0);
  EXPECT_GT(committed, 1000u);
}

TEST(FlatCheckerTest, MatchesReferenceOnRandomHistories) {
  // Unconstrained histories: conflicting orders, wrong observed writers,
  // reads from uncommitted jobs, own reads, repeated items and commits in
  // random order, so cycles and mismatches both come up often.
  Rng rng(20261019);
  int cyclic = 0, mismatched = 0, censored = 0;
  for (int round = 0; round < 400; ++round) {
    const int jobs = static_cast<int>(rng.UniformInt(1, 8));
    const ItemId items = static_cast<ItemId>(rng.UniformInt(1, 4));
    std::vector<std::int64_t> seqs(64);
    std::iota(seqs.begin(), seqs.end(), 0);
    rng.Shuffle(seqs);
    std::size_t next_seq = 0;
    History h;
    for (JobId job = 1; job <= jobs; ++job) {
      const int ops = static_cast<int>(rng.UniformInt(0, 5));
      for (int k = 0; k < ops; ++k) {
        const auto item = static_cast<ItemId>(rng.UniformInt(0, items - 1));
        const Tick tick = rng.UniformInt(0, 12);
        const std::int64_t seq = seqs[next_seq++];
        if (rng.Bernoulli(0.5)) {
          h.RecordWrite(job, item, tick, seq);
        } else {
          // 0 stands for the initial value, 99 for a job never run.
          const JobId from = rng.Bernoulli(0.1) ? 99 : rng.UniformInt(0, jobs);
          h.RecordRead(job, item, tick, seq,
                       Value{from == 0 ? kInvalidJob : from, 0},
                       rng.Bernoulli(0.2));
        }
      }
    }
    std::vector<JobId> order(static_cast<std::size_t>(jobs));
    std::iota(order.begin(), order.end(), JobId{1});
    rng.Shuffle(order);
    for (JobId job : order) {
      if (rng.Bernoulli(0.85)) {
        h.RecordCommit(job, 0, 0, 20, seqs[next_seq++]);
      }
    }
    const std::string label = StrFormat("round %d", round);
    if (!ExpectMatchesReference(h, items, label)) {
      ++cyclic;
    } else {
      const ReplayResult replay = reference::Replay(h, items);
      if (!replay.mismatches.empty()) ++mismatched;
      if (replay.censored_reads > 0) ++censored;
    }
  }
  EXPECT_GT(cyclic, 20);
  EXPECT_GT(mismatched, 20);
  EXPECT_GT(censored, 5);
}

TEST(FlatCheckerTest, MatchesReferenceOnHandBuiltHistories) {
  // The three-cycle and a two-cycle through a second item.
  History three;
  Read(three, 1, 0, 0, 0);
  Write(three, 2, 0, 1, 1);
  Read(three, 2, 1, 2, 2);
  Write(three, 3, 1, 3, 3);
  Read(three, 3, 2, 4, 4);
  Write(three, 1, 2, 5, 5);
  Commit(three, 1, 6, 6);
  Commit(three, 2, 7, 7);
  Commit(three, 3, 8, 8);
  EXPECT_FALSE(ExpectMatchesReference(three, 3, "three-cycle"));

  History two;
  Read(two, 1, 0, 0, 0);
  Read(two, 2, 1, 1, 1);
  Write(two, 2, 0, 2, 2);
  Write(two, 1, 1, 3, 3);
  Commit(two, 1, 4, 4);
  Commit(two, 2, 5, 5);
  EXPECT_FALSE(ExpectMatchesReference(two, 2, "two-cycle"));

  // Serializable, but a read claims the initial value after a committed
  // write, an own read names another writer, and a read observes a job
  // that never committed.
  History mismatch;
  Write(mismatch, 1, 0, 0, 0);
  Commit(mismatch, 1, 1, 1);
  Read(mismatch, 2, 0, 2, 2, /*from=*/kInvalidJob);
  Write(mismatch, 2, 1, 3, 3);
  mismatch.RecordRead(2, 1, 4, 4, Value{99, 0}, /*own_read=*/true);
  Read(mismatch, 3, 1, 5, 5, /*from=*/42);
  Commit(mismatch, 2, 6, 6);
  Commit(mismatch, 3, 7, 7);
  EXPECT_TRUE(ExpectMatchesReference(mismatch, 2, "mismatch"));
  const ReplayResult replay = ReplaySerialWitness(mismatch, 2);
  EXPECT_EQ(replay.mismatches.size(), 2u);
  EXPECT_EQ(replay.censored_reads, 1);

  EXPECT_TRUE(ExpectMatchesReference(History{}, 1, "empty"));
}

}  // namespace
}  // namespace pcpda
