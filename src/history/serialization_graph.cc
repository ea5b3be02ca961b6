#include "history/serialization_graph.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/strings.h"

namespace pcpda {

namespace {

/// One conflict-relevant operation tagged with its node's dense index.
struct FlatOp {
  ItemId item;
  Tick tick;
  std::int64_t seq;
  /// Position in commit-then-program order; breaks (tick, seq) ties the
  /// way a stable sort would (the simulator's seq is unique anyway).
  std::uint32_t order;
  std::uint32_t node;
  bool write;
};

constexpr std::uint32_t kNoStamp = std::numeric_limits<std::uint32_t>::max();

}  // namespace

SerializationGraph SerializationGraph::Build(const History& history) {
  SerializationGraph graph;
  const std::vector<CommittedTxn>& committed = history.committed();
  graph.nodes_.reserve(committed.size());
  std::size_t op_count = 0;
  for (const CommittedTxn& txn : committed) {
    graph.nodes_.push_back(txn.job);
    op_count += txn.ops.size();
  }
  graph.ids_ = graph.nodes_;
  std::sort(graph.ids_.begin(), graph.ids_.end());
  graph.ids_.erase(std::unique(graph.ids_.begin(), graph.ids_.end()),
                   graph.ids_.end());
  const std::size_t n = graph.ids_.size();

  std::vector<FlatOp> ops;
  ops.reserve(op_count);
  for (const CommittedTxn& txn : committed) {
    const auto node = static_cast<std::uint32_t>(graph.IndexOf(txn.job));
    for (const HistoryOp& op : txn.ops) {
      if (op.own_read) continue;  // local to the transaction
      ops.push_back({op.item, op.tick, op.seq,
                     static_cast<std::uint32_t>(ops.size()), node,
                     op.kind == HistoryOp::Kind::kWrite});
    }
  }
  std::sort(ops.begin(), ops.end(), [](const FlatOp& a, const FlatOp& b) {
    if (a.item != b.item) return a.item < b.item;
    if (a.tick != b.tick) return a.tick < b.tick;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.order < b.order;
  });

  // An operation conflicts with every earlier operation of another job on
  // its item if it writes, and with the earlier writes if it reads. So it
  // takes one edge from each distinct earlier job (or writer) of the item.
  // The edges are emitted as (from, to) pairs, repeats included.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(4 * ops.size());
  std::vector<std::uint32_t> touched;  // distinct jobs so far on the item
  std::vector<std::uint32_t> writers;  // distinct writers so far
  touched.reserve(n);
  writers.reserve(n);
  // Per node, the last item run it touched and wrote in.
  std::vector<std::uint32_t> touched_in(n, kNoStamp);
  std::vector<std::uint32_t> wrote_in(n, kNoStamp);
  std::uint32_t run = 0;
  for (std::size_t first = 0; first < ops.size(); ++run) {
    touched.clear();
    writers.clear();
    std::size_t i = first;
    for (; i < ops.size() && ops[i].item == ops[first].item; ++i) {
      const FlatOp& op = ops[i];
      for (std::uint32_t from : op.write ? touched : writers) {
        if (from != op.node) edges.emplace_back(from, op.node);
      }
      if (touched_in[op.node] != run) {
        touched_in[op.node] = run;
        touched.push_back(op.node);
      }
      if (op.write && wrote_in[op.node] != run) {
        wrote_in[op.node] = run;
        writers.push_back(op.node);
      }
    }
    first = i;
  }

  // Counting passes instead of a sort. Group the sources by target, then
  // keep each (from, to) pair once, in ascending target order.
  std::vector<std::uint32_t> start(n + 1, 0);
  for (const auto& [from, to] : edges) ++start[to + 1];
  for (std::size_t i = 0; i < n; ++i) start[i + 1] += start[i];
  std::vector<std::uint32_t> sources(edges.size());
  std::vector<std::uint32_t> fill = std::move(wrote_in);
  std::copy(start.begin(), start.end() - 1, fill.begin());
  for (const auto& [from, to] : edges) sources[fill[to]++] = from;
  std::vector<std::uint32_t> last_target = std::move(touched_in);
  std::fill(last_target.begin(), last_target.end(), kNoStamp);
  edges.clear();
  for (std::uint32_t to = 0; to < n; ++to) {
    for (std::uint32_t k = start[to]; k < start[to + 1]; ++k) {
      const std::uint32_t from = sources[k];
      if (last_target[from] == to) continue;
      last_target[from] = to;
      edges.emplace_back(from, to);
    }
  }
  // Lay the edges out by source; each source's targets stay ascending.
  graph.offsets_.assign(n + 1, 0);
  for (const auto& [from, to] : edges) ++graph.offsets_[from + 1];
  for (std::size_t i = 0; i < n; ++i) {
    graph.offsets_[i + 1] += graph.offsets_[i];
  }
  graph.targets_.resize(edges.size());
  std::copy(graph.offsets_.begin(), graph.offsets_.end() - 1, fill.begin());
  for (const auto& [from, to] : edges) graph.targets_[fill[from]++] = to;
  return graph;
}

std::ptrdiff_t SerializationGraph::IndexOf(JobId job) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), job);
  if (it == ids_.end() || *it != job) return -1;
  return it - ids_.begin();
}

std::vector<JobId> SerializationGraph::successors(JobId job) const {
  std::vector<JobId> out;
  const std::ptrdiff_t i = IndexOf(job);
  if (i < 0) return out;
  for (const std::uint32_t* to = begin(static_cast<std::size_t>(i));
       to != end(static_cast<std::size_t>(i)); ++to) {
    out.push_back(ids_[*to]);
  }
  return out;
}

bool SerializationGraph::HasEdge(JobId from, JobId to) const {
  const std::ptrdiff_t i = IndexOf(from);
  const std::ptrdiff_t j = IndexOf(to);
  if (i < 0 || j < 0) return false;
  return std::binary_search(begin(static_cast<std::size_t>(i)),
                            end(static_cast<std::size_t>(i)),
                            static_cast<std::uint32_t>(j));
}

SerializationGraph::Result SerializationGraph::CheckAcyclic() const {
  Result result;
  // Iterative three-color DFS; records a back edge's cycle if found,
  // otherwise emits reverse-post-order as the serial-order witness.
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(ids_.size(), Color::kWhite);
  std::vector<std::uint32_t> post_order;
  post_order.reserve(ids_.size());
  // (node, its next successor to visit)
  std::vector<std::pair<std::uint32_t, const std::uint32_t*>> stack;
  for (JobId root_id : nodes_) {
    const auto root = static_cast<std::uint32_t>(IndexOf(root_id));
    if (color[root] != Color::kWhite) continue;
    color[root] = Color::kGray;
    stack.emplace_back(root, begin(root));
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next == end(node)) {
        color[node] = Color::kBlack;
        post_order.push_back(node);
        stack.pop_back();
        continue;
      }
      const std::uint32_t to = *next++;
      if (color[to] == Color::kWhite) {
        color[to] = Color::kGray;
        stack.emplace_back(to, begin(to));
      } else if (color[to] == Color::kGray) {
        // Back edge: the cycle is the stack from `to` up.
        result.serializable = false;
        auto from = std::find_if(stack.begin(), stack.end(),
                                 [to](const auto& e) { return e.first == to; });
        for (; from != stack.end(); ++from) {
          result.cycle.push_back(ids_[from->first]);
        }
        result.cycle.push_back(ids_[to]);
        return result;
      }
    }
  }
  result.serial_order.reserve(post_order.size());
  for (auto it = post_order.rbegin(); it != post_order.rend(); ++it) {
    result.serial_order.push_back(ids_[*it]);
  }
  return result;
}

std::string SerializationGraph::DebugString() const {
  std::vector<std::string> lines;
  lines.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    std::vector<std::string> targets;
    for (const std::uint32_t* to = begin(i); to != end(i); ++to) {
      targets.push_back(StrFormat("%lld", static_cast<long long>(ids_[*to])));
    }
    lines.push_back(StrFormat("%lld -> {%s}",
                              static_cast<long long>(ids_[i]),
                              Join(targets, ",").c_str()));
  }
  return Join(lines, "\n");
}

bool IsSerializable(const History& history) {
  return SerializationGraph::Build(history).CheckAcyclic().serializable;
}

}  // namespace pcpda
