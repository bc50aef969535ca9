#include "sim/graph.h"

#include <algorithm>
#include <stdexcept>

#include "core/fatal.h"

namespace ms::sim {

GraphExecutor::GraphExecutor(std::size_t max_streams) {
  streams_.resize(max_streams);
}

StreamId GraphExecutor::add_stream() {
  streams_.emplace_back();
  return static_cast<StreamId>(streams_.size() - 1);
}

void GraphExecutor::reserve(std::size_t ops, std::size_t deps) {
  nodes_.reserve(ops);
  records_.reserve(ops);
  edges_.reserve(deps);
}

// A bad op or edge is a wiring bug in the graph builder with no sane
// fallback (it would index past the op or stream tables), so each check
// below aborts with a message in every build mode.

OpId GraphExecutor::add_op(OpSpec spec) {
  MS_CHECK(!ran_, "GraphExecutor: add_op after run() (op %zu)", nodes_.size());
  MS_CHECK(spec.stream >= 0 &&
               static_cast<std::size_t>(spec.stream) < streams_.size(),
           "GraphExecutor: add_op: stream out of range (got %d of %zu)",
           spec.stream, streams_.size());
  const OpId id = static_cast<OpId>(nodes_.size());
  nodes_.push_back({spec.duration, spec.priority, spec.stream, 0});
  OpRecord& rec = records_.emplace_back();
  rec.id = id;
  rec.stream = spec.stream;
  rec.name = std::move(spec.name);
  rec.tag = std::move(spec.tag);
  rec.attrs = spec.attrs;
  if (spec.duration_fn || spec.on_finish) {
    hooks_.resize(nodes_.size());
    hooks_.back() = {std::move(spec.duration_fn), std::move(spec.on_finish)};
  }
  return id;
}

void GraphExecutor::add_dep(OpId before, OpId after) {
  const auto ops = static_cast<long long>(nodes_.size());
  MS_CHECK(before >= 0 && before < ops && after >= 0 && after < ops,
           "GraphExecutor: add_dep: op id out of range (got %d -> %d of %lld)",
           before, after, ops);
  MS_CHECK(before != after, "GraphExecutor: add_dep: self-edge (op %d)",
           before);
  edges_.emplace_back(before, after);
  ++nodes_[static_cast<std::size_t>(after)].indegree;
}

TimeNs GraphExecutor::run(Engine& engine) {
  if (ran_) throw std::logic_error("GraphExecutor::run called twice");
  ran_ = true;
  engine_ = &engine;
  start_time_ = engine.now();
  finish_time_ = start_time_;
  remaining_ = nodes_.size();
  if (remaining_ == 0) return 0;

  // Adjacency as one flat array (a counting sort by `before`, stable so
  // dependents keep add_dep order and ready events keep their order).
  first_dependent_.assign(nodes_.size() + 1, 0);
  for (const auto& [before, after] : edges_) {
    ++first_dependent_[static_cast<std::size_t>(before) + 1];
  }
  for (std::size_t i = 1; i < first_dependent_.size(); ++i) {
    first_dependent_[i] += first_dependent_[i - 1];
  }
  dependents_.resize(edges_.size());
  {
    std::vector<std::size_t> cursor(first_dependent_.begin(),
                                    first_dependent_.end() - 1);
    for (const auto& [before, after] : edges_) {
      dependents_[cursor[static_cast<std::size_t>(before)]++] = after;
    }
  }
  edges_ = {};

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].indegree == 0) on_ready(static_cast<OpId>(i));
  }
  engine.run();
  if (remaining_ != 0) {
    throw std::logic_error(
        "GraphExecutor: deadlock — dependency cycle or ops never became "
        "ready");
  }
  return finish_time_ - start_time_;
}

void GraphExecutor::on_ready(OpId id) {
  const Node& node = nodes_[static_cast<std::size_t>(id)];
  auto& stream = streams_[static_cast<std::size_t>(node.stream)];
  stream.ready.push(ReadyEntry{node.priority, id});
  // Defer the issue decision to the end of the current timestamp so that all
  // ops becoming ready "simultaneously" are in the queue before the stream
  // picks by priority.
  const StreamId sid = node.stream;
  engine_->after(0, [this, sid] { try_issue(sid); });
}

void GraphExecutor::try_issue(StreamId s) {
  auto& stream = streams_[static_cast<std::size_t>(s)];
  if (stream.busy_now || stream.ready.empty()) return;
  const OpId id = stream.ready.top().id;
  stream.ready.pop();
  stream.busy_now = true;

  const auto i = static_cast<std::size_t>(id);
  auto& rec = records_[i];
  rec.start = engine_->now();
  const TimeNs dur = i < hooks_.size() && hooks_[i].duration_fn
                         ? hooks_[i].duration_fn(rec.start)
                         : nodes_[i].duration;
  MS_CHECK(dur >= 0, "GraphExecutor: negative op duration (op %d: %lld ns)",
           id, static_cast<long long>(dur));
  engine_->after(dur, [this, id] { on_op_finished(id); });
}

void GraphExecutor::on_op_finished(OpId id) {
  const auto i = static_cast<std::size_t>(id);
  auto& rec = records_[i];
  rec.end = engine_->now();
  finish_time_ = std::max(finish_time_, rec.end);

  const StreamId sid = nodes_[i].stream;
  auto& stream = streams_[static_cast<std::size_t>(sid)];
  stream.busy_now = false;
  stream.busy += rec.end - rec.start;

  if (i < hooks_.size() && hooks_[i].on_finish) {
    hooks_[i].on_finish(rec.start, rec.end);
  }

  for (std::size_t k = first_dependent_[i]; k < first_dependent_[i + 1]; ++k) {
    const OpId dep = dependents_[k];
    if (--nodes_[static_cast<std::size_t>(dep)].indegree == 0) on_ready(dep);
  }
  --remaining_;
  try_issue(sid);
}

}  // namespace ms::sim
