#include "dsps/topology.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace rill::dsps {

TaskId Topology::add_task(TaskDef def) {
  if (validated_) throw TopologyError("topology is frozen after validate()");
  const TaskId id{static_cast<std::uint32_t>(tasks_.size())};
  def.id = id;
  if (def.parallelism < 1) throw TopologyError("parallelism must be >= 1");
  if (def.selectivity < 0.0) throw TopologyError("selectivity must be >= 0");
  tasks_.push_back(std::move(def));
  out_edges_.emplace_back();
  return id;
}

TaskId Topology::add_source(const std::string& name) {
  TaskDef def;
  def.name = name;
  def.kind = TaskKind::Source;
  def.stateful = false;
  def.service_time = 0;
  return add_task(std::move(def));
}

TaskId Topology::add_worker(const std::string& name, int parallelism,
                            SimDuration service_time, bool stateful) {
  TaskDef def;
  def.name = name;
  def.kind = TaskKind::Worker;
  def.parallelism = parallelism;
  def.service_time = service_time;
  def.stateful = stateful;
  return add_task(std::move(def));
}

TaskId Topology::add_sink(const std::string& name) {
  TaskDef def;
  def.name = name;
  def.kind = TaskKind::Sink;
  def.stateful = false;
  def.service_time = time::ms(1);
  return add_task(std::move(def));
}

EdgeId Topology::add_edge(TaskId from, TaskId to, Grouping grouping) {
  if (validated_) throw TopologyError("topology is frozen after validate()");
  check_id(from);
  check_id(to);
  if (from == to) throw TopologyError("self-loop edge");
  for (const EdgeDef& e : edges_) {
    if (e.from == from && e.to == to) throw TopologyError("duplicate edge");
  }
  const EdgeId id{static_cast<std::uint32_t>(edges_.size())};
  edges_.push_back(EdgeDef{id, from, to, grouping});
  out_edges_[from.value].push_back(id);
  return id;
}

void Topology::check_id(TaskId id) const {
  if (id.value >= tasks_.size()) throw TopologyError("unknown task id");
}

const TaskDef& Topology::task(TaskId id) const {
  check_id(id);
  return tasks_[id.value];
}

TaskDef& Topology::task_mut(TaskId id) {
  check_id(id);
  return tasks_[id.value];
}

const std::vector<EdgeId>& Topology::out_edges(TaskId id) const {
  check_id(id);
  return out_edges_[id.value];
}

std::vector<EdgeId> Topology::in_edges(TaskId id) const {
  std::vector<EdgeId> out;
  for (const EdgeDef& e : edges_) {
    if (e.to == id) out.push_back(e.id);
  }
  return out;
}

const EdgeDef& Topology::edge(EdgeId id) const {
  if (id.value >= edges_.size()) throw TopologyError("unknown edge id");
  return edges_[id.value];
}

std::vector<TaskId> Topology::downstream(TaskId id) const {
  std::vector<TaskId> out;
  for (const EdgeDef& e : edges_) {
    if (e.from == id) out.push_back(e.to);
  }
  return out;
}

std::vector<TaskId> Topology::upstream(TaskId id) const {
  std::vector<TaskId> out;
  for (const EdgeDef& e : edges_) {
    if (e.to == id) out.push_back(e.from);
  }
  return out;
}

std::vector<TaskId> Topology::sources() const {
  std::vector<TaskId> out;
  for (const TaskDef& t : tasks_) {
    if (t.kind == TaskKind::Source) out.push_back(t.id);
  }
  return out;
}

std::vector<TaskId> Topology::sinks() const {
  std::vector<TaskId> out;
  for (const TaskDef& t : tasks_) {
    if (t.kind == TaskKind::Sink) out.push_back(t.id);
  }
  return out;
}

std::vector<TaskId> Topology::workers() const {
  std::vector<TaskId> out;
  for (TaskId id : topo_order()) {
    if (task(id).kind == TaskKind::Worker) out.push_back(id);
  }
  return out;
}

const std::vector<TaskId>& Topology::topo_order() const {
  if (!validated_) throw TopologyError("topology not validated");
  return topo_order_;
}

void Topology::validate() {
  if (tasks_.empty()) throw TopologyError("empty topology");

  // Kind constraints.
  for (const TaskDef& t : tasks_) {
    const auto ins = in_edges(t.id).size();
    const auto outs = out_edges(t.id).size();
    switch (t.kind) {
      case TaskKind::Source:
        if (ins != 0) throw TopologyError("source '" + t.name + "' has in-edges");
        if (outs == 0) throw TopologyError("source '" + t.name + "' has no out-edges");
        break;
      case TaskKind::Sink:
        if (outs != 0) throw TopologyError("sink '" + t.name + "' has out-edges");
        if (ins == 0) throw TopologyError("sink '" + t.name + "' has no in-edges");
        break;
      case TaskKind::Worker:
        if (ins == 0) throw TopologyError("worker '" + t.name + "' unreachable (no in-edges)");
        if (outs == 0) throw TopologyError("worker '" + t.name + "' is a dead end (no out-edges)");
        break;
    }
  }
  if (sources().empty()) throw TopologyError("topology has no source");
  if (sinks().empty()) throw TopologyError("topology has no sink");

  // Kahn's algorithm: topological order + cycle detection.
  std::vector<int> indeg(tasks_.size(), 0);
  for (const EdgeDef& e : edges_) ++indeg[e.to.value];
  std::queue<TaskId> ready;
  for (const TaskDef& t : tasks_) {
    if (indeg[t.id.value] == 0) ready.push(t.id);
  }
  topo_order_.clear();
  while (!ready.empty()) {
    const TaskId id = ready.front();
    ready.pop();
    topo_order_.push_back(id);
    for (const EdgeDef& e : edges_) {
      if (e.from == id && --indeg[e.to.value] == 0) ready.push(e.to);
    }
  }
  if (topo_order_.size() != tasks_.size()) throw TopologyError("cycle detected");

  validated_ = true;
}

double Topology::input_rate(TaskId id, double source_rate) const {
  // Each out-edge carries (input_rate × selectivity) events/s; a task's
  // input rate is the sum over in-edges.  Computed along topo order.
  std::vector<double> in_rate(tasks_.size(), 0.0);
  std::vector<double> out_per_edge(tasks_.size(), 0.0);
  for (TaskId tid : topo_order()) {
    const TaskDef& t = task(tid);
    if (t.kind == TaskKind::Source) {
      out_per_edge[tid.value] = source_rate;
      continue;
    }
    double rate = 0.0;
    for (const EdgeDef& e : edges_) {
      if (e.to == tid) rate += out_per_edge[e.from.value];
    }
    in_rate[tid.value] = rate;
    out_per_edge[tid.value] = rate * t.selectivity;
  }
  check_id(id);
  return task(id).kind == TaskKind::Source ? source_rate : in_rate[id.value];
}

int Topology::autosize_parallelism(double source_rate,
                                   double per_instance_rate) {
  int total = 0;
  for (TaskDef& t : tasks_) {
    if (t.kind != TaskKind::Worker) continue;
    const double rate = input_rate(t.id, source_rate);
    t.parallelism = std::max(
        1, static_cast<int>(std::ceil(rate / per_instance_rate - 1e-9)));
    total += t.parallelism;
  }
  return total;
}

int Topology::worker_instances() const {
  int total = 0;
  for (const TaskDef& t : tasks_) {
    if (t.kind == TaskKind::Worker) total += t.parallelism;
  }
  return total;
}

int Topology::critical_path_length() const {
  std::vector<int> depth(tasks_.size(), 0);
  int best = 0;
  for (TaskId tid : topo_order()) {
    int d = 1;
    for (const EdgeDef& e : edges_) {
      if (e.to == tid) d = std::max(d, depth[e.from.value] + 1);
    }
    depth[tid.value] = d;
    best = std::max(best, d);
  }
  return best;
}

}  // namespace rill::dsps
