// Logical dataflow topology: a DAG of tasks connected by streams.
//
// Matches the paper's model (§2): source tasks emit external streams, user
// tasks process one event at a time with a fixed service time, sink tasks
// terminate streams.  A task with several out-edges duplicates each output
// to every downstream task (this is how the Grid DAG turns 8 ev/s of input
// into 32 ev/s at the sink).  Parallelism ("task instances") follows the
// paper's sizing rule: one instance per 8 ev/s of cumulative input.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace rill::dsps {

enum class TaskKind : std::uint8_t { Source, Worker, Sink };

/// Static definition of one logical task (DAG vertex).
struct TaskDef {
  TaskId id{};
  std::string name;
  TaskKind kind{TaskKind::Worker};
  /// Whether the task keeps user state across events (paper's 's' tasks).
  bool stateful{true};
  /// Per-event execution time of the user logic (paper: 100 ms dummy sleep).
  SimDuration service_time{time::ms(100)};
  /// Number of instances (executors), each on its own 1-core slot.
  int parallelism{1};
  /// Output events generated per input event, per out-edge (paper: 1:1).
  /// The platform applies it in whole per-mille: it is rounded to the
  /// nearest 0.001 at deploy, and each (instance, out-edge) pair emits one
  /// child per 1000 accumulated, so 0.1 emits exactly 100 children per
  /// 1000 inputs, the first on the 10th.
  double selectivity{1.0};
  /// When true, the user logic also maintains per-key counters
  /// ("key/<k>"), exercising keyed state across migrations.
  bool keyed_state{false};
};

/// How events on an edge are distributed over the destination's instances.
///  * Shuffle — round-robin per sender (Storm's shuffleGrouping, default).
///  * Fields  — by hash of the event key (Storm's fieldsGrouping): the same
///    key always reaches the same replica, making per-key state meaningful
///    and migration state-consistency testable per key.
enum class Grouping : std::uint8_t { Shuffle, Fields };

/// A directed stream between two tasks.
struct EdgeDef {
  EdgeId id{};
  TaskId from{};
  TaskId to{};
  Grouping grouping{Grouping::Shuffle};
};

/// Thrown when a topology fails validation.
struct TopologyError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// An immutable-after-validate dataflow DAG.
class Topology {
 public:
  explicit Topology(std::string name) : name_(std::move(name)) {}

  /// Add a task; returns its id.  `kind` Source tasks must have no
  /// in-edges, Sink tasks no out-edges (checked by validate()).
  TaskId add_task(TaskDef def);

  /// Convenience constructors.
  TaskId add_source(const std::string& name);
  TaskId add_worker(const std::string& name, int parallelism = 1,
                    SimDuration service_time = time::ms(100),
                    bool stateful = true);
  TaskId add_sink(const std::string& name);

  EdgeId add_edge(TaskId from, TaskId to,
                  Grouping grouping = Grouping::Shuffle);

  /// Structural checks: ids valid, single-rooted DAG, no cycles, sources
  /// and sinks well-formed, every worker reachable from a source and
  /// co-reachable from a sink.  Throws TopologyError.  Also computes the
  /// topological order and per-task rate/parallelism bookkeeping.
  void validate();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const TaskDef& task(TaskId id) const;
  [[nodiscard]] TaskDef& task_mut(TaskId id);
  [[nodiscard]] const std::vector<TaskDef>& tasks() const noexcept { return tasks_; }
  [[nodiscard]] const std::vector<EdgeDef>& edges() const noexcept { return edges_; }

  /// Out-edges of `id` in insertion order (also before validate()).
  [[nodiscard]] const std::vector<EdgeId>& out_edges(TaskId id) const;
  [[nodiscard]] std::vector<EdgeId> in_edges(TaskId id) const;
  [[nodiscard]] const EdgeDef& edge(EdgeId id) const;

  [[nodiscard]] std::vector<TaskId> downstream(TaskId id) const;
  [[nodiscard]] std::vector<TaskId> upstream(TaskId id) const;

  [[nodiscard]] std::vector<TaskId> sources() const;
  [[nodiscard]] std::vector<TaskId> sinks() const;
  /// Worker tasks only, in topological order.
  [[nodiscard]] std::vector<TaskId> workers() const;
  /// All tasks in topological order (computed by validate()).
  [[nodiscard]] const std::vector<TaskId>& topo_order() const;

  /// Cumulative input rate of a task given per-source emission rates
  /// (ev/s), following duplicate-to-all-out-edges semantics.
  [[nodiscard]] double input_rate(TaskId id, double source_rate) const;

  /// Paper sizing rule: one instance per 8 ev/s of cumulative input.
  /// Mutates parallelism of worker tasks.  Returns total worker instances.
  int autosize_parallelism(double source_rate, double per_instance_rate = 8.0);

  /// Total worker instances (slots needed), excluding sources and sinks.
  [[nodiscard]] int worker_instances() const;

  /// Longest source→sink path length in tasks (critical path), used by the
  /// drain-time analysis.
  [[nodiscard]] int critical_path_length() const;

  [[nodiscard]] bool validated() const noexcept { return validated_; }

 private:
  void check_id(TaskId id) const;
  /// Every task's input rate, indexed by TaskId (a source's is its own
  /// emission rate): one topo-order walk.
  [[nodiscard]] std::vector<double> input_rates(double source_rate) const;

  std::string name_;
  std::vector<TaskDef> tasks_;
  std::vector<EdgeDef> edges_;
  /// Per-task out-edge lists, indexed by TaskId, filled by add_edge().
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<TaskId> topo_order_;
  bool validated_{false};
};

}  // namespace rill::dsps
