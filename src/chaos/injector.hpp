// ChaosInjector: enacts a ChaosPlan against a running platform.
//
// The injector implements the fault hooks the infrastructure layers expose
// (net::Network::FaultHook for message drop/delay, kvstore::Store::FaultHook
// for outages and latency spikes) and schedules the process-level faults
// (worker crashes, VM failures) on the simulation engine.  All random
// decisions come from the injector's own RNG stream, seeded from the
// platform seed XOR a fixed constant — a (seed, plan) pair is fully
// reproducible and an empty plan draws nothing, so fault-free runs remain
// byte-identical to runs without a chaos layer at all (invariant 7).
#pragma once

#include <functional>
#include <initializer_list>
#include <map>
#include <optional>

#include "chaos/plan.hpp"
#include "common/pinned.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "kvstore/store.hpp"
#include "net/network.hpp"

namespace rill::dsps {
class Platform;
}

namespace rill::obs {
struct Arg;
class Counter;
class Histogram;
}

namespace rill::chaos {

struct ChaosStats {
  std::uint64_t kv_outage_hits{0};   ///< store requests swallowed
  std::uint64_t kv_slowdowns{0};     ///< store requests given extra latency
  std::uint64_t control_dropped{0};
  std::uint64_t user_dropped{0};
  std::uint64_t messages_delayed{0};
  int workers_crashed{0};
  int workers_respawned{0};
  int vms_failed{0};
  int faults_armed{0};  ///< FaultSpecs scheduled/registered by arm()

  [[nodiscard]] std::uint64_t total_hits() const noexcept {
    return kv_outage_hits + kv_slowdowns + control_dropped + user_dropped +
           messages_delayed + static_cast<std::uint64_t>(workers_crashed) +
           static_cast<std::uint64_t>(vms_failed);
  }
};

class RILL_PINNED ChaosInjector final
    : public net::Network::FaultHook,
                            public kvstore::Store::FaultHook {
 public:
  ChaosInjector(ChaosPlan plan, std::uint64_t seed);

  /// Register the hooks on the platform's network and store and schedule
  /// the point faults.  Call after deploy(), before the engine runs.
  void arm(dsps::Platform& platform);

  /// Failure-event notification: called once per fault hit with the kind
  /// and the sim time (process kinds fire once per crash_worker / fail_vm
  /// event, not per killed instance).  Feeds the adaptive checkpoint
  /// policy's MTTF estimator.  Pure observation — the callback must not
  /// schedule anything if byte-identical traces are expected.
  void set_failure_listener(std::function<void(FaultKind, SimTime)> fn) {
    failure_listener_ = std::move(fn);
  }

  // -- net::Network::FaultHook --
  bool drop(VmId from, VmId to, net::MsgClass cls) override;
  SimDuration extra_delay(VmId from, VmId to, net::MsgClass cls) override;

  // -- kvstore::Store::FaultHook --
  bool unavailable(int shard) override;
  SimDuration extra_latency(int shard) override;

  [[nodiscard]] const ChaosPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const ChaosStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] bool in_window(const FaultSpec& f) const;
  void crash_worker(const FaultSpec& f);
  void fail_vm(const FaultSpec& f);
  /// Kill worker instance `worker_index` (topology order) in place and, if
  /// requested, respawn it on its old slot after `delay`.  Returns whether
  /// the instance was actually alive to kill.
  bool crash_instance(int worker_index, bool respawn, SimDuration delay);
  /// Flight-recorder instant on the chaos lane (no-op when tracing is off).
  void trace_hit(const char* name, std::initializer_list<obs::Arg> args = {});
  /// Per-kind failure statistics: bumps `chaos.<kind>.count`, records the
  /// inter-failure gap into `chaos.<kind>.interarrival_us` (second hit
  /// onward) and fires the failure listener.
  void note_hit(FaultKind kind);
  /// Kill/failure-detection edge for the recovery tracker, with the
  /// checkpoint staleness at this instant.
  void note_process_failure(int instances, const char* cause);

  dsps::Platform* platform_{nullptr};
  ChaosPlan plan_;
  Rng rng_;
  ChaosStats stats_;
  std::function<void(FaultKind, SimTime)> failure_listener_;
  /// Last hit per kind (interarrival anchor) + cached registry instruments.
  struct KindStats {
    std::optional<SimTime> last_at;
    obs::Counter* count{nullptr};
    obs::Histogram* interarrival{nullptr};
  };
  std::map<FaultKind, KindStats> kind_stats_;
};

}  // namespace rill::chaos
