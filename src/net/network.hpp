// Simulated message fabric between VMs.
//
// Models the paper's 1 Gbps shared Ethernet: messages between slots on the
// same VM cross loopback (~0.15 ms), messages between VMs cross the LAN
// (~1.2 ms base + serialisation time + jitter).  Delivery order between a
// fixed (source VM, destination VM) pair is FIFO, matching TCP streams that
// Storm workers hold between each other — the checkpoint protocol's
// "PREPARE is the last event in the queue" argument depends on this.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "common/island.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"

namespace rill::net {

/// Coarse traffic class, used by the fault layer to target (or spare)
/// specific kinds of messages: user tuples, checkpoint-protocol control
/// events, and key-value store request/reply traffic.
enum class MsgClass : std::uint8_t { Data, Control, Store };

struct NetworkConfig {
  SimDuration intra_vm_latency = time::us(150);
  SimDuration inter_vm_latency = time::us(1200);
  /// Per-byte serialisation + wire time.  1 Gbps ≈ 8 ns/byte; we use a
  /// slightly conservative figure to account for framing and kernel copies.
  double ns_per_byte = 10.0;
  /// Uniform jitter added to inter-VM messages, as a fraction of base
  /// latency.
  double jitter_frac = 0.25;
};

/// Per-message send fate, reported back to the caller so the latency
/// attributor can distinguish baseline wire transit from chaos-injected
/// delay (and account for drops).  Callers that don't sample ignore it.
struct SendOutcome {
  bool dropped{false};
  /// Fault-hook extra delay folded into this message's latency, µs.
  std::uint64_t chaos_delay_us{0};
};

/// Counters for tests and reporting.
struct NetworkStats {
  std::uint64_t messages_sent{0};
  std::uint64_t intra_vm{0};
  std::uint64_t inter_vm{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t dropped_by_fault{0};
  std::uint64_t delayed_by_fault{0};
};

/// Point-to-point delivery between VMs with a latency model.  Payload
/// delivery is a callback; the network itself is payload-agnostic.
class RILL_SHARED RILL_PINNED Network {
 public:
  using Deliver = sim::Callback;

  /// Fault-injection hook (implemented by chaos::ChaosInjector).  Consulted
  /// per message: a dropped message is simply never delivered — the layers
  /// above must survive via timeouts, acking and wave retries.  The hook
  /// lives below `net` in the dependency order, so the chaos layer can
  /// depend on everything it attacks without cycles.
  class FaultHook {
   public:
    virtual ~FaultHook() = default;
    [[nodiscard]] virtual bool drop(VmId from, VmId to, MsgClass cls) = 0;
    [[nodiscard]] virtual SimDuration extra_delay(VmId from, VmId to,
                                                  MsgClass cls) = 0;
  };

  Network(sim::Engine& engine, const cluster::Cluster& cluster,
          NetworkConfig config, Rng rng)
      : engine_(engine), cluster_(cluster), config_(config), rng_(rng) {}

  /// Send `bytes` worth of payload from `from` VM to `to` VM and run
  /// `deliver` on arrival.  FIFO per (from, to) pair.
  SendOutcome send(VmId from, VmId to, std::size_t bytes, Deliver deliver,
                   MsgClass cls = MsgClass::Data);

  /// Convenience overload routed by slot.
  SendOutcome send_between_slots(SlotId from, SlotId to, std::size_t bytes,
                                 Deliver deliver, MsgClass cls = MsgClass::Data);

  void set_fault_hook(FaultHook* hook) noexcept { fault_hook_ = hook; }

  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }

 private:
  /// Smallest arrival time that keeps the (from, to) channel FIFO.
  [[nodiscard]] SimTime fifo_arrival(VmId from, VmId to, SimTime proposed);

  sim::Engine& engine_;
  const cluster::Cluster& cluster_;
  NetworkConfig config_;
  Rng rng_;
  NetworkStats stats_;
  FaultHook* fault_hook_{nullptr};
  /// Last delivery time per directed VM pair, for FIFO enforcement: a
  /// dense `vm_dim_` × `vm_dim_` table indexed by raw VmId values, grown
  /// when a send names a VM provisioned after the last growth.
  std::vector<SimTime> last_arrival_;
  std::size_t vm_dim_{0};
};

}  // namespace rill::net
