// The calibration values no caller varies are compile-time constants of the
// config struct (or the class) that documents them.  Each assertion below
// fails to compile if its value becomes a settable field again.
#include <type_traits>

#include "autoscale/controller.hpp"
#include "ckpt/policy.hpp"
#include "core/controller.hpp"
#include "dsps/acker.hpp"
#include "dsps/config.hpp"
#include "kvstore/store.hpp"
#include "net/network.hpp"
#include "workloads/traffic.hpp"

namespace rill {
namespace {

#define RILL_ASSERT_CONSTANT(S, name) \
  static_assert(std::is_const_v<decltype(S::name)>)

RILL_ASSERT_CONSTANT(dsps::PlatformConfig, checkpoint_wave_retries);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, control_handling);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, rebalance_mean_sec);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, rebalance_stddev_sec);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, kill_delay);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, worker_startup_min_sec);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, worker_startup_max_sec);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, worker_startup_per_colocated_sec);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, worker_slow_start_prob);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, worker_slow_start_min_sec);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, worker_slow_start_max_sec);
RILL_ASSERT_CONSTANT(dsps::PlatformConfig, max_source_backlog);

RILL_ASSERT_CONSTANT(dsps::AckerService, kScanPeriod);

RILL_ASSERT_CONSTANT(kvstore::StoreConfig, request_overhead);
RILL_ASSERT_CONSTANT(kvstore::StoreConfig, per_item_cost);
RILL_ASSERT_CONSTANT(kvstore::StoreConfig, ns_per_byte);
RILL_ASSERT_CONSTANT(kvstore::StoreConfig, request_timeout);
RILL_ASSERT_CONSTANT(kvstore::StoreConfig, timeout_cost_factor);
RILL_ASSERT_CONSTANT(kvstore::StoreConfig, max_attempts);
RILL_ASSERT_CONSTANT(kvstore::StoreConfig, backoff_base);
RILL_ASSERT_CONSTANT(kvstore::StoreConfig, backoff_cap);
RILL_ASSERT_CONSTANT(kvstore::StoreConfig, backoff_jitter);
RILL_ASSERT_CONSTANT(kvstore::StoreConfig, pipeline_linger);

RILL_ASSERT_CONSTANT(net::NetworkConfig, intra_vm_latency);
RILL_ASSERT_CONSTANT(net::NetworkConfig, inter_vm_latency);
RILL_ASSERT_CONSTANT(net::NetworkConfig, ns_per_byte);

RILL_ASSERT_CONSTANT(autoscale::AutoscaleConfig, decision_period);
RILL_ASSERT_CONSTANT(autoscale::AutoscaleConfig, window_sec);
RILL_ASSERT_CONSTANT(autoscale::AutoscaleConfig, scale_out_windows);
RILL_ASSERT_CONSTANT(autoscale::AutoscaleConfig, scale_in_windows);
RILL_ASSERT_CONSTANT(autoscale::AutoscaleConfig, queue_high);
RILL_ASSERT_CONSTANT(autoscale::AutoscaleConfig, queue_low);

RILL_ASSERT_CONSTANT(ckpt::PolicyConfig, min_interval);
RILL_ASSERT_CONSTANT(ckpt::PolicyConfig, max_interval);
RILL_ASSERT_CONSTANT(ckpt::PolicyConfig, mttr_safety);
RILL_ASSERT_CONSTANT(ckpt::PolicyConfig, estimator_alpha);
RILL_ASSERT_CONSTANT(ckpt::PolicyConfig, min_full_every);
RILL_ASSERT_CONSTANT(ckpt::PolicyConfig, max_full_every);
RILL_ASSERT_CONSTANT(ckpt::PolicyConfig, hysteresis);

RILL_ASSERT_CONSTANT(workloads::TrafficConfig, update_period);

RILL_ASSERT_CONSTANT(core::ControllerConfig, retry_backoff);

#undef RILL_ASSERT_CONSTANT

}  // namespace
}  // namespace rill
