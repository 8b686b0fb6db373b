// A simulated cluster node.
//
// Composes the thermal package, the per-core activity meters, a virtual
// TSC (offset + drift vs the global clock, exercising the paper's clock
// skew handling), and the simulated sensor backend. Worker threads touch
// only the activity meters and clock; the tempd sampler calls
// advance_to() then reads sensors, serialised by an internal mutex.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/tsc.hpp"
#include "sensors/sim_backend.hpp"
#include "simnode/activity.hpp"
#include "thermal/cpu_package.hpp"

namespace tempest::simnode {

struct NodeConfig {
  std::string hostname = "node1";
  thermal::PackageParams package;
  std::vector<sensors::SimSensorSpec> sensor_layout;
  std::int64_t tsc_offset_ticks = 0;
  double tsc_drift_ppm = 0.0;
  std::uint64_t noise_seed = 0x7e57;
};

class SimNode {
 public:
  explicit SimNode(NodeConfig config);

  // -- worker-thread side ---------------------------------------------
  ActivityMeter& core_meter(std::size_t core) { return *meters_.at(core); }
  std::size_t core_count() const { return meters_.size(); }
  const VirtualTsc& clock() const { return clock_; }
  const std::string& hostname() const { return config_.hostname; }

  /// Current DVFS speed factor (1.0 = full speed); workloads poll this
  /// to stretch their compute when throttled.
  double speed_factor() const EXCLUDES(advance_mu_);

  /// Drive a core's utilisation from an external source instead of its
  /// activity meter (e.g. the process's measured CPU share in the
  /// transparent auto-profiling mode). Negative clears the override.
  void set_utilization_override(std::size_t core, double utilization)
      EXCLUDES(advance_mu_);

  // -- sampler side -----------------------------------------------------
  /// Integrate thermal state up to the given global TSC using measured
  /// per-core utilisation since the previous call.
  void advance_to(std::uint64_t real_tsc) EXCLUDES(advance_mu_);

  /// Start from thermal steady state at idle, as the paper does by
  /// letting systems return to steady state between tests.
  void settle_idle() EXCLUDES(advance_mu_);

  sensors::SensorBackend& sensor_backend() { return *backend_; }
  thermal::CpuPackage& package() { return package_; }
  const thermal::CpuPackage& package() const { return package_; }

 private:
  NodeConfig config_;
  thermal::CpuPackage package_;
  std::vector<std::unique_ptr<ActivityMeter>> meters_;
  std::unique_ptr<sensors::SimBackend> backend_;
  VirtualTsc clock_;

  // advance_mu_ serialises the sampler's thermal integration with the
  // (rare) worker-side utilisation overrides and speed-factor reads; it
  // also guards package_ state transitively since only advance/settle
  // mutate it post-ctor.
  mutable common::Mutex advance_mu_;
  std::uint64_t last_advance_tsc_ GUARDED_BY(advance_mu_) = 0;
  bool advanced_once_ GUARDED_BY(advance_mu_) = false;
  /// Per core; < 0 = use meter.
  std::vector<double> utilization_override_ GUARDED_BY(advance_mu_);
};

}  // namespace tempest::simnode
