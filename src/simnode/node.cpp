#include "simnode/node.hpp"

namespace tempest::simnode {

SimNode::SimNode(NodeConfig config)
    : config_(std::move(config)),
      package_(config_.package),
      clock_(config_.tsc_offset_ticks, config_.tsc_drift_ppm) {
  for (std::size_t c = 0; c < config_.package.cores; ++c) {
    meters_.push_back(std::make_unique<ActivityMeter>());
  }
  backend_ = std::make_unique<sensors::SimBackend>(&package_.network(),
                                                   config_.sensor_layout,
                                                   config_.noise_seed);
  utilization_override_.assign(config_.package.cores, -1.0);
  settle_idle();
}

double SimNode::speed_factor() const {
  // The governor's P-state changes inside advance_to on the sampler
  // thread; workloads poll it from their own threads.
  common::MutexLock lock(&advance_mu_);
  return package_.speed_factor();
}

void SimNode::advance_to(std::uint64_t real_tsc) {
  common::MutexLock lock(&advance_mu_);
  if (!advanced_once_) {
    last_advance_tsc_ = real_tsc;
    advanced_once_ = true;
    return;
  }
  if (real_tsc <= last_advance_tsc_) return;
  const double dt = tsc_to_seconds(real_tsc - last_advance_tsc_);
  std::vector<double> utilization(meters_.size());
  for (std::size_t c = 0; c < meters_.size(); ++c) {
    const double meter_u = meters_[c]->sample(real_tsc);
    utilization[c] =
        utilization_override_[c] >= 0.0 ? utilization_override_[c] : meter_u;
  }
  package_.advance(dt, utilization);
  last_advance_tsc_ = real_tsc;
}

void SimNode::set_utilization_override(std::size_t core, double utilization) {
  common::MutexLock lock(&advance_mu_);
  utilization_override_.at(core) = utilization > 1.0 ? 1.0 : utilization;
}

void SimNode::settle_idle() {
  common::MutexLock lock(&advance_mu_);
  package_.settle_at(std::vector<double>(meters_.size(), 0.0));
}

}  // namespace tempest::simnode
