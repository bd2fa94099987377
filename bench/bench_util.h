// Shared harness for the paper-reproduction benches, a thin veneer over the
// Scenario/Campaign API: describe the run as a ScenarioSpec and execute it
// with exp::run_scenario. A failed run reports verified == dcls_match ==
// false, so benches read the ScenarioResult verdicts directly.
#pragma once

#include <string>

#include "exp/campaign.h"

namespace higpu::bench {

inline exp::ScenarioResult run_workload(
    const std::string& name, workloads::Scale scale, sched::Policy policy,
    const core::RedundancySpec& redundancy, u64 seed = 2019,
    const sim::GpuParams& gpu_params = {}) {
  exp::ScenarioSpec spec;
  spec.workload = name;
  spec.scale = scale;
  spec.seed = seed;
  spec.policy = policy;
  spec.redundancy = redundancy;
  spec.gpu = gpu_params;
  return exp::run_scenario(spec);
}

/// Classic baseline/DCLS shorthand used by the Fig. 4/5 benches.
inline exp::ScenarioResult run_workload(
    const std::string& name, workloads::Scale scale, sched::Policy policy,
    bool redundant, u64 seed = 2019, const sim::GpuParams& gpu_params = {}) {
  return run_workload(name, scale, policy,
                      redundant ? core::RedundancySpec::dcls()
                                : core::RedundancySpec::baseline(),
                      seed, gpu_params);
}

inline double ms(NanoSec ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace higpu::bench
