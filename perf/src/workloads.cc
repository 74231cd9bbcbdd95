#include "workloads.h"

namespace nano::perf {

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> table = {
      {"svc_mix", 1500.0, &makeSvcMix},
      {"timing_opt", 8.0, &makeTimingOpt},
      {"grid_scenario", 10.0, &makeGridScenario},
  };
  return table;
}

}  // namespace nano::perf
