// Figure 4 reproduction: "Redundant Kernel Simulation Cycles (GPGPU-Sim
// normalized)". For each benchmark of the paper's simulated subset, run the
// redundant kernel pair under the baseline scheduler (Default), HALF and
// SRRS on the 6-SM GPU model, and report kernel-execution cycles normalized
// to Default.
//
// Expected shape (paper): HALF ~1.0 for 9/11 benchmarks, worst ~1.10 (lud);
// SRRS >= HALF for friendly kernels, up to ~2x for myocyte; for the very
// short kernels of bfs/backprop SRRS ~1.0 while HALF costs more.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table.h"

int main() {
  using namespace higpu;
  using bench::run_workload;
  using workloads::Scale;

  std::printf("Figure 4: redundant kernel simulation cycles, normalized to "
              "the default scheduler (6 SMs)\n\n");

  TextTable table({"benchmark", "default(cycles)", "HALF", "SRRS",
                   "verified", "diverse(SRRS)"});
  double worst_half = 0.0, worst_srrs = 0.0;
  std::string worst_half_name, worst_srrs_name;

  for (const std::string& name : workloads::fig4_names()) {
    const auto def = run_workload(name, Scale::kBench, sched::Policy::kDefault,
                                  /*redundant=*/true);
    const auto half = run_workload(name, Scale::kBench, sched::Policy::kHalf,
                                   /*redundant=*/true);
    const auto srrs = run_workload(name, Scale::kBench, sched::Policy::kSrrs,
                                   /*redundant=*/true);

    const double base = static_cast<double>(def.kernel_cycles);
    const double r_half = static_cast<double>(half.kernel_cycles) / base;
    const double r_srrs = static_cast<double>(srrs.kernel_cycles) / base;
    if (r_half > worst_half) {
      worst_half = r_half;
      worst_half_name = name;
    }
    if (r_srrs > worst_srrs) {
      worst_srrs = r_srrs;
      worst_srrs_name = name;
    }

    const bool all_ok = def.verified && half.verified && srrs.verified &&
                        def.dcls_match && half.dcls_match &&
                        srrs.dcls_match;
    const bool diverse = srrs.diversity.spatially_diverse() &&
                         srrs.diversity.temporally_disjoint();
    table.add_row({name, std::to_string(def.kernel_cycles),
                   TextTable::fmt_ratio(r_half), TextTable::fmt_ratio(r_srrs),
                   all_ok ? "yes" : "NO", diverse ? "yes" : "NO"});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("worst HALF overhead: %.1f%% (%s)\n", (worst_half - 1.0) * 100.0,
              worst_half_name.c_str());
  std::printf("worst SRRS overhead: %.1f%% (%s)\n", (worst_srrs - 1.0) * 100.0,
              worst_srrs_name.c_str());
  std::printf("\npaper reference: HALF negligible for 9/11, worst ~10%% "
              "(lud); SRRS up to ~99%% (myocyte); bfs/backprop prefer SRRS.\n");
  return 0;
}
