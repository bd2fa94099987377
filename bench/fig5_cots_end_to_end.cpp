// Figure 5 reproduction: end-to-end execution time of the full Rodinia
// suite on the modelled COTS platform (Ryzen + GTX 1050 Ti class), baseline
// vs redundant-serialized execution (the paper mimics SRRS with
// cudaDeviceSynchronize()).
//
// Expected shape (paper): the redundancy overhead is negligible for all
// benchmarks except cfd and streamcluster, whose end-to-end time is
// dominated by kernel execution.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table.h"

int main() {
  using namespace higpu;
  using bench::ms;
  using bench::run_workload;
  using workloads::Scale;

  std::printf("Figure 5: end-to-end execution time (ms), baseline vs "
              "redundant serialized (SRRS mimic)\n\n");

  TextTable table({"benchmark", "baseline(ms)", "redundant(ms)", "ratio",
                   "kernel-share", "verified"});

  for (const std::string& name : workloads::all_names()) {
    const auto base = run_workload(name, Scale::kBench, sched::Policy::kDefault,
                                   /*redundant=*/false);
    const auto red = run_workload(name, Scale::kBench, sched::Policy::kSrrs,
                                  /*redundant=*/true);
    const double ratio =
        static_cast<double>(red.elapsed_ns) / static_cast<double>(base.elapsed_ns);
    // Fraction of baseline time spent in kernel execution (explains which
    // benchmarks suffer from redundancy).
    const double clock_ghz = 1.4;
    const double kernel_ns = static_cast<double>(base.kernel_cycles) / clock_ghz;
    const double kshare = kernel_ns / static_cast<double>(base.elapsed_ns);

    table.add_row({name, TextTable::fmt(ms(base.elapsed_ns), 3),
                   TextTable::fmt(ms(red.elapsed_ns), 3),
                   TextTable::fmt_ratio(ratio), TextTable::fmt(kshare, 2),
                   (base.verified && red.verified && red.dcls_match)
                       ? "yes"
                       : "NO"});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("paper reference: overhead negligible for all benchmarks but "
              "cfd and streamcluster (kernel-dominated).\n");
  return 0;
}
