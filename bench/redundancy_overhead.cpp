// Redundancy-overhead bench (the Fig. 5 generalization the unified API
// enables): end-to-end slowdown vs the non-redundant baseline for every
// redundancy mode the ExecSession serves — N=2 bitwise (DCLS), N=3 bitwise,
// and N=3 majority vote (TMR) — across several workloads, under SRRS. Emits
// BENCH_redundancy.json for the CI artifact alongside BENCH_engine.json.
//
//   $ ./bench_redundancy_overhead [--scale=test|bench] [--out=PATH]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace higpu;
  using bench::ms;
  using core::RedundancySpec;

  workloads::Scale scale = workloads::Scale::kBench;
  std::string out_path = "BENCH_redundancy.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0)
      scale = workloads::parse_scale(arg.substr(8));
    else if (arg.rfind("--out=", 0) == 0)
      out_path = arg.substr(6);
  }

  // A short, a memory-heavy, a compute-heavy and a kernel-dominated
  // workload: the redundancy overhead spread of Fig. 5.
  const std::vector<std::string> names = {"hotspot", "bfs", "nn", "gaussian",
                                          "pathfinder"};
  struct Mode {
    const char* key;
    RedundancySpec spec;
  };
  const std::vector<Mode> modes = {
      {"dcls", RedundancySpec::dcls()},
      {"tmr_bitwise",
       [] {
         RedundancySpec r;
         r.n_copies = 3;
         return r;
       }()},
      {"tmr_vote", RedundancySpec::tmr()},
  };

  std::printf("Redundancy overhead: end-to-end slowdown vs baseline "
              "(SRRS, scale=%s)\n\n",
              workloads::scale_name(scale));
  TextTable table({"benchmark", "baseline(ms)", "DCLS", "TMR(bitwise)",
                   "TMR(vote)", "verified"});

  std::string json = "{\n  \"bench\": \"redundancy_overhead\",\n"
                     "  \"metric\": \"end-to-end slowdown vs N=1 baseline "
                     "(modelled ns, SRRS)\",\n  \"scale\": \"" +
                     std::string(workloads::scale_name(scale)) +
                     "\",\n  \"results\": [\n";
  bool all_ok = true;
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    const exp::ScenarioResult base = bench::run_workload(
        name, scale, sched::Policy::kSrrs, RedundancySpec::baseline());
    bool ok = base.verified;
    std::vector<double> slowdown;
    std::string mode_json;
    for (size_t m = 0; m < modes.size(); ++m) {
      const exp::ScenarioResult r = bench::run_workload(
          name, scale, sched::Policy::kSrrs, modes[m].spec);
      ok = ok && r.verified && r.dcls_match;
      slowdown.push_back(static_cast<double>(r.elapsed_ns) /
                         static_cast<double>(base.elapsed_ns));
      char buf[128];
      std::snprintf(buf, sizeof(buf), "\"%s_slowdown\": %.3f, ",
                    modes[m].key, slowdown.back());
      mode_json += buf;
    }
    all_ok = all_ok && ok;

    table.add_row({name, TextTable::fmt(ms(base.elapsed_ns), 3),
                   TextTable::fmt_ratio(slowdown[0]),
                   TextTable::fmt_ratio(slowdown[1]),
                   TextTable::fmt_ratio(slowdown[2]), ok ? "yes" : "NO"});

    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"baseline_ns\": %llu, %s"
                  "\"verified\": %s}%s\n",
                  name.c_str(),
                  static_cast<unsigned long long>(base.elapsed_ns),
                  mode_json.c_str(), ok ? "true" : "false",
                  i + 1 < names.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  std::printf("%s\n", table.render().c_str());
  std::printf("paper reference (Fig. 5): DCLS overhead is negligible unless "
              "kernel-dominated; TMR scales the kernel share by ~1.5x over "
              "DCLS, and voting adds host comparison time only.\n");

  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return all_ok ? 0 : 1;
}
