// perfbench: the repository benchmark.
//
//   perfbench --workload <kernels-mem|kernels-alu|fault-campaign|serve-ckpt|all>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --list-metrics
//
// Per workload: set up kSetupReps times (median reported), run one
// untimed warm-up pass, then repeat passes until `--seconds` are used. With
// --trace 0 every pass is untraced and the end-to-end metrics are reported;
// with --trace 1 untraced and traced passes alternate, the per-layer metrics
// are reported, the difference between the two kinds of pass is the tracing
// overhead, and the spans are written as Chrome trace-event JSON to
// <out-dir>/trace-<workload>-seed<n>.json.
//
// Every line but the last is a human-readable report (every metric with its
// unit, the pass counts and the pass digest); the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. A run is correct
// when no operation failed and every pass, traced or not, produced the same
// digest of its deterministic results.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "stats.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by every workload with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ops_per_host_s", "1/s"},
    {"modelled_ms_per_host_s", "ms/s"},
};

// Reported by every workload with --trace 1; 0 where a workload does not
// reach the layer.
constexpr MetricDef kPerLayer[] = {
    // sim, sim/blockexec
    {"sim_minsn_per_host_s", "Minsn/s"},
    {"sim.minsn", "Minsn"},
    {"sim.host_ns_per_insn", "ns"},
    {"sim.ff_share", "share"},
    {"sim.issue_share", "share"},
    {"sim.stall_scoreboard_share", "share"},
    {"sim.stall_structural_share", "share"},
    {"sim.stall_barrier_share", "share"},
    {"blockexec.hit_share", "share"},
    {"modelled_kernel_mcycles", "Mcycles"},
    {"modelled_elapsed_ms", "ms"},
    // memsys
    {"memsys.mtx", "Mtx"},
    {"memsys.tx_per_insn", "tx/insn"},
    {"memsys.host_ns_per_tx", "ns"},
    {"memsys.l1_hit_rate", "share"},
    {"memsys.l2_hit_rate", "share"},
    {"memsys.mshr_stall_cycles", "cycles"},
    {"memsys.dram_row_hit_rate", "share"},
    // runtime, isa/verify
    {"runtime.host_sim_s", "s"},
    {"runtime.host_flow_other_s", "s"},
    {"runtime.launches", "count"},
    {"verify.memo_hit_share", "share"},
    // ckpt
    {"ckpt.host_snapshot_s", "s"},
    {"ckpt.host_restore_s", "s"},
    {"ckpt.captures", "count"},
    {"ckpt.snapshot_kb.p50", "KB"},
    {"ckpt.host_restore_ms_per_fork", "ms"},
    {"serve.checkpoints_per_request", "count"},
    // exp
    {"scenarios_per_host_s", "1/s"},
    {"host_scenario_ms.p50", "ms"},
    {"host_scenario_ms.p95", "ms"},
    {"exp.host_base_ms.p50", "ms"},
    {"exp.host_fork_ms.p50", "ms"},
    {"exp.host_harvest_s", "s"},
    {"exp.parallel_efficiency", "share"},
    // core, fault
    {"core.attempts_per_faulted", "count"},
    {"core.rollbacks_recovered", "count"},
    {"fault.corruptions", "count"},
    {"fault.detected_share", "share"},
    {"sdc_share", "share"},
    {"unrecovered_share", "share"},
    // serve, sched, safety
    {"requests_per_host_s", "1/s"},
    {"modelled_response_ms.p50", "ms"},
    {"modelled_response_ms.p95", "ms"},
    {"deadline_miss_share", "share"},
    {"serve.modelled_queue_wait_ms.p95", "ms"},
    {"serve.utilization", "share"},
    {"serve.max_queue_depth", "count"},
    {"serve.degrade_transitions", "count"},
    {"serve.shed", "count"},
    {"safety.bist_runs", "count"},
    // workloads
    {"workloads.host_setup_s", "s"},
    // host self time per spanned layer, as a share of traced pass time
    {"bench.self_share", "share"},
    {"exp.self_share", "share"},
    {"workloads.self_share", "share"},
    {"runtime.self_share", "share"},
    {"sim.self_share", "share"},
    {"ckpt.self_share", "share"},
    {"serve.self_share", "share"},
    // obs, and the run's own accounting
    {"obs.trace_overhead_share", "share"},
    {"error_rate", "share"},
};

constexpr unsigned kSetupReps = 3;

// Address-space cap: a runaway allocation fails the run instead of
// exhausting a machine shared with other work. The workloads peak near
// 0.1 GiB resident.
constexpr rlim_t kAddressSpaceCap = rlim_t{2} << 30;

struct Options {
  std::string workload;
  uint64_t seed = 2019;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
  std::vector<std::pair<std::string, double>> metrics;  // this mode's set
  std::vector<std::string> lines;                       // human report
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set, MB: of the whole process, or (`since_reset`) since the
/// kernel's high-water mark was last reset through /proc/self/clear_refs.
double peak_rss_mb(bool since_reset) {
  if (since_reset) {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Median over passes of one value derived from each pass.
template <class F>
double median_of(const std::vector<PassResult>& passes, F f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return median(v);
}

Report run_one(const std::string& name, const Options& o) {
  Config cfg;
  cfg.seed = o.seed;
  std::unique_ptr<Workload> wl = make_workload(name, cfg);
  Report rep;

  std::vector<double> setup_times;
  for (unsigned k = 0; k < kSetupReps; ++k) {
    const auto t0 = Clock::now();
    wl->setup();
    setup_times.push_back(seconds_since(t0));
  }
  // Warm-up: one full pass outside the measurement; its time is reported
  // as part of set-up so work moved into set-up still shows.
  const auto tw = Clock::now();
  PassResult warm = wl->run_pass(nullptr, -1);
  const double warmup_s = seconds_since(tw);
  rep.digest = warm.digest;
  rep.attempted += warm.attempted;
  rep.failed += warm.failed;
  rep.correct = rep.correct && warm.consistent;

  SpanLog log;
  std::vector<PassResult> untraced, traced;
  std::vector<double> all_times;
  const auto m0 = Clock::now();
  for (uint64_t i = 0;; ++i) {
    const bool tr = o.trace && i % 2 == 1;
    int parent = -1;
    if (tr) parent = log.add("bench.pass", log.now(), 0, -1, i, 0);
    const auto t0 = Clock::now();
    PassResult p = wl->run_pass(tr ? &log : nullptr, parent);
    p.host_s = seconds_since(t0);
    if (tr) log.finish(parent, log.now());
    all_times.push_back(p.host_s);
    rep.attempted += p.attempted;
    rep.failed += p.failed;
    if (p.digest != rep.digest || !p.consistent) rep.correct = false;
    (tr ? traced : untraced).push_back(std::move(p));
    const bool enough = !untraced.empty() && (!o.trace || !traced.empty());
    if (enough && seconds_since(m0) + median(all_times) > o.seconds) break;
  }
  rep.correct = rep.correct && rep.failed == 0;

  const PassResult& ref = untraced.front();
  const double pass_s = median_of(untraced, [](const PassResult& p) {
    return p.host_s;
  });
  const double traced_s =
      median_of(traced, [](const PassResult& p) { return p.host_s; });

  // ---- End-to-end ------------------------------------------------------------
  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(setup_times) + warmup_s;
  e2e["peak_rss_mb"] = peak_rss_mb(o.workload == "all");
  e2e["ops_per_host_s"] = static_cast<double>(ref.ops) / pass_s;
  e2e["modelled_ms_per_host_s"] = ref.modelled_ms / pass_s;

  // ---- Per layer -------------------------------------------------------------
  std::map<std::string, double> layer = ref.det;
  const bool requests = ref.requests;
  const double per_host_s = static_cast<double>(ref.ops) / pass_s;
  layer[requests ? "requests_per_host_s" : "scenarios_per_host_s"] = per_host_s;
  layer["sim_minsn_per_host_s"] = get(ref.det, "sim.minsn") / pass_s;
  if (!requests) {
    layer["host_scenario_ms.p50"] = median_of(
        untraced, [](const PassResult& p) { return median(p.op_host_ms); });
    layer["host_scenario_ms.p95"] =
        median_of(untraced, [](const PassResult& p) {
          return qualified_percentile(p.op_host_ms, 95.0);
        });
  }
  const double insn = get(ref.det, "sim.minsn") * 1e6;
  const double tx = get(ref.det, "memsys.mtx") * 1e6;
  if (insn > 0) {
    layer["sim.host_ns_per_insn"] = median_of(
        untraced, [&](const PassResult& p) { return p.sim_host_s * 1e9 / insn; });
  }
  if (tx > 0) {
    layer["memsys.host_ns_per_tx"] = median_of(
        untraced, [&](const PassResult& p) { return p.sim_host_s * 1e9 / tx; });
  }
  layer["exp.parallel_efficiency"] =
      median_of(untraced, [](const PassResult& p) {
        return p.busy_host_s / (p.threads * p.host_s);
      });
  if (!traced.empty()) {
    std::map<std::string, std::vector<double>> tv;
    for (const PassResult& p : traced)
      for (const auto& [k, v] : p.traced) tv[k].push_back(v);
    for (const auto& [k, v] : tv) layer[k] = median(v);
    const std::vector<Span> spans = log.spans();
    const std::map<std::string, double> self = layer_self_seconds(spans);
    // Spans of concurrent threads overlap in time: shares are of the host
    // time all worker threads had, so they sum to about one.
    double traced_total = 0;
    for (const PassResult& p : traced) traced_total += p.host_s * p.threads;
    for (const auto& [l, s] : self) layer[l + ".self_share"] = s / traced_total;
    layer["obs.trace_overhead_share"] = traced_s / pass_s - 1.0;

    std::filesystem::create_directories(o.out_dir);
    const std::string path = o.out_dir + "/trace-" + name + "-seed" +
                             std::to_string(o.seed) + ".json";
    std::ofstream(path) << chrome_trace_json(spans, name, o.seed);
    rep.lines.push_back("# trace " + path + " (" +
                        std::to_string(spans.size()) + " spans)");
  }
  layer["error_rate"] = rep.attempted == 0
                            ? 0.0
                            : static_cast<double>(rep.failed) /
                                  static_cast<double>(rep.attempted);

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "# %s seed=%llu passes=%zu traced=%zu pass_s.median=%s "
                "warmup_s=%s setup_reps=%zu ops/pass=%llu",
                name.c_str(), static_cast<unsigned long long>(o.seed),
                untraced.size(), traced.size(), num(pass_s).c_str(),
                num(warmup_s).c_str(), setup_times.size(),
                static_cast<unsigned long long>(ref.ops));
  rep.lines.push_back(buf);
  std::string times = "# pass_s untraced:";
  for (const PassResult& p : untraced) (times += ' ') += num(p.host_s);
  if (!traced.empty()) times += " traced:";
  for (const PassResult& p : traced) (times += ' ') += num(p.host_s);
  rep.lines.push_back(times);
  std::snprintf(buf, sizeof buf, "# sim_digest %s %016llx", name.c_str(),
                static_cast<unsigned long long>(rep.digest));
  rep.lines.push_back(buf);
  if (!requests && !ref.op_host_ms.empty()) {
    const double tp = tail_percentile(ref.op_host_ms.size());
    std::string tail = "none";
    if (tp > 0) (tail = "p") += num(tp);
    std::snprintf(buf, sizeof buf,
                  "# host_scenario_ms: n=%zu per pass, tail percentile with "
                  ">=10 samples beyond it: %s",
                  ref.op_host_ms.size(),
                  tail.c_str());
    rep.lines.push_back(buf);
  }
  std::snprintf(buf, sizeof buf,
                "# correct=%d attempted=%llu failed=%llu", rep.correct ? 1 : 0,
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
  rep.lines.push_back(buf);

  const auto emit = [&](const MetricDef& d, double v, bool keep) {
    rep.lines.push_back(std::string(d.name) + " = " + num(v) + " " + d.unit);
    if (keep) rep.metrics.emplace_back(d.name, v);
  };
  for (const MetricDef& d : kEndToEnd) emit(d, get(e2e, d.name), !o.trace);
  if (o.trace)
    for (const MetricDef& d : kPerLayer) emit(d, get(layer, d.name), true);
  return rep;
}

std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<std::pair<std::string, double>>& m,
                        const std::map<std::string, const char*>& units) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    const std::string base = k.substr(k.find('/') + 1);
    const auto u = units.find(base);
    out += "\"" + k + "\": {\"value\": " + num(v) + ", \"unit\": \"" +
           (u == units.end() ? "" : u->second) + "\"}";
  }
  out += "}}";
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] | "
               "--list-metrics\n";
  std::exit(2);
}

int main_impl(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const MetricDef& d : kEndToEnd)
        std::cout << "end_to_end " << d.name << " " << d.unit << "\n";
      for (const MetricDef& d : kPerLayer)
        std::cout << "per_layer " << d.name << " " << d.unit << "\n";
      return 0;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      usage("unknown option " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  const rlimit cap{kAddressSpaceCap, kAddressSpaceCap};
  setrlimit(RLIMIT_AS, &cap);

  std::map<std::string, const char*> units;
  for (const MetricDef& d : kEndToEnd) units[d.name] = d.unit;
  for (const MetricDef& d : kPerLayer) units[d.name] = d.unit;

  if (o.workload != "all") {
    const Report r = run_one(o.workload, o);
    for (const std::string& l : r.lines) std::cout << l << "\n";
    std::cout << result_json(r.correct, r.attempted, r.failed, r.metrics, units)
              << std::endl;
    return 0;
  }
  // Every workload in this process, one after another; each reports its own
  // peak resident set (the kernel's high-water mark is reset in between).
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::pair<std::string, double>> all;
  for (const std::string& name : workload_names()) {
    std::ofstream("/proc/self/clear_refs") << "5";
    const Report r = run_one(name, o);
    for (const std::string& l : r.lines) std::cout << l << "\n";
    std::cout << result_json(r.correct, r.attempted, r.failed, r.metrics, units)
              << "\n";
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& [k, v] : r.metrics) all.emplace_back(name + "/" + k, v);
  }
  std::cout << result_json(correct, attempted, failed, all, units) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
