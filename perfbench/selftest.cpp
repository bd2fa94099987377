// Self-tests of the benchmark's own arithmetic and accounting.
//
//   perfbench_selftest            (or: python3 perfbench/run.py --self-test)
//
// Covers the tail-percentile rule, span self-time arithmetic, error_rate
// accounting on an injected failing scenario, traced and untraced passes
// agreeing, and the fault campaign's modelled metrics and digest being
// identical at 1 and 2 threads. Exits 1 on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile_rule() {
  check(tail_percentile(684) == 95.0, "684 samples: p95 (34 beyond), not p99");
  check(tail_percentile(1000) == 99.0, "1000 samples: p99 (10 beyond)");
  check(tail_percentile(10000) == 99.9, "10000 samples: p99.9 (10 beyond)");
  check(tail_percentile(200) == 95.0, "200 samples: p95 (exactly 10 beyond)");
  check(tail_percentile(199) == 90.0, "199 samples: p90");
  check(tail_percentile(20) == 50.0, "20 samples: median only");
  check(tail_percentile(19) == 0.0, "19 samples: no tail percentile");
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  check(percentile(v, 95.0) == 190.0, "nearest-rank p95 of 1..200 is 190");
  check(qualified_percentile(v, 95.0) == 190.0, "p95 of 200 samples reported");
  v.pop_back();
  check(qualified_percentile(v, 95.0) == 0.0, "p95 of 199 samples withheld");
  check(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5,
        "median of odd and even counts");
}

void test_self_time() {
  // parent [0, 10]; children [1, 3] and [2, 5] overlap, [7, 8] is apart,
  // [9, 12] sticks out of the parent; grandchild [1, 2] under the first.
  const std::vector<Span> s = {
      {"exp.scenario", 0, 10, -1, 0, 0}, {"runtime.flow", 1, 3, 0, 0, 0},
      {"ckpt.restore", 2, 5, 0, 0, 0},   {"exp.harvest", 7, 8, 0, 0, 0},
      {"sim.run", 9, 12, 0, 0, 0},       {"sim.run", 1, 2, 1, 0, 0}};
  const std::vector<double> self = self_times(s);
  check(near(self[0], 10 - (4 + 1 + 1)), "parent self = 10 - union(children)");
  check(near(self[1], 1), "child self excludes its own child");
  check(near(self[2], 3) && near(self[3], 1), "leaf self = duration");
  const std::map<std::string, double> layer = layer_self_seconds(s);
  check(near(layer.at("exp"), 4 + 1), "layer self sums every span of the layer");
  check(near(layer.at("sim"), 3 + 1), "layer taken from the name prefix");
  double total = 0;
  for (const auto& [k, v] : layer) total += v;
  // Overlapping siblings ([1, 3] and [2, 5]) each keep their own self
  // time, and a child outside its parent adds time the parent does not
  // cover: 4 + 1 + 3 + 1 + 3 + 1.
  check(near(total, 13), "self times add up span by span");
}

void test_error_accounting() {
  using higpu::exp::ScenarioResult;
  using Recovery = higpu::core::RedundancySpec::Recovery;
  // A scenario that cannot run: the workload name is unknown.
  higpu::exp::ScenarioSpec bad;
  bad.workload = "no-such-workload";
  const ScenarioResult failed = higpu::exp::run_scenario(bad);
  check(!failed.ok && scenario_failed(failed), "unknown workload fails");

  ScenarioResult clean;
  clean.ok = clean.verified = clean.dcls_match = true;
  check(!scenario_failed(clean), "verified matching fault-free run passes");
  ScenarioResult wrong = clean;
  wrong.verified = false;
  check(scenario_failed(wrong), "unverified fault-free run fails");
  ScenarioResult mismatch = clean;
  mismatch.dcls_match = false;
  check(scenario_failed(mismatch), "fault-free copy mismatch fails");
  ScenarioResult detected = clean;
  detected.fault_active = true;
  detected.dcls_match = detected.verified = false;
  detected.outcome = higpu::fault::Outcome::kDetected;
  check(!scenario_failed(detected), "a detected fault is not a failure");
  ScenarioResult sdc = clean;
  sdc.fault_active = true;
  sdc.verified = false;
  sdc.outcome = higpu::fault::Outcome::kSdc;
  check(!scenario_failed(sdc), "an SDC is an outcome, not a failure");

  Tally t;
  for (const ScenarioResult& r : {failed, clean, wrong, detected, sdc})
    t.add(r, Recovery::kRetry);
  const std::map<std::string, double> m = layer_metrics(t);
  check(t.ops == 5 && t.failed == 2, "tally: 5 attempted, 2 failed");
  check(near(m.at("error_rate"), 2.0 / 5.0), "error_rate = failed/attempted");
  check(near(m.at("sdc_share"), 0.5), "sdc_share = SDC/faulted");
  check(near(m.at("unrecovered_share"), 1.0),
        "unrecovered_share = detected-not-recovered/detected");
}

void test_traced_equals_untraced() {
  Config cfg;
  auto wl = make_workload("kernels-alu", cfg);
  wl->setup();
  const PassResult plain = wl->run_pass(nullptr, -1);
  SpanLog log;
  const int root = log.add("bench.pass", 0, 0, -1, 0, 0);
  const PassResult traced = wl->run_pass(&log, root);
  log.finish(root, log.now());
  check(plain.failed == 0 && plain.ops == 6, "kernels-alu: 6 programs pass");
  check(plain.digest == traced.digest, "traced pass digest == untraced");
  check(plain.det == traced.det, "traced pass modelled metrics == untraced");
  size_t flows = 0;
  for (const Span& s : log.spans()) flows += s.name == "runtime.flow";
  check(flows == 6, "one runtime.flow span per program");
  check(traced.traced.count("runtime.host_sim_s") == 1 &&
            traced.traced.at("runtime.host_sim_s") > 0,
        "traced pass measures simulation host time");
}

void test_campaign_threads() {
  PassResult by_threads[2];
  std::unique_ptr<Workload> two;
  for (unsigned threads : {1u, 2u}) {
    Config cfg;
    cfg.threads = threads;
    auto wl = make_workload("fault-campaign", cfg);
    wl->setup();
    by_threads[threads - 1] = wl->run_pass(nullptr, -1);
    two = std::move(wl);
  }
  const PassResult& a = by_threads[0];
  const PassResult& b = by_threads[1];
  check(a.ops == 684 && a.failed == 0, "fault-campaign: 684 scenarios, none failed");
  check(a.digest == b.digest, "campaign digest identical at 1 and 2 threads");
  check(a.det == b.det, "campaign modelled metrics identical at 1 and 2 threads");
  check(a.modelled_ms == b.modelled_ms, "campaign modelled time identical");

  // The traced pass re-drives bases and forks itself (2 threads).
  SpanLog log;
  const int root = log.add("bench.pass", 0, 0, -1, 0, 0);
  const PassResult traced = two->run_pass(&log, root);
  log.finish(root, log.now());
  check(traced.consistent, "traced campaign results == CampaignRunner's");
  check(traced.digest == b.digest, "traced campaign digest == untraced");
  check(traced.traced.count("ckpt.host_restore_s") == 1 &&
            traced.traced.at("ckpt.host_restore_s") > 0,
        "traced campaign sees snapshot restores");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  test_percentile_rule();
  test_self_time();
  test_error_accounting();
  test_traced_equals_untraced();
  test_campaign_threads();
  std::printf("%s: %d failed check(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
