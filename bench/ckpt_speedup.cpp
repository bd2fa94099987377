// Checkpoint subsystem benchmark: BENCH_ckpt.json.
//
// The host cost of one capture, then two measurements matching the two
// consumers of src/ckpt:
//
//  0. Capture throughput — ms per Device::snapshot() and MB/s of blob for a
//     device holding a 4 MiB global store: the median of repeated captures
//     over at least 200 ms. Reported, not gated.
//
//  1. Campaign fast-forward — a fault sweep over injection times on an
//     otherwise identical scenario, run from scratch vs with
//     CampaignRunner's snapshot fast-forward (one clean base simulation,
//     per-fault forks from the snapshot at each injection point). Results
//     are required to be bit-identical; the payoff is wall-clock.
//
//  2. Rollback vs retry — for EVERY workload, the same detected fault
//     recovered by Recovery::kRollback (restore the pre-kernel checkpoint,
//     re-execute only the kernels) vs Recovery::kRetry (re-execute the
//     whole offload: re-upload inputs, relaunch, resimulate). The paper's
//     FTTI argument wants the response time, so that is what we compare:
//     rollback must beat retry on response_ns at equal fault plans.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table.h"

namespace {

using namespace higpu;
using exp::FaultPlan;
using exp::ScenarioResult;
using exp::ScenarioSet;
using exp::ScenarioSpec;

ScenarioSpec base_spec(const std::string& workload) {
  ScenarioSpec s;
  s.workload = workload;
  return s;
}

/// A fault plan that this workload's DCLS pair actually detects: try a
/// droop window inside the execution first, then fall back to a permanent
/// SM-0 defect (detected for any workload that runs at least one block on
/// SM 0, i.e. all of them under SRRS).
FaultPlan detected_plan(const std::string& workload, Cycle span,
                        bool* detected) {
  const std::vector<FaultPlan> candidates = {
      FaultPlan::droop(3000 + span / 4, std::max<Cycle>(800, span / 4), 3),
      FaultPlan::droop(3000, std::max<Cycle>(800, span / 2), 7),
      FaultPlan::permanent_sm(0, 0, 7),
  };
  for (const FaultPlan& plan : candidates) {
    ScenarioSpec probe = base_spec(workload);
    probe.fault = plan;
    const ScenarioResult r = exp::run_scenario(probe);
    if (r.ok && r.mismatches > 0) {
      *detected = true;
      return plan;
    }
  }
  *detected = false;
  return candidates.back();
}

/// Median host time of Device::snapshot() on a device holding a 4 MiB store
/// of random bytes, over at least 200 ms of captures after one warm-up.
void capture_throughput(JsonWriter& jw) {
  using Clock = std::chrono::steady_clock;
  constexpr u64 kStoreBytes = 4ull << 20;
  runtime::Device dev;
  std::vector<u8> fill(kStoreBytes);
  Rng rng(2019);
  for (u8& b : fill) b = static_cast<u8>(rng.next_u32());
  dev.memcpy_h2d(dev.malloc(kStoreBytes), fill.data(), kStoreBytes);

  ckpt::SnapshotPtr snap = dev.snapshot();
  std::vector<double> sec;
  const Clock::time_point start = Clock::now();
  while (sec.size() < 5 ||
         std::chrono::duration<double>(Clock::now() - start).count() < 0.2) {
    const Clock::time_point t0 = Clock::now();
    snap = dev.snapshot();
    sec.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::sort(sec.begin(), sec.end());
  const double median = sec[sec.size() / 2];
  const double mb = static_cast<double>(snap->size_bytes()) / 1e6;
  const double mb_per_s = mb / median;
  std::printf(
      "capture: %.2f MB blob, %.3f ms per snapshot (median of %zu), "
      "%.0f MB/s\n",
      mb, median * 1e3, sec.size(), mb_per_s);

  jw.key("capture");
  jw.begin_object();
  jw.field("store_bytes", kStoreBytes);
  jw.field("blob_bytes", snap->size_bytes());
  jw.field("captures", static_cast<u64>(sec.size()));
  jw.field("ms_per_snapshot_p50", median * 1e3);
  jw.field("mb_per_s", mb_per_s);
  jw.end_object();
}

}  // namespace

int main() {
  JsonWriter jw;
  jw.begin_object();
  jw.field("schema", std::string("higpu.bench.ckpt/1"));

  // ---- 0. Capture throughput ---------------------------------------------
  capture_throughput(jw);

  // ---- 1. Campaign fast-forward ------------------------------------------
  {
    // Bench scale: simulation dominates the per-scenario wall clock, which
    // is the regime fault campaigns live in (and the one fast-forward
    // accelerates — host-side setup is not skippable).
    const std::vector<std::string> workloads = {"hotspot", "bfs", "srad"};
    ScenarioSet set;
    for (const std::string& wl : workloads) {
      ScenarioSpec clean = base_spec(wl);
      clean.scale = workloads::Scale::kBench;
      const ScenarioResult probe = exp::run_scenario(clean);
      const Cycle span = probe.ok ? probe.stats.get("cycles") : 100000;
      // Injection points deep into the run: the shared prefix dominates,
      // which is exactly the case snapshot fast-forward accelerates.
      std::vector<FaultPlan> faults = {FaultPlan::none()};
      for (u32 pct : {55, 65, 75, 85, 95})
        faults.push_back(FaultPlan::droop(span * pct / 100, 400, 3));
      set.append(ScenarioSet::of(clean).sweep_faults(faults));
    }

    exp::CampaignRunner::Config plain_cfg;
    plain_cfg.jobs = 1;
    const exp::CampaignResult plain = exp::CampaignRunner(plain_cfg).run(set);

    exp::CampaignRunner::Config ff_cfg;
    ff_cfg.jobs = 1;
    ff_cfg.snapshot_fast_forward = true;
    const exp::CampaignResult ff = exp::CampaignRunner(ff_cfg).run(set);

    bool identical = plain.results.size() == ff.results.size();
    for (size_t i = 0; identical && i < plain.results.size(); ++i)
      identical = plain.results[i].deterministic_fields_equal(ff.results[i]);

    const double speedup =
        ff.wall_sec > 0 ? plain.wall_sec / ff.wall_sec : 0.0;
    std::printf(
        "campaign fast-forward: %zu scenarios, from-scratch %.2fs, "
        "snapshot-ff %.2fs (%.2fx), results %s\n",
        plain.results.size(), plain.wall_sec, ff.wall_sec, speedup,
        identical ? "bit-identical" : "DIFFER (BUG)");

    jw.key("fast_forward");
    jw.begin_object();
    jw.field("scenarios", static_cast<u64>(plain.results.size()));
    jw.field("from_scratch_wall_sec", plain.wall_sec);
    jw.field("snapshot_ff_wall_sec", ff.wall_sec);
    jw.field("speedup", speedup);
    jw.field("bit_identical", identical);
    jw.end_object();
  }

  // ---- 2. Rollback vs retry, every workload ------------------------------
  bool rollback_wins_all = true;
  jw.key("rollback_vs_retry");
  jw.begin_array();
  for (const std::string& wl : workloads::all_names()) {
    const ScenarioResult probe = exp::run_scenario(base_spec(wl));
    if (!probe.ok) {
      std::fprintf(stderr, "%s: probe failed: %s\n", wl.c_str(),
                   probe.error.c_str());
      rollback_wins_all = false;
      continue;
    }
    bool detected = false;
    const FaultPlan plan =
        detected_plan(wl, probe.stats.get("cycles"), &detected);

    ScenarioSpec retry = base_spec(wl);
    retry.fault = plan;
    retry.redundancy = core::RedundancySpec::dcls_retry(2);
    const ScenarioResult r_retry = exp::run_scenario(retry);

    ScenarioSpec rollback = retry;
    rollback.redundancy = core::RedundancySpec::dcls_rollback(2);
    const ScenarioResult r_rb = exp::run_scenario(rollback);

    const bool wins = r_rb.ok && r_retry.ok &&
                      r_rb.response_ns < r_retry.response_ns;
    rollback_wins_all = rollback_wins_all && detected && wins;

    std::printf(
        "%-16s %-22s retry %8.3f ms (%u att%s) | rollback %8.3f ms "
        "(%u att%s) | %s\n",
        wl.c_str(), plan.label().c_str(), bench::ms(r_retry.response_ns),
        r_retry.attempts, r_retry.recovered ? ", rec" : "",
        bench::ms(r_rb.response_ns), r_rb.attempts,
        r_rb.recovered ? ", rec" : "", wins ? "rollback wins" : "RETRY WINS");

    jw.begin_object();
    jw.field("workload", wl);
    jw.field("fault", plan.label());
    jw.field("detected", detected);
    jw.field("retry_response_ns", r_retry.response_ns);
    jw.field("rollback_response_ns", r_rb.response_ns);
    jw.field("retry_recovered", r_retry.recovered);
    jw.field("rollback_recovered", r_rb.recovered);
    jw.field("retry_attempts", r_retry.attempts);
    jw.field("rollback_attempts", r_rb.attempts);
    jw.field("rollback_wins", wins);
    jw.end_object();
  }
  jw.end_array();
  jw.field("rollback_wins_all", rollback_wins_all);
  jw.end_object();

  FILE* f = std::fopen("BENCH_ckpt.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_ckpt.json\n");
    return 1;
  }
  std::fputs((jw.str() + "\n").c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_ckpt.json (rollback_wins_all=%s)\n",
              rollback_wins_all ? "true" : "false");
  return rollback_wins_all ? 0 : 1;
}
