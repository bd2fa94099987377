#include "exp/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/table.h"
#include "exp/result_io.h"
#include "exp/units.h"

namespace higpu::exp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

bool ScenarioResult::deterministic_fields_equal(
    const ScenarioResult& other) const {
  // Compare copies with the diagnosis and host-timing fields cleared.
  auto deterministic = [](ScenarioResult r) {
    r.divergence.clear();
    r.wall_sec = r.sim_wall_sec = 0.0;
    return r;
  };
  return deterministic(*this) == deterministic(other);
}

ScenarioResult run_scenario(const ScenarioSpec& spec, u32 index,
                            const ScenarioProbe& probe,
                            const ScenarioProbe& pre_run, SnapshotIo* snap) {
  ScenarioResult r;
  r.index = index;
  r.label = spec.label();
  r.workload = spec.workload;
  r.fault_active = spec.fault.active();

  const auto t0 = Clock::now();
  try {
    spec.validate();

    workloads::WorkloadPtr w = workloads::make(spec.workload);
    w->setup(spec.scale, spec.seed);

    runtime::Device dev(spec.gpu, spec.platform);
    if (spec.ckpt.active()) dev.set_checkpoint_policy(spec.ckpt);
    if (snap != nullptr) {
      if (!snap->capture_targets.empty())
        dev.set_checkpoint_targets(snap->capture_targets);
      if (snap->resume != nullptr) dev.arm_resume(snap->resume);
    }
    fault::FaultInjector injector;
    if (spec.fault.active()) {
      spec.fault.arm(injector);
      dev.gpu().set_fault_hook(&injector);
    }

    core::ExecSession session(dev, spec.session_config());
    if (pre_run) pre_run(dev, *w, session);
    workloads::RunContext ctx(session);
    // The session owns the recovery loop: detect -> re-execute -> FTTI
    // accounting, for every workload (not just ad-hoc bodies).
    const core::ExecSession::Report srep =
        session.run([&](core::ExecSession&) { w->run(ctx); });
    // The probe fires directly after the workload's (possibly retried)
    // run, before the result harvest below, so pre_run/probe pairs bracket
    // exactly the workload's device flow (engine benches time this
    // interval).
    if (probe) probe(dev, *w, session);

    r.verified = w->verify();
    r.dcls_match = session.all_unanimous();
    r.majority_ok = session.all_safe();
    r.comparisons = session.comparisons();
    r.mismatches = session.mismatches();
    r.faulty_copy = session.faulty_copy();
    r.n_copies = session.copies();
    r.attempts = srep.attempts;
    r.recovered = srep.attempts > 1 && srep.success;
    r.degraded = srep.degraded;
    r.ftti_met = srep.budget.met();
    r.response_ns = srep.total_ns;
    r.achieved_asil = srep.asil;
    r.kernel_cycles = session.kernel_cycles();
    r.elapsed_ns = dev.elapsed_ns();
    r.ff_cycles = dev.gpu().fast_forwarded_cycles();
    r.sim_wall_sec = dev.sim_wall_seconds();
    if (spec.redundancy.redundant())
      r.diversity = core::analyze_block_diversity(dev.gpu().block_records(),
                                                  session.all_copy_pairs());
    r.stats = dev.gpu().collect_stats();
    r.sm_profile = dev.gpu().sm_profile();
    r.corruptions = injector.corruptions();
    r.diverted_blocks = injector.diverted_blocks();
    // A retry that came back clean still *detected* the fault on an
    // earlier attempt — that must classify as kDetected, never kMasked.
    const bool detected = !session.all_unanimous() || r.attempts > 1;
    r.outcome = fault::classify(!detected, r.verified);
    if (snap != nullptr) {
      snap->capture_targets = dev.targets();  // canonical sorted order
      snap->captured = dev.target_snapshots();
      snap->final_state = dev.snapshot();
      if (snap->divergence_ref != nullptr)
        r.divergence =
            ckpt::first_divergence(*snap->divergence_ref, *snap->final_state);
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.wall_sec = seconds_since(t0);
  return r;
}

namespace {

/// Dynamic superop coverage of one run: share of issued instructions that
/// dispatched through a compiled superop (block engine only; hits plus
/// fallback exits is every issued instruction). Derived for reporting — the
/// raw counters live in the StatSet.
double block_coverage_pct(const StatSet& s) {
  const double hits = static_cast<double>(s.get("block_exec_hits"));
  const double total = hits + static_cast<double>(s.get("block_fallback_exits"));
  return total > 0 ? 100.0 * hits / total : 0.0;
}

/// (column, cell) pairs of one CSV row: every scalar field of the result in
/// visitor order (nested records, vectors and the StatSet are skipped),
/// then `passed` and the selected stat columns.
std::vector<std::pair<std::string, std::string>> csv_row(
    const ScenarioResult& r) {
  std::vector<std::pair<std::string, std::string>> row;
  visit_fields(r, [&row](const char* name, const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (CountedEnum<T>)
      row.emplace_back(name, enum_name(v));
    else if constexpr (std::is_same_v<T, bool>)
      row.emplace_back(name, v ? "true" : "false");
    else if constexpr (std::is_same_v<T, std::string>)
      row.emplace_back(name, v);
    else if constexpr (std::is_arithmetic_v<T>)
      row.emplace_back(name, std::to_string(v));
  });
  row.emplace_back("passed", r.passed() ? "true" : "false");
  for (const char* stat :
       {"instructions", "block_exec_hits", "block_fallback_exits",
        "cycles_issued", "cycles_stall_scoreboard", "cycles_stall_barrier",
        "cycles_stall_structural"})
    row.emplace_back(stat, std::to_string(r.stats.get(stat)));
  row.emplace_back("block_coverage_pct",
                   std::to_string(block_coverage_pct(r.stats)));
  return row;
}

}  // namespace

u32 CampaignResult::failed() const {
  u32 n = 0;
  for (const ScenarioResult& r : results)
    if (!r.passed()) ++n;
  return n;
}

bool CampaignResult::all_passed() const { return failed() == 0; }

std::string CampaignResult::to_json() const {
  JsonWriter jw;
  jw.begin_object();
  jw.field("schema", std::string("higpu.campaign/2"));
  jw.field("scenarios", static_cast<u64>(results.size()));
  jw.field("jobs", jobs);
  jw.field("wall_sec", wall_sec);
  jw.field("scenarios_per_sec", scenarios_per_sec());
  jw.field("failed", failed());
  jw.key("results");
  jw.begin_array();
  for (const ScenarioResult& r : results) {
    jw.begin_object();
    put_result_fields(jw, r);
    jw.field("passed", r.passed());
    jw.field("block_superop_coverage_pct", block_coverage_pct(r.stats));
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  return jw.str() + "\n";
}

std::string CampaignResult::to_csv() const {
  std::vector<std::string> header;
  for (auto& [column, cell] : csv_row(ScenarioResult{}))
    header.push_back(std::move(column));
  TextTable table(std::move(header));
  for (const ScenarioResult& r : results) {
    std::vector<std::string> cells;
    for (auto& [column, cell] : csv_row(r)) cells.push_back(std::move(cell));
    table.add_row(std::move(cells));
  }
  return table.render_csv();
}

namespace {

/// Execute one fault-sweep group with a shared clean base run, via the
/// exp/units.h helpers also used by the distributed coordinator. Members
/// whose snapshot is unavailable (the base finished before the target, or
/// the base itself failed) fall back to from-scratch execution, so
/// fast-forward is purely an acceleration: per-scenario results never
/// depend on it.
void run_ff_group(const ScenarioSet& set, const std::vector<size_t>& members,
                  const std::function<void(const ScenarioResult&)>& report,
                  std::vector<ScenarioResult>& results) {
  const GroupBase base = run_group_base(set, members);
  if (base.result_index != GroupBase::kSynthetic) {
    results[base.result_index] = base.result;
    report(results[base.result_index]);
  }
  for (size_t i : members) {
    if (i == base.result_index) continue;
    results[i] = set[i].fault.active()
                     ? run_fork(set, i, base)
                     : run_scenario(set[i], static_cast<u32>(i));
    report(results[i]);
  }
}

}  // namespace

CampaignResult CampaignRunner::run(const ScenarioSet& set) const {
  set.validate_all();

  CampaignResult out;
  out.results.resize(set.size());
  u32 jobs = cfg_.jobs != 0 ? cfg_.jobs : std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  jobs = std::min<u32>(jobs, set.empty() ? 1 : static_cast<u32>(set.size()));
  out.jobs = jobs;

  // Work units: normally one scenario each; under snapshot fast-forward,
  // scenarios differing only in their fault plan coalesce into one unit
  // that shares a clean base simulation (>= 2 faulted members make the
  // base run worthwhile). Unit discovery is deterministic, and results are
  // stored at each scenario's index, so campaign output remains
  // bit-identical regardless of jobs or fast-forward.
  const std::vector<WorkUnit> units =
      plan_units(set, cfg_.snapshot_fast_forward);

  const auto t0 = Clock::now();
  std::atomic<size_t> next{0};
  std::mutex report_mutex;

  const auto report = [&](const ScenarioResult& r) {
    if (cfg_.on_result) {
      std::lock_guard<std::mutex> lock(report_mutex);
      cfg_.on_result(r);
    }
  };

  auto worker = [&] {
    for (size_t u = next.fetch_add(1); u < units.size();
         u = next.fetch_add(1)) {
      const WorkUnit& unit = units[u];
      if (unit.worth_base_run()) {
        run_ff_group(set, unit.members, report, out.results);
        continue;
      }
      for (size_t i : unit.members) {
        ScenarioResult r = run_scenario(set[i], static_cast<u32>(i));
        report(r);
        out.results[i] = std::move(r);
      }
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (u32 t = 0; t < jobs; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  out.wall_sec = seconds_since(t0);
  return out;
}

}  // namespace higpu::exp
