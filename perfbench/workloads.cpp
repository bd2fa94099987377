// The four benchmark workloads.
//
//   kernels-mem     bench-scale DCLS/SRRS runs of the memory-heavy programs
//   kernels-alu     bench-scale DCLS/SRRS runs of the ALU-heavy, launch-heavy
//                   programs
//   fault-campaign  all 19 programs at test scale x {TMR vote, DCLS+retry:2,
//                   DCLS+rollback:2} x 12 fault plans, snapshot fast-forward,
//                   run by CampaignRunner on `threads` threads
//   serve-ckpt      run_serve on one persistent device: three tenants,
//                   bursty arrivals, BIST cadence and interval checkpoints
#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "exp/units.h"
#include "stats.h"
#include "workloads/workload.h"

namespace perfbench {

using namespace higpu;
using exp::FaultPlan;
using exp::ScenarioResult;
using exp::ScenarioSpec;
using Recovery = core::RedundancySpec::Recovery;

// ---- Result accounting ------------------------------------------------------

void hash_result(Fnv& h, const ScenarioResult& r) {
  h.u64(r.index);
  h.str(r.label);
  h.str(r.workload);
  h.u64(r.ok);
  h.str(r.error);
  h.u64(r.verified);
  h.u64(r.dcls_match);
  h.u64(r.majority_ok);
  h.u64(r.comparisons);
  h.u64(r.mismatches);
  h.u64(static_cast<uint64_t>(static_cast<int64_t>(r.faulty_copy)));
  h.u64(r.n_copies);
  h.u64(r.attempts);
  h.u64(r.recovered);
  h.u64(r.degraded);
  h.u64(r.ftti_met);
  h.u64(r.response_ns);
  h.u64(static_cast<uint64_t>(r.achieved_asil));
  h.u64(r.kernel_cycles);
  h.u64(r.elapsed_ns);
  h.u64(r.ff_cycles);
  h.u64(r.diversity.blocks_checked);
  h.u64(r.diversity.same_sm);
  h.u64(r.diversity.same_sm_time_overlap);
  h.u64(r.diversity.time_overlap);
  for (const auto& [name, value] : r.stats.entries()) {
    h.str(name);
    h.u64(value);
  }
  for (const obs::SmCycles& s : r.sm_profile) {
    h.u64(s.issued);
    h.u64(s.scoreboard);
    h.u64(s.barrier);
    h.u64(s.structural);
    h.u64(s.idle);
  }
  h.u64(r.fault_active);
  h.u64(r.corruptions);
  h.u64(r.diverted_blocks);
  h.u64(static_cast<uint64_t>(r.outcome));
}

void hash_serve(Fnv& h, const serve::ServeResult& r) {
  for (const serve::Completion& c : r.completions) {
    h.u64(c.request_id);
    h.u64(c.tenant);
    h.u64(c.level);
    h.u64(c.start_ns);
    h.u64(c.finish_ns);
    h.u64(c.response_ns);
    h.u64(c.deadline_met);
  }
  for (const serve::DegradeTransition& t : r.transitions) {
    h.u64(t.t_ns);
    h.u64(t.from_level);
    h.u64(t.to_level);
    h.u64(static_cast<uint64_t>(t.reason));
    h.u64(t.queue_depth);
  }
  for (const serve::TenantStats& t : r.tenants) {
    h.str(t.name);
    h.u64(t.offered);
    h.u64(t.served);
    h.u64(t.dropped_expired);
    h.u64(t.dropped_overflow);
    h.u64(t.deadline_misses);
    h.u64(t.degraded_served);
  }
  for (uint64_t v : {r.served, r.dropped, r.deadline_misses, r.verify_failures,
                     r.max_queue_depth, r.queue_high_watermark_ns, r.bist_runs,
                     r.bist_failures, r.checkpoints_captured, r.span_ns,
                     r.busy_ns})
    h.u64(v);
}

bool scenario_failed(const ScenarioResult& r) {
  if (!r.ok) return true;
  return !r.fault_active && !(r.verified && r.dcls_match);
}

void Tally::add(const ScenarioResult& r, Recovery recovery) {
  ++ops;
  if (scenario_failed(r)) ++failed;
  const StatSet& s = r.stats;
  insn += s.get("instructions");
  gtx += s.get("global_load_transactions") + s.get("global_store_transactions");
  cycles += s.get("cycles");
  kernel_cycles += r.kernel_cycles;
  ff_cycles += r.ff_cycles;
  elapsed_ns += r.elapsed_ns;
  launches += s.get("kernels_launched");
  block_hits += s.get("block_exec_hits");
  l1_hits += s.get("l1_hits");
  l1_misses += s.get("l1_misses");
  l2_hits += s.get("l2_hits");
  l2_misses += s.get("l2_misses");
  mshr_stall_cycles += s.get("l1_mshr_stall_cycles");
  row_hits += s.get("dram_row_hits");
  row_misses += s.get("dram_row_misses");
  for (const obs::SmCycles& c : r.sm_profile) {
    issued += c.issued;
    stall_sb += c.scoreboard;
    stall_bar += c.barrier;
    stall_struct += c.structural;
  }
  if (!r.fault_active || !r.ok) return;
  ++faulted;
  corruptions += r.corruptions;
  faulted_attempts += r.attempts;
  const bool det = r.outcome == fault::Outcome::kDetected;
  if (det) ++detected;
  if (r.outcome == fault::Outcome::kSdc) ++sdc;
  if (recovery == Recovery::kRollback && r.recovered) ++rollbacks_recovered;
  if (det && (recovery == Recovery::kRetry || recovery == Recovery::kRollback)) {
    ++recoverable_detected;
    if (!r.recovered) ++unrecovered;
  }
}

namespace {

double ratio(uint64_t a, uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

}  // namespace

std::map<std::string, double> layer_metrics(const Tally& t) {
  const uint64_t active = t.issued + t.stall_sb + t.stall_bar + t.stall_struct;
  return {
      {"sim.minsn", static_cast<double>(t.insn) / 1e6},
      {"sim.ff_share", ratio(t.ff_cycles, t.cycles)},
      {"sim.issue_share", ratio(t.issued, active)},
      {"sim.stall_scoreboard_share", ratio(t.stall_sb, active)},
      {"sim.stall_structural_share", ratio(t.stall_struct, active)},
      {"sim.stall_barrier_share", ratio(t.stall_bar, active)},
      {"blockexec.hit_share", ratio(t.block_hits, t.insn)},
      {"memsys.mtx", static_cast<double>(t.gtx) / 1e6},
      {"memsys.tx_per_insn", ratio(t.gtx, t.insn)},
      {"memsys.l1_hit_rate", ratio(t.l1_hits, t.l1_hits + t.l1_misses)},
      {"memsys.l2_hit_rate", ratio(t.l2_hits, t.l2_hits + t.l2_misses)},
      {"memsys.mshr_stall_cycles", static_cast<double>(t.mshr_stall_cycles)},
      {"memsys.dram_row_hit_rate", ratio(t.row_hits, t.row_hits + t.row_misses)},
      {"runtime.launches", static_cast<double>(t.launches)},
      {"modelled_kernel_mcycles", static_cast<double>(t.kernel_cycles) / 1e6},
      {"modelled_elapsed_ms", static_cast<double>(t.elapsed_ns) / 1e6},
      {"core.attempts_per_faulted", ratio(t.faulted_attempts, t.faulted)},
      {"core.rollbacks_recovered", static_cast<double>(t.rollbacks_recovered)},
      {"fault.corruptions", static_cast<double>(t.corruptions)},
      {"fault.detected_share", ratio(t.detected, t.faulted)},
      {"sdc_share", ratio(t.sdc, t.faulted)},
      {"unrecovered_share", ratio(t.unrecovered, t.recoverable_detected)},
      {"error_rate", ratio(t.failed, t.ops)},
  };
}

namespace {

// ---- Traced scenario execution ----------------------------------------------

/// Host time a traced pass saw inside the layers, summed over scenarios.
struct HostSplit {
  double setup_s = 0, sim_s = 0, snapshot_s = 0, restore_s = 0;
  double flow_other_s = 0, harvest_s = 0;
  uint64_t verify_runs = 0, memo_hits = 0;

  void merge(const HostSplit& o) {
    setup_s += o.setup_s;
    sim_s += o.sim_s;
    snapshot_s += o.snapshot_s;
    restore_s += o.restore_s;
    flow_other_s += o.flow_other_s;
    harvest_s += o.harvest_s;
    verify_runs += o.verify_runs;
    memo_hits += o.memo_hits;
  }
  void publish(std::map<std::string, double>& out) const {
    out["workloads.host_setup_s"] = setup_s;
    out["runtime.host_sim_s"] = sim_s;
    out["runtime.host_flow_other_s"] = flow_other_s;
    out["ckpt.host_snapshot_s"] = snapshot_s;
    out["ckpt.host_restore_s"] = restore_s;
    out["exp.host_harvest_s"] = harvest_s;
    out["verify.memo_hit_share"] = ratio(memo_hits, memo_hits + verify_runs);
  }
};

/// run_scenario with pre_run/probe hooks that bracket the workload's device
/// flow: spans for the scenario, its set-up (call -> pre_run), the flow
/// (pre_run -> probe, split by the device's host phases into simulation,
/// snapshot and restore children) and the harvest (probe -> return).
ScenarioResult traced_scenario(const ScenarioSpec& spec, uint32_t index,
                               exp::SnapshotIo* io, const char* span_name,
                               SpanLog& log, int parent, uint32_t tid,
                               HostSplit& split) {
  bool pre_seen = false;
  bool probe_seen = false;
  double t_pre = 0;
  double t_probe = 0;
  obs::HostPhases ph;
  uint64_t vruns = 0;
  uint64_t memo = 0;
  const exp::ScenarioProbe pre = [&](runtime::Device&, workloads::Workload&,
                                     core::ExecSession&) {
    pre_seen = true;
    t_pre = log.now();
  };
  const exp::ScenarioProbe probe = [&](runtime::Device& dev,
                                       workloads::Workload&,
                                       core::ExecSession&) {
    probe_seen = true;
    t_probe = log.now();
    ph = dev.host_phases();
    vruns = dev.verify_runs();
    memo = dev.verify_memo_hits();
  };
  const double t0 = log.now();
  ScenarioResult r = exp::run_scenario(spec, index, probe, pre, io);
  const double t1 = log.now();
  const int s = log.add(span_name, t0, t1, parent, index, tid);
  if (!pre_seen) return r;
  log.add("workloads.setup", t0, t_pre, s, index, tid);
  split.setup_s += t_pre - t0;
  if (!probe_seen) return r;
  const int flow = log.add("runtime.flow", t_pre, t_probe, s, index, tid);
  // The device reports phase totals, not instants: lay the children out
  // back to back from the start of the flow.
  double c = t_pre;
  for (auto [name, secs] : {std::pair{"sim.run", ph.sim_s},
                            std::pair{"ckpt.snapshot", ph.snapshot_s},
                            std::pair{"ckpt.restore", ph.restore_s}}) {
    if (secs <= 0) continue;
    log.add(name, c, c + secs, flow, index, tid);
    c += secs;
  }
  log.add("exp.harvest", t_probe, t1, s, index, tid);
  split.sim_s += ph.sim_s;
  split.snapshot_s += ph.snapshot_s;
  split.restore_s += ph.restore_s;
  split.flow_other_s +=
      std::max(0.0, (t_probe - t_pre) - ph.sim_s - ph.snapshot_s - ph.restore_s);
  split.harvest_s += t1 - t_probe;
  split.verify_runs += vruns;
  split.memo_hits += memo;
  return r;
}

// ---- kernels-mem / kernels-alu ----------------------------------------------

class KernelsWorkload : public Workload {
 public:
  KernelsWorkload(std::vector<std::string> programs, const Config& cfg)
      : programs_(std::move(programs)), cfg_(cfg) {}

  void setup() override {
    specs_.clear();
    for (const std::string& p : programs_) {
      ScenarioSpec s;  // default: SRRS-placed DCLS pair, no fault
      s.workload = p;
      s.scale = workloads::Scale::kBench;
      s.seed = cfg_.seed;
      s.validate();
      // Input generation and the CPU reference, the workloads layer's
      // share of set-up.
      workloads::make(p)->setup(s.scale, s.seed);
      specs_.push_back(std::move(s));
    }
  }

  PassResult run_pass(SpanLog* spans, int parent) override {
    PassResult out;
    Tally t;
    Fnv h;
    HostSplit split;
    for (size_t i = 0; i < specs_.size(); ++i) {
      const auto idx = static_cast<uint32_t>(i);
      const auto t0 = Clock::now();
      const ScenarioResult r =
          spans != nullptr
              ? traced_scenario(specs_[i], idx, nullptr, "exp.scenario",
                                *spans, parent, 0, split)
              : exp::run_scenario(specs_[i], idx);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      out.op_host_ms.push_back(ms);
      out.busy_host_s += ms / 1e3;
      out.sim_host_s += r.sim_wall_sec;
      t.add(r, Recovery::kNone);
      hash_result(h, r);
    }
    out.ops = out.attempted = t.ops;
    out.failed = t.failed;
    out.digest = h.value();
    out.modelled_ms = static_cast<double>(t.elapsed_ns) / 1e6;
    out.det = layer_metrics(t);
    if (spans != nullptr) split.publish(out.traced);
    return out;
  }

 private:
  std::vector<std::string> programs_;
  Config cfg_;
  std::vector<ScenarioSpec> specs_;
};

// ---- fault-campaign ---------------------------------------------------------

/// The three redundancy modes every program runs under.
std::vector<core::RedundancySpec> campaign_modes() {
  return {core::RedundancySpec::tmr(), core::RedundancySpec::dcls_retry(2),
          core::RedundancySpec::dcls_rollback(2)};
}

/// The 12 fault plans of one (program, mode) pair, placed relative to the
/// clean run's kernel cycles `c`; SMs and bits come from `rng`.
///
/// The fourth transient-SM fault stands in for a permanent-SM fault. On
/// programs that address memory through loaded indices (cfd, lavaMD) a
/// permanently corrupted index becomes a stray global address, and the
/// simulator's flat global store grows to cover it (up to 4 GiB, which
/// every snapshot then serializes): one such scenario takes 7 GiB and 11 s,
/// and a third of seeds produce one. Restore the permanent fault once the
/// store bounds stray accesses.
std::vector<FaultPlan> fault_plans(Cycle c, uint32_t num_sms, Rng& rng) {
  const auto bit = [&] { return 2 + static_cast<uint32_t>(rng.next_below(6)); };
  const auto sm = [&] { return static_cast<uint32_t>(rng.next_below(num_sms)); };
  std::vector<FaultPlan> plans{FaultPlan::none()};
  for (Cycle k = 1; k <= 6; ++k)
    plans.push_back(FaultPlan::droop(c * k / 8, 50, bit()));
  for (Cycle k = 0; k < 4; ++k)
    plans.push_back(FaultPlan::transient_sm(sm(), c * (2 * k + 1) / 8, 200,
                                            bit()));
  plans.push_back(FaultPlan::scheduler(
      c / 2, 1 + static_cast<uint32_t>(rng.next_below(num_sms - 1))));
  return plans;
}

class CampaignWorkload : public Workload {
 public:
  explicit CampaignWorkload(const Config& cfg) : cfg_(cfg) {}

  void setup() override {
    const std::vector<core::RedundancySpec> modes = campaign_modes();
    // Clean runs under the seed place the fault windows.
    exp::ScenarioSet golden;
    for (const std::string& w : workloads::all_names())
      for (const core::RedundancySpec& m : modes) {
        ScenarioSpec s;
        s.workload = w;
        s.seed = cfg_.seed;
        s.redundancy = m;
        golden.add(s);
      }
    exp::CampaignRunner::Config rc;
    rc.jobs = cfg_.threads;
    const exp::CampaignResult clean = exp::CampaignRunner(rc).run(golden);

    set_ = exp::ScenarioSet();
    Rng rng(cfg_.seed ^ 0x6a09e667f3bcc909ull);
    for (size_t g = 0; g < golden.size(); ++g) {
      const ScenarioResult& r = clean.results[g];
      if (scenario_failed(r))
        throw std::runtime_error("clean run failed: " + r.label + " " +
                                 r.error);
      for (const FaultPlan& f :
           fault_plans(r.kernel_cycles, golden[g].gpu.num_sms, rng)) {
        ScenarioSpec s = golden[g];
        s.fault = f;
        set_.add(s);
      }
    }
    set_.validate_all();
    reference_.clear();
  }

  PassResult run_pass(SpanLog* spans, int parent) override {
    PassResult out;
    out.threads = cfg_.threads;
    std::vector<ScenarioResult> results;
    if (spans == nullptr) {
      exp::CampaignRunner::Config rc;
      rc.jobs = cfg_.threads;
      rc.snapshot_fast_forward = true;
      results = exp::CampaignRunner(rc).run(set_).results;
    } else {
      results = run_traced(*spans, parent, out);
    }
    Tally t;
    Fnv h;
    for (size_t i = 0; i < results.size(); ++i) {
      const ScenarioResult& r = results[i];
      out.op_host_ms.push_back(r.wall_sec * 1e3);
      out.busy_host_s += r.wall_sec;
      out.sim_host_s += r.sim_wall_sec;
      t.add(r, set_[i].redundancy.recovery);
      hash_result(h, r);
    }
    // The traced pass re-drives every base and fork itself; its results
    // must equal CampaignRunner's field for field.
    if (reference_.empty()) {
      if (spans == nullptr) reference_ = results;
    } else {
      for (size_t i = 0; i < results.size(); ++i)
        if (!results[i].deterministic_fields_equal(reference_[i]))
          out.consistent = false;
    }
    out.ops = out.attempted = t.ops;
    out.failed = t.failed;
    out.digest = h.value();
    out.modelled_ms = static_cast<double>(t.elapsed_ns) / 1e6;
    out.det = layer_metrics(t);
    return out;
  }

 private:
  /// The CampaignRunner schedule (work units pulled by `threads` workers,
  /// one shared clean base per fault group, forks resumed from its
  /// snapshots), driven through run_scenario so the hooks see every base
  /// and fork.
  std::vector<ScenarioResult> run_traced(SpanLog& log, int parent,
                                         PassResult& out) {
    const double tp = log.now();
    const std::vector<exp::WorkUnit> units = exp::plan_units(set_, true);
    log.add("exp.plan", tp, log.now(), parent, 0, 0);

    std::vector<ScenarioResult> results(set_.size());
    std::vector<HostSplit> splits(cfg_.threads);
    std::vector<std::vector<double>> base_ms(cfg_.threads);
    std::vector<std::vector<double>> fork_ms(cfg_.threads);
    std::vector<std::vector<double>> snap_kb(cfg_.threads);
    std::atomic<size_t> next{0};
    const auto ms_since = [&](double t0) { return (log.now() - t0) * 1e3; };

    const auto worker = [&](uint32_t w) {
      const uint32_t tid = w + 1;
      HostSplit& split = splits[w];
      const auto single = [&](size_t i) {
        results[i] = traced_scenario(set_[i], static_cast<uint32_t>(i),
                                     nullptr, "exp.scenario", log, parent, tid,
                                     split);
      };
      for (size_t u = next.fetch_add(1); u < units.size();
           u = next.fetch_add(1)) {
        const exp::WorkUnit& unit = units[u];
        if (!unit.worth_base_run()) {
          for (size_t i : unit.members) single(i);
          continue;
        }
        // Base: the group's fault-free member (or a fault-stripped copy of
        // its first member), capturing at every injection cycle.
        exp::SnapshotIo base_io;
        size_t clean = exp::GroupBase::kSynthetic;
        for (size_t i : unit.members) {
          if (set_[i].fault.active())
            base_io.capture_targets.push_back(set_[i].fault.start);
          else if (clean == exp::GroupBase::kSynthetic)
            clean = i;
        }
        ScenarioSpec base_spec = set_[unit.members[0]];
        size_t base_index = unit.members[0];
        if (clean != exp::GroupBase::kSynthetic) {
          base_spec = set_[clean];
          base_index = clean;
        }
        base_spec.fault = FaultPlan::none();
        const double tb = log.now();
        ScenarioResult base = traced_scenario(
            base_spec, static_cast<uint32_t>(base_index), &base_io, "exp.base",
            log, parent, tid, split);
        base_ms[w].push_back(ms_since(tb));
        for (const ckpt::SnapshotPtr& s : base_io.captured)
          if (s != nullptr) snap_kb[w].push_back(s->size_bytes() / 1024.0);
        if (base_io.final_state != nullptr)
          snap_kb[w].push_back(base_io.final_state->size_bytes() / 1024.0);
        if (clean != exp::GroupBase::kSynthetic) results[clean] = base;

        for (size_t i : unit.members) {
          if (i == clean) continue;
          if (!set_[i].fault.active()) {
            single(i);
            continue;
          }
          exp::SnapshotIo io;
          if (base.ok) {
            const auto& tg = base_io.capture_targets;
            const auto it =
                std::lower_bound(tg.begin(), tg.end(), set_[i].fault.start);
            if (base_io.captured.size() == tg.size() && it != tg.end() &&
                *it == set_[i].fault.start)
              io.resume = base_io.captured[static_cast<size_t>(it - tg.begin())];
            io.divergence_ref = base_io.final_state;
          }
          const double tf = log.now();
          results[i] = traced_scenario(set_[i], static_cast<uint32_t>(i), &io,
                                       "exp.fork", log, parent, tid, split);
          fork_ms[w].push_back(ms_since(tf));
          if (io.final_state != nullptr)
            snap_kb[w].push_back(io.final_state->size_bytes() / 1024.0);
        }
      }
    };
    std::vector<std::thread> pool;
    for (uint32_t w = 0; w < cfg_.threads; ++w) pool.emplace_back(worker, w);
    for (std::thread& th : pool) th.join();

    HostSplit total;
    std::vector<double> bases, forks, kb;
    for (uint32_t w = 0; w < cfg_.threads; ++w) {
      total.merge(splits[w]);
      bases.insert(bases.end(), base_ms[w].begin(), base_ms[w].end());
      forks.insert(forks.end(), fork_ms[w].begin(), fork_ms[w].end());
      kb.insert(kb.end(), snap_kb[w].begin(), snap_kb[w].end());
    }
    total.publish(out.traced);
    out.traced["exp.host_base_ms.p50"] = median(bases);
    out.traced["exp.host_fork_ms.p50"] = median(forks);
    out.traced["ckpt.captures"] = static_cast<double>(kb.size());
    out.traced["ckpt.snapshot_kb.p50"] = median(kb);
    out.traced["ckpt.host_restore_ms_per_fork"] =
        forks.empty() ? 0.0 : total.restore_s * 1e3 / forks.size();
    return results;
  }

  Config cfg_;
  exp::ScenarioSet set_;
  std::vector<ScenarioResult> reference_;  // first untraced pass
};

// ---- serve-ckpt -------------------------------------------------------------

serve::TenantSpec tenant(const char* name, const char* workload,
                         core::RedundancySpec red, uint64_t deadline_ms,
                         uint32_t weight) {
  serve::TenantSpec t;
  t.name = name;
  t.workload = workload;
  t.redundancy = std::move(red);
  t.deadline_ns = deadline_ms * 1'000'000;
  t.weight = weight;
  return t;
}

class ServeWorkload : public Workload {
 public:
  static constexpr uint64_t kStreamSeed = 2019;

  explicit ServeWorkload(const Config& cfg) : cfg_(cfg) {}

  void setup() override {
    serve::ServeSpec s;
    s.traffic.tenants = {
        tenant("camera", "nn", core::RedundancySpec::tmr(), 10, 3),
        tenant("radar", "hotspot", core::RedundancySpec::dcls_retry(2), 30, 2),
        tenant("planner", "bfs", core::RedundancySpec::dcls(), 50, 1)};
    // The arrival stream is one fixed recording: bursty arrivals at 800 rps
    // offered over 300 ms. Replaying it keeps the request count, tenant mix
    // and burst positions the same for every seed; the seed feeds each
    // request's inputs. A fresh stream per seed would move host time by up
    // to 2x between seeds, because every interval checkpoint serializes the
    // whole global store, which is never reset and grows with each request.
    serve::TrafficSpec stream = s.traffic;
    stream.pattern = serve::TrafficSpec::Pattern::kBursty;
    stream.seed = kStreamSeed;
    stream.offered_rps = 800.0;
    stream.duration_ns = 300'000'000;
    s.traffic.pattern = serve::TrafficSpec::Pattern::kTrace;
    s.traffic.trace = stream.generate();
    s.traffic.seed = cfg_.seed;
    s.bist_interval_ns = 100'000'000;
    s.ckpt_interval_cycles = 20'000;
    s.validate();
    offered_ = s.traffic.generate().size();
    spec_ = std::move(s);
  }

  PassResult run_pass(SpanLog* spans, int parent) override {
    PassResult out;
    const double t0 = spans != nullptr ? spans->now() : 0.0;
    const auto c0 = Clock::now();
    const serve::ServeResult r = serve::run_serve(spec_);
    out.busy_host_s = std::chrono::duration<double>(Clock::now() - c0).count();
    if (spans != nullptr) spans->add("serve.run", t0, spans->now(), parent, 0, 0);

    Fnv h;
    hash_serve(h, r);
    out.requests = true;
    out.ops = out.attempted = r.served;
    out.failed = r.verify_failures;
    out.digest = h.value();
    out.modelled_ms = static_cast<double>(r.busy_ns) / 1e6;

    std::vector<double> resp, wait;
    for (const serve::Completion& c : r.completions)
      resp.push_back(static_cast<double>(c.response_ns) / 1e6);
    for (const serve::Completion& c : r.completions) {
      const uint64_t arrival = c.finish_ns - c.response_ns;
      wait.push_back(static_cast<double>(c.start_ns - arrival) / 1e6);
    }
    uint64_t offered = 0;
    for (const serve::TenantStats& t : r.tenants) offered += t.offered;
    auto& d = out.det;
    d["modelled_response_ms.p50"] = median(resp);
    d["modelled_response_ms.p95"] = qualified_percentile(resp, 95.0);
    d["deadline_miss_share"] = ratio(r.deadline_misses + r.dropped, offered);
    d["serve.modelled_queue_wait_ms.p95"] = qualified_percentile(wait, 95.0);
    d["serve.utilization"] = r.utilization();
    d["serve.max_queue_depth"] = static_cast<double>(r.max_queue_depth);
    d["serve.degrade_transitions"] = static_cast<double>(r.transitions.size());
    d["serve.shed"] = static_cast<double>(r.dropped);
    d["safety.bist_runs"] = static_cast<double>(r.bist_runs);
    d["ckpt.captures"] = static_cast<double>(r.checkpoints_captured);
    d["serve.checkpoints_per_request"] = ratio(r.checkpoints_captured, r.served);
    d["error_rate"] = ratio(r.verify_failures, r.served);
    if (offered != offered_) out.consistent = false;
    return out;
  }

 private:
  Config cfg_;
  serve::ServeSpec spec_;
  uint64_t offered_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"kernels-mem", "kernels-alu",
                                              "fault-campaign", "serve-ckpt"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& cfg) {
  if (name == "kernels-mem")
    return std::make_unique<KernelsWorkload>(
        std::vector<std::string>{"streamcluster", "b+tree", "particlefilter",
                                 "bfs"},
        cfg);
  if (name == "kernels-alu")
    return std::make_unique<KernelsWorkload>(
        std::vector<std::string>{"hotspot3D", "leukocyte", "lud", "myocyte",
                                 "lavaMD", "gaussian"},
        cfg);
  if (name == "fault-campaign") return std::make_unique<CampaignWorkload>(cfg);
  if (name == "serve-ckpt") return std::make_unique<ServeWorkload>(cfg);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (kernels-mem, kernels-alu, fault-campaign, "
                              "serve-ckpt, all)");
}

}  // namespace perfbench
