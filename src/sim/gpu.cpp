#include "sim/gpu.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/blockexec.h"

namespace higpu::sim {

Gpu::Gpu(const GpuParams& params, memsys::GlobalStore* store)
    : params_(params),
      store_(store),
      mem_(params.num_sms, params.mem),
      sm_wake_(params.num_sms, kNeverCycle) {
  assert(store != nullptr);
  sms_.reserve(params.num_sms);
  for (u32 i = 0; i < params.num_sms; ++i) {
    sms_.push_back(std::make_unique<SmCore>(i, params_, &mem_, store_));
    sms_.back()->set_block_done_callback(
        [this](const BlockRecord& rec) { on_block_done(rec); });
  }
}

void Gpu::set_kernel_scheduler(std::unique_ptr<IKernelScheduler> sched) {
  ksched_ = std::move(sched);
}

void Gpu::set_fault_hook(IFaultHook* hook) {
  fault_ = hook;
  for (auto& sm : sms_) sm->set_fault_hook(hook);
}

void Gpu::set_trace_sink(ITraceSink* sink) {
  for (auto& sm : sms_) sm->set_trace_sink(sink);
}

void Gpu::set_obs_tracer(obs::Tracer* t) {
  obs_ = t;
  obs_kernel_track_ = 0;
  if (t != nullptr) {
    obs_kernel_track_ = t->track("kernels", obs::kPidDevice);
    for (u32 i = 0; i < sms_.size(); ++i)
      sms_[i]->set_obs_tracer(t, t->track("sm" + std::to_string(i),
                                          obs::kPidDevice));
  } else {
    for (auto& sm : sms_) sm->set_obs_tracer(nullptr, 0);
  }
  mem_.set_obs_tracer(t);
}

std::vector<obs::SmCycles> Gpu::sm_profile() const {
  std::vector<obs::SmCycles> out;
  out.reserve(sms_.size());
  for (const auto& sm : sms_) out.push_back(sm->cycle_breakdown(cycle_));
  return out;
}

void Gpu::set_warp_sched_policy(WarpSchedPolicy p) {
  for (auto& sm : sms_) sm->set_warp_sched_policy(p);
}

u32 Gpu::launch(KernelLaunch launch) {
  // Always-on launch validation (formerly NDEBUG-masked asserts): these are
  // host-API usage errors, not program defects, so the static verifier
  // cannot prove them away — a release build must refuse them too.
  if (ksched_ == nullptr)
    throw std::invalid_argument("set a kernel scheduler before launching");
  if (launch.program == nullptr)
    throw std::invalid_argument("kernel launch has no program");
  if (launch.total_blocks() == 0 || launch.threads_per_block() == 0)
    throw std::invalid_argument("kernel '" + launch.program->name() +
                                "': empty grid or block");
  if (launch.threads_per_block() >
      params_.max_warps_per_sm * params_.warp_size)
    throw std::invalid_argument("kernel '" + launch.program->name() +
                                "': thread block larger than an SM");
  if (launch.params.size() < launch.program->num_params())
    throw std::invalid_argument(
        "kernel '" + launch.program->name() + "': launch passes " +
        std::to_string(launch.params.size()) + " parameter(s), program "
        "declares " + std::to_string(launch.program->num_params()));

  auto slot = std::make_unique<LaunchSlot>();
  const u32 id = static_cast<u32>(launches_.size());
  slot->launch = std::move(launch);
  attach_trace(slot->launch);
  slot->state.launch_id = id;
  slot->state.total_blocks = slot->launch.total_blocks();
  last_arrival_ = std::max(cycle_, last_arrival_) + params_.launch_gap_cycles;
  slot->state.arrival = last_arrival_;
  launches_.push_back(std::move(slot));
  state_ptrs_.push_back(&launches_.back()->state);
  stats_.add("kernels_launched");
  return id;
}

bool Gpu::idle() const {
  return kernels_finished_ == launches_.size();
}

void Gpu::attach_trace(KernelLaunch& launch) {
  if (params_.exec_mode != ExecMode::kBlock) return;
  launch.trace = blockexec::trace_for(launch.program);
  // Compilation statistics come from the (deterministic) trace metadata,
  // counted once per launch — never from cache misses, whose hit pattern
  // depends on what else the process ran and would break run-to-run
  // stat determinism.
  stats_.add("blocks_compiled", launch.trace->num_blocks());
  stats_.add("superops_compiled", launch.trace->num_superops());
  stats_.add("block_fused_runs", launch.trace->num_fused_runs());
  stats_.add("block_static_insns", launch.trace->size());
}

void Gpu::step() {
  // Dense stepping changes SM state behind the event bookkeeping's back;
  // the next run_event entry must rebuild its active set.
  event_primed_ = false;
  cycle_ += 1;
  dispatched_this_cycle_ = false;
  if (ksched_) ksched_->dispatch(*this);
  for (auto& sm : sms_) {
    sm->set_use_wake_records(false);  // faithful dense semantics
    sm->cycle(cycle_);
  }
}

Cycle Gpu::run_until_idle(u64 max_cycles) {
  return params_.engine == SimEngine::kDense ? run_dense(max_cycles)
                                             : run_event(max_cycles);
}

Cycle Gpu::run_dense(u64 max_cycles) {
  const Cycle limit = cycle_ + max_cycles;
  for (auto& sm : sms_) sm->set_use_wake_records(false);
  while (!idle()) {
    // Loop top: all cycles <= cycle_ fully processed — the dense capture
    // point (targets <= cycle_ fire before cycle_ + 1 is simulated).
    maybe_checkpoint(cycle_ + 1);
    if (cycle_ >= limit)
      throw SimTimeout("GPU did not drain within cycle budget (scheduler deadlock?)");
    step();
  }
  return cycle_;
}

Cycle Gpu::next_kernel_arrival() {
  // Arrivals are assigned in monotonically increasing order at launch(), so
  // a cursor over the prefix already visible at cycle_ is exact.
  while (arrival_cursor_ < launches_.size() &&
         launches_[arrival_cursor_]->state.arrival <= cycle_)
    ++arrival_cursor_;
  return arrival_cursor_ < launches_.size()
             ? launches_[arrival_cursor_]->state.arrival
             : kNeverCycle;
}

void Gpu::wake_sm(u32 sm, Cycle when) {
  if (!event_running_ || when >= sm_wake_[sm]) return;
  sm_wake_[sm] = when;
  wake_heap_.push({when, sm});
}

Cycle Gpu::run_event(u64 max_cycles) {
  const Cycle limit = cycle_ + max_cycles;
  event_running_ = true;
  for (auto& sm : sms_) sm->set_use_wake_records(true);
  if (!event_primed_) {
    // (Re)build the active set. Host code may have stepped the GPU densely
    // since the last run, so start every resident SM on the next cycle and
    // let the first ticks establish real wake times. A restored snapshot
    // arrives primed (wake times, heap and dispatch_wake_ deserialized) and
    // skips this, resuming exactly where the captured run left off.
    sm_wake_.assign(num_sms(), kNeverCycle);
    wake_heap_ = {};
    for (u32 i = 0; i < num_sms(); ++i)
      if (!sms_[i]->idle()) wake_sm(i, cycle_ + 1);
    dispatch_wake_ = cycle_ + 1;
    event_primed_ = true;
  }

  while (!idle()) {
    // Earliest future event: dispatch recheck, kernel arrival, SM wake, or
    // fault-window boundary. SMs due on the very next cycle (the common
    // case while work is flowing) bypass the heap entirely; the heap only
    // holds true sleeps.
    Cycle next = std::min(dispatch_wake_, next_kernel_arrival());
    while (!wake_heap_.empty()) {
      const auto [when, sm] = wake_heap_.top();
      if (when != sm_wake_[sm]) {  // stale heap entry
        wake_heap_.pop();
        continue;
      }
      next = std::min(next, when);
      break;
    }
    if (fault_ != nullptr)
      next = std::min(next, fault_->next_trigger_cycle(cycle_));

    // Capture checkpoints the jump to `next` would move past. The clock is
    // still at the last processed event, so the captured state resumes by
    // recomputing this very jump — fast-forward accounting included.
    maybe_checkpoint(next);

    if (next > limit) {
      // The dense loop would have ticked quiescently up to `limit` before
      // throwing; replay its accounting so statistics stay bit-identical.
      for (auto& sm : sms_) sm->settle_to(limit);
      cycle_ = limit;
      event_running_ = false;
      event_primed_ = false;
      throw SimTimeout("GPU did not drain within cycle budget (scheduler deadlock?)");
    }

    ff_cycles_ += next - cycle_ - 1;
    cycle_ = next;
    dispatched_this_cycle_ = false;
    // Dispatch first, exactly as in the dense loop. A dispatch may wake a
    // sleeping SM for this very cycle (wake_sm via try_dispatch_block).
    if (ksched_) ksched_->dispatch(*this);
    bool progress = dispatched_this_cycle_;

    bool any_next_cycle = false;
    for (u32 i = 0; i < num_sms(); ++i) {
      if (sm_wake_[i] > cycle_) continue;
      SmCore& sm = *sms_[i];
      sm.cycle(cycle_);
      if (sm.progressed()) {
        // State changed; other warps (or the scheduler) may act next cycle.
        sm_wake_[i] = cycle_ + 1;
        progress = true;
        any_next_cycle = true;
      } else {
        sm_wake_[i] = sm.next_event_cycle();
        if (sm_wake_[i] != kNeverCycle) wake_heap_.push({sm_wake_[i], i});
      }
    }

    // Any progress (issue, completion, block placement) can change the next
    // dispatch decision, so re-run the kernel scheduler one cycle later.
    // With no progress, only a kernel arrival or an SM wake can unblock it —
    // both are events already in the computation above.
    dispatch_wake_ = (progress || any_next_cycle) ? cycle_ + 1 : kNeverCycle;
  }
  event_running_ = false;
  return cycle_;
}

void Gpu::set_checkpoint_targets(std::vector<Cycle> targets) {
  std::sort(targets.begin(), targets.end());
  ckpt_targets_ = std::move(targets);
  ckpt_target_idx_ = 0;
  // Never capture "in the past": a target below the current clock would
  // yield a snapshot that does not cover it.
  while (ckpt_target_idx_ < ckpt_targets_.size() &&
         ckpt_targets_[ckpt_target_idx_] < cycle_)
    ++ckpt_target_idx_;
}

void Gpu::set_checkpoint_interval(u64 cycles) {
  ckpt_interval_ = cycles;
  if (cycles == 0) {
    ckpt_next_interval_ = kNeverCycle;
    return;
  }
  ckpt_next_interval_ = (cycle_ / cycles + 1) * cycles;
}

void Gpu::maybe_checkpoint(Cycle horizon) {
  if (!ckpt_hook_) return;
  // `horizon` is the next cycle the loop will actually simulate. A target T
  // with T <= horizon fires now, while the clock is still strictly below T
  // (nothing in (now(), T) exists to simulate), so the snapshot predates
  // every possible event at cycles >= T — including a fault window a forked
  // run arms to open exactly at T.
  while (ckpt_target_idx_ < ckpt_targets_.size() &&
         ckpt_targets_[ckpt_target_idx_] <= horizon) {
    ckpt_hook_(ckpt_targets_[ckpt_target_idx_], /*is_target=*/true);
    ++ckpt_target_idx_;
  }
  while (ckpt_interval_ != 0 && ckpt_next_interval_ <= horizon) {
    ckpt_hook_(ckpt_next_interval_, /*is_target=*/false);
    ckpt_next_interval_ += ckpt_interval_;
  }
}

bool Gpu::sm_can_accept(u32 sm, const KernelLaunch& launch) const {
  return sms_[sm]->can_accept(launch);
}

bool Gpu::all_sms_drained() const {
  for (const auto& sm : sms_)
    if (!sm->idle()) return false;
  return true;
}

const KernelLaunch& Gpu::launch_of(u32 launch_id) const {
  return launches_[launch_id]->launch;
}

bool Gpu::priors_finished(u32 launch_id) const {
  for (u32 i = 0; i < launch_id; ++i)
    if (!launches_[i]->state.finished()) return false;
  return true;
}

bool Gpu::stream_ready(const KernelState& ks) const {
  const u32 stream = launches_[ks.launch_id]->launch.stream;
  for (u32 i = 0; i < ks.launch_id; ++i)
    if (launches_[i]->launch.stream == stream && !launches_[i]->state.finished())
      return false;
  return true;
}

bool Gpu::try_dispatch_block(KernelState& ks, u32 sm) {
  if (dispatched_this_cycle_) return false;
  if (ks.fully_dispatched()) return false;
  assert(sm < num_sms());

  u32 actual_sm = sm;
  if (fault_ != nullptr && fault_->armed())
    actual_sm = fault_->corrupt_block_mapping(sm, num_sms(), cycle_);

  const KernelLaunch& launch = launches_[ks.launch_id]->launch;
  if (!sms_[actual_sm]->can_accept(launch)) return false;

  if (!ks.started()) ks.first_dispatch_cycle = cycle_;
  sms_[actual_sm]->accept_block(launch, ks.launch_id, ks.blocks_dispatched, sm,
                                cycle_);
  if (fault_ != nullptr && actual_sm != sm) fault_->on_block_diverted(sm, actual_sm);
  ks.blocks_dispatched += 1;
  dispatched_this_cycle_ = true;
  // The target SM must simulate this cycle so the new block's warps can
  // start issuing exactly when the dense loop would run them.
  wake_sm(actual_sm, cycle_);
  stats_.add("blocks_dispatched");
  return true;
}

const KernelState& Gpu::kernel_state(u32 launch_id) const {
  return launches_[launch_id]->state;
}

Cycle Gpu::kernel_cycles(u32 launch_id) const {
  const KernelState& ks = launches_[launch_id]->state;
  assert(ks.finished());
  return ks.done_cycle - ks.first_dispatch_cycle;
}

void Gpu::on_block_done(const BlockRecord& rec) {
  records_.push_back(rec);
  KernelState& ks = launches_[rec.launch_id]->state;
  ks.blocks_done += 1;
  if (ks.finished()) {
    ks.done_cycle = cycle_;
    kernels_finished_ += 1;
    stats_.add("kernels_completed");
    if (obs_ != nullptr)
      obs_->emit(obs_kernel_track_, obs::Ev::kKernel, ks.first_dispatch_cycle,
                 ks.done_cycle - ks.first_dispatch_cycle, rec.launch_id,
                 ks.total_blocks);
  }
}

template <class Ar, class S, class ProgIo>
void Gpu::io_state(Ar& ar, S& s, ProgIo&& prog_io) {
  ar.begin_section("gpu");
  ar.io(s.cycle_);
  ar.io(s.last_arrival_);
  ar.io(s.last_dispatch_cycle_);
  ar.io(s.dispatched_this_cycle_);
  ar.io(s.ff_cycles_);
  ar.io(s.event_primed_);
  ar.io(s.dispatch_wake_);
  // sm_wake_ is sized at construction (all asleep), so a device that never
  // ran the event engine stores the same table it restores. The wake heap
  // is not stored: restore rebuilds it from sm_wake_.
  ar.io(s.sm_wake_);
  ar.io(ckpt::as<u64>(s.arrival_cursor_));
  ar.io(s.kernels_finished_);

  ar.io(s.launches_, [&prog_io](auto& a, auto& slot) {
    if constexpr (Ar::kReading) slot = std::make_unique<LaunchSlot>();
    auto& l = slot->launch;
    prog_io(a, l.program);
    a.io(l.grid.x);
    a.io(l.grid.y);
    a.io(l.grid.z);
    a.io(l.block.x);
    a.io(l.block.y);
    a.io(l.block.z);
    a.io(l.params);
    a.io(l.hints.start_sm);
    a.io(l.hints.sm_mask);
    a.io(l.stream);
    a.io(l.tag);
    auto& ks = slot->state;
    a.io(ks.launch_id);
    a.io(ks.arrival);
    a.io(ks.blocks_dispatched);
    a.io(ks.blocks_done);
    a.io(ks.total_blocks);
    a.io(ks.first_dispatch_cycle);
    a.io(ks.done_cycle);
  });

  ar.io(s.records_, [](auto& a, auto& rec) {
    a.io(rec.launch_id);
    a.io(rec.block_linear);
    a.io(rec.sm);
    a.io(rec.intended_sm);
    a.io(rec.dispatch_cycle);
    a.io(rec.end_cycle);
  });

  auto stats = s.stats_.entries();
  ar.io(stats, [](auto& a, auto& e) {
    a.io(e.first);
    a.io(e.second);
  });
  if constexpr (Ar::kReading) {
    s.stats_ = StatSet{};
    for (const auto& [name, value] : stats) s.stats_.set(name, value);
  }
  ar.end_section();
}

void Gpu::save(
    ckpt::Writer& w,
    const std::function<u32(const isa::ProgramPtr&)>& program_ref) const {
  io_state(w, *this, [&](ckpt::Writer& a, const isa::ProgramPtr& p) {
    a.io(program_ref(p));
  });

  w.begin_section("sched");
  w.put_string(ksched_ ? ksched_->name() : "");
  if (ksched_) ksched_->save_state(w);
  w.end_section();

  for (u32 i = 0; i < num_sms(); ++i) {
    w.begin_section("sm" + std::to_string(i));
    sms_[i]->save(w);
    w.end_section();
  }

  mem_.save(w);

  w.begin_section("fault");
  w.putb(fault_ != nullptr);
  if (fault_ != nullptr) fault_->save_state(w);
  w.end_section();
}

void Gpu::restore(ckpt::Reader& r,
                  const std::function<isa::ProgramPtr(u32)>& program_of,
                  bool restore_fault) {
  io_state(r, *this, [&](ckpt::Reader& a, isa::ProgramPtr& p) {
    u32 idx = 0;
    a.io(idx);
    p = program_of(idx);
  });
  if (sm_wake_.size() != sms_.size())
    throw ckpt::SnapshotError("snapshot SM count mismatch");
  // Rebuild the heap from the normalized wake times. Pop order is a strict
  // (cycle, sm) order regardless of the heap's internal layout, so this is
  // behaviourally identical to the captured heap minus its stale entries.
  wake_heap_ = {};
  for (u32 i = 0; i < sm_wake_.size(); ++i)
    if (sm_wake_[i] != kNeverCycle) wake_heap_.push({sm_wake_[i], i});
  state_ptrs_.clear();
  for (const auto& slot : launches_) {
    state_ptrs_.push_back(&slot->state);
    // Traces are derived state: rebuilt (via the process-wide cache), not
    // deserialized. The compile-time stats ride in the stats_ snapshot, so
    // no attach_trace() accounting here. Must happen before the SMs are
    // restored — they re-derive warp.ctrace from the launch.
    if (params_.exec_mode == ExecMode::kBlock)
      slot->launch.trace = blockexec::trace_for(slot->launch.program);
  }

  r.begin_section("sched");
  const std::string sched_name = r.get_string();
  if ((ksched_ ? ksched_->name() : "") != sched_name)
    throw ckpt::SnapshotError(
        "snapshot kernel scheduler mismatch: captured '" + sched_name +
        "', installed '" + (ksched_ ? ksched_->name() : "") + "'");
  if (ksched_) ksched_->restore_state(r);
  r.end_section();

  const auto launch_of = [this](u32 id) -> const KernelLaunch* {
    return &launches_.at(id)->launch;
  };
  for (u32 i = 0; i < num_sms(); ++i) {
    r.begin_section("sm" + std::to_string(i));
    sms_[i]->restore(r, launch_of);
    r.end_section();
  }

  mem_.restore(r);

  r.begin_section("fault");
  const bool had_fault = r.getb();
  if (had_fault && restore_fault && fault_ != nullptr)
    fault_->restore_state(r);
  else
    // Either no hook is installed now, or a rollback restore deliberately
    // leaves the environment un-rewound: drop the serialized hook state.
    r.skip_to_section_end();
  r.end_section();

  // A restored run arms its own capture triggers; never fire for points the
  // restored clock has already passed.
  std::vector<Cycle> targets = std::move(ckpt_targets_);
  set_checkpoint_targets(std::move(targets));
  set_checkpoint_interval(ckpt_interval_);
}

StatSet Gpu::collect_stats() const {
  StatSet all = stats_;
  all.merge(mem_.stats());
  for (const auto& sm : sms_) all.merge(sm->snapshot_stats());
  all.set("cycles", cycle_);
  return all;
}

}  // namespace higpu::sim
