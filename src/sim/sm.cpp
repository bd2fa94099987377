#include "sim/sm.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "memsys/coalescer.h"
#include "sim/blockexec.h"
#include "sim/executor.h"

namespace higpu::sim {

using isa::Instruction;
using isa::Op;
using isa::UnitClass;

SmCore::SmCore(u32 sm_id, const GpuParams& params, memsys::MemHierarchy* mem,
               memsys::GlobalStore* store)
    : sm_id_(sm_id), params_(params), mem_(mem), store_(store) {
  blocks_.resize(params.max_blocks_per_sm);
  warps_.resize(params.max_warps_per_sm);
  last_issued_.assign(params.num_warp_schedulers, -1);
  sched_order_.resize(params.num_warp_schedulers);
  for (auto& order : sched_order_) order.reserve(params.max_warps_per_sm);
  warp_stall_.assign(params.max_warps_per_sm, StallRec{});
}

u32 SmCore::warps_needed(const GpuParams& p, const KernelLaunch& l) {
  return ceil_div(l.threads_per_block(), p.warp_size);
}

u32 SmCore::regs_needed(const GpuParams& p, const KernelLaunch& l) {
  // Register allocation granularity: full warps.
  return warps_needed(p, l) * p.warp_size * l.program->num_regs();
}

bool SmCore::can_accept(const KernelLaunch& launch) const {
  if (blocks_used_ >= params_.max_blocks_per_sm) return false;
  const u32 w = warps_needed(params_, launch);
  if (warps_used_ + w > params_.max_warps_per_sm) return false;
  if (regs_used_ + regs_needed(params_, launch) > params_.regfile_per_sm) return false;
  if (shared_used_ + launch.program->shared_bytes() > params_.shared_per_sm) return false;
  return true;
}

void SmCore::accept_block(const KernelLaunch& launch, u32 launch_id,
                          u32 block_linear, u32 intended_sm, Cycle now) {
  assert(can_accept(launch));
  // Dispatch happens before this SM's tick at `now`: close out any skipped
  // quiescent window under the pre-acceptance occupancy first.
  if (now > 0) settle_to(now - 1);

  // Find a free block slot.
  u32 slot = 0;
  while (blocks_[slot].active) ++slot;
  ResidentBlock& b = blocks_[slot];

  const u32 gx = launch.grid.x, gy = launch.grid.y;
  b.active = true;
  b.launch_id = launch_id;
  b.block_linear = block_linear;
  b.block_idx = Dim3{block_linear % gx, (block_linear / gx) % gy,
                     block_linear / (gx * gy)};
  b.launch = &launch;
  b.num_warps = warps_needed(params_, launch);
  b.warps_live = b.num_warps;
  b.barrier_count = 0;
  b.shared.assign(launch.program->shared_bytes(), 0);
  b.regs_reserved = regs_needed(params_, launch);
  b.shared_reserved = launch.program->shared_bytes();
  b.intended_sm = intended_sm;
  b.dispatch_cycle = now;

  blocks_used_ += 1;
  warps_used_ += b.num_warps;
  regs_used_ += b.regs_reserved;
  shared_used_ += b.shared_reserved;

  const isa::KernelProgram* prog = launch.program.get();
  const u32 threads = launch.threads_per_block();
  u32 assigned = 0;
  for (u32 wslot = 0; wslot < warps_.size() && assigned < b.num_warps; ++wslot) {
    Warp& w = warps_[wslot];
    if (w.active) continue;
    w.active = true;
    w.age = ++age_counter_;
    w.block_slot = slot;
    w.warp_in_block = assigned;
    w.prog = prog;
    w.ctrace = launch.trace.get();  // null in interpreter mode
    const u32 first_thread = assigned * params_.warp_size;
    const u32 lanes = std::min(params_.warp_size, threads - first_thread);
    w.valid_mask = lanes == 32 ? kFullMask : ((1u << lanes) - 1);
    w.exited = 0;
    w.stack.clear();
    w.stack.push_back(StackEntry{0, prog->end_pc(), w.valid_mask});
    w.regs.assign(static_cast<size_t>(prog->num_regs()) * kWarpSize, 0);
    w.preds.assign(static_cast<size_t>(prog->num_preds()) * kWarpSize, 0);
    w.at_barrier = false;
    w.pending.clear();
    w.instructions = 0;
    warp_stall_[wslot] = StallRec{};
    sched_order_[wslot % params_.num_warp_schedulers].push_back(wslot);
    ++assigned;
  }
  assert(assigned == b.num_warps);
  blocks_accepted_ += 1;
}

void SmCore::cycle(Cycle now) {
  if (now > 0) settle_to(now - 1);
  last_settled_ = now;
  progress_ = false;
  quiet_wake_ = kNeverCycle;
  if (blocks_used_ == 0) return;
  active_cycles_ += 1;
  // Cycle attribution: classify this cycle from its own stall-counter
  // deltas at the end, so a no-progress cycle lands in its dominant stall
  // class. The deltas (not the warp records) are the source of truth here;
  // settle_to() reproduces the same classification from the records, which
  // are constant across a quiescent window.
  const u64 sb0 = stall_scoreboard_;
  const u64 bar0 = stall_barrier_;
  const u64 str0 = stall_structural_;

  const u32 nsched = params_.num_warp_schedulers;
  for (u32 s = 0; s < nsched; ++s) {
    // Greedy: retry the warp that issued last.
    if (warp_policy_ == WarpSchedPolicy::kGto && last_issued_[s] >= 0) {
      Warp& w = warps_[static_cast<u32>(last_issued_[s])];
      if (w.active && try_issue(w, now)) continue;
    }
    // Then oldest first among this scheduler's warps, walking the
    // incrementally maintained age order. (Under LRR an issue moves the
    // warp to the back, so oldest == least-recently issued.)
    std::vector<u32>& order = sched_order_[s];
    last_issued_[s] = -1;
    for (u32 idx = 0; idx < order.size();) {
      const u32 slot = order[idx];
      const StallRec& rec = warp_stall_[slot];
      if (use_wake_records_ && rec.wake > now) {
        // Provably still blocked (same class) until the recorded wake:
        // count the stall exactly as the full attempt would and keep the
        // wake as an event candidate, skipping the hazard re-check.
        count_stall(rec.cls);
        if (obs_ != nullptr) open_stall_episode(slot, now, rec.cls);
        if (rec.wake < quiet_wake_) quiet_wake_ = rec.wake;
        ++idx;
        continue;
      }
      if (try_issue(warps_[slot], now)) {
        last_issued_[s] = static_cast<i32>(slot);
        break;
      }
      // A failed attempt may still have removed `slot` (the warp turned out
      // to be complete); only advance when the element is still in place.
      if (idx < order.size() && order[idx] == slot) ++idx;
    }
  }

  if (progress_) {
    cycles_issued_ += 1;
  } else {
    attribute_stall_cycles(stall_scoreboard_ - sb0, stall_barrier_ - bar0,
                           stall_structural_ - str0, 1);
  }
}

bool SmCore::try_issue(Warp& w, Cycle now) {
  const IssueOutcome outcome = try_issue_classified(w, now);
  const size_t slot = static_cast<size_t>(&w - warps_.data());
  switch (outcome) {
    case IssueOutcome::kIssued:
      ++issued_attempts_;
      progress_ = true;
      warp_stall_[slot].wake = 0;
      if (obs_ != nullptr) close_stall_episode(slot, now);
      return true;
    case IssueOutcome::kScoreboard:
      ++stall_scoreboard_;
      if (obs_ != nullptr) open_stall_episode(slot, now, outcome);
      return false;
    case IssueOutcome::kBarrier:
      ++stall_barrier_;
      if (obs_ != nullptr) open_stall_episode(slot, now, outcome);
      return false;
    case IssueOutcome::kStructural:
      ++stall_structural_;
      if (obs_ != nullptr) open_stall_episode(slot, now, outcome);
      return false;
    case IssueOutcome::kWarpDone: return false;
  }
  return false;
}

SmCore::IssueOutcome SmCore::try_issue_classified(Warp& w, Cycle now) {
  if (!w.refresh_stack()) {
    complete_warp(w, now);
    return IssueOutcome::kWarpDone;
  }
  // Failed attempts call stall(), which records the stall class and the
  // earliest cycle the blocking condition can clear: the raw material for
  // the event engine's wake time and skipped-cycle stall accounting. A
  // scoreboard wake uses the first hazarded register's release; a later
  // hazard then re-stalls the warp at that (still scoreboard-classified)
  // cycle, so classes stay constant between events.
  if (w.at_barrier) return stall(w, IssueOutcome::kBarrier, kNeverCycle);

  // Block engine: dispatch through the pre-decoded superop when this pc was
  // lowered; memory/control/barrier ops fall through to the interpreter.
  if (w.ctrace != nullptr) {
    const blockexec::SuperOp& sop = w.ctrace->at(w.pc());
    if (sop.kind != blockexec::SopKind::kFallback)
      return issue_superop(w, sop, now);
  }

  const Instruction& ins = w.prog->at(w.pc());

  // Scoreboard hazards (RAW on sources/guard, WAW on destination).
  if (ins.guard != isa::kNoPred && w.hazard(static_cast<u16>(ins.guard), true, now))
    return stall(w, IssueOutcome::kScoreboard,
                 w.release_cycle(static_cast<u16>(ins.guard), true, now));
  if (ins.pred_src != isa::kNoPred && w.hazard(static_cast<u16>(ins.pred_src), true, now))
    return stall(w, IssueOutcome::kScoreboard,
                 w.release_cycle(static_cast<u16>(ins.pred_src), true, now));
  for (const isa::Operand& o : ins.src)
    if (o.is_reg() && w.hazard(o.reg, false, now))
      return stall(w, IssueOutcome::kScoreboard,
                   w.release_cycle(o.reg, false, now));
  if (isa::writes_gpr(ins.op) && w.hazard(ins.dst, false, now))
    return stall(w, IssueOutcome::kScoreboard,
                 w.release_cycle(ins.dst, false, now));
  if (isa::writes_pred(ins.op) && w.hazard(ins.dst, true, now))
    return stall(w, IssueOutcome::kScoreboard,
                 w.release_cycle(ins.dst, true, now));

  // Structural hazards.
  const UnitClass uc = isa::unit_class(ins.op);
  if (uc == UnitClass::kSfu && now < sfu_free_)
    return stall(w, IssueOutcome::kStructural, sfu_free_);
  if (uc == UnitClass::kMem && now < mem_free_)
    return stall(w, IssueOutcome::kStructural, mem_free_);

  // Guard mask over the effective lanes.
  const u32 eff = w.effective_mask();
  u32 guard_mask = eff;
  if (ins.guard != isa::kNoPred) {
    guard_mask = 0;
    for (u32 m = eff; m != 0; m &= m - 1) {
      const u32 lane = static_cast<u32>(std::countr_zero(m));
      const bool p = w.pred_at(ins.guard, lane) != 0;
      if (p != ins.guard_neg) guard_mask |= 1u << lane;
    }
  }

  // Trace only datapath instructions: they are the ones exposed to
  // transient datapath faults, so temporal-diversity slack is defined over
  // them (and a droop window is guaranteed to corrupt every traced event).
  if (trace_ != nullptr && isa::is_datapath(ins.op)) {
    const ResidentBlock& b = blocks_[w.block_slot];
    trace_->record(b.launch_id, b.block_linear, w.warp_in_block,
                   w.instructions, sm_id_, now);
  }
  execute(w, ins, guard_mask, now);
  if (w.ctrace != nullptr) ++block_fallback_exits_;
  post_issue(w, now);
  return IssueOutcome::kIssued;
}

void SmCore::post_issue(Warp& w, Cycle now) {
  ++w.instructions;
  if (warp_policy_ == WarpSchedPolicy::kLrr) {
    // Refresh recency: the warp becomes the youngest of its scheduler.
    w.age = ++age_counter_;
    const u32 slot = static_cast<u32>(&w - warps_.data());
    std::vector<u32>& order = sched_order_[slot % params_.num_warp_schedulers];
    order.erase(std::find(order.begin(), order.end(), slot));
    order.push_back(slot);
  }
  instructions_ += 1;

  // A warp whose last instruction was EXIT completes immediately.
  if (!w.refresh_stack()) complete_warp(w, now);
}

SmCore::IssueOutcome SmCore::issue_superop(Warp& w,
                                           const blockexec::SuperOp& sop,
                                           Cycle now) {
  // Scoreboard: the compiled hazard plan replays the interpreter's check
  // sequence (guard, pred_src, sources in order, destination), so the first
  // hazarded register — and with it the recorded wake cycle — is identical.
  for (u8 i = 0; i < sop.n_hazards; ++i) {
    const blockexec::HazPlan& h = sop.hazards[i];
    if (w.hazard(h.reg, h.is_pred, now))
      return stall(w, IssueOutcome::kScoreboard,
                   w.release_cycle(h.reg, h.is_pred, now));
  }

  // Structural: only the SFU can block a lowered op (memory ops fall back).
  if (sop.is_sfu && now < sfu_free_)
    return stall(w, IssueOutcome::kStructural, sfu_free_);

  // Guard mask over the effective lanes.
  const u32 eff = w.effective_mask();
  u32 guard_mask = eff;
  if (sop.guard != isa::kNoPred) {
    guard_mask = 0;
    const u8* gp = w.pred_row(sop.guard);
    for (u32 m = eff; m != 0; m &= m - 1) {
      const u32 lane = static_cast<u32>(std::countr_zero(m));
      if ((gp[lane] != 0) != sop.guard_neg) guard_mask |= 1u << lane;
    }
  }

  if (trace_ != nullptr && sop.is_datapath) {
    const ResidentBlock& b = blocks_[w.block_slot];
    trace_->record(b.launch_id, b.block_linear, w.warp_in_block,
                   w.instructions, sm_id_, now);
  }
  exec_superop(w, sop, guard_mask, now);
  ++block_exec_hits_;
  post_issue(w, now);
  return IssueOutcome::kIssued;
}

namespace {

/// Per-lane source value from a pre-decoded operand plan.
inline u32 src_value(const Warp& w, const blockexec::SrcPlan& s, u32 lane) {
  return s.is_imm ? s.imm : w.reg_at(s.reg, lane);
}

}  // namespace

void SmCore::exec_superop(Warp& w, const blockexec::SuperOp& sop,
                          u32 guard_mask, Cycle now) {
  StackEntry& top = w.stack.back();
  const Cycle ready =
      now + (sop.is_sfu ? params_.sfu_latency : params_.sp_latency);
  if (sop.is_sfu) sfu_free_ = now + params_.sfu_interval;

  switch (sop.kind) {
    case blockexec::SopKind::kAlu: {
      if (fault_ != nullptr && fault_->armed()) {
        // Fault window open: keep the scalar per-lane loop in ascending lane
        // order — corrupt_alu consumes injector state per call, so the call
        // count and order are behavioural (bit-identical to the interpreter).
        for (u32 m = guard_mask; m != 0; m &= m - 1) {
          const u32 lane = static_cast<u32>(std::countr_zero(m));
          const u32 a = src_value(w, sop.a, lane);
          const u32 bv = src_value(w, sop.b, lane);
          const u32 c = src_value(w, sop.c, lane);
          w.reg_at(sop.dst, lane) =
              fault_->corrupt_alu(sm_id_, now, eval_alu(sop.op, a, bv, c));
        }
        break;
      }
      // Vector path: hand whole SoA rows to the width-32 lane kernel.
      // Immediates splat into scratch rows; register sources alias the
      // register file directly (in-place d == a is safe: elementwise).
      auto row = [&w](const blockexec::SrcPlan& s, u32* scratch) -> const u32* {
        if (!s.is_imm) return w.reg_row(s.reg);
        for (u32 i = 0; i < kWarpSize; ++i) scratch[i] = s.imm;
        return scratch;
      };
      blockexec::run_vkernel(sop.vkind, sop.op, w.reg_row(sop.dst),
                             row(sop.a, splat_a_), row(sop.b, splat_b_),
                             row(sop.c, splat_c_), guard_mask);
      break;
    }
    case blockexec::SopKind::kSetp: {
      u8* dp = w.pred_row(static_cast<i16>(sop.dst));
      for (u32 m = guard_mask; m != 0; m &= m - 1) {
        const u32 lane = static_cast<u32>(std::countr_zero(m));
        const u32 a = src_value(w, sop.a, lane);
        const u32 bv = src_value(w, sop.b, lane);
        bool res = eval_cmp(sop.cmp, sop.dtype, a, bv);
        if (sop.pred_src != isa::kNoPred)  // setp.and
          res = res && w.pred_at(sop.pred_src, lane) != 0;
        dp[lane] = res ? 1 : 0;
      }
      break;
    }
    case blockexec::SopKind::kSelp: {
      const u8* pp = w.pred_row(sop.pred_src);
      u32* dp = w.reg_row(sop.dst);
      for (u32 m = guard_mask; m != 0; m &= m - 1) {
        const u32 lane = static_cast<u32>(std::countr_zero(m));
        dp[lane] = src_value(w, pp[lane] != 0 ? sop.a : sop.b, lane);
      }
      break;
    }
    case blockexec::SopKind::kS2r: {
      u32* dp = w.reg_row(sop.dst);
      for (u32 m = guard_mask; m != 0; m &= m - 1) {
        const u32 lane = static_cast<u32>(std::countr_zero(m));
        dp[lane] = sreg_value(w, sop.sreg, lane);
      }
      break;
    }
    case blockexec::SopKind::kLdp: {
      const ResidentBlock& b = blocks_[w.block_slot];
      // Guaranteed by the launch gate: the verifier's structural pass
      // rejects any ldp index >= num_params (bad-param-index) and
      // Gpu::launch refuses launches with fewer params than the program
      // declares, so the index is in range in every build. Faults never
      // corrupt it either: param_idx is trace metadata, not machine state.
      assert(sop.param_idx < b.launch->params.size() &&
             "kernel parameter out of range");
      const u32 v = b.launch->params[sop.param_idx];
      u32* dp = w.reg_row(sop.dst);
      for (u32 m = guard_mask; m != 0; m &= m - 1)
        dp[static_cast<u32>(std::countr_zero(m))] = v;
      break;
    }
    case blockexec::SopKind::kFallback:
      assert(false && "fallback superop reached exec_superop");
      break;
  }

  if (sop.writes_gpr)
    w.pending.push_back(Warp::Pending{sop.dst, false, ready});
  else if (sop.writes_pred)
    w.pending.push_back(Warp::Pending{sop.dst, true, ready});

  top.pc += 1;
}

// The one list of SM counters, in snapshot order. `always` counters are
// exported even at zero, so the engine equivalence suites pin the issue
// outcomes and the cycle attribution (obs::SmCycles) when a bucket is
// empty; the rest appear only once nonzero, mirroring StatSet entries that
// were created on first add().
const SmCore::Counter SmCore::kCounters[] = {
    {"blocks_accepted", &SmCore::blocks_accepted_, false},
    {"blocks_completed", &SmCore::blocks_completed_, false},
    {"active_cycles", &SmCore::active_cycles_, false},
    {"instructions", &SmCore::instructions_, false},
    {"divergent_branches", &SmCore::divergent_branches_, false},
    {"barriers", &SmCore::barriers_, false},
    {"smem_accesses", &SmCore::smem_accesses_, false},
    {"smem_bank_conflicts", &SmCore::smem_bank_conflicts_, false},
    {"smem_oob_wraps", &SmCore::smem_oob_wraps_, false},
    {"global_atomics", &SmCore::global_atomics_, false},
    {"global_load_transactions", &SmCore::global_load_transactions_, false},
    {"global_store_transactions", &SmCore::global_store_transactions_, false},
    {"issue_stall_scoreboard", &SmCore::stall_scoreboard_, true},
    {"issue_stall_barrier", &SmCore::stall_barrier_, true},
    {"issue_stall_structural", &SmCore::stall_structural_, true},
    {"issue_attempts_issued", &SmCore::issued_attempts_, true},
    {"block_exec_hits", &SmCore::block_exec_hits_, false},
    {"block_fallback_exits", &SmCore::block_fallback_exits_, false},
    {"cycles_issued", &SmCore::cycles_issued_, true},
    {"cycles_stall_scoreboard", &SmCore::cycles_stall_scoreboard_, true},
    {"cycles_stall_barrier", &SmCore::cycles_stall_barrier_, true},
    {"cycles_stall_structural", &SmCore::cycles_stall_structural_, true},
};

StatSet SmCore::snapshot_stats() const {
  StatSet s;
  for (const Counter& c : kCounters)
    if (c.always || this->*c.field) s.add(c.name, this->*c.field);
  return s;
}

void SmCore::settle_to(Cycle upto) {
  if (upto <= last_settled_) return;
  const u64 n = upto - last_settled_;
  last_settled_ = upto;
  if (blocks_used_ == 0) return;

  // Replay what the dense loop would have counted over the quiescent window
  // (last settled, upto]: one active cycle each, and one classified stall
  // attempt per active warp per cycle (every scheduler walks all of its
  // warps when none can issue; the GTO greedy slot was already cleared by
  // the no-progress cycle that opened the window). Each warp's class was
  // recorded by that cycle's failed attempt via stall() and is constant
  // across the window because the wake time never spans a classification
  // boundary.
  active_cycles_ += n;
  u64 nsb = 0;
  u64 nbar = 0;
  u64 nstr = 0;
  for (const Warp& w : warps_) {
    if (!w.active) continue;
    switch (warp_stall_[static_cast<size_t>(&w - warps_.data())].cls) {
      case IssueOutcome::kBarrier: stall_barrier_ += n; nbar += 1; break;
      case IssueOutcome::kScoreboard: stall_scoreboard_ += n; nsb += 1; break;
      default: stall_structural_ += n; nstr += 1; break;
    }
  }
  // Every quiescent cycle has the same per-class attempt counts (nsb, nbar,
  // nstr) the dense loop would produce, so the dominant class — and hence
  // the attribution — is the same for all n cycles.
  attribute_stall_cycles(nsb, nbar, nstr, n);
}

u32 SmCore::maybe_corrupt(u32 value, Cycle now) const {
  if (fault_ == nullptr || !fault_->armed()) return value;
  return fault_->corrupt_alu(sm_id_, now, value);
}

u32 SmCore::operand_value(const Warp& w, const isa::Operand& o, u32 lane) const {
  return o.is_reg() ? w.reg_at(o.reg, lane) : o.imm;
}

u32 SmCore::sreg_value(const Warp& w, isa::SReg sreg, u32 lane) const {
  const ResidentBlock& b = blocks_[w.block_slot];
  const Dim3& bd = b.launch->block;
  const Dim3& gd = b.launch->grid;
  const u32 lin = w.warp_in_block * params_.warp_size + lane;
  using isa::SReg;
  // 1-D blocks (the common case): valid lanes satisfy lin < bd.x, so the
  // thread id is `lin` directly — no divisions on the hot path.
  const bool block_1d = bd.y == 1 && bd.z == 1;
  switch (sreg) {
    case SReg::kTidX: return block_1d ? lin : lin % bd.x;
    case SReg::kTidY: return block_1d ? 0 : (lin / bd.x) % bd.y;
    case SReg::kTidZ: return block_1d ? 0 : lin / (bd.x * bd.y);
    case SReg::kCtaIdX: return b.block_idx.x;
    case SReg::kCtaIdY: return b.block_idx.y;
    case SReg::kCtaIdZ: return b.block_idx.z;
    case SReg::kNTidX: return bd.x;
    case SReg::kNTidY: return bd.y;
    case SReg::kNTidZ: return bd.z;
    case SReg::kNCtaIdX: return gd.x;
    case SReg::kNCtaIdY: return gd.y;
    case SReg::kNCtaIdZ: return gd.z;
    case SReg::kLaneId: return lane;
    case SReg::kWarpId: return w.warp_in_block;
  }
  return 0;
}

void SmCore::execute(Warp& w, const Instruction& ins, u32 guard_mask, Cycle now) {
  StackEntry& top = w.stack.back();
  switch (ins.op) {
    case Op::kBra:
      exec_branch(w, ins, guard_mask);
      return;
    case Op::kExit:
      w.exited |= top.mask & ~w.exited;
      return;
    case Op::kBar:
      top.pc += 1;
      exec_barrier(w);
      return;
    case Op::kLdg:
    case Op::kStg:
    case Op::kAtomAdd:
      exec_global_mem(w, ins, guard_mask, now);
      top.pc += 1;
      return;
    case Op::kLds:
    case Op::kSts:
      exec_shared_mem(w, ins, guard_mask, now);
      top.pc += 1;
      return;
    default:
      break;
  }

  // ALU / SFU / moves / setp / selp.
  const UnitClass uc = isa::unit_class(ins.op);
  const Cycle ready =
      now + (uc == UnitClass::kSfu ? params_.sfu_latency : params_.sp_latency);
  if (uc == UnitClass::kSfu) sfu_free_ = now + params_.sfu_interval;

  for (u32 m = guard_mask; m != 0; m &= m - 1) {
    const u32 lane = static_cast<u32>(std::countr_zero(m));
    switch (ins.op) {
      case Op::kS2r:
        w.reg_at(ins.dst, lane) = sreg_value(w, ins.sreg, lane);
        break;
      case Op::kLdp: {
        const ResidentBlock& b = blocks_[w.block_slot];
        const u32 idx = ins.src[0].imm;
        // In range by the launch gate (verifier bad-param-index check +
        // Gpu::launch param-count validation); see exec_superop's kLdp.
        assert(idx < b.launch->params.size() && "kernel parameter out of range");
        w.reg_at(ins.dst, lane) = b.launch->params[idx];
        break;
      }
      case Op::kSetp: {
        const u32 a = operand_value(w, ins.src[0], lane);
        const u32 bv = operand_value(w, ins.src[1], lane);
        bool res = eval_cmp(ins.cmp, ins.dtype, a, bv);
        if (ins.pred_src != isa::kNoPred)  // setp.and
          res = res && w.pred_at(ins.pred_src, lane) != 0;
        w.pred_at(static_cast<i16>(ins.dst), lane) = res ? 1 : 0;
        break;
      }
      case Op::kSelp: {
        const bool p = w.pred_at(ins.pred_src, lane) != 0;
        w.reg_at(ins.dst, lane) =
            operand_value(w, ins.src[p ? 0 : 1], lane);
        break;
      }
      default: {
        const u32 a = operand_value(w, ins.src[0], lane);
        const u32 bv = ins.src[1].present() ? operand_value(w, ins.src[1], lane) : 0;
        const u32 c = ins.src[2].present() ? operand_value(w, ins.src[2], lane) : 0;
        w.reg_at(ins.dst, lane) = maybe_corrupt(eval_alu(ins.op, a, bv, c), now);
        break;
      }
    }
  }

  if (isa::writes_gpr(ins.op))
    w.pending.push_back(Warp::Pending{ins.dst, false, ready});
  else if (isa::writes_pred(ins.op))
    w.pending.push_back(Warp::Pending{ins.dst, true, ready});

  top.pc += 1;
}

void SmCore::exec_branch(Warp& w, const Instruction& ins, u32 guard_mask) {
  StackEntry& top = w.stack.back();
  const u32 eff = top.mask & ~w.exited;
  const u32 taken = guard_mask;  // lanes whose guard held (all eff if unguarded)
  const isa::Pc fall = top.pc + 1;

  if (taken == eff) {
    top.pc = ins.target;
    return;
  }
  if (taken == 0) {
    top.pc = fall;
    return;
  }
  // Divergence: IPDOM reconvergence.
  divergent_branches_ += 1;
  const isa::Pc r = ins.reconv_pc;
  top.pc = r;
  const u32 not_taken = eff & ~taken;
  if (fall != r) w.stack.push_back(StackEntry{fall, r, not_taken});
  if (ins.target != r) w.stack.push_back(StackEntry{ins.target, r, taken});
}

void SmCore::exec_global_mem(Warp& w, const Instruction& ins, u32 guard_mask,
                             Cycle now) {
  const u32 line_bytes = mem_->params().line_bytes;
  if (guard_mask == 0) return;  // fully predicated off
  mem_free_ = now + 1;
  const u64 off = static_cast<u64>(static_cast<i64>(ins.mem_offset));

  Cycle done = now;
  if (ins.op == Op::kAtomAdd) {
    // Functional RMW in lane order; timing charged per lane at the L2.
    for (u32 m = guard_mask; m != 0; m &= m - 1) {
      const u32 lane = static_cast<u32>(std::countr_zero(m));
      const u64 addr = static_cast<u64>(operand_value(w, ins.src[0], lane)) + off;
      const u32 old = store_->read32(static_cast<memsys::DevPtr>(addr));
      const u32 add = operand_value(w, ins.src[1], lane);
      store_->write32(static_cast<memsys::DevPtr>(addr), old + add);
      w.reg_at(ins.dst, lane) = old;
      const memsys::MemResponse r =
          mem_->access_atomic(sm_id_, memsys::line_of(addr, line_bytes), now);
      done = std::max(done, r.done);
      if (r.issue_free > mem_free_) mem_free_ = r.issue_free;
    }
    w.pending.push_back(Warp::Pending{ins.dst, false, done});
    global_atomics_ += 1;
    return;
  }

  const bool is_write = ins.op == Op::kStg;
  // One pass: compute each lane's address, perform the functional access at
  // issue (keeps per-warp program order exact), and collect the addresses
  // for coalescing.
  addr_scratch_.clear();
  for (u32 m = guard_mask; m != 0; m &= m - 1) {
    const u32 lane = static_cast<u32>(std::countr_zero(m));
    const u64 addr = static_cast<u64>(operand_value(w, ins.src[0], lane)) + off;
    addr_scratch_.push_back(addr);
    if (is_write) {
      store_->write32(static_cast<memsys::DevPtr>(addr),
                      operand_value(w, ins.src[1], lane));
    } else {
      w.reg_at(ins.dst, lane) =
          store_->read32(static_cast<memsys::DevPtr>(addr));
    }
  }

  memsys::coalesce_into(addr_scratch_, line_bytes, line_scratch_);
  (is_write ? global_store_transactions_ : global_load_transactions_) +=
      line_scratch_.size();
  for (u64 line : line_scratch_) {
    const memsys::MemResponse r = mem_->access_line(sm_id_, line, is_write, now);
    done = std::max(done, r.done);
    // MSHR-full backpressure: the LSU stays blocked until the hierarchy can
    // track another miss, so the structural-stall wake (and the event
    // engine's sleep) extends to the cycle an MSHR entry frees.
    if (r.issue_free > mem_free_) mem_free_ = r.issue_free;
  }
  if (!is_write) w.pending.push_back(Warp::Pending{ins.dst, false, done});
}

void SmCore::exec_shared_mem(Warp& w, const Instruction& ins, u32 guard_mask,
                             Cycle now) {
  ResidentBlock& b = blocks_[w.block_slot];
  if (guard_mask == 0) return;
  if (b.shared.size() < 4) return;  // kernel declares no shared segment
  addr_scratch_.clear();
  for (u32 m = guard_mask; m != 0; m &= m - 1) {
    const u32 lane = static_cast<u32>(std::countr_zero(m));
    u64 addr = static_cast<u64>(operand_value(w, ins.src[0], lane)) +
               static_cast<u64>(static_cast<i64>(ins.mem_offset));
    // The static verifier proves fault-free addresses in bounds where the
    // interval analysis is precise enough, but it cannot see through
    // data-dependent indexing — and an injected fault can corrupt any
    // address computation at runtime. The corrupted access must stay
    // deterministic (and memory-safe) in every build: wrap it into the
    // block's shared segment, like hardware wrapping into its SRAM banks,
    // and count the wrap so campaigns can observe the corruption class.
    // (Always-on checked wrap; this was an NDEBUG-masked assert.)
    if (addr + 4 > b.shared.size()) {
      addr = (addr % (b.shared.size() - 3)) & ~u64{3};
      smem_oob_wraps_ += 1;
    }
    addr_scratch_.push_back(addr);
  }

  const u32 conflicts = memsys::smem_conflict_degree(
      addr_scratch_, mem_->params().smem_banks, line_scratch_, bank_scratch_);
  mem_free_ = now + conflicts;
  const Cycle done = now + mem_->params().smem_latency + (conflicts - 1);
  smem_accesses_ += 1;
  if (conflicts > 1) smem_bank_conflicts_ += conflicts - 1;

  const bool is_write = ins.op == Op::kSts;
  u32 i = 0;
  for (u32 m = guard_mask; m != 0; m &= m - 1) {
    const u32 lane = static_cast<u32>(std::countr_zero(m));
    const u64 addr = addr_scratch_[i++];
    // memcpy, not a u32* deref: a fault-corrupted (but in-bounds) address
    // may be misaligned, and the access must stay well-defined.
    u8* word = b.shared.data() + addr;
    if (is_write) {
      const u32 v = operand_value(w, ins.src[1], lane);
      std::memcpy(word, &v, 4);
    } else {
      u32 v;
      std::memcpy(&v, word, 4);
      w.reg_at(ins.dst, lane) = v;
    }
  }
  if (!is_write) w.pending.push_back(Warp::Pending{ins.dst, false, done});
}

void SmCore::exec_barrier(Warp& w) {
  ResidentBlock& b = blocks_[w.block_slot];
  // CUDA requires barriers in uniform control flow. The verifier's barrier
  // pass refuses programs whose kBar is control-dependent on a
  // tid/laneid/atomic-tainted branch (barrier-divergence), so fault-free
  // launches cannot trip this; a fault-corrupted guard still can, and then
  // the warp arrives as a whole (barrier_count is per warp), keeping the
  // simulation deterministic rather than deadlocked.
  assert(w.effective_mask() == (w.valid_mask & ~w.exited) &&
         "barrier executed in divergent control flow");
  w.at_barrier = true;
  b.barrier_count += 1;
  barriers_ += 1;
  if (b.barrier_count == b.warps_live) release_barrier(b);
}

void SmCore::release_barrier(ResidentBlock& b) {
  for (Warp& w : warps_) {
    if (w.active && w.block_slot ==
            static_cast<u32>(&b - blocks_.data()) &&
        w.at_barrier) {
      w.at_barrier = false;
      // The warp may issue again right away: drop its barrier stall record.
      warp_stall_[static_cast<size_t>(&w - warps_.data())].wake = 0;
    }
  }
  b.barrier_count = 0;
}

void SmCore::complete_warp(Warp& w, Cycle now) {
  if (!w.active) return;
  progress_ = true;
  w.active = false;
  const u32 slot = static_cast<u32>(&w - warps_.data());
  if (obs_ != nullptr) close_stall_episode(slot, now);
  std::vector<u32>& order = sched_order_[slot % params_.num_warp_schedulers];
  order.erase(std::find(order.begin(), order.end(), slot));
  ResidentBlock& b = blocks_[w.block_slot];
  assert(b.warps_live > 0);
  b.warps_live -= 1;
  if (b.warps_live == 0) {
    complete_block(b, now);
  } else if (b.barrier_count == b.warps_live && b.barrier_count > 0) {
    // A warp exited while the rest were waiting: the barrier is satisfied.
    release_barrier(b);
  }
}

template <class Ar, class S>
void SmCore::io_state(Ar& ar, S& s) {
  ar.io(s.warps_used_);
  ar.io(s.blocks_used_);
  ar.io(s.regs_used_);
  ar.io(s.shared_used_);
  ar.io(s.sfu_free_);
  ar.io(s.mem_free_);
  ar.io(s.age_counter_);
  ar.io_count(s.last_issued_.size(), "warp-scheduler");
  for (auto& slot : s.last_issued_) ar.io(slot);
  for (auto& order : s.sched_order_) ar.io(order);
  ar.io(s.last_settled_);
  ar.io(s.progress_);
  ar.io(s.quiet_wake_);
  for (auto& rec : s.warp_stall_) {
    ar.io(rec.wake);
    ar.io(rec.cls);
  }

  for (auto& b : s.blocks_) {
    ar.io(b.active);
    if (!b.active) continue;
    ar.io(b.launch_id);
    ar.io(b.block_linear);
    ar.io(b.block_idx.x);
    ar.io(b.block_idx.y);
    ar.io(b.block_idx.z);
    ar.io(b.num_warps);
    ar.io(b.warps_live);
    ar.io(b.barrier_count);
    ar.io(b.shared);
    ar.io(b.regs_reserved);
    ar.io(b.shared_reserved);
    ar.io(b.intended_sm);
    ar.io(b.dispatch_cycle);
  }

  for (auto& warp : s.warps_) {
    ar.io(warp.active);
    if (!warp.active) continue;
    ar.io(warp.age);
    ar.io(warp.block_slot);
    ar.io(warp.warp_in_block);
    ar.io(warp.valid_mask);
    ar.io(warp.exited);
    ar.io(warp.stack, [](auto& a, auto& e) {
      a.io(e.pc);
      a.io(e.rpc);
      a.io(e.mask);
    });
    ar.io(warp.regs);
    ar.io(warp.preds);
    ar.io(warp.at_barrier);
    ar.io(warp.pending, [](auto& a, auto& p) {
      a.io(p.reg);
      a.io(p.is_pred);
      a.io(p.ready);
    });
    ar.io(warp.instructions);
  }

  for (const Counter& c : kCounters) ar.io(s.*c.field);
}

void SmCore::save(ckpt::Writer& w) const { io_state(w, *this); }

void SmCore::restore(
    ckpt::Reader& r,
    const std::function<const KernelLaunch*(u32)>& launch_of) {
  io_state(r, *this);
  // Empty slots restore as fresh ones; resident blocks and warps re-derive
  // their launch, program and compiled trace (the restoring GPU attached
  // traces to its launches, or left them null in interpreter mode, before
  // restoring the SMs).
  for (ResidentBlock& b : blocks_) {
    if (!b.active)
      b = ResidentBlock{};
    else
      b.launch = launch_of(b.launch_id);
  }
  for (Warp& warp : warps_) {
    if (!warp.active) {
      warp = Warp{};
      continue;
    }
    if (warp.block_slot >= blocks_.size() || !blocks_[warp.block_slot].active)
      throw ckpt::SnapshotError("snapshot warp belongs to no resident block");
    const KernelLaunch& launch = *blocks_[warp.block_slot].launch;
    warp.prog = launch.program.get();
    warp.ctrace = launch.trace.get();
  }

  // Open stall episodes describe pre-restore time; drop them rather than
  // emit spans that straddle the restore point.
  if (obs_ != nullptr) stall_eps_.assign(warps_.size(), StallEp{});
}

void SmCore::complete_block(ResidentBlock& b, Cycle now) {
  BlockRecord rec;
  rec.launch_id = b.launch_id;
  rec.block_linear = b.block_linear;
  rec.sm = sm_id_;
  rec.intended_sm = b.intended_sm;
  rec.dispatch_cycle = b.dispatch_cycle;
  rec.end_cycle = now;

  blocks_used_ -= 1;
  warps_used_ -= b.num_warps;
  regs_used_ -= b.regs_reserved;
  shared_used_ -= b.shared_reserved;
  b.active = false;
  b.launch = nullptr;
  blocks_completed_ += 1;

  if (on_block_done_) on_block_done_(rec);
}

}  // namespace higpu::sim
