// Top-level GPU: SM array, shared memory hierarchy, kernel launch queue and
// the simulation core. The block-dispatch policy is delegated to a pluggable
// IKernelScheduler (the component this paper modifies).
//
// Two interchangeable, bit-identical engines drive run_until_idle():
//  * event-driven (default): an active set of SMs with a min-heap of wake
//    times. Each SM reports the earliest cycle at which any resident warp
//    can become ready; the global clock jumps directly to the next event
//    (SM wake, kernel arrival, dispatch recheck, or fault-window boundary),
//    fast-forwarding quiescent cycles in O(1).
//  * dense: the classic one-cycle-at-a-time tick loop, kept as the
//    reference for the dual-engine equivalence test (GpuParams::engine).
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serial.h"
#include "common/stats.h"
#include "common/types.h"
#include "memsys/global_store.h"
#include "memsys/hierarchy.h"
#include "sim/fault_hook.h"
#include "sim/kernel.h"
#include "sim/ksched.h"
#include "sim/params.h"
#include "sim/sm.h"

namespace higpu::sim {

/// Thrown when run_until_idle exceeds its cycle budget (scheduling deadlock
/// or runaway kernel).
class SimTimeout : public std::runtime_error {
 public:
  explicit SimTimeout(const std::string& what) : std::runtime_error(what) {}
};

class Gpu {
 public:
  /// `store` is the functional global memory (owned by the caller/runtime)
  /// and must outlive the Gpu.
  Gpu(const GpuParams& params, memsys::GlobalStore* store);

  // ---- Configuration ---------------------------------------------------
  void set_kernel_scheduler(std::unique_ptr<IKernelScheduler> sched);
  IKernelScheduler* kernel_scheduler() { return ksched_.get(); }
  void set_fault_hook(IFaultHook* hook);
  IFaultHook* fault_hook() const { return fault_; }
  void set_trace_sink(ITraceSink* sink);
  /// Attach (or detach, with nullptr) the observability tracer: creates one
  /// device track per SM plus a kernel track and forwards the tracer to
  /// every SM and the memory hierarchy. Pure observer — pinned bit-identical
  /// on/off by the trace-identity suite.
  void set_obs_tracer(obs::Tracer* t);
  void set_warp_sched_policy(WarpSchedPolicy p);
  const GpuParams& params() const { return params_; }

  // ---- Host-side API ------------------------------------------------------
  /// Enqueue a kernel; returns its launch id. Kernel dispatch is
  /// intrinsically serial: the launch becomes visible to the kernel
  /// scheduler `launch_gap_cycles` after the previous one (paper §IV.A).
  u32 launch(KernelLaunch launch);

  /// Run until all launched kernels completed, using the engine selected by
  /// GpuParams::engine. Throws SimTimeout after `max_cycles`. Returns the
  /// current cycle.
  Cycle run_until_idle(u64 max_cycles = 2'000'000'000ull);

  /// Advance a single cycle (always dense; composes with run_until_idle).
  void step();

  bool idle() const;
  Cycle now() const { return cycle_; }
  /// Quiescent cycles skipped by the event-driven engine so far (kept out
  /// of collect_stats() so both engines report identical statistics).
  Cycle fast_forwarded_cycles() const { return ff_cycles_; }

  // ---- Scheduler-facing API ----------------------------------------------
  u32 num_sms() const { return static_cast<u32>(sms_.size()); }
  bool sm_can_accept(u32 sm, const KernelLaunch& launch) const;
  /// True when no SM holds any resident block.
  bool all_sms_drained() const;
  /// Kernel states in launch order (stable storage; the vector itself is
  /// cached — schedulers call this every cycle).
  const std::vector<KernelState*>& kernel_states() { return state_ptrs_; }
  const KernelLaunch& launch_of(u32 launch_id) const;
  /// True if every kernel launched before `launch_id` has finished.
  bool priors_finished(u32 launch_id) const;
  /// True if every earlier kernel on the same stream has finished (stream
  /// ordering); schedulers must not dispatch a kernel before this holds.
  bool stream_ready(const KernelState& ks) const;
  /// Dispatch the next block of `ks` to SM `sm`. Enforces one dispatch per
  /// cycle GPU-wide; returns false if the budget is spent or the SM is full.
  bool try_dispatch_block(KernelState& ks, u32 sm);

  // ---- Results ----------------------------------------------------------------
  const KernelState& kernel_state(u32 launch_id) const;
  const std::vector<BlockRecord>& block_records() const { return records_; }
  /// Cycle span [first dispatch, completion] of one kernel.
  Cycle kernel_cycles(u32 launch_id) const;
  /// Aggregated statistics (SMs + memory + GPU counters).
  StatSet collect_stats() const;
  /// Per-SM cycle attribution against the current GPU clock; for each SM,
  /// issued + scoreboard + barrier + structural + idle == now().
  std::vector<obs::SmCycles> sm_profile() const;
  memsys::MemHierarchy& mem() { return mem_; }
  memsys::GlobalStore& store() { return *store_; }
  SmCore& sm(u32 i) { return *sms_[i]; }

  // ---- Checkpoint / restore ----------------------------------------------
  /// Install the mid-run capture callback. It fires inside run_until_idle
  /// at consistent points (the top of either engine's loop, all state
  /// settled through now()) with the nominal target cycle and whether it
  /// came from the explicit target list (vs the periodic interval).
  void set_checkpoint_hook(std::function<void(Cycle nominal, bool is_target)> cb) {
    ckpt_hook_ = std::move(cb);
  }
  /// Explicit capture cycles (sorted internally). Each target T fires the
  /// hook exactly once, at a point where all simulated work at cycles < T'
  /// (for some T' <= T... precisely: now() <= T and nothing remains to
  /// simulate at cycles <= T) is in the state — so a snapshot taken then,
  /// restored and resumed, replays cycles (now(), end] bit-identically and
  /// covers any event (e.g. a fault-window opening) at cycle >= T.
  void set_checkpoint_targets(std::vector<Cycle> targets);
  /// Periodic capture roughly every `cycles` (exact under the dense engine,
  /// at the previous event boundary under the event engine). 0 disables.
  void set_checkpoint_interval(u64 cycles);

  /// Serialize the complete GPU state (core, SMs, scheduler, memory
  /// hierarchy, armed fault-hook state) into snapshot sections. Kernel
  /// programs are emitted through `program_ref` as table indices.
  void save(ckpt::Writer& w,
            const std::function<u32(const isa::ProgramPtr&)>& program_ref) const;
  /// Inverse of save(). `program_of` resolves table indices; the installed
  /// kernel scheduler must match the serialized one by name. When
  /// `restore_fault` is false the fault hook's state is left untouched
  /// (rollback semantics: the environment is not rolled back).
  void restore(ckpt::Reader& r,
               const std::function<isa::ProgramPtr(u32)>& program_of,
               bool restore_fault);

  /// Forward a rollback notification to the installed fault hook.
  void notify_rollback() {
    if (fault_ != nullptr) fault_->on_rollback();
  }

 private:
  void on_block_done(const BlockRecord& rec);
  /// ExecMode::kBlock: attach the launch's compiled superinstruction trace
  /// (from the process-wide cache) and account its compile-time statistics.
  void attach_trace(KernelLaunch& launch);
  Cycle run_dense(u64 max_cycles);
  Cycle run_event(u64 max_cycles);
  /// Fire the checkpoint hook for every pending target/interval point that
  /// the run loop is about to move past (`horizon` = the next cycle it will
  /// actually simulate). Captures therefore happen *between* events with
  /// the clock still at the last processed cycle — resumed execution
  /// recomputes the same jump, keeping fast-forward accounting and every
  /// statistic bit-identical to an uninterrupted run.
  void maybe_checkpoint(Cycle horizon);
  /// Earliest future kernel-arrival cycle (launch_gap_cycles visibility),
  /// or kNeverCycle. Amortized O(1): arrivals are monotone in launch order.
  Cycle next_kernel_arrival();
  /// Pull SM `sm`'s wake time forward to `when` (event engine only); used
  /// by try_dispatch_block so a newly placed block executes immediately.
  void wake_sm(u32 sm, Cycle when);
  /// The "gpu" section: clock, event-engine wake table, launches and
  /// their kernel states, block records and GPU counters. `prog_io`
  /// stores a launch's program as its snapshot program-table index.
  template <class Ar, class S, class ProgIo>
  static void io_state(Ar& ar, S& s, ProgIo&& prog_io);

  GpuParams params_;
  memsys::GlobalStore* store_;
  memsys::MemHierarchy mem_;
  std::vector<std::unique_ptr<SmCore>> sms_;
  std::unique_ptr<IKernelScheduler> ksched_;
  IFaultHook* fault_ = nullptr;
  obs::Tracer* obs_ = nullptr;
  u32 obs_kernel_track_ = 0;

  Cycle cycle_ = 0;
  Cycle last_arrival_ = 0;
  Cycle last_dispatch_cycle_ = 0;
  bool dispatched_this_cycle_ = false;

  // Event-engine state. sm_wake_[i] is the next cycle SM i must simulate;
  // kNeverCycle marks SMs outside the active set (no resident blocks and
  // nothing pending). The heap holds (wake, sm) pairs with lazy deletion:
  // an entry is stale when it no longer matches sm_wake_. All of this is
  // serializable (dispatch_wake_ included) so a snapshot taken mid-run
  // resumes without the conservative active-set rebuild: event_primed_
  // records whether the bookkeeping reflects the current SM state (dense
  // stepping clears it; run_event establishes it).
  bool event_running_ = false;
  bool event_primed_ = false;
  std::vector<Cycle> sm_wake_;
  std::priority_queue<std::pair<Cycle, u32>, std::vector<std::pair<Cycle, u32>>,
                      std::greater<>>
      wake_heap_;
  Cycle dispatch_wake_ = 0;
  Cycle ff_cycles_ = 0;

  // Checkpoint triggers (not snapshot state: each run arms its own).
  std::function<void(Cycle, bool)> ckpt_hook_;
  std::vector<Cycle> ckpt_targets_;  // sorted
  size_t ckpt_target_idx_ = 0;
  u64 ckpt_interval_ = 0;
  Cycle ckpt_next_interval_ = kNeverCycle;

  // Launches are stored behind unique_ptr so KernelState/KernelLaunch
  // references stay stable as new kernels arrive.
  struct LaunchSlot {
    KernelLaunch launch;
    KernelState state;
  };
  std::vector<std::unique_ptr<LaunchSlot>> launches_;
  std::vector<KernelState*> state_ptrs_;  // parallel to launches_
  u32 kernels_finished_ = 0;              // == launches_.size() when idle
  size_t arrival_cursor_ = 0;             // first launch not yet visible
  std::vector<BlockRecord> records_;
  StatSet stats_;
};

}  // namespace higpu::sim
