// CUDA-like host runtime over the GPU simulator, with stream semantics and
// an end-to-end wall-clock model.
//
// One Device owns the functional global store and one Gpu. All host-visible
// operations advance a single nanosecond timeline (`elapsed_ns`), combining
// platform overheads with simulated GPU cycles, which is what the Fig. 5
// end-to-end experiment measures.
//
// synchronize() drains the GPU through the engine selected by
// GpuParams::engine (event-driven by default): wall-clock cost scales with
// the work simulated, not with idle GPU cycles, while cycle counts and all
// reported statistics stay bit-identical to the dense reference loop.
//
// Checkpoint/restore (src/ckpt): snapshot() captures the complete device
// state — GPU core, memory system, global store, host timeline, scheduler
// cursors, armed fault state — as a versioned binary ckpt::Snapshot;
// restore() resumes from one bit-identically to an uninterrupted run, on
// this device or a freshly constructed one with identical parameters.
// Snapshots can be captured automatically (a CheckpointPolicy or explicit
// mid-run target cycles) and consumed two ways: rollback() re-anchors the
// simulation at a checkpoint while the host timeline keeps advancing
// (recovery semantics: restore cost is charged, the fault hook is told the
// physical world moved on), and arm_resume() teleports a deterministic
// re-run of the same workload over its already-simulated prefix (campaign
// fast-forward).
#pragma once

#include <memory>
#include <vector>

#include "ckpt/snapshot.h"
#include "common/types.h"
#include "isa/verify/verify.h"
#include "memsys/global_store.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/platform.h"
#include "sim/gpu.h"

namespace higpu::runtime {

using memsys::DevPtr;

class Device {
 public:
  explicit Device(const sim::GpuParams& gpu_params = {},
                  const PlatformParams& platform = {});

  // ---- Configuration -----------------------------------------------------
  sim::Gpu& gpu() { return *gpu_; }
  const PlatformParams& platform() const { return platform_; }
  /// Simulation engine driving this device's GPU (set via GpuParams).
  sim::SimEngine engine() const { return gpu_->params().engine; }
  void set_kernel_scheduler(std::unique_ptr<sim::IKernelScheduler> s) {
    gpu_->set_kernel_scheduler(std::move(s));
  }
  /// Attach (or detach, with nullptr) the observability tracer: forwards to
  /// the GPU (per-SM, kernel, DRAM and MSHR tracks) and creates a host-side
  /// checkpoint track for snapshot/restore/rollback instants. Pure observer:
  /// tracer state is never serialized and never enters params_fingerprint,
  /// so snapshots and results are bit-identical tracing on or off.
  void set_tracer(obs::Tracer* t);
  obs::Tracer* tracer() const { return obs_; }

  // ---- Memory -----------------------------------------------------------------
  DevPtr malloc(u64 bytes);
  void memcpy_h2d(DevPtr dst, const void* src, u64 bytes);
  void memcpy_d2h(void* dst, DevPtr src, u64 bytes);

  // ---- Execution ---------------------------------------------------------------
  /// Asynchronous launch on `stream`. Kernels on the same stream serialize;
  /// different streams may overlap (subject to the kernel scheduler policy).
  ///
  /// Launch gate: under GpuParams::verify == kEnforce (the default) the
  /// program is statically verified on its first launch per
  /// (program, grid, block); an error-severity diagnostic refuses the
  /// launch by throwing isa::verify::VerifyError with the full report.
  /// kWarn records the report and launches anyway — except programs whose
  /// defects are unsafe to execute on the simulator's unchecked indexing
  /// paths (isa::verify::Result::unsafe_to_execute), which every mode but
  /// kOff refuses. Repeat launches hit a memo and pay no analysis cost.
  /// Parameters stay symbolic in the analysis so the memoized verdict is
  /// sound for every parameter assignment.
  u32 launch(sim::KernelLaunch launch, u32 stream = 0);

  // ---- Launch-gate verification reports -----------------------------------
  /// One record per analysis actually run (memo misses), in first-launch
  /// order. Derived state: never serialized into snapshots. The record owns
  /// a reference to the program: the memo is keyed on its address, so the
  /// program must stay alive for the memo's lifetime — otherwise a new
  /// program allocated at a recycled address would replay a stale verdict.
  struct VerifyRecord {
    isa::ProgramPtr program;
    sim::Dim3 grid, block;
    isa::verify::Result result;
  };
  const std::vector<VerifyRecord>& verify_reports() const {
    return verify_reports_;
  }
  /// Static analyses executed (== verify_reports().size()).
  u64 verify_runs() const { return verify_reports_.size(); }
  /// Launches answered from the memo without re-analysis.
  u64 verify_memo_hits() const { return verify_memo_hits_; }

  /// Block until all launched work completed (cudaDeviceSynchronize).
  /// Returns the GPU cycles consumed by this synchronization.
  Cycle synchronize();

  // ---- Checkpoint / restore ----------------------------------------------
  /// Automatic capture policy: kPreKernel snapshots at every synchronize()
  /// with pending kernel work (the rollback anchors), kInterval snapshots
  /// periodically during execution. Captured snapshots accumulate in
  /// checkpoints() in capture order.
  void set_checkpoint_policy(const ckpt::CheckpointPolicy& p);
  const ckpt::CheckpointPolicy& checkpoint_policy() const {
    return ckpt_policy_;
  }
  /// Explicit mid-run capture cycles (a campaign's fault-injection points).
  /// After the run, target_snapshots()[i] holds the snapshot covering
  /// targets()[i] (sorted order), or null if the run ended before it.
  void set_checkpoint_targets(std::vector<Cycle> cycles);
  const std::vector<Cycle>& targets() const { return ckpt_targets_; }
  const std::vector<ckpt::SnapshotPtr>& target_snapshots() const {
    return target_snaps_;
  }
  /// Policy captures in capture order. Pre-kernel anchors are all kept
  /// (one per sync round with pending work); interval captures are a ring
  /// of the most recent kMaxIntervalCheckpoints so long runs don't
  /// accumulate memory proportional to their length.
  const std::vector<ckpt::SnapshotPtr>& checkpoints() const {
    return checkpoints_;
  }
  void clear_checkpoints() {
    checkpoints_.clear();
    checkpoint_is_anchor_.clear();
  }
  static constexpr u32 kMaxIntervalCheckpoints = 8;

  /// Capture the complete device state right now (between host operations,
  /// or from the GPU's mid-run capture points). Captures are free on the
  /// modelled timeline (see PlatformParams::ckpt_restore_gbps).
  ckpt::SnapshotPtr snapshot();

  /// Exact restore: device state becomes the snapshot's, and continued
  /// execution is bit-identical to the run the snapshot was captured from —
  /// results, cycle counts, statistics and the modelled timeline included.
  /// Throws ckpt::SnapshotError on version/parameter mismatch.
  void restore(const ckpt::Snapshot& s);

  /// Rollback restore: the simulated machine state is restored exactly, but
  /// the host timeline keeps advancing — the restore is charged at the
  /// platform's checkpoint-restore rate, cycles re-executed after the
  /// rollback are charged again, and the fault hook's on_rollback() fires
  /// (a past transient disturbance does not recur). This is the recovery
  /// primitive behind RedundancySpec::Recovery::kRollback.
  void rollback(const ckpt::Snapshot& s);

  /// Restore `s` at the entry of the matching future synchronize() call
  /// (the one with the snapshot's sync_seq), fast-forwarding a
  /// deterministic re-run over its already-simulated prefix.
  void arm_resume(ckpt::SnapshotPtr s) { resume_ = std::move(s); }

  // ---- Host-side time accounting ----------------------------------------------
  /// Charge host computation over `bytes` of data.
  void host_compute(u64 bytes);
  /// Charge parsing `bytes` of a text input file (slow, fscanf-style).
  void host_parse(u64 bytes);
  /// Charge synthesizing `bytes` of input data in memory.
  void host_generate(u64 bytes);
  /// Charge a DCLS output comparison over `bytes`.
  void host_compare(u64 bytes);
  /// Charge a fixed host delay.
  void host_delay(NanoSec ns) { now_ns_ += ns; }

  NanoSec elapsed_ns() const { return now_ns_; }
  /// Total GPU cycles consumed inside synchronize() calls.
  Cycle gpu_cycles_consumed() const { return gpu_cycles_; }
  /// Real (host wall-clock) seconds spent inside the simulation engine
  /// across synchronize() calls — the denominator for engine-throughput
  /// benches. Not part of the modelled timeline.
  double sim_wall_seconds() const { return sim_wall_sec_; }
  /// Host wall-clock phase split (simulate / snapshot / restore) for this
  /// device's lifetime so far. Diagnostic only — never part of the modelled
  /// timeline or the determinism contract.
  obs::HostPhases host_phases() const {
    obs::HostPhases p;
    p.sim_s = sim_wall_sec_;
    p.snapshot_s = snapshot_wall_sec_;
    p.restore_s = restore_wall_sec_;
    return p;
  }

 private:
  void verify_launch(const sim::KernelLaunch& launch);
  void on_gpu_checkpoint(Cycle nominal, bool is_target);
  void push_checkpoint(ckpt::SnapshotPtr snap, bool anchor);
  ckpt::SnapshotPtr capture(Cycle nominal);
  void restore_impl(const ckpt::Snapshot& s, bool restore_fault);
  u64 params_fingerprint() const;
  /// The host timeline and global-store sections, for save and restore.
  template <class Ar, class S>
  static void io_state(Ar& ar, S& s);

  PlatformParams platform_;
  std::unique_ptr<memsys::GlobalStore> store_;
  std::unique_ptr<sim::Gpu> gpu_;
  NanoSec now_ns_ = 0;
  Cycle gpu_cycles_ = 0;
  Cycle synced_upto_ = 0;
  u64 sync_seq_ = 0;  // 1-based index of the synchronize() in progress
  double ns_per_cycle_;
  double sim_wall_sec_ = 0.0;
  double snapshot_wall_sec_ = 0.0;
  double restore_wall_sec_ = 0.0;
  // Blob size of the last capture: the next capture's Writer reserves it.
  size_t last_snapshot_bytes_ = 0;

  obs::Tracer* obs_ = nullptr;
  u32 obs_ckpt_track_ = 0;

  ckpt::CheckpointPolicy ckpt_policy_;
  std::vector<Cycle> ckpt_targets_;               // sorted
  std::vector<ckpt::SnapshotPtr> target_snaps_;   // parallel to ckpt_targets_
  std::vector<ckpt::SnapshotPtr> checkpoints_;    // policy captures, in order
  std::vector<u8> checkpoint_is_anchor_;          // parallel: 1 = pre-kernel
  ckpt::SnapshotPtr resume_;

  std::vector<VerifyRecord> verify_reports_;
  u64 verify_memo_hits_ = 0;
};

}  // namespace higpu::runtime
