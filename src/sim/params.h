// Top-level GPU configuration.
//
// Defaults approximate the paper's evaluated platforms: a 6-SM GPU
// (GPGPU-Sim config in Fig. 4; the GTX 1050 Ti of Fig. 5 also has 6 SMs).
#pragma once

#include "common/fields.h"
#include "common/types.h"
#include "memsys/params.h"

namespace higpu::sim {

/// Simulation-core engine selection.
///
/// * kEvent — event-driven: SMs report the earliest cycle at which any
///   resident warp can become ready (scoreboard release, memory-response
///   arrival, unit availability, barrier release) and the GPU advances the
///   clock directly to the next such event, fast-forwarding quiescent
///   cycles. Bit-identical in results, cycle counts and statistics to the
///   dense loop.
/// * kDense — the classic tick loop: every SM is stepped on every cycle.
///   Kept as the reference implementation for the dual-engine equivalence
///   test and as a debugging fallback.
enum class SimEngine { kEvent, kDense };

/// Instruction-dispatch engine selection (orthogonal to SimEngine).
///
/// * kBlock — block-compiled: at launch each program is lowered once into a
///   pre-decoded superinstruction trace (see sim/blockexec.h) and the issue
///   stage dispatches through it; memory/control/barrier ops fall back to
///   the interpreter. Bit-identical results, cycle counts and architectural
///   statistics to kInterp — only dispatch cost changes.
/// * kInterp — the original per-instruction interpreter, kept as the
///   reference for the block/interp equivalence tests and benchmarks.
enum class ExecMode { kBlock, kInterp };

/// Launch-time static verification (see isa/verify/verify.h).
///
/// * kEnforce — every program is verified on its first launch per
///   (program, grid, block); error-severity diagnostics refuse the launch
///   with an isa::verify::VerifyError carrying the structured report.
///   Subsequent launches of the same program hit a memo and pay nothing
///   (trace-cache-style, like blockexec compilation).
/// * kWarn — verify and record the report, and launch merely-wrong programs
///   regardless (uninit reads, barrier deadlocks, modelled-memory OOB).
///   Programs whose defects would index *host* memory out of bounds on the
///   simulator's unchecked fetch / register-file paths
///   (isa::verify::Result::unsafe_to_execute) are still refused: there is
///   no meaningful "warn and run" for UB.
/// * kOff — skip verification entirely. Unsafe with untrusted programs:
///   nothing then guards the unchecked indexing paths (Warp::reg_at,
///   code fetch, parameter loads).
///
/// Like ExecMode, this never changes what a *valid* program computes, so it
/// is excluded from the snapshot parameter fingerprint.
enum class LaunchVerify { kEnforce, kWarn, kOff };

struct GpuParams {
  SimEngine engine = SimEngine::kEvent;
  ExecMode exec_mode = ExecMode::kBlock;
  LaunchVerify verify = LaunchVerify::kEnforce;

  u32 num_sms = 6;
  u32 warp_size = 32;

  // Per-SM occupancy limits.
  u32 max_warps_per_sm = 48;
  u32 max_blocks_per_sm = 16;
  u32 regfile_per_sm = 64 * 1024;      // 32-bit registers
  u32 shared_per_sm = 48 * 1024;       // bytes

  // Issue stage.
  u32 num_warp_schedulers = 2;

  // Execution latencies (cycles until writeback).
  u32 sp_latency = 6;
  u32 sfu_latency = 16;
  u32 sfu_interval = 4;  // SFU initiation interval (cycles between issues)

  // Host->GPU kernel dispatch is intrinsically serial (paper §IV.A): the
  // i-th launched kernel becomes visible to the kernel scheduler this many
  // cycles after the previous one (~2 us of driver/dispatch path at 1.4 GHz).
  u32 launch_gap_cycles = 3000;

  // Core clock, used to convert cycles to wall time in the platform model.
  double clock_ghz = 1.4;

  memsys::MemParams mem;

  bool operator==(const GpuParams& other) const = default;
};

constexpr u32 enum_count(SimEngine) { return u32(SimEngine::kDense) + 1; }
constexpr u32 enum_count(ExecMode) { return u32(ExecMode::kInterp) + 1; }
constexpr u32 enum_count(LaunchVerify) { return u32(LaunchVerify::kOff) + 1; }

template <FieldsOf<GpuParams> R, class F>
void visit_fields(R& r, F&& f) {
  f("engine", r.engine);
  f("exec_mode", r.exec_mode);
  f("verify", r.verify);
  f("num_sms", r.num_sms);
  f("warp_size", r.warp_size);
  f("max_warps_per_sm", r.max_warps_per_sm);
  f("max_blocks_per_sm", r.max_blocks_per_sm);
  f("regfile_per_sm", r.regfile_per_sm);
  f("shared_per_sm", r.shared_per_sm);
  f("num_warp_schedulers", r.num_warp_schedulers);
  f("sp_latency", r.sp_latency);
  f("sfu_latency", r.sfu_latency);
  f("sfu_interval", r.sfu_interval);
  f("launch_gap_cycles", r.launch_gap_cycles);
  f("clock_ghz", r.clock_ghz);
  f("mem", r.mem);
}

}  // namespace higpu::sim
