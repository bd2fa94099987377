// Versioned, deterministic binary snapshot of full device state.
//
// A Snapshot is everything the simulation's future depends on, captured at a
// consistent point: GPU core state (SMs, warps, scheduler, event-engine
// wake/heap bookkeeping), memory-system state (cache tags, MSHRs, DRAM
// bank/row state, global-store contents), the host runtime timeline, the
// kernel-scheduler cursors and any armed fault-injector state. Restoring a
// snapshot — onto the same device or a freshly constructed one with the same
// parameters — resumes execution bit-identically to a run that was never
// interrupted, under both SimEngine::kDense and SimEngine::kEvent.
//
// Three consumers build on this:
//  * rollback recovery  — core::ExecSession restores the last clean
//    checkpoint after a detected miscompare instead of re-executing the
//    whole offload from scratch (RedundancySpec::Recovery::kRollback);
//  * campaign fast-forward — exp::CampaignRunner simulates a fault sweep's
//    shared clean prefix once, snapshots at each injection point, and forks
//    the per-fault runs from the restored state;
//  * divergence diagnosis — per-component section hashes let
//    first_divergence() name the first architecturally divergent component
//    (SM i / L1 set s / DRAM bank b) between two snapshots.
//
// Kernel programs are immutable and shared: the blob references them by
// index into `programs`, which keeps them alive (and shareable across
// threads) for as long as any snapshot does.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/serial.h"
#include "common/fields.h"
#include "common/types.h"
#include "isa/program.h"

namespace higpu::ckpt {

/// When a runtime::Device captures checkpoints automatically.
struct CheckpointPolicy {
  enum class Kind : u8 {
    kNone,       // only explicit Device::snapshot() calls
    kInterval,   // during execution, roughly every `interval_cycles` cycles
                 // (at the next event boundary under the event engine)
    kPreKernel,  // at every synchronize() that has pending kernel work,
                 // before any of it executes (the rollback-recovery anchor)
  };
  friend constexpr u32 enum_count(Kind) { return u32(Kind::kPreKernel) + 1; }

  Kind kind = Kind::kNone;
  u64 interval_cycles = 0;

  static CheckpointPolicy none() { return {}; }
  /// Throws std::invalid_argument if `cycles` is zero.
  static CheckpointPolicy interval(u64 cycles);
  static CheckpointPolicy pre_kernel() {
    CheckpointPolicy p;
    p.kind = Kind::kPreKernel;
    return p;
  }

  bool active() const { return kind != Kind::kNone; }
  /// Label fragment for scenario identity: "" (none), "ckpt5000", "prekernel".
  std::string label() const;

  bool operator==(const CheckpointPolicy& other) const = default;
};

template <FieldsOf<CheckpointPolicy> R, class F>
void visit_fields(R& r, F&& f) {
  f("kind", r.kind);
  f("interval_cycles", r.interval_cycles);
}

class Snapshot {
 public:
  /// Bump on any change to the blob layout.
  /// v2: SmCore serializes the smem_oob_wraps counter (the always-on
  ///     replacement for the NDEBUG-only shared-memory bounds assert).
  /// v3: SmCore serializes the four cycle-attribution counters
  ///     (cycles_issued / cycles_stall_{scoreboard,barrier,structural}).
  /// v4: the meta section's parameter fingerprint hashes put_fields.
  static constexpr u32 kVersion = 4;
  static constexpr u64 kMagic = 0x48474355434B5054ull;  // "HGPUCKPT"

  // ---- Capture metadata (duplicated from the blob for cheap access) -------
  /// GPU clock at capture. All simulated work at cycles <= this is in the
  /// snapshot; resumed execution continues from here.
  Cycle cycle = 0;
  /// 1-based index of the Device::synchronize() call in progress at capture
  /// (0 = captured outside any synchronize). A forked run resumes by
  /// restoring at the entry of its own synchronize() with the same index.
  u64 sync_seq = 0;
  /// Kernels launched at capture time (launch ids [0, launch_count)).
  u64 launch_count = 0;
  /// Modelled host timeline at capture.
  NanoSec now_ns = 0;
  /// The checkpoint target cycle this capture satisfies (== cycle unless
  /// the event engine stopped between events; then cycle <= target).
  Cycle target = 0;

  // ---- State --------------------------------------------------------------
  std::vector<u8> blob;
  std::vector<Section> sections;
  /// Immutable kernel programs referenced by the blob (by index).
  std::vector<isa::ProgramPtr> programs;

  /// Hash over the full blob — two snapshots of identical device state hash
  /// identically (the blob layout is padding-free and deterministic).
  u64 hash() const { return fnv1a(blob.data(), blob.size()); }
  u64 size_bytes() const { return blob.size(); }

  const Section* find_section(const std::string& name) const;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// Name of the first architecturally divergent component between two
/// snapshots of same-shaped devices, scanning architectural state first:
/// SMs ("sm3"), then L1 tag arrays at set granularity ("l1[2] set 17"),
/// the L2 ("l2 set 40"), DRAM banks ("dram bank 5"), global-store contents
/// ("store @0x5100"), then the remaining bookkeeping sections by name.
/// Returns "" when the snapshots are identical, and "shape" when their
/// section layouts don't even line up (different device geometry).
std::string first_divergence(const Snapshot& a, const Snapshot& b);

}  // namespace higpu::ckpt
