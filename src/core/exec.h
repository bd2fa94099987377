// Unified N-copy redundant execution (paper §IV.A and footnote 1).
//
// One ExecSession covers every redundancy level the paper argues for:
//   n_copies = 1  — plain baseline execution (the Fig. 5 "Baseline"),
//   n_copies = 2  — DCLS-style duplication with host comparison (§IV.A),
//   n_copies >= 3 — N-modular redundancy with majority voting (footnote 1:
//                   "our approach could be seamlessly extended to other
//                   redundancy levels (e.g. triple modular redundancy)").
//
// The session implements the five-step offload flow on top of a
// runtime::Device:
//   (1) allocate GPU memory for every copy,
//   (2) transfer input data to each copy,
//   (3) launch the N redundant kernels with per-copy scheduling hints
//       (SRRS starting SMs spread around the ring; HALF becomes an N-way
//       SM partition),
//   (4) collect results back to the CPU,
//   (5) compare/vote the outcomes on the (assumed ASIL-D DCLS) host cores.
//
// What to do about a disagreement is part of the same value: a
// RedundancySpec carries the comparison semantics (bitwise / majority vote /
// float tolerance) and the recovery strategy (none / detect-and-retry within
// an FTTI / degrade), so "what does TMR cost vs DCLS+retry" is a spec sweep,
// not new code. Workload bodies are written once against ExecSession and run
// unchanged at any N.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/fields.h"
#include "runtime/device.h"
#include "safety/asil.h"
#include "sched/policies.h"

namespace higpu::core {

/// How many copies to run, how to compare them, and how to react — the
/// entire redundancy configuration as a sweepable value.
struct RedundancySpec {
  enum class Compare {
    kBitwise,       // all copies must agree bit-exactly (DCLS semantics)
    kMajorityVote,  // per-word strict majority wins; dissenters out-voted
    kTolerance,     // float compare within `tolerance` (abs + rel)
  };
  friend constexpr u32 enum_count(Compare) {
    return u32(Compare::kTolerance) + 1;
  }
  enum class Recovery {
    kNone,     // report only
    kRetry,    // detect -> re-execute (up to max_retries) within the FTTI
    kRollback, // detect -> restore the last clean device checkpoint and
               // re-execute only from there (up to max_retries rollbacks);
               // cheaper than kRetry exactly when the FTTI is tightest
    kDegrade,  // detect -> flag degraded-mode transition, no re-execution
  };
  friend constexpr u32 enum_count(Recovery) {
    return u32(Recovery::kDegrade) + 1;
  }

  /// Sentinel for "pick a diverse start automatically".
  static constexpr u32 kAuto = 0xFFFFFFFF;

  /// 1 = baseline, 2 = DCLS, >= 3 = NMR.
  u32 n_copies = 2;
  Compare compare = Compare::kBitwise;
  /// kTolerance: |a-b| <= tolerance * max(1, |a|, |b|) counts as agreement.
  float tolerance = 0.0f;
  /// Diversity hints: per-copy SRRS starting SMs. Missing / kAuto entries
  /// resolve to an even spread around the SM ring ((c * num_sms) / n), which
  /// reproduces the classic DCLS defaults {0, num_sms/2} at n = 2.
  std::vector<u32> srrs_starts;
  Recovery recovery = Recovery::kNone;
  /// kRetry: additional executions allowed after the first detection.
  /// kRollback: rollback attempts, walking checkpoints newest to oldest.
  u32 max_retries = 2;
  /// The item's Fault-Tolerant Time Interval, nanoseconds (FTTI verdicts).
  u64 ftti_ns = 100'000'000;

  // ---- Common configurations ----------------------------------------------
  static RedundancySpec baseline();
  /// The paper's DCLS pair: 2 copies, bitwise comparison.
  static RedundancySpec dcls();
  /// DCLS with detect-and-retry (fail-operational DMR, footnote 1).
  static RedundancySpec dcls_retry(u32 max_retries = 2,
                                   u64 ftti_ns = 100'000'000);
  /// DCLS with checkpoint-rollback recovery: on a detected miscompare the
  /// session restores the last clean device checkpoint (captured before the
  /// kernels ran, or mid-run under an interval CheckpointPolicy) instead of
  /// re-executing the whole offload — no input re-transfer, no replay of
  /// already-completed kernel rounds.
  static RedundancySpec dcls_rollback(u32 max_rollbacks = 2,
                                      u64 ftti_ns = 100'000'000);
  /// N-modular redundancy with majority voting (n >= 3; n = 3 is TMR —
  /// voting needs a strict majority, use dcls() for pairs).
  static RedundancySpec nmr(u32 n);
  static RedundancySpec tmr() { return nmr(3); }

  bool redundant() const { return n_copies >= 2; }
  /// SRRS start SM for copy `c`, resolving kAuto / missing entries.
  u32 srrs_start_of(u32 c, u32 num_sms) const;

  /// Stable label fragment: "base", "red", "red-retry2", "red-rollback2",
  /// "tmr-vote", "nmr5-vote", "red-tol0.0001" (+"-retryN"/"-rollbackN"/
  /// "-degrade" recovery suffix).
  std::string label() const;

  /// Throws std::invalid_argument naming the offending field: zero/huge
  /// copy counts, vote with < 3 copies, tolerance without kTolerance (and
  /// vice versa), SRRS starts outside the GPU or colliding after kAuto
  /// resolution (no spatial diversity), HALF partitions needing more SMs
  /// than the GPU has.
  void validate(const sim::GpuParams& gpu, sched::Policy policy) const;

  /// The ASIL reachable by this configuration under ISO 26262-9
  /// decomposition (paper §II/Fig. 1): each copy executes on the COTS GPU,
  /// an ASIL-B capable element; two or more copies compose via
  /// safety::composed_asil(B, B, independent), where independence holds
  /// only when the scheduling policy enforces diversity (SRRS/HALF). A
  /// single copy claims no decomposition credit.
  safety::Asil achieved_asil(sched::Policy policy) const;

  bool operator==(const RedundancySpec& other) const = default;
};

template <FieldsOf<RedundancySpec> R, class F>
void visit_fields(R& r, F&& f) {
  f("n_copies", r.n_copies);
  f("compare", r.compare);
  f("tolerance", r.tolerance);
  f("srrs_starts", r.srrs_starts);
  f("recovery", r.recovery);
  f("max_retries", r.max_retries);
  f("ftti_ns", r.ftti_ns);
}

const char* compare_name(RedundancySpec::Compare c);
const char* recovery_name(RedundancySpec::Recovery r);

/// A device allocation replicated across all copies (one entry per copy;
/// baseline sessions hold a single entry).
struct ReplicaPtr {
  std::vector<memsys::DevPtr> copy;

  /// The copy the host application reads back (copy 0).
  memsys::DevPtr primary() const { return copy.empty() ? 0 : copy[0]; }
};

/// Kernel parameter: a replicated buffer or a 32-bit scalar.
struct ReplicaParam {
  bool is_buffer = false;
  ReplicaPtr buf;
  u32 scalar = 0;

  ReplicaParam(const ReplicaPtr& p) : is_buffer(true), buf(p) {}  // NOLINT
  ReplicaParam(u32 v) : scalar(v) {}                              // NOLINT
  ReplicaParam(i32 v) : scalar(static_cast<u32>(v)) {}            // NOLINT
  ReplicaParam(float v) : scalar(f2bits(v)) {}                    // NOLINT
};

/// Outcome of one comparison/vote over a replicated buffer.
struct CompareVerdict {
  /// All copies agreed (bit-exactly, or within tolerance in kTolerance
  /// mode). Trivially true for baseline sessions.
  bool unanimous = false;
  /// A safe output exists: unanimous, or (kMajorityVote) a strict majority
  /// agreed on every word so dissenters were out-voted.
  bool majority = false;
  /// Words where at least one copy dissented.
  u64 dissenting_words = 0;
  /// Words with no strict majority (detected but uncorrectable; any bitwise
  /// or 2-copy disagreement lands here).
  u64 tied_words = 0;
  /// Index of a dissenting copy (first found), or -1.
  i32 faulty_copy = -1;
  /// Strict-majority words where the PRIMARY copy was the out-voted
  /// dissenter. These need repairing into the caller's host data; without
  /// a `host0` destination the majority value is discarded and the
  /// comparison does NOT count as safe.
  u64 primary_dissents = 0;
  /// The caller's host buffer was repaired with the voted majority words.
  bool corrected = false;

  /// Error detected (any disagreement at all).
  bool detected() const { return dissenting_words > 0 || tied_words > 0; }
};

class ExecSession {
 public:
  struct Config {
    sched::Policy policy = sched::Policy::kSrrs;
    RedundancySpec redundancy;
    /// Optional kernel-scheduler override. When set, the session installs
    /// scheduler_factory() instead of sched::make_scheduler(policy) — at
    /// construction AND at the start of every recovery attempt (each attempt
    /// gets fresh scheduler state, exactly as a fresh session would). The
    /// factory must produce schedulers that honour the policy's placement
    /// contract; the serve engine uses it to keep its deadline-aware EDF
    /// scheduler installed across attempts. `policy` still drives the
    /// per-copy SchedHints (SRRS starts / HALF masks) and ASIL accounting.
    std::function<std::unique_ptr<sim::IKernelScheduler>()> scheduler_factory;
  };

  /// Everything a recovery-wrapped execution reports: the fail-operational
  /// verdict plus the safety bookkeeping attached to the session.
  struct Report {
    /// Executions performed (1 = no uncorrectable error on the first try).
    u32 attempts = 0;
    /// A safe output was achieved (all comparisons unanimous or corrected
    /// by majority vote), possibly after re-execution.
    bool success = false;
    /// Recovery::kDegrade engaged: an uncorrectable error was detected and
    /// the item transitions to its degraded mode instead of re-executing.
    bool degraded = false;
    /// Modelled wall-clock of the whole detect/re-execute sequence.
    NanoSec total_ns = 0;
    /// FTTI verdict over the full sequence.
    safety::FttiBudget budget;
    /// RedundancySpec::achieved_asil for this session's configuration.
    safety::Asil asil = safety::Asil::kQM;
  };

  /// Installs the policy's kernel scheduler on the device's GPU. The
  /// redundancy spec must already be validated (ScenarioSpec::validate()
  /// does; direct users can call spec.validate() themselves).
  ExecSession(runtime::Device& dev, Config cfg);

  // ---- Step 1: allocation -------------------------------------------------
  ReplicaPtr alloc(u64 bytes);

  // ---- Step 2: input transfer ---------------------------------------------
  /// Uploads to every copy (n physical transfers).
  void h2d(const ReplicaPtr& dst, const void* src, u64 bytes);

  // ---- Step 3: redundant launch -------------------------------------------
  /// Launches one kernel per copy (stream = copy index) with the policy's
  /// per-copy scheduling hints (SRRS start SM / HALF partition mask).
  void launch(isa::ProgramPtr prog, sim::Dim3 grid, sim::Dim3 block,
              const std::vector<ReplicaParam>& params,
              const std::string& tag = "");

  /// Wait for all launched kernels of every copy. Drains the GPU through
  /// the configured simulation engine (event-driven by default; cycle
  /// counts are engine-independent). Returns GPU cycles consumed
  /// (accumulated into kernel_cycles()).
  Cycle sync();

  // ---- Step 4: result collection ------------------------------------------
  /// Reads back copy 0 (the host-visible result used by the application).
  void d2h(void* dst, const ReplicaPtr& src, u64 bytes);

  // ---- Step 5: comparison / vote ------------------------------------------
  /// Reads back copies 1..n-1 (and copy 0 unless the caller already fetched
  /// it and passes it via `host0`) and compares/votes them on the host per
  /// the spec's Compare mode. In kMajorityVote mode, when a strict majority
  /// exists and `host0` is non-null, dissenting words in `host0` are
  /// repaired with the voted value (fail-operational continuation); an
  /// out-voted PRIMARY copy with no `host0` to repair into counts as
  /// unsafe — the application would keep the wrong data. The
  /// fast path memcmps the copies and enters the word-by-word vote loop
  /// only on mismatch. No-op (unanimous) in baseline mode.
  ///
  /// Lifetime: under Recovery::kRollback the session records (buf, bytes,
  /// host0) and replays the comparison after a rollback — re-fetching the
  /// primary copy into `host0` to repair the application's data — so
  /// `host0` must stay valid until run() returns (pass member storage, not
  /// a stack local; every bundled workload does).
  CompareVerdict compare(const ReplicaPtr& buf, u64 bytes,
                         void* host0 = nullptr);

  // ---- Recovery -----------------------------------------------------------
  /// Run `body` under the spec's Recovery strategy: execute, and if an
  /// uncorrectable disagreement was detected, re-execute (kRetry, up to
  /// max_retries times), roll back to the last clean device checkpoint and
  /// resume from there (kRollback), or flag the degraded-mode transition
  /// (kDegrade). Per-attempt comparison counters reset between attempts (a
  /// retried mismatch that comes back clean is a recovered run);
  /// kernel_cycles and launch groups accumulate across attempts, so the
  /// session's totals are the real cost of the whole response. The FTTI
  /// verdict covers the full detect/re-execute sequence on the device's
  /// modelled timeline.
  ///
  /// kRollback mechanics: the session enables pre-kernel checkpointing on
  /// the device (unless a policy is already set — an interval policy adds
  /// mid-kernel checkpoints, shrinking the re-executed span further),
  /// records every launch and comparison the body performs, and on failure
  /// walks the captured checkpoints newest to oldest: restore, re-enqueue
  /// any launches the restore rolled away, re-drain the GPU, re-fetch the
  /// primary copies into the caller's host buffers, and re-compare. A
  /// checkpoint captured after the fault corrupted state simply fails its
  /// re-comparison and the walk falls back to an older (clean) one.
  ///
  /// Recovery boundary: rollback repairs device state and every
  /// compare()-registered host buffer — but NOT host-side values the body
  /// derived from mid-run d2h fetches (e.g. an accumulator updated per
  /// round from fetched partials); the session cannot re-run host code.
  /// Report::success therefore attests that all *compared* outputs are
  /// safe. Bodies whose application result folds uncompared per-round
  /// fetches into host state should use kRetry (full re-execution) or
  /// compare the buffers the host computation consumes.
  Report run(const std::function<void(ExecSession&)>& body);

  // ---- Results ------------------------------------------------------------
  u32 copies() const { return cfg_.redundancy.n_copies; }
  /// All comparisons of the current attempt were unanimous.
  bool all_unanimous() const { return detections_ == 0; }
  /// Every comparison of the current attempt produced a safe output
  /// (unanimous or majority-corrected) — the retry trigger is !all_safe().
  bool all_safe() const { return failures_ == 0; }
  u32 comparisons() const { return comparisons_; }
  /// Comparisons that detected any disagreement.
  u32 mismatches() const { return detections_; }
  /// First faulty copy identified across all comparisons, or -1.
  i32 faulty_copy() const { return faulty_copy_; }
  /// GPU cycles consumed across all sync() calls (the Fig. 4 metric),
  /// accumulated across recovery attempts.
  Cycle kernel_cycles() const { return kernel_cycles_; }
  /// Launch-id tuples of every redundant group (one id per copy).
  const std::vector<std::vector<u32>>& groups() const { return groups_; }
  /// Launch-id pairs (copy 0, copy 1) of every redundant group — the
  /// classic DCLS view consumed by the diversity analysis; empty in
  /// baseline mode.
  std::vector<std::pair<u32, u32>> pairs() const;
  /// Every unordered copy pair of every group, for N-way diversity
  /// analysis (equals pairs() at n = 2).
  std::vector<std::pair<u32, u32>> all_copy_pairs() const;
  runtime::Device& device() { return dev_; }
  const Config& config() const { return cfg_; }
  const RedundancySpec& redundancy() const { return cfg_.redundancy; }
  /// Flight-recorder dumps ("higpu.flight/1" JSON): when a tracer is
  /// attached to the device, every comparison that detects a disagreement
  /// captures the last trace events leading up to it — the black box for
  /// post-mortem analysis of a redundancy miscompare. One entry per
  /// detection, in detection order (accumulates across recovery attempts).
  const std::vector<std::string>& flight_dumps() const {
    return flight_dumps_;
  }

 private:
  sim::SchedHints hints_for_copy(u32 c) const;
  /// Lazily registers the host-side "compare" track on the device's tracer
  /// (which must be attached). Miscompare instants land there.
  u32 flight_track();
  void reset_attempt();
  void install_scheduler();
  void reset_compare_counters();
  bool rollback_once(const ckpt::Snapshot& snap);
  CompareVerdict vote_words(const std::vector<const u8*>& host, u64 bytes,
                            void* host0);

  runtime::Device& dev_;
  Config cfg_;
  u32 num_sms_;
  Cycle kernel_cycles_ = 0;
  u32 comparisons_ = 0;
  u32 detections_ = 0;
  u32 failures_ = 0;
  i32 faulty_copy_ = -1;
  std::vector<std::vector<u32>> groups_;
  std::vector<std::vector<u8>> scratch_;

  // Rollback-recovery bookkeeping (recorded only under Recovery::kRollback).
  struct RecordedLaunch {
    sim::KernelLaunch launch;  // one physical copy's launch, hints resolved
    u32 stream = 0;
  };
  struct RecordedCompare {
    ReplicaPtr buf;
    u64 bytes = 0;
    void* host0 = nullptr;
  };
  bool record_rollback_state_ = false;
  bool replaying_ = false;
  std::vector<RecordedLaunch> recorded_launches_;
  std::vector<RecordedCompare> recorded_compares_;

  std::vector<std::string> flight_dumps_;
  u32 flight_track_ = 0;
  bool flight_track_made_ = false;
  /// Trace events kept per flight dump.
  static constexpr size_t kFlightTail = 64;
};

}  // namespace higpu::core
