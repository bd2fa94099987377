// Checkpoint/restore subsystem tests.
//
// The load-bearing guarantee: a run resumed from a snapshot is bit-identical
// to a run that was never interrupted — results, cycle counts, statistics,
// the modelled timeline — under both simulation engines, for every workload,
// with or without an armed fault (including snapshots taken mid fault
// window). On top of that: rollback recovery beats re-execution on response
// time, snapshot hash diffing localizes fault divergence, campaign
// fast-forward returns bit-identical ScenarioResults, and the ScenarioSet
// sweep builders reject empty bases loudly.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/wire.h"
#include "common/rng.h"
#include "exp/campaign.h"
#include "sched/policies.h"

namespace higpu {
namespace {

using exp::FaultPlan;
using exp::ScenarioResult;
using exp::ScenarioSet;
using exp::ScenarioSpec;
using exp::SnapshotIo;

ScenarioSpec make_spec(const std::string& workload, sim::SimEngine engine) {
  ScenarioSpec s;
  s.workload = workload;
  s.gpu.engine = engine;
  return s;
}

std::string diff_hint(const ScenarioResult& a, const ScenarioResult& b) {
  std::string out;
  auto f = [&](const char* name, u64 x, u64 y) {
    if (x != y)
      out += std::string(name) + " " + std::to_string(x) + " vs " +
             std::to_string(y) + "; ";
  };
  f("kernel_cycles", a.kernel_cycles, b.kernel_cycles);
  f("elapsed_ns", a.elapsed_ns, b.elapsed_ns);
  f("ff_cycles", a.ff_cycles, b.ff_cycles);
  f("attempts", a.attempts, b.attempts);
  f("comparisons", a.comparisons, b.comparisons);
  f("mismatches", a.mismatches, b.mismatches);
  f("corruptions", a.corruptions, b.corruptions);
  f("verified", a.verified, b.verified);
  f("instructions", a.stats.get("instructions"),
    b.stats.get("instructions"));
  f("stats==", a.stats == b.stats, true);
  return out.empty() ? "(labels/other fields differ)" : out;
}

/// Capture a snapshot at `target` during one run of `capture_spec`, fork
/// `fork_spec` from it, and require the fork to be bit-identical to a
/// from-scratch run of `fork_spec`. Also requires the capture run itself to
/// be unperturbed by the captures.
void expect_fork_identical(const ScenarioSpec& capture_spec,
                           const ScenarioSpec& fork_spec, Cycle target) {
  const ScenarioResult scratch_capture = exp::run_scenario(capture_spec);
  ASSERT_TRUE(scratch_capture.ok) << scratch_capture.error;
  const ScenarioResult scratch_fork = exp::run_scenario(fork_spec);
  ASSERT_TRUE(scratch_fork.ok) << scratch_fork.error;

  SnapshotIo base_io;
  base_io.capture_targets = {target};
  const ScenarioResult base =
      exp::run_scenario(capture_spec, 0, nullptr, nullptr, &base_io);
  ASSERT_TRUE(base.ok) << base.error;
  EXPECT_TRUE(base.deterministic_fields_equal(scratch_capture))
      << "captures perturbed the capture run: " << diff_hint(base, scratch_capture);
  ASSERT_NE(base_io.captured[0], nullptr)
      << capture_spec.label() << ": no snapshot covering cycle " << target;
  EXPECT_LE(base_io.captured[0]->cycle, target);

  SnapshotIo fork_io;
  fork_io.resume = base_io.captured[0];
  fork_io.divergence_ref = base_io.final_state;
  const ScenarioResult fork =
      exp::run_scenario(fork_spec, 0, nullptr, nullptr, &fork_io);
  ASSERT_TRUE(fork.ok) << fork.error;
  EXPECT_TRUE(fork.deterministic_fields_equal(scratch_fork))
      << fork_spec.label() << " forked from cycle "
      << base_io.captured[0]->cycle << ": " << diff_hint(fork, scratch_fork);
}

// ---- Save -> restore -> run bit-identical, all workloads x both engines ---

class CkptAllWorkloads
    : public ::testing::TestWithParam<std::tuple<std::string, sim::SimEngine>> {
};

TEST_P(CkptAllWorkloads, SaveRestoreRunBitIdentical) {
  const auto& [workload, engine] = GetParam();
  ScenarioSpec spec = make_spec(workload, engine);
  // Aim mid-execution: halfway through the total simulated cycle span.
  const ScenarioResult probe = exp::run_scenario(spec);
  ASSERT_TRUE(probe.ok) << probe.error;
  const Cycle target = probe.stats.get("cycles") / 2;
  expect_fork_identical(spec, spec, target);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CkptAllWorkloads,
    ::testing::Combine(::testing::ValuesIn(workloads::all_names()),
                       ::testing::Values(sim::SimEngine::kEvent,
                                         sim::SimEngine::kDense)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);  // "b+tree" -> "b_tree"
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name + (std::get<1>(info.param) == sim::SimEngine::kEvent
                         ? "_event"
                         : "_dense");
    });

// ---- Fuzz: restore at a random cycle mid fault window ---------------------

TEST(CkptFuzz, RestoreAtRandomCycleMidFaultWindow) {
  Rng rng(0xC0FFEEull);
  const std::vector<std::string> workloads = {"hotspot", "bfs", "srad"};
  for (const std::string& wl : workloads) {
    for (sim::SimEngine engine :
         {sim::SimEngine::kEvent, sim::SimEngine::kDense}) {
      ScenarioSpec clean = make_spec(wl, engine);
      const ScenarioResult probe = exp::run_scenario(clean);
      ASSERT_TRUE(probe.ok) << probe.error;
      const Cycle span = probe.stats.get("cycles");
      ASSERT_GT(span, 6000u);

      // A droop window inside the execution; three fuzzed capture points:
      // before, inside and right at the window.
      const Cycle start = 3000 + rng.next_below(span / 2);
      const Cycle width = 200 + rng.next_below(span / 4);
      ScenarioSpec faulted = clean;
      faulted.fault = FaultPlan::droop(start, width, 1 + rng.next_below(30));

      // Corruption can change control flow, so the faulted run's span is
      // its own; capture targets must fall inside it to be reachable.
      const ScenarioResult fprobe = exp::run_scenario(faulted);
      ASSERT_TRUE(fprobe.ok) << fprobe.error;
      const Cycle fspan = fprobe.stats.get("cycles");

      const Cycle targets[] = {rng.next_below(start), start,
                               start + rng.next_below(width)};
      for (Cycle t : targets) {
        if (t >= fspan) continue;  // window outlived the corrupted run
        SCOPED_TRACE(faulted.label() + " capture@" + std::to_string(t));
        // Capture during the faulted run itself (snapshots carry the armed
        // injector state, mid-window included) and fork the same fault.
        expect_fork_identical(faulted, faulted, t);
      }
    }
  }
}

// ---- Campaign fast-forward ------------------------------------------------

TEST(CkptCampaign, FastForwardBitIdenticalToFromScratch) {
  ScenarioSpec base = make_spec("hotspot", sim::SimEngine::kEvent);
  ScenarioSet set = ScenarioSet::of(base).sweep_faults(
      {FaultPlan::none(), FaultPlan::droop(9000, 400, 3),
       FaultPlan::droop(15000, 400, 3), FaultPlan::transient_sm(0, 12000, 600, 7),
       FaultPlan::permanent_sm(1, 10000, 5)});

  exp::CampaignRunner::Config plain_cfg;
  plain_cfg.jobs = 1;
  const exp::CampaignResult plain = exp::CampaignRunner(plain_cfg).run(set);

  exp::CampaignRunner::Config ff_cfg;
  ff_cfg.jobs = 1;
  ff_cfg.snapshot_fast_forward = true;
  const exp::CampaignResult ff = exp::CampaignRunner(ff_cfg).run(set);

  ASSERT_EQ(plain.results.size(), ff.results.size());
  for (size_t i = 0; i < plain.results.size(); ++i) {
    ASSERT_TRUE(plain.results[i].ok) << plain.results[i].error;
    ASSERT_TRUE(ff.results[i].ok) << ff.results[i].error;
    EXPECT_TRUE(plain.results[i].deterministic_fields_equal(ff.results[i]))
        << plain.results[i].label << ": "
        << diff_hint(ff.results[i], plain.results[i]);
  }
}

TEST(CkptCampaign, FastForwardBitIdenticalWithRollbackRecovery) {
  // Fast-forwarded forks of rollback scenarios must record the same
  // pre-kernel checkpoint anchors a from-scratch run records (at sync
  // entry, not at the teleported resume point), or the recovery walk — and
  // with it response_ns/attempts — would differ.
  ScenarioSpec base = make_spec("hotspot", sim::SimEngine::kEvent);
  base.redundancy = core::RedundancySpec::dcls_rollback(2);
  ScenarioSet set = ScenarioSet::of(base).sweep_faults(
      {FaultPlan::none(), FaultPlan::droop(9000, 1500, 3),
       FaultPlan::droop(15000, 1500, 3)});

  exp::CampaignRunner::Config plain_cfg;
  plain_cfg.jobs = 1;
  const exp::CampaignResult plain = exp::CampaignRunner(plain_cfg).run(set);
  exp::CampaignRunner::Config ff_cfg;
  ff_cfg.jobs = 1;
  ff_cfg.snapshot_fast_forward = true;
  const exp::CampaignResult ff = exp::CampaignRunner(ff_cfg).run(set);

  bool any_recovered = false;
  for (size_t i = 0; i < plain.results.size(); ++i) {
    ASSERT_TRUE(plain.results[i].ok) << plain.results[i].error;
    EXPECT_TRUE(plain.results[i].deterministic_fields_equal(ff.results[i]))
        << plain.results[i].label << ": "
        << diff_hint(ff.results[i], plain.results[i]);
    any_recovered = any_recovered || plain.results[i].recovered;
  }
  EXPECT_TRUE(any_recovered);  // the sweep must actually exercise recovery
}

TEST(CkptCampaign, FastForwardDeterministicAcrossJobs) {
  // Several fault-sweep groups (one per workload) so parallel workers each
  // own whole groups; results must not depend on the thread count.
  ScenarioSet set;
  for (const char* wl : {"hotspot", "nn", "pathfinder"})
    set.append(ScenarioSet::of(make_spec(wl, sim::SimEngine::kEvent))
                   .sweep_faults({FaultPlan::none(),
                                  FaultPlan::droop(8000, 400, 3),
                                  FaultPlan::droop(12000, 400, 3)}));

  exp::CampaignRunner::Config one;
  one.jobs = 1;
  one.snapshot_fast_forward = true;
  exp::CampaignRunner::Config four;
  four.jobs = 4;
  four.snapshot_fast_forward = true;
  const exp::CampaignResult a = exp::CampaignRunner(one).run(set);
  const exp::CampaignResult b = exp::CampaignRunner(four).run(set);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i)
    EXPECT_TRUE(a.results[i].deterministic_fields_equal(b.results[i]))
        << a.results[i].label << ": "
        << diff_hint(b.results[i], a.results[i]);
}

TEST(CkptCampaign, FastForwardReportsDivergenceForSdcOrDetectedFaults) {
  ScenarioSpec base = make_spec("hotspot", sim::SimEngine::kEvent);
  ScenarioSet set = ScenarioSet::of(base).sweep_faults(
      {FaultPlan::none(), FaultPlan::permanent_sm(0, 5000, 7),
       FaultPlan::permanent_sm(0, 5000, 8)});

  exp::CampaignRunner::Config cfg;
  cfg.jobs = 1;
  cfg.snapshot_fast_forward = true;
  const exp::CampaignResult res = exp::CampaignRunner(cfg).run(set);
  for (const ScenarioResult& r : res.results) {
    ASSERT_TRUE(r.ok) << r.error;
    if (!r.fault_active) continue;
    // A permanent SM fault that corrupted datapath results must leave an
    // architecturally divergent trace vs the clean run.
    if (r.corruptions > 0) {
      EXPECT_FALSE(r.divergence.empty()) << r.label;
    }
  }
}

// ---- Rollback recovery ----------------------------------------------------

TEST(CkptRollback, RecoversFromTransientAndBeatsRetry) {
  for (const std::string& wl : {std::string("hotspot"), std::string("nn")}) {
    ScenarioSpec retry = make_spec(wl, sim::SimEngine::kEvent);
    retry.fault = FaultPlan::droop(9000, 1500, 3);
    retry.redundancy = core::RedundancySpec::dcls_retry(2);
    const ScenarioResult r_retry = exp::run_scenario(retry);
    ASSERT_TRUE(r_retry.ok) << r_retry.error;

    ScenarioSpec rollback = retry;
    rollback.redundancy = core::RedundancySpec::dcls_rollback(2);
    const ScenarioResult r_rb = exp::run_scenario(rollback);
    ASSERT_TRUE(r_rb.ok) << r_rb.error;

    if (r_retry.mismatches == 0 && r_retry.attempts == 1) {
      // The window missed this workload's vulnerable phase: nothing to
      // recover, nothing to compare. (The bench sweeps windows that hit.)
      continue;
    }
    SCOPED_TRACE(wl);
    EXPECT_TRUE(r_rb.verified);
    EXPECT_TRUE(r_rb.recovered);
    EXPECT_EQ(r_rb.outcome, fault::Outcome::kDetected);
    EXPECT_GT(r_rb.attempts, 1u);
    // The point of checkpointing: the response fits a tighter budget than
    // whole-offload re-execution.
    EXPECT_LT(r_rb.response_ns, r_retry.response_ns);
  }
}

TEST(CkptRollback, WalksBackPastDirtyIntervalCheckpoints) {
  // Interval checkpoints land mid-execution; ones captured after the fault
  // corrupted state fail their re-comparison and the walk falls back to an
  // older clean checkpoint (ultimately the pre-kernel one).
  ScenarioSpec spec = make_spec("hotspot", sim::SimEngine::kEvent);
  spec.fault = FaultPlan::droop(9000, 1500, 3);
  spec.redundancy = core::RedundancySpec::dcls_rollback(4);
  spec.ckpt = ckpt::CheckpointPolicy::interval(2500);
  const ScenarioResult r = exp::run_scenario(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(r.recovered);
}

TEST(CkptRollback, PermanentFaultIsNotRecoverable) {
  ScenarioSpec spec = make_spec("hotspot", sim::SimEngine::kEvent);
  spec.fault = FaultPlan::permanent_sm(0, 0, 7);
  spec.redundancy = core::RedundancySpec::dcls_rollback(2);
  const ScenarioResult r = exp::run_scenario(spec);
  ASSERT_TRUE(r.ok) << r.error;
  // A permanent defect re-corrupts every re-execution; rollback must not
  // claim recovery (and must not silently pass corrupted data).
  EXPECT_FALSE(r.recovered);
  EXPECT_EQ(r.outcome, fault::Outcome::kDetected);
}

// ---- Snapshot hashing and divergence diagnosis ----------------------------

TEST(CkptSnapshot, HashStableAcrossSaveRestoreSave) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const memsys::DevPtr p = dev.malloc(4096);
  std::vector<u32> data(1024, 0xDEADBEEF);
  dev.memcpy_h2d(p, data.data(), data.size() * 4);

  const ckpt::SnapshotPtr snap = dev.snapshot();
  EXPECT_GT(snap->size_bytes(), 0u);

  runtime::Device dev2;
  dev2.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  dev2.restore(*snap);
  const ckpt::SnapshotPtr snap2 = dev2.snapshot();
  EXPECT_EQ(snap->hash(), snap2->hash());
  EXPECT_EQ(ckpt::first_divergence(*snap, *snap2), "");
  EXPECT_EQ(dev2.elapsed_ns(), dev.elapsed_ns());
}

TEST(CkptSnapshot, RestoreRejectsMismatchedParameters) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const ckpt::SnapshotPtr snap = dev.snapshot();

  sim::GpuParams other;
  other.num_sms = 4;
  runtime::Device dev2(other);
  dev2.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  EXPECT_THROW(dev2.restore(*snap), ckpt::SnapshotError);
}

TEST(CkptSnapshot, DivergenceNamesTheStore) {
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const memsys::DevPtr p = dev.malloc(256);
  u32 v = 1;
  dev.memcpy_h2d(p, &v, 4);
  const ckpt::SnapshotPtr a = dev.snapshot();
  v = 2;
  dev.memcpy_h2d(p, &v, 4);
  const ckpt::SnapshotPtr b = dev.snapshot();
  // Only global-store contents (and the host timeline) changed.
  EXPECT_EQ(ckpt::first_divergence(*a, *b).rfind("store", 0), 0u)
      << ckpt::first_divergence(*a, *b);
}

// ---- Golden snapshot bytes ------------------------------------------------

TEST(CkptGolden, DeviceSnapshotBytesArePinned) {
  // Pinned before the per-component state visitors replaced the hand-paired
  // save()/restore() codecs: a mid-run capture touches every section (SMs
  // with resident warps, MSHRs in flight, launches, block records, the
  // kernel scheduler, an armed injector) and its wire frame adds the
  // program codec. Any change to a snapshot or frame byte changes a hash;
  // such a change bumps Snapshot::kVersion (or kWireVersion) and re-pins.
  // The frame hashes were re-pinned at kWireVersion 2, whose section seals
  // and trailer are ckpt::seal; the blob hashes are unchanged.
  struct Case {
    const char* label;
    ScenarioSpec spec;
    Cycle target;
    u64 blob_hash;
    u64 frame_hash;
  };
  ScenarioSpec event = make_spec("bfs", sim::SimEngine::kEvent);
  event.policy = sched::Policy::kDefault;
  ScenarioSpec dense = make_spec("bfs", sim::SimEngine::kDense);
  ScenarioSpec tmr = make_spec("hotspot", sim::SimEngine::kEvent);
  tmr.policy = sched::Policy::kHalf;
  tmr.redundancy = core::RedundancySpec::tmr();
  tmr.fault = FaultPlan::transient_sm(1, 9000, 4000, 5);
  const Case cases[] = {
      {"bfs-event", event, 40000, 0x7db169c11c1e94aaull, 0x8037a429fcbff060ull},
      {"bfs-dense", dense, 40000, 0x8b775a584c4789f2ull, 0xf163b25a65bff522ull},
      {"hotspot-tmr-fault", tmr, 11000, 0xf6316977f472f639ull,
       0x99f334c1c14fbd3bull},
  };
  for (const Case& c : cases) {
    SnapshotIo io;
    io.capture_targets = {c.target};
    const ScenarioResult res =
        exp::run_scenario(c.spec, 0, nullptr, nullptr, &io);
    ASSERT_TRUE(res.ok) << c.label << ": " << res.error;
    ASSERT_NE(io.captured[0], nullptr) << c.label;
    const ckpt::Snapshot& snap = *io.captured[0];
    const std::vector<u8> frame = ckpt::encode_snapshot(snap);
    const u64 frame_hash = ckpt::fnv1a(frame.data(), frame.size());
    char hex[64];
    std::snprintf(hex, sizeof hex, "0x%016llxull, 0x%016llxull",
                  static_cast<unsigned long long>(snap.hash()),
                  static_cast<unsigned long long>(frame_hash));
    EXPECT_EQ(snap.hash(), c.blob_hash) << c.label << ": got " << hex;
    EXPECT_EQ(frame_hash, c.frame_hash) << c.label << ": got " << hex;
    EXPECT_EQ(ckpt::decode_snapshot(frame)->hash(), snap.hash()) << c.label;
  }
}

// ---- Crafted lengths -------------------------------------------------------

u64 u64_at(const std::vector<u8>& bytes, size_t at) {
  u64 v = 0;
  for (size_t i = 0; i < 8; ++i) v |= static_cast<u64>(bytes[at + i]) << (8 * i);
  return v;
}

void set_u64(std::vector<u8>& bytes, size_t at, u64 v) {
  for (size_t i = 0; i < 8; ++i) bytes[at + i] = static_cast<u8>(v >> (8 * i));
}

/// `frame` with the u64 at `at` replaced and the trailer re-sealed, so the
/// only defect left is the value itself.
std::vector<u8> with_u64(std::vector<u8> frame, size_t at, u64 v) {
  set_u64(frame, at, v);
  const size_t body = frame.size() - 8;
  set_u64(frame, body, ckpt::seal(frame.data(), body));
  return frame;
}

/// One section and one single-instruction program, so every count in its
/// frame sits at a fixed offset.
ckpt::Snapshot tiny_snapshot() {
  ckpt::Snapshot snap;
  snap.blob = {1, 2, 3, 4};
  snap.sections.push_back({"s", 0, 4, 0, ckpt::seal(snap.blob.data(), 4)});
  snap.programs.push_back(std::make_shared<const isa::KernelProgram>(
      "k", std::vector<isa::Instruction>(1), 1, 0, 0, 0));
  return snap;
}

TEST(CkptWire, RejectsOversizedCounts) {
  const std::vector<u8> frame = ckpt::encode_snapshot(tiny_snapshot());
  ASSERT_NO_THROW(ckpt::decode_snapshot(frame));

  // Header (magic, two versions), then five metadata words.
  constexpr size_t kSectionCount = 8 + 4 + 4 + 5 * 8;
  constexpr size_t kSectionName = kSectionCount + 8;
  // Name "s", then offset, length, record size and hash.
  constexpr size_t kBlobLen = kSectionName + 8 + 1 + 4 * 8;
  constexpr size_t kProgramCount = kBlobLen + 8 + 4;
  constexpr size_t kProgramName = kProgramCount + 8;
  // Name "k", then register, predicate, shared and parameter sizes.
  constexpr size_t kCodeCount = kProgramName + 8 + 1 + 2 + 2 + 4 + 4;
  constexpr u64 kHuge = u64{1} << 40;
  const struct {
    const char* what;
    size_t at;
    u64 stored;
    u64 crafted;
  } cases[] = {
      {"section count", kSectionCount, 1, kHuge},
      {"blob length", kBlobLen, 4, kHuge},
      {"program count", kProgramCount, 1, kHuge},
      {"instruction count", kCodeCount, 1, kHuge},
      {"section name length", kSectionName, 1, ~u64{0}},
      {"program name length", kProgramName, 1, ~u64{0}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    ASSERT_EQ(u64_at(frame, c.at), c.stored);  // the offset is the count's
    EXPECT_THROW(ckpt::decode_snapshot(with_u64(frame, c.at, c.crafted)),
                 ckpt::SnapshotError);
  }

  // Counts inside a device snapshot's blob: the event-engine wake table
  // (after the gpu section's 42 bytes of clock and engine state) and the
  // global-store image (after the store's 4-byte allocator cursor).
  runtime::Device dev;
  dev.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
  const ckpt::SnapshotPtr base = dev.snapshot();
  const u64 store_bytes = base->find_section("store")->len - 4 - 8;
  const struct {
    const char* section;
    size_t at;
    u64 stored;
  } blob_cases[] = {{"gpu", 42, sim::GpuParams{}.num_sms},
                    {"store", 4, store_bytes}};
  for (const auto& c : blob_cases) {
    SCOPED_TRACE(c.section);
    ckpt::Snapshot crafted = *base;
    const ckpt::Section& s = *crafted.find_section(c.section);
    ASSERT_EQ(u64_at(crafted.blob, s.offset + c.at), c.stored);
    set_u64(crafted.blob, s.offset + c.at, kHuge);
    runtime::Device dev2;
    dev2.set_kernel_scheduler(sched::make_scheduler(sched::Policy::kSrrs));
    EXPECT_THROW(dev2.restore(crafted), ckpt::SnapshotError);
  }
}

TEST(SnapshotWire, RefusesPreviousWireVersion) {
  // A v1 frame: FNV-1a section hashes and an FNV-1a trailer. Its version is
  // read before its trailer, so the refusal names both versions instead of
  // reporting a checksum mismatch.
  ckpt::Snapshot snap = tiny_snapshot();
  snap.sections[0].hash = ckpt::fnv1a(snap.blob.data(), snap.blob.size());
  std::vector<u8> frame = ckpt::encode_snapshot(snap);
  constexpr size_t kVersionAt = 8;
  ASSERT_EQ(frame[kVersionAt], ckpt::kWireVersion);
  frame[kVersionAt] = 1;
  const size_t body = frame.size() - 8;
  set_u64(frame, body, ckpt::fnv1a(frame.data(), body));
  try {
    ckpt::decode_snapshot(frame);
    FAIL() << "a v1 frame was accepted";
  } catch (const ckpt::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
    EXPECT_NE(what.find("v" + std::to_string(ckpt::kWireVersion)),
              std::string::npos)
        << what;
  }
}

// ---- Section seal ----------------------------------------------------------

TEST(CkptSeal, DetectsEverySingleByteFlip) {
  // Every xor pattern at every position of every length up to 97: all
  // tail lengths, the whole-word steps and three 32-byte stripes.
  Rng rng(2019);
  u64 missed = 0;
  std::string first_miss;
  auto check = [&](std::vector<u8>& buf, size_t at, u8 x, u64 clean) {
    buf[at] ^= x;
    if (ckpt::seal(buf.data(), buf.size()) == clean && missed++ == 0)
      first_miss = "len " + std::to_string(buf.size()) + " byte " +
                   std::to_string(at) + " xor " + std::to_string(x);
    buf[at] ^= x;
  };
  for (size_t len = 0; len <= 97; ++len) {
    std::vector<u8> buf(len);
    for (u8& b : buf) b = static_cast<u8>(rng.next_below(256));
    const u64 clean = ckpt::seal(buf.data(), len);
    for (size_t at = 0; at < len; ++at)
      for (u32 x = 1; x < 256; ++x) check(buf, at, static_cast<u8>(x), clean);
  }
  // 64 KiB: every byte flipped with one pattern (cycling through all 255),
  // and every pattern in the first and the last stripe.
  std::vector<u8> big(64 << 10);
  for (u8& b : big) b = static_cast<u8>(rng.next_below(256));
  const u64 clean = ckpt::seal(big.data(), big.size());
  for (size_t at = 0; at < big.size(); ++at)
    check(big, at, static_cast<u8>(1 + at % 255), clean);
  for (size_t i = 0; i < 32; ++i)
    for (u32 x = 1; x < 256; ++x) {
      check(big, i, static_cast<u8>(x), clean);
      check(big, big.size() - 1 - i, static_cast<u8>(x), clean);
    }
  EXPECT_EQ(missed, 0u) << "first undetected flip: " << first_miss;
}

TEST(CkptSeal, ValueIsPinned) {
  // 109 bytes: three stripes, one whole word and a 5-byte tail. The seal is
  // part of the frame format; changing it bumps kWireVersion.
  const std::string text =
      "higpu.snap/2 seals each section word by word; Snapshot::hash() "
      "stays FNV-1a over the blob, as its goldens pin";
  ASSERT_EQ(text.size(), 109u);
  const u8* bytes = reinterpret_cast<const u8*>(text.data());
  EXPECT_EQ(ckpt::seal(bytes, text.size()), 0x0b02568ded08bd1eull);
  EXPECT_EQ(ckpt::seal(nullptr, 0), 0x878d0dfbf1b6679aull);
}

// ---- Writer layout ---------------------------------------------------------

enum class Lane : u16 { kLow = 3, kWide = 0x0a0b };

struct Rec {
  u32 id = 0;
  bool flag = false;
  bool operator==(const Rec&) const = default;
};

/// Every field kind once, in a section, through the shared visitor.
template <class Ar, class S>
void io_layout(Ar& ar, S& s) {
  ar.begin_section("layout");
  ar.io(std::get<0>(s));
  ar.io(std::get<1>(s));
  ar.io(std::get<2>(s));
  ar.io(std::get<3>(s));
  ar.io(std::get<4>(s));
  ar.io(std::get<5>(s));
  ar.io(std::get<6>(s));
  ar.io(ckpt::as<u8>(std::get<7>(s)));
  ar.io(ckpt::as<u64>(std::get<8>(s)));
  ar.io(std::get<9>(s));
  ar.io(std::get<10>(s));
  ar.io(std::get<11>(s));
  ar.io(std::get<12>(s));
  ar.io(std::get<13>(s));
  ar.io(std::get<14>(s));
  ar.io(std::get<15>(s));
  ar.io(std::get<16>(s));
  ar.io(std::get<17>(s), [](auto& a, auto& r) {
    a.io(r.id);
    a.io(r.flag);
  });
  ar.end_section();
}

using Layout =
    std::tuple<u8, u16, u32, u64, i32, bool, Lane, Lane, u32, std::vector<u8>,
               std::vector<u16>, std::vector<u32>, std::vector<u64>,
               std::vector<bool>, std::vector<Lane>, std::vector<u32>,
               std::string, std::vector<Rec>>;

TEST(CkptWriter, BytesMatchReferenceLayout) {
  // The documented layout: scalars little-endian at their own width (or at
  // the as<W> width), vectors and strings as a u64 count then the elements,
  // bools one byte.
  const Layout in{0x12,
                  0x3456,
                  0x789abcde,
                  0x0102030405060708ull,
                  -2,
                  true,
                  Lane::kWide,
                  Lane::kLow,
                  0xdeadbeef,
                  {1, 2, 3},
                  {0x0102, 0xfffe},
                  {0x01020304},
                  {0x1122334455667788ull, 1},
                  {true, false, true},
                  {Lane::kWide},
                  {},
                  "hi",
                  {{5, true}, {6, false}}};
  const std::vector<u8> expected = {
      0x12,                                            // u8
      0x56, 0x34,                                      // u16
      0xde, 0xbc, 0x9a, 0x78,                          // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
      0xfe, 0xff, 0xff, 0xff,                          // i32 -2
      0x01,                                            // bool
      0x0b, 0x0a,                                      // u16 enum
      0x03,                                            // as<u8>(enum)
      0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0,              // as<u64>(u32)
      3, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3,                 // vector<u8>
      2, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x01, 0xfe, 0xff,  // vector<u16>
      1, 0, 0, 0, 0, 0, 0, 0, 0x04, 0x03, 0x02, 0x01,  // vector<u32>
      2, 0, 0, 0, 0, 0, 0, 0,                          // vector<u64>
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  //
      1, 0, 0, 0, 0, 0, 0, 0,                          //
      3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1,                 // vector<bool>
      1, 0, 0, 0, 0, 0, 0, 0, 0x0b, 0x0a,              // vector<enum>
      0, 0, 0, 0, 0, 0, 0, 0,                          // empty vector
      2, 0, 0, 0, 0, 0, 0, 0, 'h', 'i',                // string
      2, 0, 0, 0, 0, 0, 0, 0,                          // record vector
      5, 0, 0, 0, 1,                                   //
      6, 0, 0, 0, 0,                                   //
  };
  ckpt::Writer w(8);  // too small: the writer grows while writing
  io_layout(w, in);
  EXPECT_EQ(w.blob(), expected);
  const std::vector<ckpt::Section> sections = w.take_sections();
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].len, expected.size());
  EXPECT_EQ(sections[0].hash, ckpt::seal(expected.data(), expected.size()));

  // The Reader mirrors it and consumes the section exactly.
  ckpt::Reader r(expected, sections);
  Layout out;
  io_layout(r, out);
  EXPECT_TRUE(out == in);
}

// ---- Policy / label / sweep validation ------------------------------------

TEST(CkptPolicy, IntervalZeroThrows) {
  EXPECT_THROW(ckpt::CheckpointPolicy::interval(0), std::invalid_argument);
}

TEST(CkptPolicy, LabelsAndSpecLabels) {
  EXPECT_EQ(ckpt::CheckpointPolicy::none().label(), "");
  EXPECT_EQ(ckpt::CheckpointPolicy::interval(5000).label(), "ckpt5000");
  EXPECT_EQ(ckpt::CheckpointPolicy::pre_kernel().label(), "prekernel");
  EXPECT_EQ(core::RedundancySpec::dcls_rollback(2).label(), "red-rollback2");

  ScenarioSpec spec = make_spec("hotspot", sim::SimEngine::kEvent);
  spec.redundancy = core::RedundancySpec::dcls_rollback(3);
  spec.ckpt = ckpt::CheckpointPolicy::interval(5000);
  const std::string label = spec.label();
  EXPECT_NE(label.find("red-rollback3"), std::string::npos) << label;
  EXPECT_NE(label.find(":ckpt5000"), std::string::npos) << label;
}

TEST(CkptPolicy, CheckpointingDoesNotPerturbResults) {
  ScenarioSpec plain = make_spec("bfs", sim::SimEngine::kEvent);
  ScenarioSpec ckpted = plain;
  ckpted.ckpt = ckpt::CheckpointPolicy::interval(2000);
  const ScenarioResult a = exp::run_scenario(plain);
  const ScenarioResult b = exp::run_scenario(ckpted);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.kernel_cycles, b.kernel_cycles);
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.ff_cycles, b.ff_cycles);
  EXPECT_TRUE(a.stats == b.stats);
}

TEST(CkptSweeps, EmptyBaseSetThrowsNamingTheBuilder) {
  const ScenarioSet empty;
  const auto expect_named = [&](const char* name, auto&& call) {
    try {
      call();
      FAIL() << name << " accepted an empty base set";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  expect_named("sweep_policies",
               [&] { (void)empty.sweep_policies({sched::Policy::kSrrs}); });
  expect_named("sweep_faults",
               [&] { (void)empty.sweep_faults({FaultPlan::none()}); });
  expect_named("sweep_seeds", [&] { (void)empty.sweep_seeds({1}); });
  expect_named("sweep_workloads",
               [&] { (void)empty.sweep_workloads({"hotspot"}); });
  expect_named("sweep_redundancy", [&] { (void)empty.sweep_redundancy(); });
  expect_named("sweep_mem",
               [&] { (void)empty.sweep_mem({memsys::MemParams{}}); });
  expect_named("sweep_write_policies",
               [&] { (void)empty.sweep_write_policies(); });
  expect_named("product", [&] {
    (void)empty.product({[](ScenarioSpec&) {}});
  });
}

}  // namespace
}  // namespace higpu
