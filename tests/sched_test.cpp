// Kernel-scheduler policy behaviour: SRRS mapping/serialization, HALF
// partitioning via masks, default-policy concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "ckpt/serial.h"
#include "memsys/global_store.h"
#include "sched/edf.h"
#include "sched/policies.h"
#include "sim/gpu.h"
#include "tests/test_kernels.h"

namespace higpu::sched {
namespace {

using sim::BlockRecord;
using sim::Gpu;
using sim::GpuParams;
using sim::KernelLaunch;
using testing::make_launch;
using testing::make_spin_kernel;

struct RunResult {
  std::vector<BlockRecord> records;
  Cycle first_dispatch_a = 0, done_a = 0;
  Cycle first_dispatch_b = 0, done_b = 0;
};

/// Launch two copies of the same kernel under `policy` with the given hints.
RunResult run_pair(Policy policy, u32 threads, u32 spin, sim::SchedHints ha,
                   sim::SchedHints hb) {
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  gpu.set_kernel_scheduler(make_scheduler(policy));

  isa::ProgramPtr prog = make_spin_kernel(spin);
  KernelLaunch a = make_launch(prog, threads, 128,
                               {store.alloc(threads * 4), threads});
  a.hints = ha;
  a.stream = 0;
  KernelLaunch b = make_launch(prog, threads, 128,
                               {store.alloc(threads * 4), threads});
  b.hints = hb;
  b.stream = 1;

  const u32 ida = gpu.launch(std::move(a));
  const u32 idb = gpu.launch(std::move(b));
  gpu.run_until_idle(200'000'000);

  RunResult r;
  r.records = gpu.block_records();
  r.first_dispatch_a = gpu.kernel_state(ida).first_dispatch_cycle;
  r.done_a = gpu.kernel_state(ida).done_cycle;
  r.first_dispatch_b = gpu.kernel_state(idb).first_dispatch_cycle;
  r.done_b = gpu.kernel_state(idb).done_cycle;
  return r;
}

TEST(SmRangeMask, BuildsExpectedBits) {
  EXPECT_EQ(sm_range_mask(0, 3), 0b111u);
  EXPECT_EQ(sm_range_mask(3, 6), 0b111000u);
  EXPECT_EQ(sm_range_mask(2, 2), 0u);
}

TEST(SmRangeMask, EdgeWidthsAreWellDefined) {
  // hi == 64 must fill the whole mask without a 64-bit shift (UB); the
  // widest single shift the implementation performs is 1ull << 63.
  EXPECT_EQ(sm_range_mask(0, 64), ~0ull);
  EXPECT_EQ(sm_range_mask(63, 64), 1ull << 63);
  // Empty ranges at both extremes are exactly zero.
  EXPECT_EQ(sm_range_mask(0, 0), 0u);
  EXPECT_EQ(sm_range_mask(64, 64), 0u);
}

TEST(SchedHints, MaskSemantics) {
  sim::SchedHints h;
  EXPECT_TRUE(h.sm_allowed(0));  // 0 mask = all allowed
  EXPECT_TRUE(h.sm_allowed(5));
  h.sm_mask = 0b101;
  EXPECT_TRUE(h.sm_allowed(0));
  EXPECT_FALSE(h.sm_allowed(1));
  EXPECT_TRUE(h.sm_allowed(2));
}

TEST(Srrs, StrictRoundRobinMapping) {
  sim::SchedHints ha, hb;
  ha.start_sm = 0;
  hb.start_sm = 3;
  const RunResult r = run_pair(Policy::kSrrs, 36 * 128, 20, ha, hb);
  for (const BlockRecord& rec : r.records) {
    const u32 start = rec.launch_id == 0 ? 0u : 3u;
    EXPECT_EQ(rec.sm, (start + rec.block_linear) % 6)
        << "launch " << rec.launch_id << " block " << rec.block_linear;
  }
}

TEST(Srrs, DifferentStartsGiveDisjointSmsPerBlock) {
  sim::SchedHints ha, hb;
  ha.start_sm = 0;
  hb.start_sm = 3;
  const RunResult r = run_pair(Policy::kSrrs, 24 * 128, 20, ha, hb);
  std::map<u32, u32> sm_a, sm_b;
  for (const BlockRecord& rec : r.records)
    (rec.launch_id == 0 ? sm_a : sm_b)[rec.block_linear] = rec.sm;
  ASSERT_EQ(sm_a.size(), sm_b.size());
  for (const auto& [block, sm] : sm_a) EXPECT_NE(sm, sm_b.at(block));
}

TEST(Srrs, FullySerializesKernels) {
  sim::SchedHints ha, hb;
  hb.start_sm = 3;
  const RunResult r = run_pair(Policy::kSrrs, 24 * 128, 50, ha, hb);
  // The second kernel starts only after the first fully completed.
  EXPECT_GE(r.first_dispatch_b, r.done_a);
}

TEST(Srrs, BlockIntervalsNeverOverlapAcrossCopies) {
  sim::SchedHints ha, hb;
  hb.start_sm = 1;
  const RunResult r = run_pair(Policy::kSrrs, 12 * 128, 50, ha, hb);
  Cycle max_end_a = 0, min_start_b = ~Cycle{0};
  for (const BlockRecord& rec : r.records) {
    if (rec.launch_id == 0) max_end_a = std::max(max_end_a, rec.end_cycle);
    if (rec.launch_id == 1)
      min_start_b = std::min(min_start_b, rec.dispatch_cycle);
  }
  EXPECT_GE(min_start_b, max_end_a);
}

TEST(Half, MasksPartitionTheSms) {
  sim::SchedHints ha, hb;
  ha.sm_mask = sm_range_mask(0, 3);
  hb.sm_mask = sm_range_mask(3, 6);
  const RunResult r = run_pair(Policy::kHalf, 24 * 128, 50, ha, hb);
  for (const BlockRecord& rec : r.records) {
    if (rec.launch_id == 0)
      EXPECT_LT(rec.sm, 3u);
    else
      EXPECT_GE(rec.sm, 3u);
  }
}

TEST(Half, CopiesOverlapInTime) {
  sim::SchedHints ha, hb;
  ha.sm_mask = sm_range_mask(0, 3);
  hb.sm_mask = sm_range_mask(3, 6);
  const RunResult r = run_pair(Policy::kHalf, 24 * 128, 400, ha, hb);
  // Friendly kernels: the second copy starts well before the first ends.
  EXPECT_LT(r.first_dispatch_b, r.done_a);
}

TEST(Default, UsesAllSmsAndOverlaps) {
  const RunResult r = run_pair(Policy::kDefault, 24 * 128, 400, {}, {});
  std::set<u32> sms_a;
  for (const BlockRecord& rec : r.records)
    if (rec.launch_id == 0) sms_a.insert(rec.sm);
  EXPECT_EQ(sms_a.size(), 6u);  // unconstrained kernel spreads over all SMs
  EXPECT_LT(r.first_dispatch_b, r.done_a);  // concurrent kernels
}

TEST(Default, RespectsStreamOrdering) {
  // Two kernels on the SAME stream must serialize even under Default.
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  gpu.set_kernel_scheduler(std::make_unique<DefaultKernelScheduler>());
  isa::ProgramPtr prog = make_spin_kernel(50);
  KernelLaunch a = make_launch(prog, 12 * 128, 128, {store.alloc(12 * 128 * 4), 12 * 128});
  KernelLaunch b = make_launch(prog, 12 * 128, 128, {store.alloc(12 * 128 * 4), 12 * 128});
  a.stream = 7;
  b.stream = 7;
  const u32 ida = gpu.launch(std::move(a));
  const u32 idb = gpu.launch(std::move(b));
  gpu.run_until_idle(100'000'000);
  EXPECT_GE(gpu.kernel_state(idb).first_dispatch_cycle,
            gpu.kernel_state(ida).done_cycle);
}

TEST(Policies, FactoryAndNames) {
  EXPECT_EQ(make_scheduler(Policy::kSrrs)->name(), "srrs");
  EXPECT_EQ(make_scheduler(Policy::kDefault)->name(), "default");
  EXPECT_EQ(make_scheduler(Policy::kHalf)->name(), "default");  // HALF = masks
  EXPECT_STREQ(policy_name(Policy::kHalf), "half");
  EXPECT_STREQ(policy_name(Policy::kSrrs), "srrs");
}

TEST(Srrs, HonoursLaunchGapBeforeStart) {
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  gpu.set_kernel_scheduler(std::make_unique<SrrsKernelScheduler>());
  KernelLaunch l = make_launch(make_spin_kernel(10), 128, 128,
                               {store.alloc(128 * 4), 128});
  const u32 id = gpu.launch(std::move(l));
  gpu.run_until_idle(10'000'000);
  EXPECT_GE(gpu.kernel_state(id).first_dispatch_cycle, p.launch_gap_cycles);
}

// ---- EDF-over-streams (serving mode) ---------------------------------------

TEST(Edf, NoDeadlinesDegeneratesToLaunchOrder) {
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  gpu.set_kernel_scheduler(std::make_unique<EdfKernelScheduler>(
      EdfKernelScheduler::Placement::kSrrs));

  isa::ProgramPtr prog = make_spin_kernel(200);
  std::vector<u32> ids;
  for (u32 s = 0; s < 3; ++s) {
    KernelLaunch l =
        make_launch(prog, 768, 128, {store.alloc(768 * 4), 768});
    l.stream = s;
    ids.push_back(gpu.launch(std::move(l)));
  }
  gpu.run_until_idle(200'000'000);
  EXPECT_LT(gpu.kernel_state(ids[0]).done_cycle,
            gpu.kernel_state(ids[1]).first_dispatch_cycle);
  EXPECT_LT(gpu.kernel_state(ids[1]).done_cycle,
            gpu.kernel_state(ids[2]).first_dispatch_cycle);
}

TEST(Edf, DeadlineBeatsLaunchOrderUnderSrrsPlacement) {
  // Three serialized kernels with deadlines *reversed* against launch
  // order. The first kernel starts alone (launch-gap staggering makes it
  // the only arrived one); by the time it drains, both later kernels are
  // visible and EDF must pick the latest-launched, earliest-deadline one.
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  auto edf = std::make_unique<EdfKernelScheduler>(
      EdfKernelScheduler::Placement::kSrrs);
  edf->set_stream_deadline(0, 9'000'000);
  edf->set_stream_deadline(1, 5'000'000);
  edf->set_stream_deadline(2, 1'000'000);
  gpu.set_kernel_scheduler(std::move(edf));

  isa::ProgramPtr prog = make_spin_kernel(4000);
  std::vector<u32> ids;
  for (u32 s = 0; s < 3; ++s) {
    KernelLaunch l =
        make_launch(prog, 768, 128, {store.alloc(768 * 4), 768});
    l.stream = s;
    ids.push_back(gpu.launch(std::move(l)));
  }
  gpu.run_until_idle(500'000'000);

  const Cycle d0 = gpu.kernel_state(ids[0]).first_dispatch_cycle;
  const Cycle d1 = gpu.kernel_state(ids[1]).first_dispatch_cycle;
  const Cycle d2 = gpu.kernel_state(ids[2]).first_dispatch_cycle;
  EXPECT_LT(d0, d2);  // k0 was alone when it started
  EXPECT_LT(d2, d1);  // then deadline order wins: k2 (1ms) before k1 (5ms)
  // SRRS placement contract still holds: serialized, round-robin mapping.
  for (const BlockRecord& r : gpu.block_records())
    EXPECT_EQ(r.sm, r.block_linear % gpu.num_sms());
}

TEST(Edf, DeadlineBeatsLaunchOrderUnderGreedyPlacement) {
  // A wide long-running kernel saturates every SM slot; a later, smaller
  // kernel with an earlier deadline must overtake the backlog as slots
  // free up, finishing first despite launching second.
  GpuParams p;
  memsys::GlobalStore store;
  Gpu gpu(p, &store);
  auto edf = std::make_unique<EdfKernelScheduler>(
      EdfKernelScheduler::Placement::kGreedy);
  edf->set_stream_deadline(0, 9'000'000);
  edf->set_stream_deadline(1, 1'000'000);
  gpu.set_kernel_scheduler(std::move(edf));

  isa::ProgramPtr prog = make_spin_kernel(5000);
  KernelLaunch big =
      make_launch(prog, 128 * 120, 128, {store.alloc(128 * 120 * 4), 128 * 120});
  big.stream = 0;
  KernelLaunch small =
      make_launch(prog, 128 * 6, 128, {store.alloc(128 * 6 * 4), 128 * 6});
  small.stream = 1;
  const u32 id_big = gpu.launch(std::move(big));
  const u32 id_small = gpu.launch(std::move(small));
  gpu.run_until_idle(500'000'000);

  EXPECT_LT(gpu.kernel_state(id_small).done_cycle,
            gpu.kernel_state(id_big).done_cycle);
}

TEST(Edf, StateSurvivesCheckpointRoundtrip) {
  EdfKernelScheduler a(EdfKernelScheduler::Placement::kSrrs);
  a.set_stream_deadline(0, 111);
  a.set_stream_deadline(7, 42);
  ckpt::Writer w;
  a.save_state(w);
  const std::vector<u8> blob = w.blob();
  // Pinned before the scheduler codecs moved onto the shared state
  // visitor: the deadline count is stored as 32 bits.
  EXPECT_EQ(ckpt::fnv1a(blob.data(), blob.size()), 0x51798ba7a4f09a2cull);
  const std::vector<ckpt::Section> sections;  // raw stream, no sections
  ckpt::Reader r(blob, sections);
  EdfKernelScheduler b;
  b.restore_state(r);
  EXPECT_EQ(b.stream_deadline(0), 111u);
  EXPECT_EQ(b.stream_deadline(7), 42u);
  EXPECT_EQ(b.stream_deadline(3), EdfKernelScheduler::kNoDeadline);
}

TEST(Edf, PlacementForPolicy) {
  EXPECT_EQ(EdfKernelScheduler::placement_for(Policy::kSrrs),
            EdfKernelScheduler::Placement::kSrrs);
  EXPECT_EQ(EdfKernelScheduler::placement_for(Policy::kDefault),
            EdfKernelScheduler::Placement::kGreedy);
  EXPECT_EQ(EdfKernelScheduler::placement_for(Policy::kHalf),
            EdfKernelScheduler::Placement::kGreedy);
}

}  // namespace
}  // namespace higpu::sched
