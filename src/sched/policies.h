// Kernel-scheduler policies (paper §IV).
//
// * DefaultKernelScheduler — models the baseline GPGPU-Sim behaviour: blocks
//   of any arrived kernel are dispatched greedily to any SM with capacity
//   (earliest-launched kernel first), so redundant kernels may run
//   concurrently anywhere. It honours each launch's SchedHints::sm_mask,
//   which is exactly how the paper implements HALF: "we use the default
//   scheduling policy implemented in GPGPUSim and restrict each kernel
//   execution to 3 dedicated SMs".
// * SrrsKernelScheduler — Start, Round-Robin and Serial: a kernel starts
//   only on an idle GPU, its first block goes to SchedHints::start_sm,
//   blocks are placed strictly round-robin from there (block i on SM
//   (start_sm + i) mod N), kernels are fully serialized.
#pragma once

#include "sim/gpu.h"
#include "sim/ksched.h"

namespace higpu::sched {

/// Which of the paper's policies a redundant pair should be run with.
enum class Policy { kDefault, kHalf, kSrrs };

const char* policy_name(Policy p);
constexpr u32 enum_count(Policy) { return u32(Policy::kSrrs) + 1; }

class DefaultKernelScheduler final : public sim::IKernelScheduler {
 public:
  std::string name() const override { return "default"; }
  void dispatch(sim::Gpu& gpu) override;
  void reset() override { rr_cursor_ = first_pending_ = 0; }
  void save_state(ckpt::Writer& w) const override { io_state(w, *this); }
  void restore_state(ckpt::Reader& r) override { io_state(r, *this); }

 private:
  template <class Ar, class S>
  static void io_state(Ar& ar, S& s) {
    ar.io(s.rr_cursor_);
    ar.io(s.first_pending_);
  }

  u32 rr_cursor_ = 0;  // SM round-robin cursor for fair greedy placement
  u32 first_pending_ = 0;  // skip the fully-dispatched launch prefix
};

class SrrsKernelScheduler final : public sim::IKernelScheduler {
 public:
  std::string name() const override { return "srrs"; }
  void dispatch(sim::Gpu& gpu) override;
  void reset() override { first_unfinished_ = 0; }
  void save_state(ckpt::Writer& w) const override { w.io(first_unfinished_); }
  void restore_state(ckpt::Reader& r) override { r.io(first_unfinished_); }

 private:
  u32 first_unfinished_ = 0;  // skip the finished launch prefix
};

/// Instantiate the scheduler implementing `p`. (HALF uses the default
/// scheduler; the SM partitioning is carried by each launch's sm_mask.)
std::unique_ptr<sim::IKernelScheduler> make_scheduler(Policy p);

/// SM mask with SMs [lo, hi) set — helper for HALF partitioning.
u64 sm_range_mask(u32 lo, u32 hi);

}  // namespace higpu::sched
