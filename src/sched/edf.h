// Deadline-aware kernel scheduling: EDF over streams (serving mode).
//
// The continuous-operation engine (src/serve) attaches an absolute deadline
// to every request it admits; the request's kernels are launched on streams,
// and this scheduler dispatches blocks of the pending kernel whose stream
// carries the *earliest* deadline first (Earliest Deadline First). Kernels
// whose stream has no registered deadline sort last, in launch order — with
// no deadlines registered at all the scheduler degenerates to the baseline
// greedy/SRRS behaviour, so it can be installed unconditionally.
//
// Placement (which SM a selected block lands on) is orthogonal to selection
// and reuses the existing policies:
//   * kGreedy — Default-scheduler placement: first SM with capacity, round-
//     robin cursor, honouring each launch's SchedHints::sm_mask (HALF).
//   * kSrrs  — SRRS placement: a kernel starts only on an idle GPU, block i
//     goes to SM (start_sm + i) mod N, kernels fully serialize. EDF then
//     decides *which* kernel starts next once the GPU drains, preserving the
//     paper's diversity guarantees for the redundant copies of one request.
#pragma once

#include <map>

#include "sched/policies.h"
#include "sim/gpu.h"
#include "sim/ksched.h"

namespace higpu::sched {

class EdfKernelScheduler final : public sim::IKernelScheduler {
 public:
  /// Block-placement flavour once EDF has selected a kernel.
  enum class Placement : u8 { kGreedy, kSrrs };

  /// Sorts after every registered deadline (streams without one).
  static constexpr u64 kNoDeadline = ~u64{0};

  explicit EdfKernelScheduler(Placement placement = Placement::kGreedy)
      : placement_(placement) {}

  /// Placement matching `p`: SRRS keeps its serialized round-robin mapping;
  /// Default and HALF (masks) use greedy placement.
  static Placement placement_for(Policy p) {
    return p == Policy::kSrrs ? Placement::kSrrs : Placement::kGreedy;
  }

  std::string name() const override { return "edf"; }
  void dispatch(sim::Gpu& gpu) override;
  void reset() override {
    rr_cursor_ = first_unfinished_ = 0;
    deadline_.clear();
  }

  /// Register (or overwrite) the absolute deadline, in host-timeline
  /// nanoseconds, of every kernel launched on `stream`. Deadlines are
  /// behavioural scheduler state: they are serialized into checkpoints and
  /// survive rollback restores.
  void set_stream_deadline(u32 stream, u64 abs_deadline_ns) {
    deadline_[stream] = abs_deadline_ns;
  }
  void clear_stream_deadline(u32 stream) { deadline_.erase(stream); }
  u64 stream_deadline(u32 stream) const {
    const auto it = deadline_.find(stream);
    return it == deadline_.end() ? kNoDeadline : it->second;
  }

  void save_state(ckpt::Writer& w) const override { io_state(w, *this); }
  void restore_state(ckpt::Reader& r) override { io_state(r, *this); }

 private:
  template <class Ar, class S>
  static void io_state(Ar& ar, S& s) {
    ar.io(s.placement_);
    ar.io(s.rr_cursor_);
    ar.io(s.first_unfinished_);
    // The deadline count is stored as 32 bits; std::map iterates in stream
    // order, so the bytes are stable.
    u32 n = static_cast<u32>(s.deadline_.size());
    ar.io(n);
    ar.io_entries(s.deadline_, n);
  }

  Placement placement_;
  u32 rr_cursor_ = 0;        // greedy-placement SM round-robin cursor
  u32 first_unfinished_ = 0; // skip the finished launch prefix in O(1)
  std::map<u32, u64> deadline_;  // stream -> absolute deadline (ns)
};

}  // namespace higpu::sched
