// Timing/geometry parameters for the GPU memory hierarchy.
#pragma once

#include <string>

#include "common/fields.h"
#include "common/types.h"

namespace higpu::memsys {

/// L1 write-hit handling. Write-back keeps dirty lines in the L1 and writes
/// them to the L2 on eviction; write-through forwards every store to the L2
/// immediately (lines are never dirty in L1, so there are no L1 writebacks).
enum class WritePolicy : u8 { kWriteBack, kWriteThrough };

/// L1 write-miss handling. Allocate fetches the line into the L1 (through
/// an MSHR entry, like a read miss); no-allocate sends the store straight
/// to the L2 and leaves the L1 untouched.
enum class WriteAlloc : u8 { kAllocate, kNoAllocate };

const char* write_policy_name(WritePolicy p);
const char* write_alloc_name(WriteAlloc a);

/// All latencies in core cycles; all sizes in bytes.
struct MemParams {
  // Cache line (memory transaction) size. One coalesced warp access moves
  // one or more lines of this size.
  u32 line_bytes = 128;

  // Per-SM L1 data cache.
  u32 l1_size = 24 * 1024;
  u32 l1_assoc = 4;
  u32 l1_latency = 28;      // hit latency
  u32 l1_mshr_entries = 32; // outstanding misses per SM
  WritePolicy l1_write_policy = WritePolicy::kWriteBack;
  WriteAlloc l1_write_alloc = WriteAlloc::kAllocate;

  // Shared L2.
  u32 l2_size = 1024 * 1024;
  u32 l2_assoc = 8;
  u32 l2_banks = 8;
  u32 l2_latency = 120;     // hit latency (incl. interconnect)
  u32 l2_service = 2;       // bank occupancy per transaction (bandwidth)

  // DRAM: `dram_channels` channels, each with `dram_banks_per_channel`
  // banks holding one open row of `dram_row_bytes`. An access that hits the
  // open row pays `dram_row_hit_latency`; a row switch (precharge +
  // activate + CAS) pays `dram_row_miss_latency`. The bank is occupied for
  // the full access latency (bank-level parallelism); the channel data bus
  // is additionally occupied `dram_service` cycles per line (bandwidth).
  u32 dram_channels = 4;
  u32 dram_banks_per_channel = 4;
  u32 dram_row_bytes = 2048;
  u32 dram_row_hit_latency = 160;
  u32 dram_row_miss_latency = 320;  // load-to-use on a row switch
  u32 dram_service = 4;             // channel-bus occupancy per line

  // Shared memory (per SM).
  u32 smem_banks = 32;
  u32 smem_latency = 24;

  // Atomic operations are resolved at the L2; extra service time per access.
  u32 atomic_extra = 8;

  bool operator==(const MemParams& other) const = default;
};

constexpr u32 enum_count(WritePolicy) {
  return u32(WritePolicy::kWriteThrough) + 1;
}
constexpr u32 enum_count(WriteAlloc) {
  return u32(WriteAlloc::kNoAllocate) + 1;
}

template <FieldsOf<MemParams> R, class F>
void visit_fields(R& r, F&& f) {
  f("line_bytes", r.line_bytes);
  f("l1_size", r.l1_size);
  f("l1_assoc", r.l1_assoc);
  f("l1_latency", r.l1_latency);
  f("l1_mshr_entries", r.l1_mshr_entries);
  f("l1_write_policy", r.l1_write_policy);
  f("l1_write_alloc", r.l1_write_alloc);
  f("l2_size", r.l2_size);
  f("l2_assoc", r.l2_assoc);
  f("l2_banks", r.l2_banks);
  f("l2_latency", r.l2_latency);
  f("l2_service", r.l2_service);
  f("dram_channels", r.dram_channels);
  f("dram_banks_per_channel", r.dram_banks_per_channel);
  f("dram_row_bytes", r.dram_row_bytes);
  f("dram_row_hit_latency", r.dram_row_hit_latency);
  f("dram_row_miss_latency", r.dram_row_miss_latency);
  f("dram_service", r.dram_service);
  f("smem_banks", r.smem_banks);
  f("smem_latency", r.smem_latency);
  f("atomic_extra", r.atomic_extra);
}

/// Throws std::invalid_argument naming the offending field (zero geometry,
/// rows smaller than a line, row size not a multiple of the line size).
void validate(const MemParams& p);

/// Compact label of the fields that differ from the defaults, for campaign
/// scenario labels: "" for a default config, else e.g. "wt-nwa-mshr4" or
/// "dbk1-row512". Two configs that sweep any --mem-* knob get distinct,
/// stable labels.
std::string mem_label(const MemParams& p);

}  // namespace higpu::memsys
