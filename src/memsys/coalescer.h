// Warp memory-access coalescing: collapse the active lanes' byte addresses
// into the set of distinct memory transactions (cache lines) they touch.
#pragma once

#include <bit>
#include <vector>

#include "common/types.h"

namespace higpu::memsys {

/// Line address of a byte address: a shift for a power-of-two line size
/// (every shipped geometry), a divide otherwise.
inline u64 line_of(u64 byte_addr, u32 line_bytes) {
  return std::has_single_bit(line_bytes)
             ? byte_addr >> std::countr_zero(line_bytes)
             : byte_addr / line_bytes;
}

/// Distinct line addresses (addr / line_bytes) touched by the given byte
/// addresses, in ascending line order.
std::vector<u64> coalesce(const std::vector<u64>& byte_addrs, u32 line_bytes);

/// Allocation-free variant for the per-instruction hot path: `lines` is
/// cleared and filled with the distinct line addresses in ascending order.
/// One pass drops repeats of the previous line; only lanes that step
/// backwards (rare: lane addresses usually ascend) pay for a sort.
void coalesce_into(const std::vector<u64>& byte_addrs, u32 line_bytes,
                   std::vector<u64>& lines);

/// Shared-memory bank-conflict degree for the given word addresses: the
/// maximum number of *distinct words* mapping to any one bank. 1 means
/// conflict-free (broadcast of the same word does not conflict). `words`
/// and `per_bank` are caller-owned scratch (overwritten), so the
/// per-instruction call allocates nothing once they have grown.
u32 smem_conflict_degree(const std::vector<u64>& byte_addrs, u32 num_banks,
                         std::vector<u64>& words, std::vector<u32>& per_bank);

}  // namespace higpu::memsys
