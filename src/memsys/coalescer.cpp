#include "memsys/coalescer.h"

#include <algorithm>

namespace higpu::memsys {

std::vector<u64> coalesce(const std::vector<u64>& byte_addrs, u32 line_bytes) {
  std::vector<u64> lines;
  coalesce_into(byte_addrs, line_bytes, lines);
  return lines;
}

namespace {

/// Append each address's unit index (`index(a)`) to `out`, dropping
/// repeats of the previous one; sort + unique only if some lane stepped
/// backwards. `out` ends ascending and duplicate-free either way.
template <typename Index>
void distinct_ascending(const std::vector<u64>& addrs, Index index,
                        std::vector<u64>& out) {
  out.clear();
  bool ascending = true;
  for (u64 a : addrs) {
    const u64 v = index(a);
    if (!out.empty()) {
      if (v == out.back()) continue;
      ascending &= v > out.back();
    }
    out.push_back(v);
  }
  if (ascending) return;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

void coalesce_into(const std::vector<u64>& byte_addrs, u32 line_bytes,
                   std::vector<u64>& lines) {
  if (std::has_single_bit(line_bytes)) {
    const int shift = std::countr_zero(line_bytes);
    distinct_ascending(byte_addrs, [shift](u64 a) { return a >> shift; },
                       lines);
  } else {
    distinct_ascending(byte_addrs,
                       [line_bytes](u64 a) { return a / line_bytes; }, lines);
  }
}

u32 smem_conflict_degree(const std::vector<u64>& byte_addrs, u32 num_banks,
                         std::vector<u64>& words, std::vector<u32>& per_bank) {
  if (byte_addrs.empty()) return 1;
  // Distinct words (broadcast of one word is free).
  distinct_ascending(byte_addrs, [](u64 a) { return a / 4; }, words);
  per_bank.assign(num_banks, 0);
  u32 worst = 1;
  for (u64 w : words) {
    const u32 bank = static_cast<u32>(w % num_banks);
    worst = std::max(worst, ++per_bank[bank]);
  }
  return worst;
}

}  // namespace higpu::memsys
