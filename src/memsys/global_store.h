// Functional backing store for GPU global memory, plus a bump allocator.
//
// Addresses are 32-bit (registers are 32-bit wide); the store grows lazily.
#pragma once

#include <cstring>
#include <vector>

#include "ckpt/serial.h"
#include "common/types.h"

namespace higpu::memsys {

/// Device address. 0 is reserved (never returned by alloc).
using DevPtr = u32;

class GlobalStore {
 public:
  explicit GlobalStore(u64 capacity_bytes = 1ull << 30);

  /// Allocate `bytes` (256-byte aligned). Throws std::bad_alloc on exhaustion.
  DevPtr alloc(u64 bytes);

  /// Release all allocations (arena-style reset). Contents are kept so old
  /// pointers read stale data rather than faulting; callers should not use
  /// pointers across a reset.
  void reset();

  /// Bytes currently allocated.
  u64 allocated() const { return next_ - kBase; }

  // 32-bit word access. Kernels use 4-byte-aligned addresses, but a
  // fault-corrupted address may be misaligned: memcpy keeps that access
  // well-defined and deterministic in every build (it reads or writes the
  // four bytes at `addr`), so it is not an assertion failure. The in-bounds
  // case is inline (one per active lane of every LDG/STG); an address past
  // the grown store takes the out-of-line lazy-growth path.
  u32 read32(DevPtr addr) const {
    if (u64{addr} + 4 > data_.size()) [[unlikely]]
      return read32_grow(addr);
    u32 v;
    std::memcpy(&v, data_.data() + addr, 4);
    return v;
  }
  void write32(DevPtr addr, u32 value) {
    if (u64{addr} + 4 > data_.size()) [[unlikely]]
      write32_grow(addr, value);
    else
      std::memcpy(data_.data() + addr, &value, 4);
  }

  // Bulk transfer helpers used by the host runtime.
  void write_block(DevPtr dst, const void* src, u64 bytes);
  void read_block(void* dst, DevPtr src, u64 bytes) const;

  // Checkpoint: allocator cursor plus the full (lazily grown) contents.
  void save(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

 private:
  static constexpr DevPtr kBase = 256;  // keep nullptr-like 0 unmapped
  template <class Ar, class S>
  static void io_state(Ar& ar, S& s);
  void ensure(u64 end);
  u32 read32_grow(DevPtr addr) const;
  void write32_grow(DevPtr addr, u32 value);

  u64 capacity_;
  DevPtr next_ = kBase;
  mutable std::vector<u8> data_;
};

}  // namespace higpu::memsys
