// Divide-free quotient by a runtime-constant divisor.
//
// Cache set indexing divides every line address by the set count, which is
// not a power of two for the default L1 (48 sets), so a mask cannot replace
// the divide. FastDiv precomputes the reciprocal M = ceil(2^64 / d) once and
// turns each quotient into one 64x64->128 multiply (Lemire, Kaser & Kurz,
// "Faster Remainder by Direct Computation", 2019): floor(a / d) equals the
// high word of M * a for every 32-bit numerator a. Numerators of 2^32 and
// above (fault-corrupted addresses reach them) take a plain divide.
#pragma once

#include "common/types.h"

namespace higpu::memsys {

class FastDiv {
 public:
  /// `d` must be nonzero.
  explicit FastDiv(u32 d)
      : d_(d),
        m_(~u64{0} / d + 1),
        // M = 2^64 does not fit for d == 1; route every numerator through
        // the plain divide instead (a single-set cache is a test geometry).
        slow_(d == 1 ? u64{1} << 32 : 0) {}

  /// floor(a / d).
  u64 quot(u64 a) const {
    if ((a | slow_) >> 32) [[unlikely]]
      return a / d_;
    return static_cast<u64>((static_cast<unsigned __int128>(m_) * a) >> 64);
  }

 private:
  u32 d_;
  u64 m_;
  u64 slow_;  // nonzero high bits force the plain divide
};

}  // namespace higpu::memsys
