// Set-associative cache tag array with true-LRU replacement.
//
// This models tags/state only; data always lives in the functional global
// store. Timing is composed by MemHierarchy.
#pragma once

#include <optional>
#include <vector>

#include "ckpt/serial.h"
#include "common/types.h"
#include "memsys/fastdiv.h"

namespace higpu::memsys {

/// Result of a cache access.
struct CacheAccessResult {
  bool hit = false;
  /// Line address of a dirty line evicted by the fill (if any).
  std::optional<u64> writeback_line;
};

class SetAssocCache {
 public:
  /// size/line_bytes must be divisible by assoc.
  SetAssocCache(u32 size_bytes, u32 assoc, u32 line_bytes);

  /// Probe + fill on miss. `is_write` marks the line dirty.
  CacheAccessResult access(u64 line_addr, bool is_write);

  /// Hit-path-only access: if the line is present, refresh its LRU state
  /// (and mark it dirty when requested) and return true; a miss changes
  /// nothing. Lets MemHierarchy defer fills to MSHR completion. Inline:
  /// it is the L1 lookup of every global-memory line access.
  bool touch(u64 line_addr, bool mark_dirty) {
    const auto [set, tag] = slot_of(line_addr);
    Way* base = &ways_[static_cast<size_t>(set) * assoc_];
    for (u32 w = 0; w < assoc_; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.lru = ++use_counter_;
        if (mark_dirty) way.dirty = true;
        return true;
      }
    }
    return false;
  }

  /// Probe without state change.
  bool probe(u64 line_addr) const;

  /// Invalidate everything (e.g. between independent simulations).
  void clear();

  /// Drop one line if present, returning whether it was dirty.
  bool invalidate_line(u64 line_addr);

  u32 num_sets() const { return num_sets_; }
  u32 assoc() const { return assoc_; }

  // Checkpoint: the tag array set-by-set (fixed-size records so a snapshot
  // diff can name the first divergent set), then the LRU use counter.
  void save(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);
  /// Serialized bytes per set — the snapshot section's record size.
  u64 set_record_bytes() const { return 18ull * assoc_; }

 private:
  template <class Ar, class S>
  static void io_state(Ar& ar, S& s);

  struct Way {
    bool valid = false;
    bool dirty = false;
    u64 tag = 0;
    u64 lru = 0;  // larger = more recently used
  };

  /// A line's set (line_addr % num_sets_) and tag (line_addr / num_sets_),
  /// from one reciprocal multiply instead of a divide and a modulo.
  struct Slot {
    u32 set;
    u64 tag;
  };
  Slot slot_of(u64 line_addr) const {
    const u64 tag = sets_div_.quot(line_addr);
    return {static_cast<u32>(line_addr - tag * num_sets_), tag};
  }

  u32 num_sets_;
  u32 assoc_;
  FastDiv sets_div_;  // divisor num_sets_
  u64 use_counter_ = 0;
  std::vector<Way> ways_;  // num_sets_ * assoc_
};

}  // namespace higpu::memsys
