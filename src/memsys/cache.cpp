#include "memsys/cache.h"

#include <cassert>

namespace higpu::memsys {

SetAssocCache::SetAssocCache(u32 size_bytes, u32 assoc, u32 line_bytes)
    : num_sets_(size_bytes / line_bytes / assoc),
      assoc_(assoc),
      sets_div_((assert(num_sets_ > 0), num_sets_)) {
  ways_.resize(static_cast<size_t>(num_sets_) * assoc_);
}

CacheAccessResult SetAssocCache::access(u64 line_addr, bool is_write) {
  const auto [set, tag] = slot_of(line_addr);
  Way* base = &ways_[static_cast<size_t>(set) * assoc_];

  // Hit path.
  for (u32 w = 0; w < assoc_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      way.lru = ++use_counter_;
      if (is_write) way.dirty = true;
      return {.hit = true, .writeback_line = std::nullopt};
    }
  }

  // Miss: pick invalid way, else LRU victim.
  Way* victim = nullptr;
  for (u32 w = 0; w < assoc_; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
  }
  if (victim == nullptr) {
    victim = &base[0];
    for (u32 w = 1; w < assoc_; ++w)
      if (base[w].lru < victim->lru) victim = &base[w];
  }

  CacheAccessResult res;
  if (victim->valid && victim->dirty)
    res.writeback_line = victim->tag * num_sets_ + set;

  victim->valid = true;
  victim->dirty = is_write;
  victim->tag = tag;
  victim->lru = ++use_counter_;
  return res;
}

bool SetAssocCache::probe(u64 line_addr) const {
  const auto [set, tag] = slot_of(line_addr);
  const Way* base = &ways_[static_cast<size_t>(set) * assoc_];
  for (u32 w = 0; w < assoc_; ++w)
    if (base[w].valid && base[w].tag == tag) return true;
  return false;
}

void SetAssocCache::clear() {
  for (Way& w : ways_) w = Way{};
  use_counter_ = 0;
}

template <class Ar, class S>
void SetAssocCache::io_state(Ar& ar, S& s) {
  for (auto& way : s.ways_) {
    ar.io(way.valid);
    ar.io(way.dirty);
    ar.io(way.tag);
    ar.io(way.lru);
  }
  ar.io(s.use_counter_);
}

void SetAssocCache::save(ckpt::Writer& w) const { io_state(w, *this); }
void SetAssocCache::restore(ckpt::Reader& r) { io_state(r, *this); }

bool SetAssocCache::invalidate_line(u64 line_addr) {
  const auto [set, tag] = slot_of(line_addr);
  Way* base = &ways_[static_cast<size_t>(set) * assoc_];
  for (u32 w = 0; w < assoc_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      const bool dirty = base[w].dirty;
      base[w] = Way{};
      return dirty;
    }
  }
  return false;
}

}  // namespace higpu::memsys
