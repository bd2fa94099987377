#include "memsys/global_store.h"

#include <cstring>
#include <new>

namespace higpu::memsys {

GlobalStore::GlobalStore(u64 capacity_bytes) : capacity_(capacity_bytes) {}

DevPtr GlobalStore::alloc(u64 bytes) {
  const u64 start = align_up(next_, 256);
  const u64 end = start + align_up(bytes, 4);
  if (end > capacity_ || end > 0xFFFFFFFFull) throw std::bad_alloc();
  next_ = static_cast<DevPtr>(end);
  ensure(end);
  return static_cast<DevPtr>(start);
}

void GlobalStore::reset() { next_ = kBase; }

void GlobalStore::ensure(u64 end) {
  if (data_.size() < end) data_.resize(end, 0);
}

u32 GlobalStore::read32_grow(DevPtr addr) const {
  if (addr + 4 > data_.size()) data_.resize(addr + 4, 0);
  u32 v;
  std::memcpy(&v, data_.data() + addr, 4);
  return v;
}

void GlobalStore::write32_grow(DevPtr addr, u32 value) {
  ensure(addr + 4);
  std::memcpy(data_.data() + addr, &value, 4);
}

void GlobalStore::write_block(DevPtr dst, const void* src, u64 bytes) {
  ensure(dst + bytes);
  std::memcpy(data_.data() + dst, src, bytes);
}

void GlobalStore::read_block(void* dst, DevPtr src, u64 bytes) const {
  if (data_.size() < src + bytes) data_.resize(src + bytes, 0);
  std::memcpy(dst, data_.data() + src, bytes);
}

template <class Ar, class S>
void GlobalStore::io_state(Ar& ar, S& s) {
  ar.io(s.next_);
  ar.io(s.data_);
}

void GlobalStore::save(ckpt::Writer& w) const { io_state(w, *this); }
void GlobalStore::restore(ckpt::Reader& r) { io_state(r, *this); }

}  // namespace higpu::memsys
