#include "ckpt/serial.h"

#include <algorithm>
#include <cassert>

namespace higpu::ckpt {

u64 fnv1a(const u8* data, size_t len, u64 seed) {
  u64 h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

// Odd multipliers (the xxHash64 primes), so multiplying is a bijection.
constexpr u64 kP1 = 0x9E3779B185EBCA87ull;
constexpr u64 kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr u64 kP3 = 0x165667B19E3779F9ull;

u64 word_at(const u8* p) {
  u64 w;
  std::memcpy(&w, p, 8);
  return w;
}

/// `v` after absorbing `w`: a bijection of `v` for a fixed `w`, and
/// injective in `w` for a fixed `v` (add, rotate and odd multiply).
u64 absorb(u64 v, u64 w) { return std::rotl(v + w * kP2, 31) * kP1; }

}  // namespace

u64 seal(const u8* data, size_t len) {
  u64 lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  const u8* p = data;
  const u8* const end = data + len;
  for (; end - p >= 32; p += 32)
    for (int i = 0; i < 4; ++i) lane[i] = absorb(lane[i], word_at(p + 8 * i));
  u64 h = kP3;
  for (const u64 v : lane) h = absorb(h, v);
  for (; end - p >= 8; p += 8) h = absorb(h, word_at(p));
  if (p != end) {
    u64 tail = 0;
    std::memcpy(&tail, p, static_cast<size_t>(end - p));
    h = absorb(h, tail);
  }
  h ^= len;
  // Final avalanche: xor-shifts and odd multiplies, each invertible.
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

void Writer::grow(size_t n) {
  // Capacity doubles; the room is zero-filled at most 64 KiB ahead of the
  // writes, so capacity never written to is never touched either (it costs
  // no resident memory) and the fill is still in cache when it is written.
  constexpr size_t kRoomStep = 64 << 10;
  if (size_ + n > blob_.capacity())
    blob_.reserve(std::max({size_ + n, 2 * blob_.capacity(), size_t{256}}));
  blob_.resize(std::min(blob_.capacity(), size_ + std::max(n, kRoomStep)));
}

void Writer::append(const void* p, size_t n) {
  const u8* b = static_cast<const u8*>(p);
  blob_.resize(size_);
  blob_.insert(blob_.end(), b, b + n);
  size_ += n;
}

void Writer::begin_section(std::string name, u64 record_size) {
  assert(!section_open_ && "nested snapshot sections are not supported");
  section_open_ = true;
  open_name_ = std::move(name);
  open_offset_ = size_;
  open_record_size_ = record_size;
}

void Writer::end_section() {
  assert(section_open_ && "end_section without begin_section");
  section_open_ = false;
  Section s;
  s.name = std::move(open_name_);
  s.offset = open_offset_;
  s.len = size_ - open_offset_;
  s.record_size = open_record_size_;
  s.hash = seal(blob_.data() + s.offset, s.len);
  sections_.push_back(std::move(s));
}

void Reader::fail(const char* what) const {
  throw SnapshotError(std::string(what) + " at byte " +
                      std::to_string(pos_ - blob_.data()));
}

void Reader::begin_section(const std::string& name, u64 /*record_size*/) {
  if (in_section_)
    throw SnapshotError("begin_section('" + name + "') inside '" +
                        sections_[section_idx_ - 1].name + "'");
  if (section_idx_ >= sections_.size())
    throw SnapshotError("snapshot has no section '" + name + "'");
  const Section& s = sections_[section_idx_];
  if (s.name != name)
    throw SnapshotError("snapshot section order mismatch: expected '" + name +
                        "', found '" + s.name + "'");
  if (s.offset > blob_.size() || s.len > blob_.size() - s.offset)
    throw SnapshotError("snapshot section '" + name +
                        "' extends past the end of the blob");
  pos_ = blob_.data() + s.offset;
  end_ = pos_ + s.len;
  section_idx_ += 1;
  in_section_ = true;
}

void Reader::end_section() {
  if (!in_section_) throw SnapshotError("end_section outside any section");
  const Section& s = sections_[section_idx_ - 1];
  if (pos_ != end_)
    throw SnapshotError("snapshot section '" + s.name + "' size mismatch: " +
                        std::to_string(end_ - pos_) + " unread bytes");
  in_section_ = false;
  end_ = blob_.data() + blob_.size();
}

}  // namespace higpu::ckpt
