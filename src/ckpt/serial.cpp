#include "ckpt/serial.h"

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

void Writer::begin_section(std::string name, u64 record_size) {
  assert(!section_open_ && "nested snapshot sections are not supported");
  section_open_ = true;
  open_name_ = std::move(name);
  open_offset_ = blob_.size();
  open_record_size_ = record_size;
}

void Writer::end_section() {
  assert(section_open_ && "end_section without begin_section");
  section_open_ = false;
  Section s;
  s.name = std::move(open_name_);
  s.offset = open_offset_;
  s.len = blob_.size() - open_offset_;
  s.record_size = open_record_size_;
  s.hash = fnv1a(blob_.data() + s.offset, s.len);
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
