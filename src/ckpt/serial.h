// Deterministic binary serialization for device-state snapshots.
//
// A Writer appends fixed-width little-endian fields to a byte blob and
// groups them into named sections; a Reader consumes the same fields in the
// same order and refuses to run past a section or the blob (a malformed or
// version-skewed snapshot throws instead of silently corrupting simulator
// state). Field-by-field serialization (never memcpy of whole structs) keeps
// the format independent of struct padding, so two snapshots of identical
// device state are byte-identical — which is what makes hash() comparisons
// and the per-section divergence diff meaningful.
//
// The section table doubles as the diagnosis index: every section records
// its byte range and hash, and an optional fixed record size (e.g. one L1
// set, one DRAM bank) that lets ckpt::first_divergence translate a byte
// offset into an architectural component name.
#pragma once

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/types.h"

namespace higpu::ckpt {

/// FNV-1a over a byte range; the snapshot/section hash function.
u64 fnv1a(const u8* data, size_t len, u64 seed = 0xcbf29ce484222325ull);

/// One named contiguous range of the snapshot blob.
struct Section {
  std::string name;
  size_t offset = 0;
  size_t len = 0;
  /// Fixed payload record size for component-index diagnosis (0 = opaque).
  u64 record_size = 0;
  u64 hash = 0;
};

class Writer {
 public:
  void put8(u8 v) { blob_.push_back(v); }
  void put16(u16 v) { putle(v, 2); }
  void put32(u32 v) { putle(v, 4); }
  void put64(u64 v) { putle(v, 8); }
  void putf64(double v) {
    u64 bits;
    std::memcpy(&bits, &v, 8);
    put64(bits);
  }
  void putb(bool v) { put8(v ? 1 : 0); }
  void put_bytes(const void* p, size_t n) {
    if (n == 0) return;
    const u8* b = static_cast<const u8*>(p);
    blob_.insert(blob_.end(), b, b + n);
  }
  void put_string(const std::string& s) {
    put64(s.size());
    put_bytes(s.data(), s.size());
  }
  void put_u32_vec(const std::vector<u32>& v) {
    put64(v.size());
    for (u32 x : v) put32(x);
  }
  void put_u64_vec(const std::vector<u64>& v) {
    put64(v.size());
    for (u64 x : v) put64(x);
  }

  void begin_section(std::string name, u64 record_size = 0);
  void end_section();

  const std::vector<u8>& blob() const { return blob_; }
  std::vector<u8> take_blob() { return std::move(blob_); }
  std::vector<Section> take_sections() { return std::move(sections_); }

 private:
  void putle(u64 v, int n) {
    for (int i = 0; i < n; ++i) blob_.push_back(static_cast<u8>(v >> (8 * i)));
  }

  std::vector<u8> blob_;
  std::vector<Section> sections_;
  size_t open_offset_ = 0;
  bool section_open_ = false;
  std::string open_name_;
  u64 open_record_size_ = 0;
};

/// Binary encoding of a visited record (common/fields.h), used for the
/// higpu.wire/1 spec payload and the snapshot parameter fingerprint: enums
/// as one byte, 32-bit integers as four, other integers as eight, floats
/// as f64.
template <Visited R>
void put_fields(Writer& w, const R& rec) {
  visit_fields(rec, [&w](const char*, const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (Visited<T>) put_fields(w, v);
    else if constexpr (CountedEnum<T>) w.put8(static_cast<u8>(v));
    else if constexpr (std::is_integral_v<T>)
      sizeof(T) == 4 ? w.put32(static_cast<u32>(v))
                     : w.put64(static_cast<u64>(v));
    else if constexpr (std::is_floating_point_v<T>)
      w.putf64(static_cast<double>(v));
    else if constexpr (std::is_same_v<T, std::string>) w.put_string(v);
    else if constexpr (std::is_same_v<T, std::vector<u32>>) w.put_u32_vec(v);
    else static_assert(kNoCodec<T>, "no binary encoding for this field type");
  });
}

/// Thrown on any structural mismatch while reading a snapshot back.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

class Reader {
 public:
  Reader(const std::vector<u8>& blob, const std::vector<Section>& sections)
      : blob_(blob), sections_(sections) {}

  u8 get8() { return static_cast<u8>(getle(1)); }
  u16 get16() { return static_cast<u16>(getle(2)); }
  u32 get32() { return static_cast<u32>(getle(4)); }
  u64 get64() { return getle(8); }
  double getf64() {
    const u64 bits = get64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  bool getb() { return get8() != 0; }
  void get_bytes(void* p, size_t n) {
    if (n == 0) return;
    need(n);
    std::memcpy(p, blob_.data() + pos_, n);
    pos_ += n;
  }
  std::string get_string() {
    const u64 n = get64();
    need(n);
    std::string s(reinterpret_cast<const char*>(blob_.data() + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }
  std::vector<u32> get_u32_vec() {
    const u64 n = get64();
    std::vector<u32> v(static_cast<size_t>(n));
    for (u64 i = 0; i < n; ++i) v[static_cast<size_t>(i)] = get32();
    return v;
  }
  std::vector<u64> get_u64_vec() {
    const u64 n = get64();
    std::vector<u64> v(static_cast<size_t>(n));
    for (u64 i = 0; i < n; ++i) v[static_cast<size_t>(i)] = get64();
    return v;
  }

  /// Sections are read in serialization order; entering one checks the name
  /// and positions the cursor, leaving one checks the full payload was
  /// consumed — a component that reads more or less than it saved fails
  /// loudly at the section boundary, not megabytes later.
  void enter_section(const std::string& name);
  void leave_section();
  /// Discard the rest of the current section (intentionally skipped state).
  void skip_to_section_end() {
    if (in_section_) pos_ = section_end_;
  }

 private:
  u64 getle(int n) {
    need(static_cast<size_t>(n));
    u64 v = 0;
    for (int i = 0; i < n; ++i)
      v |= static_cast<u64>(blob_[pos_ + static_cast<size_t>(i)]) << (8 * i);
    pos_ += static_cast<size_t>(n);
    return v;
  }
  void need(size_t n) const {
    if (pos_ + n > blob_.size())
      throw SnapshotError("snapshot blob underrun at byte " +
                          std::to_string(pos_));
  }

  const std::vector<u8>& blob_;
  const std::vector<Section>& sections_;
  size_t pos_ = 0;
  size_t section_idx_ = 0;
  size_t section_end_ = 0;
  bool in_section_ = false;
};

}  // namespace higpu::ckpt
