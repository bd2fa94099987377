// Deterministic binary serialization for device-state snapshots.
//
// A Writer appends fixed-width little-endian fields to a byte blob and
// groups them into named sections; a Reader consumes the same fields in the
// same order. Field-by-field serialization (never memcpy of whole structs)
// keeps the format independent of struct padding, so two snapshots of
// identical device state are byte-identical — which is what makes hash()
// comparisons and the per-section divergence diff meaningful. Each field is
// one store into room the Writer has already reserved (one load on the
// Reader side), and a scalar vector is one bulk copy.
//
// Both archives share one field interface, so each snapshotted component
// lists its state once, in a template visitor that save and restore both
// run (`S` is `const Foo` when saving, `Foo` when restoring):
//
//   template <class Ar, class S>
//   void Foo::io_state(Ar& ar, S& s) {
//     ar.io(s.cycle_);                        // stored at its own width
//     ar.io(ckpt::as<u16>(s.op_));            // stored width stated here
//     ar.io(s.words_);                        // u64 count + elements
//     ar.io(s.entries_, [](auto& a, auto& e) { a.io(e.line); a.io(e.ready); });
//     ar.io_count(s.banks_.size(), "bank");   // fixed-size array
//     for (auto& b : s.banks_) ar.io(b.busy_until);
//   }
//   void Foo::save(ckpt::Writer& w) const { io_state(w, *this); }
//   void Foo::restore(ckpt::Reader& r) {
//     io_state(r, *this);
//     rebuild_index();                        // restore-only hook
//   }
//
// Code that runs in one direction only — restore-time validation that
// throws, rebuilding derived state, a save-time canonical form — stays out
// of the visitor, as a small explicit hook beside it. A component with
// public save()/restore() is itself a field: `ar.io(cache)`.
//
// The Reader refuses to run past its section or the blob, and checks every
// stored count against the bytes left before allocating for it, so a
// malformed, crafted or version-skewed snapshot throws SnapshotError
// instead of corrupting simulator state or attempting a huge allocation.
//
// The section table doubles as the diagnosis index: every section records
// its byte range and seal, and an optional fixed record size (e.g. one L1
// set, one DRAM bank) that lets ckpt::first_divergence translate a byte
// offset into an architectural component name.
#pragma once

#include <bit>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fields.h"
#include "common/types.h"

namespace higpu::ckpt {

// Fields, scalar vectors and seal words are copied to and from memory as
// they lie there, which is their little-endian stored form only on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the snapshot byte layout assumes a little-endian host");

/// FNV-1a over a byte range: Snapshot::hash() and the other pinned state
/// fingerprints.
u64 fnv1a(const u8* data, size_t len, u64 seed = 0xcbf29ce484222325ull);

/// Integrity seal of a byte range: the section hash and the wire frame
/// checksum. Four independent lanes absorb the little-endian 64-bit words of
/// each 32-byte stripe; the lanes are then folded into one accumulator,
/// which absorbs the remaining words, the tail bytes and the length before a
/// final mix. Every step is a bijection of the state and injective in the
/// word it absorbs, so two equal-length ranges that differ in one word —
/// hence any change to a single byte — always seal differently.
u64 seal(const u8* data, size_t len);

/// One named contiguous range of the snapshot blob.
struct Section {
  std::string name;
  size_t offset = 0;
  size_t len = 0;
  /// Fixed payload record size for component-index diagnosis (0 = opaque).
  u64 record_size = 0;
  u64 hash = 0;  // seal() of the range
};

/// Integers, bools and enums: stored little-endian at sizeof(T) bytes
/// unless wrapped in as<W>().
template <class T>
concept Scalar = std::is_integral_v<T> || std::is_enum_v<T>;

/// A scalar field stored as `W` instead of its own type (e.g. a u8 enum
/// kept in a 16-bit slot). The Reader refuses a stored value `T` cannot
/// hold.
template <class W, class T>
struct As {
  T& v;
};
template <class W, Scalar T>
As<W, T> as(T& v) {
  return {v};
}

class Writer {
 public:
  static constexpr bool kReading = false;

  Writer() = default;
  /// Reserve capacity for `expect_bytes` up front (e.g. the size of the
  /// previous capture of the same device), so the blob is not regrown while
  /// written. Rounded up to a power of two, as doubling would: blobs of
  /// similar size then share one allocation size and reuse each other's
  /// freed blocks (exact-size reservations fragmented the heap and raised
  /// the peak RSS of an interval-checkpointed serve run by a third).
  explicit Writer(size_t expect_bytes) {
    blob_.reserve(std::bit_ceil(expect_bytes));
  }

  void put8(u8 v) { putle<1>(v); }
  void put32(u32 v) { putle<4>(v); }
  void put64(u64 v) { putle<8>(v); }
  void putf64(double v) {
    u64 bits;
    std::memcpy(&bits, &v, 8);
    put64(bits);
  }
  void putb(bool v) { put8(v ? 1 : 0); }
  void put_bytes(const void* p, size_t n) {
    if (n == 0) return;
    if (n > blob_.size() - size_) return append(p, n);
    std::memcpy(room(n), p, n);
  }
  void put_string(const std::string& s) {
    put64(s.size());
    put_bytes(s.data(), s.size());
  }

  // ---- Shared field interface (mirrored by Reader) ------------------------
  template <Scalar T>
  void io(const T& v) {
    putle<sizeof(T)>(static_cast<u64>(v));
  }
  template <class W, class T>
  void io(As<W, T> f) {
    putle<sizeof(W)>(static_cast<u64>(static_cast<W>(f.v)));
  }
  void io(const std::string& s) { put_string(s); }
  /// u64 element count, then the elements, copied in bulk (std::vector<bool>
  /// packs its bits, so its elements are stored one byte each).
  template <Scalar T>
  void io(const std::vector<T>& v) {
    put64(v.size());
    if constexpr (std::is_same_v<T, bool>) {
      u8* p = room(v.size());
      for (const bool b : v) *p++ = b ? 1 : 0;
    } else {
      put_bytes(v.data(), v.size() * sizeof(T));
    }
  }
  /// u64 element count, then `each(*this, element)` per element.
  template <class T, class F>
  void io(const std::vector<T>& v, F&& each) {
    put64(v.size());
    for (const T& e : v) each(*this, e);
  }
  /// A map's entries in key order. The visitor stores their count `n`
  /// itself, at the width it states.
  template <class K, class V>
  void io_entries(const std::map<K, V>& m, u64 /*n*/) {
    for (const auto& [k, v] : m) {
      io(k);
      io(v);
    }
  }
  /// A component with its own save()/restore().
  template <class C>
    requires requires(const C& c, Writer& w) { c.save(w); }
  void io(const C& c) {
    c.save(*this);
  }
  /// Length of a fixed-size array, verified against the restoring device.
  void io_count(u64 n, const char* /*what*/) { put64(n); }

  void begin_section(std::string name, u64 record_size = 0);
  void end_section();

  /// The bytes written so far (the reserved room is trimmed off; writing
  /// on afterwards is allowed).
  const std::vector<u8>& blob() {
    blob_.resize(size_);
    return blob_;
  }
  std::vector<u8> take_blob() {
    blob_.resize(size_);
    size_ = 0;
    return std::move(blob_);
  }
  std::vector<Section> take_sections() { return std::move(sections_); }

 private:
  /// The next `n` bytes of the blob, to be written by the caller.
  u8* room(size_t n) {
    if (n > blob_.size() - size_) grow(n);
    u8* p = blob_.data() + size_;
    size_ += n;
    return p;
  }
  /// Extend the room to fit `n` more bytes. Out of line, so the per-field
  /// stores stay small enough to inline.
  void grow(size_t n);
  /// Copy `n` bytes that do not fit the room to the end of the blob, without
  /// zero-filling room for them first.
  void append(const void* p, size_t n);
  /// The low `N` bytes of `v`, little-endian.
  template <size_t N>
  void putle(u64 v) {
    std::memcpy(room(N), &v, N);
  }

  // Bytes [0, size_) are written; the rest of blob_ is room, zero-filled
  // ahead of the writes.
  std::vector<u8> blob_;
  size_t size_ = 0;
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
    else if constexpr (std::is_same_v<T, std::vector<u32>>) w.io(v);
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
  static constexpr bool kReading = true;

  Reader(const std::vector<u8>& blob, const std::vector<Section>& sections)
      : blob_(blob),
        sections_(sections),
        pos_(blob.data()),
        end_(blob.data() + blob.size()) {}

  u8 get8() { return static_cast<u8>(getle<1>()); }
  u32 get32() { return static_cast<u32>(getle<4>()); }
  u64 get64() { return getle<8>(); }
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
    std::memcpy(p, pos_, n);
    pos_ += n;
  }
  std::string get_string() {
    std::string s;
    io(s);
    return s;
  }

  // ---- Shared field interface (mirrors Writer) ----------------------------
  template <Scalar T>
  void io(T& v) {
    v = from_raw<T>(getle<sizeof(T)>());
  }
  template <class W, class T>
  void io(As<W, T> f) {
    const u64 raw = getle<sizeof(W)>();
    f.v = from_raw<T>(raw);
    if (static_cast<W>(f.v) != static_cast<W>(raw))
      fail("snapshot field value out of range");
  }
  void io(std::string& s) {
    s.resize(get_count<1>());
    get_bytes(s.data(), s.size());
  }
  template <Scalar T>
  void io(std::vector<T>& v) {
    v.resize(get_count<sizeof(T)>());
    if constexpr (std::is_same_v<T, bool>)
      for (size_t i = 0; i < v.size(); ++i) v[i] = getb();
    else
      get_bytes(v.data(), v.size() * sizeof(T));
  }
  /// Every element occupies at least one byte, which bounds the count.
  template <class T, class F>
  void io(std::vector<T>& v, F&& each) {
    v.resize(get_count<1>());
    for (T& e : v) each(*this, e);
  }
  /// Replace `m` with `n` entries (`n` as stored by the visitor). Entries
  /// are inserted as they are read, so a crafted `n` ends in an underrun.
  template <class K, class V>
  void io_entries(std::map<K, V>& m, u64 n) {
    m.clear();
    for (u64 i = 0; i < n; ++i) {
      K k{};
      io(k);
      io(m[k]);
    }
  }
  template <class C>
    requires requires(C& c, Reader& r) { c.restore(r); }
  void io(C& c) {
    c.restore(*this);
  }
  void io_count(u64 n, const char* what) {
    if (get64() != n)
      throw SnapshotError(std::string("snapshot ") + what + " count mismatch");
  }

  /// Sections are read in serialization order; entering one checks the name
  /// and positions the cursor, leaving one checks the full payload was
  /// consumed — a component that reads more or less than it saved fails
  /// loudly at the section boundary, not megabytes later. Inside a section
  /// no read may cross its end. `record_size` is the Writer's diagnosis
  /// hint and is not checked.
  void begin_section(const std::string& name, u64 record_size = 0);
  void end_section();
  /// Discard the rest of the current section (intentionally skipped state).
  void skip_to_section_end() { pos_ = end_; }

 private:
  template <class T>
  static T from_raw(u64 raw) {
    if constexpr (std::is_enum_v<T>)
      return static_cast<T>(static_cast<std::underlying_type_t<T>>(raw));
    else
      return static_cast<T>(raw);
  }
  /// `N` little-endian bytes, zero-extended.
  template <size_t N>
  u64 getle() {
    need(N);
    u64 v = 0;
    std::memcpy(&v, pos_, N);
    pos_ += N;
    return v;
  }
  /// Throws SnapshotError(`what` at the cursor). Out of line, so the
  /// per-field checks stay small enough to inline.
  [[noreturn]] void fail(const char* what) const;
  /// Bytes left before the end of the current section (or of the blob).
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }
  void need(size_t n) const {
    if (n > remaining()) fail("snapshot blob underrun");
  }
  /// A stored element count, refused unless that many `kElemBytes`-byte
  /// elements fit in the bytes left.
  template <size_t kElemBytes>
  size_t get_count() {
    const u64 n = get64();
    if (n > remaining() / kElemBytes)
      fail("snapshot count exceeds the bytes left");
    return static_cast<size_t>(n);
  }

  const std::vector<u8>& blob_;
  const std::vector<Section>& sections_;
  // The cursor is a pointer rather than an offset, so stores into restored
  // u64 fields cannot alias it and it stays in a register across reads.
  const u8* pos_;
  const u8* end_;  // end of the current section, or of the blob outside one
  size_t section_idx_ = 0;
  bool in_section_ = false;
};

}  // namespace higpu::ckpt
