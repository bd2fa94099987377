#include "ckpt/wire.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "isa/instruction.h"

namespace higpu::ckpt {

namespace {

/// A KernelProgram's stored fields (the program itself is immutable, so
/// decoding builds this record and constructs the program from it).
struct ProgramRecord {
  std::string name;
  u16 num_regs = 0;
  u16 num_preds = 0;
  u32 shared_bytes = 0;
  u32 num_params = 0;
  std::vector<isa::Instruction> code;
};

template <class Ar, class P>
void io_program(Ar& ar, P& p) {
  ar.io(p.name);
  ar.io(p.num_regs);
  ar.io(p.num_preds);
  ar.io(p.shared_bytes);
  ar.io(p.num_params);
  ar.io(p.code, [](auto& a, auto& ins) {
    a.io(as<u16>(ins.op));
    a.io(ins.guard);
    a.io(ins.guard_neg);
    a.io(ins.dst);
    for (auto& o : ins.src) {
      a.io(o.kind);
      a.io(o.reg);
      a.io(o.imm);
    }
    a.io(ins.cmp);
    a.io(ins.dtype);
    a.io(ins.pred_src);
    a.io(ins.sreg);
    a.io(ins.target);
    a.io(ins.reconv_pc);
    a.io(ins.mem_offset);
  });
}

void io_program(Writer& w, const isa::ProgramPtr& p) {
  const ProgramRecord rec{p->name(),         p->num_regs(),   p->num_preds(),
                          p->shared_bytes(), p->num_params(), p->code()};
  io_program(w, rec);
}

void io_program(Reader& r, isa::ProgramPtr& p) {
  ProgramRecord rec;
  io_program(r, rec);
  p = std::make_shared<const isa::KernelProgram>(
      std::move(rec.name), std::move(rec.code), rec.num_regs, rec.num_preds,
      rec.shared_bytes, rec.num_params);
}

/// Everything between the frame header and the checksum trailer.
template <class Ar, class S>
void io_body(Ar& ar, S& snap) {
  // Capture metadata (mirrors the cheap-access copies on Snapshot).
  ar.io(snap.cycle);
  ar.io(snap.sync_seq);
  ar.io(snap.launch_count);
  ar.io(snap.now_ns);
  ar.io(snap.target);
  ar.io(snap.sections, [](auto& a, auto& s) {
    a.io(s.name);
    a.io(as<u64>(s.offset));
    a.io(as<u64>(s.len));
    a.io(s.record_size);
    a.io(s.hash);
  });
  ar.io(snap.blob);
  ar.io(snap.programs, [](auto& a, auto& p) { io_program(a, p); });
}

}  // namespace

std::vector<u8> encode_snapshot(const Snapshot& snap) {
  Writer w;
  w.put64(kWireMagic);
  w.put32(kWireVersion);
  w.put32(Snapshot::kVersion);
  io_body(w, snap);

  // Trailing seal over everything framed so far: a truncated or
  // bit-flipped stream fails before any of it is interpreted as state.
  const std::vector<u8>& body = w.blob();
  w.put64(seal(body.data(), body.size()));
  return w.take_blob();
}

SnapshotPtr decode_snapshot(const std::vector<u8>& bytes) {
  if (bytes.size() < 8 + 8)
    throw SnapshotError("snapshot frame truncated: " +
                        std::to_string(bytes.size()) + " bytes");

  // The frame body is one section of the stream, so no read reaches into
  // the trailer and every body byte must be consumed.
  const std::vector<Section> frame{{"frame", 0, bytes.size() - 8, 0, 0}};
  Reader r(bytes, frame);
  r.begin_section("frame");

  // Magic and frame version come before the trailer check: a frame of
  // another version has another trailer (v1: FNV-1a), and is refused by
  // its version rather than as a checksum mismatch.
  if (r.get64() != kWireMagic)
    throw SnapshotError("not a framed snapshot (bad wire magic)");
  const u32 wire_version = r.get32();
  if (wire_version != kWireVersion)
    throw SnapshotError("snapshot frame v" + std::to_string(wire_version) +
                        " != supported v" + std::to_string(kWireVersion));

  u64 stored = 0;
  for (int i = 0; i < 8; ++i)
    stored |= static_cast<u64>(bytes[bytes.size() - 8 + static_cast<size_t>(i)])
              << (8 * i);
  const u64 actual = seal(bytes.data(), bytes.size() - 8);
  if (stored != actual) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "snapshot frame checksum mismatch (stored %016llx, "
                  "computed %016llx)",
                  static_cast<unsigned long long>(stored),
                  static_cast<unsigned long long>(actual));
    throw SnapshotError(buf);
  }

  const u32 snap_version = r.get32();
  if (snap_version != Snapshot::kVersion)
    throw SnapshotError("snapshot format v" + std::to_string(snap_version) +
                        " != supported v" +
                        std::to_string(Snapshot::kVersion));

  auto snap = std::make_shared<Snapshot>();
  io_body(r, *snap);
  r.end_section();

  // Per-section integrity: recompute each section's seal over the received
  // blob. The frame checksum already rules out transport corruption; this
  // catches a frame assembled from a blob that was corrupted *before*
  // encoding, and names the damaged component either way.
  const size_t blob_len = snap->blob.size();
  for (const Section& s : snap->sections) {
    if (s.offset > blob_len || s.len > blob_len - s.offset)
      throw SnapshotError("snapshot section '" + s.name +
                          "' extends past the end of the blob");
    if (seal(snap->blob.data() + s.offset, s.len) != s.hash)
      throw SnapshotError("snapshot section '" + s.name +
                          "' corrupted in transit (stored hash does not "
                          "match its contents)");
  }
  return snap;
}

void write_snapshot_file(const std::string& path, const Snapshot& snap) {
  const std::vector<u8> bytes = encode_snapshot(snap);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("cannot write snapshot file '" + path +
                             "': " + std::strerror(errno));
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed)
    throw std::runtime_error("short write to snapshot file '" + path + "'");
}

SnapshotPtr read_snapshot_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw std::runtime_error("cannot read snapshot file '" + path +
                             "': " + std::strerror(errno));
  std::vector<u8> bytes;
  u8 buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    bytes.insert(bytes.end(), buf, buf + n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error)
    throw std::runtime_error("error reading snapshot file '" + path + "'");
  return decode_snapshot(bytes);
}

}  // namespace higpu::ckpt
