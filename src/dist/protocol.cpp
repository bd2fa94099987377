#include "dist/protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace higpu::dist {

namespace {

// Frame header/trailer are built with the same little-endian primitives as
// payloads so the wire format is struct-padding-free end to end.
constexpr size_t kHeaderBytes = 4 + 1 + 8;  // magic + type + length

void write_all(int fd, const u8* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the
    // coordinator with SIGPIPE mid-campaign.
    const ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("wire send failed: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
}

/// Read exactly `len` bytes. Returns false on EOF before the first byte
/// when `eof_ok`; EOF mid-read always throws (a torn frame).
bool read_all(int fd, u8* data, size_t len, bool eof_ok) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("wire read failed: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (done == 0 && eof_ok) return false;
      throw WireError("wire stream ended mid-frame after " +
                      std::to_string(done) + " of " + std::to_string(len) +
                      " bytes");
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

void put_snapshot_opt(ckpt::Writer& w, const ckpt::SnapshotPtr& snap) {
  if (!snap) {
    w.putb(false);
    return;
  }
  w.putb(true);
  w.io(ckpt::encode_snapshot(*snap));
}

ckpt::SnapshotPtr get_snapshot_opt(ckpt::Reader& r) {
  if (!r.getb()) return nullptr;
  std::vector<u8> framed;
  r.io(framed);
  // decode_snapshot revalidates the inner frame (checksum, magic, per-
  // section hashes), so snapshot corruption is caught even if the outer
  // frame survived.
  return ckpt::decode_snapshot(framed);
}

/// Inverse of ckpt::put_fields. Enum bytes come off a socket, so each is
/// range-checked before the cast.
template <Visited R>
void get_fields(ckpt::Reader& r, R& rec) {
  visit_fields(rec, [&r](const char* name, auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (Visited<T>) {
      get_fields(r, v);
    } else if constexpr (CountedEnum<T>) {
      const u8 raw = r.get8();
      if (raw >= enum_count(T{}))
        throw WireError(std::string("spec field '") + name +
                        "' has out-of-range value " + std::to_string(raw));
      v = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(sizeof(T) == 4 ? r.get32() : r.get64());
    } else if constexpr (std::is_floating_point_v<T>) {
      v = static_cast<T>(r.getf64());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r.get_string();
    } else {
      static_assert(std::is_same_v<T, std::vector<u32>>,
                    "no binary decoding for this field type");
      r.io(v);
    }
  });
}

}  // namespace

bool known_msg(u8 t) {
  return t >= static_cast<u8>(Msg::kHello) &&
         t <= static_cast<u8>(Msg::kFlight);
}

void send_frame(int fd, Msg type, const std::vector<u8>& payload) {
  ckpt::Writer w;
  w.put32(kFrameMagic);
  w.put8(static_cast<u8>(type));
  w.put64(payload.size());
  w.put_bytes(payload.data(), payload.size());
  w.put64(ckpt::fnv1a(payload.data(), payload.size()));
  const std::vector<u8>& bytes = w.blob();
  write_all(fd, bytes.data(), bytes.size());
}

bool recv_frame(int fd, Frame* out) {
  std::vector<u8> header(kHeaderBytes);
  if (!read_all(fd, header.data(), header.size(), /*eof_ok=*/true))
    return false;

  ckpt::Reader hr(header, {});
  const u32 magic = hr.get32();
  const u8 type = hr.get8();
  const u64 length = hr.get64();
  if (magic != kFrameMagic)
    throw WireError("wire frame has bad magic 0x" +
                    [&] {
                      char buf[16];
                      std::snprintf(buf, sizeof buf, "%08x", magic);
                      return std::string(buf);
                    }() +
                    " (stream desynchronized or corrupted)");
  if (!known_msg(type))
    throw WireError("wire frame has unknown message type " +
                    std::to_string(type));
  if (length > kMaxPayload)
    throw WireError("wire frame claims implausible payload of " +
                    std::to_string(length) + " bytes");

  out->type = static_cast<Msg>(type);
  out->payload.resize(static_cast<size_t>(length));
  read_all(fd, out->payload.data(), out->payload.size(), /*eof_ok=*/false);

  std::vector<u8> trailer(8);
  read_all(fd, trailer.data(), trailer.size(), /*eof_ok=*/false);
  ckpt::Reader tr(trailer, {});
  const u64 want = tr.get64();
  const u64 got = ckpt::fnv1a(out->payload.data(), out->payload.size());
  if (want != got)
    throw WireError("wire frame payload checksum mismatch (expected " +
                    std::to_string(want) + ", computed " +
                    std::to_string(got) + ")");
  return true;
}

// ---- ScenarioSpec ----------------------------------------------------------

void put_spec(ckpt::Writer& w, const exp::ScenarioSpec& spec) {
  ckpt::put_fields(w, spec);
}

exp::ScenarioSpec get_spec(ckpt::Reader& r) {
  exp::ScenarioSpec spec;
  get_fields(r, spec);
  return spec;
}

// ---- Work / result payloads ------------------------------------------------

std::vector<u8> encode_work(const WorkItem& item) {
  ckpt::Writer w;
  w.put64(item.unit_id);
  w.put32(item.index);
  put_spec(w, item.spec);
  put_snapshot_opt(w, item.resume);
  put_snapshot_opt(w, item.divergence_ref);
  return w.take_blob();
}

WorkItem decode_work(const std::vector<u8>& payload) {
  ckpt::Reader r(payload, {});
  WorkItem item;
  item.unit_id = r.get64();
  item.index = r.get32();
  item.spec = get_spec(r);
  item.resume = get_snapshot_opt(r);
  item.divergence_ref = get_snapshot_opt(r);
  return item;
}

std::vector<u8> encode_result(const ResultMsg& msg) {
  ckpt::Writer w;
  w.put64(msg.unit_id);
  w.put32(msg.index);
  w.put_string(msg.jsonl);
  return w.take_blob();
}

ResultMsg decode_result(const std::vector<u8>& payload) {
  ckpt::Reader r(payload, {});
  ResultMsg msg;
  msg.unit_id = r.get64();
  msg.index = r.get32();
  msg.jsonl = r.get_string();
  return msg;
}

std::vector<u8> encode_hello(u32 worker_id) {
  ckpt::Writer w;
  w.put32(kProtocolVersion);
  w.put32(worker_id);
  return w.take_blob();
}

u32 decode_hello(const std::vector<u8>& payload) {
  ckpt::Reader r(payload, {});
  const u32 version = r.get32();
  if (version != kProtocolVersion)
    throw WireError("worker speaks higpu.wire/" + std::to_string(version) +
                    ", coordinator expects higpu.wire/" +
                    std::to_string(kProtocolVersion));
  return r.get32();
}

std::vector<u8> encode_log(const LogMsg& msg) {
  ckpt::Writer w;
  w.put32(msg.level);
  w.put_string(msg.line);
  return w.take_blob();
}

LogMsg decode_log(const std::vector<u8>& payload) {
  ckpt::Reader r(payload, {});
  LogMsg msg;
  msg.level = r.get32();
  msg.line = r.get_string();
  return msg;
}

std::vector<u8> encode_flight(const std::string& json) {
  ckpt::Writer w;
  w.put_string(json);
  return w.take_blob();
}

std::string decode_flight(const std::vector<u8>& payload) {
  ckpt::Reader r(payload, {});
  return r.get_string();
}

u64 campaign_fingerprint(const exp::ScenarioSet& set) {
  ckpt::Writer w;
  w.put64(set.size());
  for (const exp::ScenarioSpec& spec : set) put_spec(w, spec);
  const std::vector<u8>& b = w.blob();
  return ckpt::fnv1a(b.data(), b.size());
}

}  // namespace higpu::dist
