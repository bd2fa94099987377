// Wire/file framing for ckpt::Snapshot — the unit of distribution.
//
// An in-memory Snapshot is three things: the padding-free state blob, its
// section table, and the immutable kernel programs the blob references by
// index. encode_snapshot() frames all three as one self-contained byte
// stream ("higpu.snap/2") that can cross a socket or live in a file:
//
//   header     magic, frame version, snapshot version, capture metadata
//   sections   name / offset / length / record size / seal each
//   blob       the raw state bytes
//   programs   each KernelProgram serialized field-by-field (instructions,
//              register/predicate/shared/param requirements)
//   trailer    ckpt::seal over every preceding frame byte
//
// Sections and the trailer are sealed with ckpt::seal, which reads eight
// bytes per step and detects every single-byte change; it replaced the
// byte-serial FNV-1a of frame v1, whose cost dominated snapshot capture.
// Snapshot::hash() stays FNV-1a: it is the state fingerprint the blob
// goldens pin across versions of the code, and nothing on the capture or
// restore path computes it, so its speed costs nothing.
//
// decode_snapshot() refuses corruption loudly instead of restoring garbage:
// after the magic and the frame version, the frame checksum is validated
// (truncation, bit rot, a torn transfer), then every section's seal is
// recomputed over the received blob — a mismatch names the damaged section
// ("snapshot section 'sm3' corrupted in transit"), which is the difference
// between a diagnosable dead worker and a silently wrong campaign. Restoring a
// decoded snapshot onto a device still performs the existing
// magic/version/parameter-fingerprint checks inside the blob.
#pragma once

#include <string>
#include <vector>

#include "ckpt/snapshot.h"

namespace higpu::ckpt {

/// Frame format version; bump on any change to the framing layout (the
/// snapshot *blob* layout is versioned independently by Snapshot::kVersion).
/// v2: sections and the trailer are sealed with ckpt::seal, not FNV-1a.
constexpr u32 kWireVersion = 2;
constexpr u64 kWireMagic = 0x48475055534E4150ull;  // "HGPUSNAP"

/// Serialize a snapshot (blob + sections + programs + metadata) into one
/// checksummed byte stream.
std::vector<u8> encode_snapshot(const Snapshot& snap);

/// Parse an encoded snapshot. Throws SnapshotError on: bad magic, frame
/// version skew, a frame checksum mismatch (naming the expected/actual
/// values), truncation, or a section whose recomputed seal differs from the
/// stored one (naming the section). The returned snapshot is bit-identical
/// to the encoded one (same blob, hence same Snapshot::hash()).
SnapshotPtr decode_snapshot(const std::vector<u8>& bytes);

/// Write an encoded snapshot to `path` (atomically enough for our purposes:
/// full write + flush; the decode checksum catches torn files). Throws
/// std::runtime_error on I/O failure.
void write_snapshot_file(const std::string& path, const Snapshot& snap);

/// Read + decode a snapshot file. Throws std::runtime_error if the file
/// can't be read, SnapshotError if its contents fail validation.
SnapshotPtr read_snapshot_file(const std::string& path);

}  // namespace higpu::ckpt
