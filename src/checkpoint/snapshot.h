// Crash-safe snapshots of LS3DF solver state (checkpoint/restart).
//
// == Architecture ==
//
// A snapshot is one binary file holding everything a solve() needs to
// resume at an outer-iteration boundary with a bit-identical continued
// trajectory: the mixed input potential, the patched density, the full
// Pulay DIIS history, the convergence history, the per-fragment
// wavefunctions and occupations, the precision-policy latches and the
// RNG state (see fragment/ls3df.cpp for the exact record set). The
// format is deliberately dumb — self-describing named records over raw
// little-endian payloads — so a partial or damaged file degrades into a
// typed error, never into silently wrong physics.
//
// == Format layout (version 1) ==
//
//   FileHeader   magic "LS3DFSNP" | u32 version | u32 n_records
//                | u64 fingerprint
//   Record x N   char name[40] (NUL-terminated) | u64 payload_bytes
//                | u32 kind (RecordKind) | u32 crc32 (IEEE, payload only)
//                | u64 reserved | payload bytes
//
// Every record carries its own CRC-32, so a torn write or a flipped bit
// is pinned to the record it hit. The reader validates magic, version,
// record framing and every CRC up front; any violation throws a
// SnapshotError whose code() names the failure class (the corruption
// test suite drives each one).
//
// == Atomicity + generations ==
//
// SnapshotWriter::commit() never exposes a partial file:
//   1. write everything to "<path>.tmp", fsync, close;
//   2. rotate the previous snapshot: rename("<path>", "<path>.1");
//   3. rename("<path>.tmp", "<path>").
// rename(2) is atomic on POSIX, so readers see the old generation or the
// new one, never a mix. The one-deep generation chain is the corruption
// fallback: open_snapshot_with_fallback() tries "<path>" and falls back
// to "<path>.1" when the newest generation is damaged (e.g. the torn
// write a FaultPlan injects), trading one redone outer iteration for a
// completed solve.
//
// == Shard-record routing ==
//
// Every distributed field is stored as one record
// per rank ("<name>/slab<r>"), routed through the Transport seam one
// slab at a time (ShardComm::gather_one): the writer's staging buffer
// holds at most one slab, so no rank — and no writer — materializes the
// dense grid. Restore is the mirror image: each slab record lands
// directly in the owning rank's storage. Under an SPMD transport
// (threads, MPI) the same gather_one collectives run on every rank but
// only rank 0 holds a SnapshotWriter and records the gathered payloads
// — the snapshot file is byte-identical to the one a dense-per-process
// run with the same shard count writes, so snapshots are portable
// across transports. Resume under SPMD has every rank open the same
// file and restore only its resident slabs (plus its owned fragments'
// wavefunctions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ls3df {

class FaultPlan;
class ShardComm;
template <typename T>
class ShardedField3D;

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
std::uint32_t crc32(const void* data, std::size_t n,
                    std::uint32_t seed = 0);

inline constexpr std::uint32_t kSnapshotVersion = 1;

// Element type of a record payload — metadata only (the inspector
// prints element counts); the byte layout is the same either way.
enum class RecordKind : std::uint32_t {
  kBytes = 0,
  kF64 = 1,
  kC128 = 2,
  kU64 = 3,
};

// Failure classes a damaged or mismatched snapshot can raise. Every
// SnapshotError names exactly one, so callers (and the fallback opener)
// can tell a short file from a flipped bit from a version skew.
enum class SnapshotErrorCode {
  kIo,           // open/read/write/rename failed (errno-level)
  kFormat,       // bad magic or malformed record framing
  kVersion,      // format version this build does not read
  kCrc,          // a record's payload failed its CRC-32
  kTruncated,    // file ends before the framing says it should
  kFingerprint,  // snapshot was written by incompatible solver options
  kMissingRecord,  // a record the resume path requires is absent
};

const char* snapshot_error_name(SnapshotErrorCode code);

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  SnapshotErrorCode code() const { return code_; }

 private:
  SnapshotErrorCode code_;
};

// Builds one snapshot generation in memory and publishes it atomically.
// Records are buffered on add() and written by commit(); a writer that
// is destroyed uncommitted leaves no trace on disk. The optional
// FaultPlan models a torn write that survived a crash (header intact,
// payload short, fsync lost) — the reader must classify it, the
// fallback opener must route around it.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::string path, std::uint64_t fingerprint,
                          FaultPlan* fault = nullptr);

  void add(const std::string& name, RecordKind kind, const void* data,
           std::size_t bytes);
  void add_f64(const std::string& name, const double* data,
               std::size_t count);
  void add_u64(const std::string& name, const std::uint64_t* data,
               std::size_t count);

  // Write tmp + fsync, rotate <path> -> <path>.1, rename tmp into
  // place. Throws SnapshotError(kIo) on any filesystem failure.
  void commit();

  // Total record payload buffered so far (checkpoint-size metrics; the
  // on-disk file adds fixed framing per record on top of this).
  std::size_t payload_bytes() const {
    std::size_t total = 0;
    for (const Record& r : records_) total += r.payload.size();
    return total;
  }

 private:
  struct Record {
    std::string name;
    RecordKind kind;
    std::vector<unsigned char> payload;
    std::size_t write_bytes;  // < payload.size() under a torn-write fault
  };
  std::string path_;
  std::uint64_t fingerprint_;
  FaultPlan* fault_;
  std::vector<Record> records_;
  bool torn_ = false;  // a fault truncated a record: drop the fsync too
  bool committed_ = false;
};

// Loads and fully validates one snapshot file (all framing and CRCs are
// checked up front — a reader that constructed successfully cannot later
// discover corruption).
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::string& path);

  std::uint32_t version() const { return version_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  const std::string& path() const { return path_; }

  struct RecordInfo {
    std::string name;
    RecordKind kind;
    std::size_t bytes;
    std::uint32_t crc;
  };
  const std::vector<RecordInfo>& records() const { return records_; }

  bool has(const std::string& name) const;
  // Payload bytes of a record; throws SnapshotError(kMissingRecord).
  const std::vector<unsigned char>& payload(const std::string& name) const;
  // Typed views with exact-size validation (kFormat on mismatch).
  void read_f64(const std::string& name, double* out,
                std::size_t count) const;
  void read_u64(const std::string& name, std::uint64_t* out,
                std::size_t count) const;
  std::size_t f64_count(const std::string& name) const;

 private:
  std::string path_;
  std::uint32_t version_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::vector<RecordInfo> records_;
  std::vector<std::vector<unsigned char>> payloads_;
};

// The previous-generation path commit() rotates into ("<path>.1").
std::string snapshot_previous_path(const std::string& path);

// Open "<path>", falling back to "<path>.1" when the newest generation
// is damaged (kIo/kFormat/kCrc/kTruncated/kVersion). Throws the
// *original* error when both generations fail, so the caller sees why
// the newest snapshot was unusable. used_fallback (optional) reports
// which generation was opened.
std::unique_ptr<SnapshotReader> open_snapshot_with_fallback(
    const std::string& path, bool* used_fallback = nullptr);

// FNV-1a accumulator for the option fingerprint: a cheap structural
// hash over everything that changes the numerical trajectory. Resume
// refuses a snapshot whose fingerprint disagrees with the live solver.
class Fingerprint {
 public:
  void mix_bytes(const void* data, std::size_t n);
  void mix_u64(std::uint64_t v);
  void mix_i64(std::int64_t v) { mix_u64(static_cast<std::uint64_t>(v)); }
  void mix_double(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;  // FNV offset basis
};

// --- shard-record routing (see the architecture block) ----------------
// Write/read one record per rank ("<name>/slab<r>"), one slab in flight
// at a time through the communicator's transport. `w` may be null on
// ranks that do not own the snapshot file (SPMD: only rank 0 writes) —
// every rank must still make the call, because each slab crosses the
// transport as a collective.
void write_sharded_field(SnapshotWriter* w, const std::string& name,
                         const ShardedField3D<double>& f, ShardComm& comm);
// Restores only the slabs the field holds (all of them dense-per-
// process; the local rank's under SPMD, where every rank opens the same
// file and restricts it).
void read_sharded_field(const SnapshotReader& r, const std::string& name,
                        ShardedField3D<double>& f);

}  // namespace ls3df
