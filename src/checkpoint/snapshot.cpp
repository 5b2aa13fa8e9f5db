#include "checkpoint/snapshot.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "checkpoint/fault_injection.h"
#include "grid/field3d.h"
#include "grid/sharded_field.h"
#include "parallel/shard_comm.h"

namespace ls3df {

namespace {

constexpr char kMagic[8] = {'L', 'S', '3', 'D', 'F', 'S', 'N', 'P'};
constexpr std::size_t kNameBytes = 40;
// magic + version + n_records + fingerprint.
constexpr std::size_t kFileHeaderBytes = 8 + 4 + 4 + 8;
// name + payload_bytes + kind + crc + reserved.
constexpr std::size_t kRecordHeaderBytes = kNameBytes + 8 + 4 + 4 + 8;

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

[[noreturn]] void throw_io(const std::string& what) {
  throw SnapshotError(SnapshotErrorCode::kIo,
                      what + ": " + std::strerror(errno));
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  // Slicing-by-8: t[0] is the bytewise table; t[k][i] advances t[k-1][i]
  // by one more zero byte, so one step folds 8 input bytes through 8
  // independent lookups. Same polynomial and values as the bytewise loop.
  static const auto t = [] {
    std::vector<std::array<std::uint32_t, 256>> tab(8);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      tab[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (int k = 1; k < 8; ++k)
        tab[k][i] = tab[0][tab[k - 1][i] & 0xFF] ^ (tab[k - 1][i] >> 8);
    return tab;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    // Little-endian assembly of the two words, independent of host order.
    const std::uint32_t lo = c ^ get_u32(p);
    const std::uint32_t hi = get_u32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const char* snapshot_error_name(SnapshotErrorCode code) {
  switch (code) {
    case SnapshotErrorCode::kIo: return "io";
    case SnapshotErrorCode::kFormat: return "format";
    case SnapshotErrorCode::kVersion: return "version";
    case SnapshotErrorCode::kCrc: return "crc";
    case SnapshotErrorCode::kTruncated: return "truncated";
    case SnapshotErrorCode::kFingerprint: return "fingerprint";
    case SnapshotErrorCode::kMissingRecord: return "missing-record";
  }
  return "unknown";
}

// --- SnapshotWriter ----------------------------------------------------

SnapshotWriter::SnapshotWriter(std::string path, std::uint64_t fingerprint,
                               FaultPlan* fault)
    : path_(std::move(path)), fingerprint_(fingerprint), fault_(fault) {}

void SnapshotWriter::add(const std::string& name, RecordKind kind,
                         const void* data, std::size_t bytes) {
  if (name.empty() || name.size() >= kNameBytes)
    throw SnapshotError(SnapshotErrorCode::kFormat,
                        "snapshot record name too long: " + name);
  Record rec;
  rec.name = name;
  rec.kind = kind;
  rec.payload.assign(static_cast<const unsigned char*>(data),
                     static_cast<const unsigned char*>(data) + bytes);
  rec.write_bytes = bytes;
  if (fault_ && !torn_) {
    const std::size_t cap = fault_->record_write_cap();
    if (cap < bytes) {
      rec.write_bytes = cap;
      torn_ = true;  // the simulated crash point: nothing after survives
    }
  }
  // The header still declares every record (a real crash loses payload,
  // not the writer's intent); commit() stops writing at the torn one.
  records_.push_back(std::move(rec));
}

void SnapshotWriter::add_f64(const std::string& name, const double* data,
                             std::size_t count) {
  add(name, RecordKind::kF64, data, count * sizeof(double));
}

void SnapshotWriter::add_u64(const std::string& name,
                             const std::uint64_t* data, std::size_t count) {
  add(name, RecordKind::kU64, data, count * sizeof(std::uint64_t));
}

void SnapshotWriter::commit() {
  if (committed_)
    throw SnapshotError(SnapshotErrorCode::kIo,
                        "snapshot already committed: " + path_);
  const std::string tmp = path_ + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw_io("snapshot: cannot create " + tmp);

  // File header declares the *intended* record count even under a torn-
  // write fault: that is what a real crash leaves behind, and it is what
  // forces the reader down the kTruncated path.
  std::vector<unsigned char> buf;
  buf.insert(buf.end(), kMagic, kMagic + 8);
  put_u32(buf, kSnapshotVersion);
  put_u32(buf, static_cast<std::uint32_t>(records_.size()));
  put_u64(buf, fingerprint_);
  bool write_failed = std::fwrite(buf.data(), 1, buf.size(), f) != buf.size();

  bool torn_written = false;
  for (const Record& rec : records_) {
    if (write_failed || torn_written) break;
    buf.clear();
    unsigned char name[kNameBytes] = {};
    std::memcpy(name, rec.name.data(), rec.name.size());
    buf.insert(buf.end(), name, name + kNameBytes);
    put_u64(buf, rec.payload.size());
    put_u32(buf, static_cast<std::uint32_t>(rec.kind));
    put_u32(buf, crc32(rec.payload.data(), rec.payload.size()));
    put_u64(buf, 0);  // reserved
    write_failed |= std::fwrite(buf.data(), 1, buf.size(), f) != buf.size();
    if (!write_failed && rec.write_bytes > 0)
      write_failed |=
          std::fwrite(rec.payload.data(), 1, rec.write_bytes, f) !=
          rec.write_bytes;
    if (rec.write_bytes < rec.payload.size()) torn_written = true;
  }

  // Under a simulated torn write the flush is what the modeled crash
  // lost, so skip it; the rename still lands (the rename made it, the
  // data did not) and the reader must classify the damage. There is no
  // fsync: the rename publishes a whole generation to any process that
  // crashes, but the data is not durable across a power loss.
  if (!write_failed && !torn_ && std::fflush(f) != 0) write_failed = true;
  if (std::fclose(f) != 0) write_failed = true;
  if (write_failed) {
    std::remove(tmp.c_str());
    throw_io("snapshot: short write to " + tmp);
  }

  // Rotate the previous generation, then publish atomically.
  const std::string prev = snapshot_previous_path(path_);
  std::remove(prev.c_str());
  std::rename(path_.c_str(), prev.c_str());  // ENOENT on gen 1 is fine
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw_io("snapshot: rename " + tmp + " -> " + path_);
  }
  committed_ = true;
}

// --- SnapshotReader ----------------------------------------------------

SnapshotReader::SnapshotReader(const std::string& path) : path_(path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw_io("snapshot: cannot open " + path);
  std::vector<unsigned char> bytes;
  unsigned char chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
    bytes.insert(bytes.end(), chunk, chunk + n);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) throw_io("snapshot: read " + path);

  if (bytes.size() < kFileHeaderBytes)
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        "snapshot truncated inside the file header: " + path);
  if (std::memcmp(bytes.data(), kMagic, 8) != 0)
    throw SnapshotError(SnapshotErrorCode::kFormat,
                        "not a snapshot file (bad magic): " + path);
  version_ = get_u32(bytes.data() + 8);
  if (version_ != kSnapshotVersion)
    throw SnapshotError(
        SnapshotErrorCode::kVersion,
        "snapshot version " + std::to_string(version_) +
            " not readable by this build (expects " +
            std::to_string(kSnapshotVersion) + "): " + path);
  const std::uint32_t n_records = get_u32(bytes.data() + 12);
  fingerprint_ = get_u64(bytes.data() + 16);

  std::size_t off = kFileHeaderBytes;
  for (std::uint32_t i = 0; i < n_records; ++i) {
    if (bytes.size() - off < kRecordHeaderBytes)
      throw SnapshotError(
          SnapshotErrorCode::kTruncated,
          "snapshot truncated inside record header " + std::to_string(i) +
              ": " + path);
    const unsigned char* h = bytes.data() + off;
    if (h[kNameBytes - 1] != 0)
      throw SnapshotError(SnapshotErrorCode::kFormat,
                          "snapshot record name not NUL-terminated: " + path);
    RecordInfo info;
    info.name = reinterpret_cast<const char*>(h);
    if (info.name.empty())
      throw SnapshotError(SnapshotErrorCode::kFormat,
                          "snapshot record with empty name: " + path);
    const std::uint64_t payload_bytes = get_u64(h + kNameBytes);
    info.kind = static_cast<RecordKind>(get_u32(h + kNameBytes + 8));
    info.crc = get_u32(h + kNameBytes + 12);
    info.bytes = static_cast<std::size_t>(payload_bytes);
    off += kRecordHeaderBytes;
    if (bytes.size() - off < info.bytes)
      throw SnapshotError(SnapshotErrorCode::kTruncated,
                          "snapshot truncated inside record '" + info.name +
                              "': " + path);
    const std::uint32_t actual = crc32(bytes.data() + off, info.bytes);
    if (actual != info.crc)
      throw SnapshotError(SnapshotErrorCode::kCrc,
                          "snapshot record '" + info.name +
                              "' failed its CRC-32 check: " + path);
    payloads_.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                           bytes.begin() +
                               static_cast<std::ptrdiff_t>(off + info.bytes));
    records_.push_back(std::move(info));
    off += records_.back().bytes;
  }
}

bool SnapshotReader::has(const std::string& name) const {
  for (const RecordInfo& r : records_)
    if (r.name == name) return true;
  return false;
}

const std::vector<unsigned char>& SnapshotReader::payload(
    const std::string& name) const {
  for (std::size_t i = 0; i < records_.size(); ++i)
    if (records_[i].name == name) return payloads_[i];
  throw SnapshotError(SnapshotErrorCode::kMissingRecord,
                      "snapshot record '" + name + "' missing from " + path_);
}

void SnapshotReader::read_f64(const std::string& name, double* out,
                              std::size_t count) const {
  const auto& p = payload(name);
  if (p.size() != count * sizeof(double))
    throw SnapshotError(SnapshotErrorCode::kFormat,
                        "snapshot record '" + name + "' holds " +
                            std::to_string(p.size()) + " bytes, expected " +
                            std::to_string(count * sizeof(double)));
  std::memcpy(out, p.data(), p.size());
}

void SnapshotReader::read_u64(const std::string& name, std::uint64_t* out,
                              std::size_t count) const {
  const auto& p = payload(name);
  if (p.size() != count * sizeof(std::uint64_t))
    throw SnapshotError(SnapshotErrorCode::kFormat,
                        "snapshot record '" + name + "' holds " +
                            std::to_string(p.size()) + " bytes, expected " +
                            std::to_string(count * sizeof(std::uint64_t)));
  std::memcpy(out, p.data(), p.size());
}

std::size_t SnapshotReader::f64_count(const std::string& name) const {
  return payload(name).size() / sizeof(double);
}

std::string snapshot_previous_path(const std::string& path) {
  return path + ".1";
}

std::unique_ptr<SnapshotReader> open_snapshot_with_fallback(
    const std::string& path, bool* used_fallback) {
  if (used_fallback) *used_fallback = false;
  try {
    return std::make_unique<SnapshotReader>(path);
  } catch (const SnapshotError& primary) {
    if (primary.code() == SnapshotErrorCode::kFingerprint) throw;
    try {
      auto r = std::make_unique<SnapshotReader>(snapshot_previous_path(path));
      if (used_fallback) *used_fallback = true;
      return r;
    } catch (const SnapshotError&) {
      // Both generations unusable: the newest generation's failure is
      // the actionable one.
      throw primary;
    }
  }
}

// --- Fingerprint -------------------------------------------------------

void Fingerprint::mix_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;  // FNV prime
  }
}

void Fingerprint::mix_u64(std::uint64_t v) { mix_bytes(&v, sizeof(v)); }

void Fingerprint::mix_double(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  mix_u64(bits);
}

// --- field routing -----------------------------------------------------

void write_sharded_field(SnapshotWriter* w, const std::string& name,
                         const ShardedField3D<double>& f, ShardComm& comm) {
  // One record per slab. A process that holds every slab (any transport
  // that is not SPMD) records each straight from its storage. Under SPMD
  // rank r's slab crosses the transport through gather_one (counts[r] =
  // slab size, 0 elsewhere), one slab in flight at a time, so no rank
  // stages more than one slab; the fill runs only on the owning rank,
  // and only the rank with a writer records the gathered payload. Both
  // routes write the same bytes.
  for (int r = 0; r < f.n_shards(); ++r) {
    const std::string record = name + "/slab" + std::to_string(r);
    const std::size_t n = f.slab_elements(r);
    if (comm.local_rank() < 0) {
      if (w) w->add_f64(record, f.slab(r).data(), n);
      continue;
    }
    const ShardComm::GatherView view =
        comm.gather_one(r, n, [&](double* block) {
          std::memcpy(block, f.slab(r).data(), n * sizeof(double));
        });
    if (w) w->add_f64(record, view.data(), n);
  }
}

void read_sharded_field(const SnapshotReader& r, const std::string& name,
                        ShardedField3D<double>& f) {
  // Slab records restore rank-locally (each payload is exactly the
  // owning rank's storage). Under SPMD every rank opens the same file
  // and restores only its resident slab.
  for (int rank = 0; rank < f.n_shards(); ++rank) {
    if (!f.has_slab(rank)) continue;
    r.read_f64(name + "/slab" + std::to_string(rank), f.slab(rank).data(),
               f.slab(rank).size());
  }
}

}  // namespace ls3df
