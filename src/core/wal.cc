#include "core/wal.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "util/crc32c.h"
#include "util/sync.h"

namespace vecube {

namespace {

constexpr char kWalMagic[8] = {'V', 'E', 'C', 'U', 'B', 'E', 'W', 'L'};
constexpr uint32_t kWalVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
void AppendScalarTo(std::vector<uint8_t>* buf, T value) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  buf->insert(buf->end(), p, p + sizeof(T));
}

template <typename T>
bool ReadScalar(std::FILE* f, T* value) {
  return std::fread(value, 1, sizeof(T), f) == sizeof(T);
}

std::vector<uint8_t> HeaderBytes(const CubeShape& shape, uint64_t base_lsn) {
  std::vector<uint8_t> header;
  // Byte-wise append: GCC 12's -Wstringop-overflow misfires on a
  // char*-range vector::insert here under -O2.
  for (const char byte : kWalMagic) {
    header.push_back(static_cast<uint8_t>(byte));
  }
  AppendScalarTo<uint32_t>(&header, kWalVersion);
  AppendScalarTo<uint32_t>(&header, shape.ndim());
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    AppendScalarTo<uint32_t>(&header, shape.extent(m));
  }
  AppendScalarTo<uint64_t>(&header, base_lsn);
  AppendScalarTo<uint32_t>(&header,
                           MaskCrc32c(Crc32c(header.data(), header.size())));
  return header;
}

std::vector<uint8_t> RecordBytes(const CubeShape& shape, uint64_t lsn,
                                 const CellDelta& delta) {
  std::vector<uint8_t> payload;
  AppendScalarTo<uint64_t>(&payload, lsn);
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    AppendScalarTo<uint32_t>(&payload, delta.coords[m]);
  }
  AppendScalarTo<double>(&payload, delta.delta);
  std::vector<uint8_t> record;
  AppendScalarTo<uint32_t>(&record, static_cast<uint32_t>(payload.size()));
  AppendScalarTo<uint32_t>(&record,
                           MaskCrc32c(Crc32c(payload.data(), payload.size())));
  record.insert(record.end(), payload.begin(), payload.end());
  return record;
}

// Writes a fresh log containing only a header to `path` atomically.
Status WriteEmptyLog(const std::string& path, const CubeShape& shape,
                     uint64_t base_lsn, const char* scope) {
  const std::string tmp = path + ".tmp";
  const std::vector<uint8_t> header = HeaderBytes(shape, base_lsn);
  WritableFile file;
  VECUBE_ASSIGN_OR_RETURN(file, WritableFile::Create(tmp, scope));
  VECUBE_RETURN_NOT_OK(file.Append(header.data(), header.size()));
  VECUBE_RETURN_NOT_OK(file.Sync());
  VECUBE_RETURN_NOT_OK(file.Close());
  return AtomicRename(tmp, path, scope);
}

}  // namespace

Result<WalScan> WriteAheadLog::Scan(const std::string& path,
                                    const CubeShape& shape) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path + " for reading");
  }
  std::FILE* f = file.get();

  char magic[8];
  if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
      std::memcmp(magic, kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a vecube WAL file");
  }
  uint32_t version = 0;
  uint32_t ndim = 0;
  if (!ReadScalar(f, &version) || version != kWalVersion) {
    return Status::InvalidArgument(path + ": unsupported WAL version");
  }
  if (!ReadScalar(f, &ndim) || ndim != shape.ndim()) {
    return Status::InvalidArgument(path + ": WAL dimensionality mismatch");
  }
  for (uint32_t m = 0; m < ndim; ++m) {
    uint32_t extent = 0;
    if (!ReadScalar(f, &extent) || extent != shape.extent(m)) {
      return Status::InvalidArgument(path + ": WAL extent mismatch");
    }
  }
  uint64_t base_lsn = 0;
  uint32_t header_crc = 0;
  if (!ReadScalar(f, &base_lsn) || !ReadScalar(f, &header_crc)) {
    return Status::InvalidArgument(path + ": truncated WAL header");
  }
  const std::vector<uint8_t> expected = HeaderBytes(shape, base_lsn);
  // The rebuilt header ends with its own CRC; compare the whole block.
  std::vector<uint8_t> actual = expected;
  std::memcpy(actual.data() + actual.size() - 4, &header_crc, 4);
  if (actual != expected) {
    return Status::InvalidArgument(path + ": WAL header checksum mismatch");
  }

  WalScan scan;
  scan.base_lsn = base_lsn;
  scan.committed_bytes = expected.size();
  const uint32_t payload_bytes_expected =
      8 + 4 * ndim + 8;  // lsn + coords + delta
  uint64_t expect_lsn = base_lsn;
  for (;;) {
    uint32_t payload_bytes = 0;
    uint32_t payload_crc = 0;
    if (!ReadScalar(f, &payload_bytes)) break;  // clean EOF or torn length
    if (payload_bytes != payload_bytes_expected) {
      scan.torn_tail = true;
      break;
    }
    if (!ReadScalar(f, &payload_crc)) {
      scan.torn_tail = true;
      break;
    }
    std::vector<uint8_t> payload(payload_bytes);
    if (std::fread(payload.data(), 1, payload_bytes, f) != payload_bytes) {
      scan.torn_tail = true;
      break;
    }
    if (MaskCrc32c(Crc32c(payload.data(), payload.size())) != payload_crc) {
      scan.torn_tail = true;
      break;
    }
    WalRecord record;
    std::memcpy(&record.lsn, payload.data(), 8);
    if (record.lsn != expect_lsn) {
      scan.torn_tail = true;  // sequence break: do not trust the tail
      break;
    }
    record.delta.coords.resize(ndim);
    std::memcpy(record.delta.coords.data(), payload.data() + 8,
                size_t{4} * ndim);
    std::memcpy(&record.delta.delta, payload.data() + 8 + size_t{4} * ndim,
                8);
    for (uint32_t m = 0; m < ndim; ++m) {
      if (record.delta.coords[m] >= shape.extent(m)) {
        scan.torn_tail = true;
        break;
      }
    }
    if (scan.torn_tail) break;
    scan.records.push_back(std::move(record));
    scan.committed_bytes += 8 + payload_bytes;
    ++expect_lsn;
  }
  // A short length prefix at EOF is also a torn tail; detect it by
  // comparing the committed offset against the file size.
  const long end = std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1;  // NOLINT(google-runtime-int)
  if (end >= 0 && static_cast<uint64_t>(end) != scan.committed_bytes) {
    scan.torn_tail = true;
  }
  return scan;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, const CubeShape& shape, WalScan* scan_out,
    bool sync_each_append, uint64_t create_base_lsn) {
  WalScan scan;
  Result<WalScan> scanned = Scan(path, shape);
  if (scanned.ok()) {
    scan = std::move(scanned).value();
  } else if (scanned.status().IsNotFound()) {
    VECUBE_RETURN_NOT_OK(
        WriteEmptyLog(path, shape, create_base_lsn, "wal.reset"));
    scan.base_lsn = create_base_lsn;
    VECUBE_ASSIGN_OR_RETURN(scan.committed_bytes, FileSize(path));
  } else {
    return scanned.status();
  }

  // make_unique cannot reach the private constructor.
  std::unique_ptr<WriteAheadLog> log(
      new WriteAheadLog());  // vecube-lint: disable=no-naked-new
  log->path_ = path;
  log->shape_ = shape;
  log->sync_each_append_ = sync_each_append;
  // The object is not yet shared, but initializing its guarded fields
  // under the lock keeps the annotated contract unconditional.
  MutexLock lock(log->mu_);
  log->next_lsn_ = scan.base_lsn + scan.records.size();
  log->records_in_log_ = scan.records.size();
  VECUBE_ASSIGN_OR_RETURN(log->file_,
                          WritableFile::OpenForAppend(path, "wal.append"));
  if (log->file_.offset() != scan.committed_bytes) {
    // Torn tail (or garbage after the committed prefix): cut it away so
    // the next append starts on a record boundary.
    VECUBE_RETURN_NOT_OK(log->file_.TruncateTo(scan.committed_bytes));
  }
  if (scan_out != nullptr) *scan_out = std::move(scan);
  return log;
}

Result<uint64_t> WriteAheadLog::Append(const CellDelta& delta) {
  MutexLock lock(mu_);
  if (broken_) {
    return Status::FailedPrecondition(
        "WAL " + path_ + " is broken (failed rollback of a torn append)");
  }
  if (!file_.is_open()) {
    return Status::FailedPrecondition("WAL " + path_ + " is not open");
  }
  if (delta.coords.size() != shape_.ndim()) {
    return Status::InvalidArgument("delta arity mismatch");
  }
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    if (delta.coords[m] >= shape_.extent(m)) {
      return Status::OutOfRange("delta coordinate outside cube extent");
    }
  }
  const uint64_t committed = file_.offset();
  const uint64_t lsn = next_lsn_;
  const std::vector<uint8_t> record = RecordBytes(shape_, lsn, delta);
  Status status = file_.Append(record.data(), record.size());
  if (status.ok() && sync_each_append_) status = file_.Sync();
  if (!status.ok()) {
    // Undo the torn bytes so a later append cannot land after them. If
    // the rollback itself fails the log file is unusable for appending
    // (recovery via Scan still works — it stops at the committed prefix).
    Status rollback = file_.TruncateTo(committed);
    if (!rollback.ok()) broken_ = true;
    return status;
  }
  next_lsn_ = lsn + 1;
  ++records_in_log_;
  return lsn;
}

Status WriteAheadLog::Reset() {
  MutexLock lock(mu_);
  if (!file_.is_open() && !broken_) {
    return Status::FailedPrecondition("WAL " + path_ + " is not open");
  }
  // The new header continues the lsn sequence; records folded into the
  // snapshot are dropped.
  VECUBE_RETURN_NOT_OK(file_.Close());
  Status status = WriteEmptyLog(path_, shape_, next_lsn_, "wal.reset");
  if (!status.ok()) {
    // The old (complete) log is still in place; reopen it for appending.
    Result<WritableFile> reopened =
        WritableFile::OpenForAppend(path_, "wal.append");
    if (reopened.ok()) {
      file_ = std::move(reopened).value();
    } else {
      broken_ = true;
    }
    return status;
  }
  VECUBE_ASSIGN_OR_RETURN(file_,
                          WritableFile::OpenForAppend(path_, "wal.append"));
  records_in_log_ = 0;
  broken_ = false;
  return Status::OK();
}

uint64_t WriteAheadLog::last_lsn() const {
  MutexLock lock(mu_);
  return next_lsn_ - 1;
}

uint64_t WriteAheadLog::records_in_log() const {
  MutexLock lock(mu_);
  return records_in_log_;
}

}  // namespace vecube
