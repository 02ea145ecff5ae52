#include "core/io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "util/crc32c.h"
#include "util/io_file.h"

namespace vecube {

namespace {

constexpr char kMagicV1[8] = {'V', 'E', 'C', 'U', 'B', 'E', '0', '1'};
constexpr char kMagicV2[8] = {'V', 'E', 'C', 'U', 'B', 'E', '0', '2'};
constexpr char kFailpointScope[] = "snapshot";

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool ReadBytes(std::FILE* f, void* data, size_t size) {
  return std::fread(data, 1, size, f) == size;
}

template <typename T>
bool ReadScalar(std::FILE* f, T* value) {
  return ReadBytes(f, value, sizeof(T));
}

// Reads `size` bytes and also appends them to `raw` (for section CRCs).
bool ReadTracked(std::FILE* f, void* data, size_t size,
                 std::vector<uint8_t>* raw) {
  if (!ReadBytes(f, data, size)) return false;
  const auto* p = static_cast<const uint8_t*>(data);
  raw->insert(raw->end(), p, p + size);
  return true;
}

template <typename T>
bool ReadTrackedScalar(std::FILE* f, T* value, std::vector<uint8_t>* raw) {
  return ReadTracked(f, value, sizeof(T), raw);
}

template <typename T>
void AppendScalarTo(std::vector<uint8_t>* buf, T value) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  buf->insert(buf->end(), p, p + sizeof(T));
}

uint32_t SectionCrc(const std::vector<uint8_t>& bytes) {
  return MaskCrc32c(Crc32c(bytes.data(), bytes.size()));
}

// ---------------------------------------------------------------------------
// v1: legacy, no checksums. Kept readable forever; writes are atomic now.

Status WriteStoreV1(const ElementStore& store, const std::string& tmp) {
  WritableFile file;
  VECUBE_ASSIGN_OR_RETURN(file, WritableFile::Create(tmp, kFailpointScope));
  const CubeShape& shape = store.shape();

  VECUBE_RETURN_NOT_OK(file.Append(kMagicV1, sizeof(kMagicV1)));
  VECUBE_RETURN_NOT_OK(file.AppendScalar<uint32_t>(shape.ndim()));
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    VECUBE_RETURN_NOT_OK(file.AppendScalar<uint32_t>(shape.extent(m)));
  }
  const std::vector<ElementId> ids = store.Ids();
  VECUBE_RETURN_NOT_OK(file.AppendScalar<uint64_t>(ids.size()));
  for (const ElementId& id : ids) {
    for (uint32_t m = 0; m < shape.ndim(); ++m) {
      VECUBE_RETURN_NOT_OK(file.AppendScalar<uint32_t>(id.dim(m).level));
      VECUBE_RETURN_NOT_OK(file.AppendScalar<uint32_t>(id.dim(m).offset));
    }
    const Tensor* data;
    VECUBE_ASSIGN_OR_RETURN(data, store.Get(id));
    VECUBE_RETURN_NOT_OK(file.AppendScalar<uint64_t>(data->size()));
    VECUBE_RETURN_NOT_OK(
        file.Append(data->raw(), data->size() * sizeof(double)));
  }
  VECUBE_RETURN_NOT_OK(file.Sync());
  return file.Close();
}

Result<ElementStore> LoadStoreV1Body(std::FILE* f, const std::string& path,
                                     uint64_t file_size) {
  uint32_t ndim = 0;
  if (!ReadScalar(f, &ndim) || ndim == 0 || ndim > kMaxDims) {
    return Status::InvalidArgument(path + ": bad dimensionality");
  }
  std::vector<uint32_t> extents(ndim);
  for (uint32_t m = 0; m < ndim; ++m) {
    if (!ReadScalar(f, &extents[m])) {
      return Status::InvalidArgument(path + ": truncated header");
    }
  }
  CubeShape shape;
  VECUBE_ASSIGN_OR_RETURN(shape, CubeShape::Make(extents));

  uint64_t count = 0;
  if (!ReadScalar(f, &count)) {
    return Status::InvalidArgument(path + ": truncated element count");
  }
  // Bound the claimed element count against the bytes actually present
  // before trusting it: each element needs at least its code block, a
  // cell count, and one cell.
  const uint64_t header_bytes = sizeof(kMagicV1) + 4 + uint64_t{4} * ndim + 8;
  const uint64_t min_element_bytes = uint64_t{8} * ndim + 8 + 8;
  if (count > (file_size - std::min(header_bytes, file_size)) /
                  min_element_bytes) {
    return Status::InvalidArgument(path + ": element count " +
                                   std::to_string(count) +
                                   " exceeds file capacity");
  }
  ElementStore store(shape);
  uint64_t consumed = header_bytes;
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<DimCode> codes(ndim);
    for (uint32_t m = 0; m < ndim; ++m) {
      if (!ReadScalar(f, &codes[m].level) ||
          !ReadScalar(f, &codes[m].offset)) {
        return Status::InvalidArgument(path + ": truncated element header");
      }
    }
    ElementId id;
    VECUBE_ASSIGN_OR_RETURN(id, ElementId::Make(std::move(codes), shape));

    uint64_t cell_count = 0;
    if (!ReadScalar(f, &cell_count)) {
      return Status::InvalidArgument(path + ": truncated cell count");
    }
    if (cell_count != id.DataVolume(shape)) {
      return Status::InvalidArgument(path + ": cell count mismatch for " +
                                     id.ToString());
    }
    consumed += uint64_t{8} * ndim + 8;
    // Bound the allocation against the bytes left in the file.
    if (cell_count > (file_size - std::min(consumed, file_size)) / 8) {
      return Status::InvalidArgument(path + ": cell data for " +
                                     id.ToString() + " exceeds file size");
    }
    // TensorBuffer elements are not zero-filled on construction and the
    // buffer is adopted without a copy; ReadBytes overwrites every cell.
    TensorBuffer cells(cell_count);
    if (!ReadBytes(f, cells.data(), cell_count * sizeof(double))) {
      return Status::InvalidArgument(path + ": truncated cell data");
    }
    consumed += cell_count * 8;
    Tensor data;
    VECUBE_ASSIGN_OR_RETURN(
        data, Tensor::FromBuffer(id.DataExtents(shape), std::move(cells)));
    VECUBE_RETURN_NOT_OK(store.Put(id, std::move(data)));
  }
  // Trailing garbage indicates corruption.
  char extra;
  if (std::fread(&extra, 1, 1, f) == 1) {
    return Status::InvalidArgument(path + ": trailing bytes after store");
  }
  return store;
}

// ---------------------------------------------------------------------------
// v2: checksummed sections, per-element payload CRCs, degradable load.

struct DirectoryEntry {
  std::vector<DimCode> codes;  // validated into `id` once the CRC clears
  ElementId id;
  uint64_t cell_count = 0;
  uint32_t data_crc = 0;
};

Status WriteStoreV2(const ElementStore& store, const std::string& tmp,
                    const SnapshotMeta& meta) {
  const CubeShape& shape = store.shape();
  const std::vector<ElementId> ids = store.Ids();

  // Pass 1: payload CRCs (needed up front — the directory precedes the
  // data section so a reader can locate every element without trusting
  // any payload bytes).
  std::vector<uint32_t> data_crcs;
  data_crcs.reserve(ids.size());
  for (const ElementId& id : ids) {
    const Tensor* data;
    VECUBE_ASSIGN_OR_RETURN(data, store.Get(id));
    data_crcs.push_back(
        MaskCrc32c(Crc32c(data->raw(), data->size() * sizeof(double))));
  }

  std::vector<uint8_t> header;
  header.insert(header.end(), kMagicV2, kMagicV2 + sizeof(kMagicV2));
  AppendScalarTo<uint32_t>(&header, shape.ndim());
  for (uint32_t m = 0; m < shape.ndim(); ++m) {
    AppendScalarTo<uint32_t>(&header, shape.extent(m));
  }
  AppendScalarTo<uint64_t>(&header, ids.size());
  AppendScalarTo<uint64_t>(&header, meta.wal_seq);
  AppendScalarTo<uint32_t>(&header, meta.flags);

  std::vector<uint8_t> directory;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (uint32_t m = 0; m < shape.ndim(); ++m) {
      AppendScalarTo<uint32_t>(&directory, ids[i].dim(m).level);
      AppendScalarTo<uint32_t>(&directory, ids[i].dim(m).offset);
    }
    AppendScalarTo<uint64_t>(&directory, ids[i].DataVolume(shape));
    AppendScalarTo<uint32_t>(&directory, data_crcs[i]);
  }

  WritableFile file;
  VECUBE_ASSIGN_OR_RETURN(file, WritableFile::Create(tmp, kFailpointScope));
  VECUBE_RETURN_NOT_OK(file.Append(header.data(), header.size()));
  VECUBE_RETURN_NOT_OK(file.AppendScalar<uint32_t>(SectionCrc(header)));
  VECUBE_RETURN_NOT_OK(file.Append(directory.data(), directory.size()));
  VECUBE_RETURN_NOT_OK(file.AppendScalar<uint32_t>(SectionCrc(directory)));
  for (const ElementId& id : ids) {
    const Tensor* data;
    VECUBE_ASSIGN_OR_RETURN(data, store.Get(id));
    VECUBE_RETURN_NOT_OK(
        file.Append(data->raw(), data->size() * sizeof(double)));
  }
  VECUBE_RETURN_NOT_OK(file.Sync());
  return file.Close();
}

Result<ElementStore> LoadStoreV2Body(std::FILE* f, const std::string& path,
                                     uint64_t file_size,
                                     SnapshotReport* report) {
  // Header section. Every byte read is tracked for the section CRC.
  std::vector<uint8_t> raw;
  raw.insert(raw.end(), kMagicV2, kMagicV2 + sizeof(kMagicV2));

  uint32_t ndim = 0;
  if (!ReadTrackedScalar(f, &ndim, &raw) || ndim == 0 || ndim > kMaxDims) {
    return Status::InvalidArgument(path + ": bad dimensionality");
  }
  std::vector<uint32_t> extents(ndim);
  for (uint32_t m = 0; m < ndim; ++m) {
    if (!ReadTrackedScalar(f, &extents[m], &raw)) {
      return Status::InvalidArgument(path + ": truncated header");
    }
  }
  uint64_t count = 0;
  SnapshotMeta meta;
  if (!ReadTrackedScalar(f, &count, &raw) ||
      !ReadTrackedScalar(f, &meta.wal_seq, &raw) ||
      !ReadTrackedScalar(f, &meta.flags, &raw)) {
    return Status::InvalidArgument(path + ": truncated header");
  }
  uint32_t header_crc = 0;
  if (!ReadScalar(f, &header_crc)) {
    return Status::InvalidArgument(path + ": truncated header crc");
  }
  if (header_crc != SectionCrc(raw)) {
    return Status::InvalidArgument(path + ": header checksum mismatch");
  }
  CubeShape shape;
  VECUBE_ASSIGN_OR_RETURN(shape, CubeShape::Make(extents));

  const uint64_t entry_bytes = uint64_t{8} * ndim + 8 + 4;
  const uint64_t header_bytes = raw.size() + 4;
  if (count > (file_size - std::min(header_bytes, file_size)) / entry_bytes) {
    return Status::InvalidArgument(path + ": element count " +
                                   std::to_string(count) +
                                   " exceeds file capacity");
  }

  // Directory section: trusted as a unit once its CRC matches. A bad
  // directory removes the ability to locate any payload, so it is a
  // whole-file failure, unlike a bad payload.
  raw.clear();
  std::vector<DirectoryEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<DimCode> codes(ndim);
    for (uint32_t m = 0; m < ndim; ++m) {
      if (!ReadTrackedScalar(f, &codes[m].level, &raw) ||
          !ReadTrackedScalar(f, &codes[m].offset, &raw)) {
        return Status::InvalidArgument(path + ": truncated directory");
      }
    }
    DirectoryEntry entry;
    if (!ReadTrackedScalar(f, &entry.cell_count, &raw) ||
        !ReadTrackedScalar(f, &entry.data_crc, &raw)) {
      return Status::InvalidArgument(path + ": truncated directory");
    }
    // Defer id validation until the CRC clears: a corrupt directory must
    // surface as "checksum mismatch", not as a confusing id error.
    entry.codes = std::move(codes);
    entries.push_back(std::move(entry));
  }
  uint32_t directory_crc = 0;
  if (!ReadScalar(f, &directory_crc)) {
    return Status::InvalidArgument(path + ": truncated directory crc");
  }
  if (directory_crc != SectionCrc(raw)) {
    return Status::InvalidArgument(path + ": directory checksum mismatch");
  }
  for (DirectoryEntry& entry : entries) {
    ElementId validated;
    VECUBE_ASSIGN_OR_RETURN(validated,
                            ElementId::Make(std::move(entry.codes), shape));
    if (entry.cell_count != validated.DataVolume(shape)) {
      return Status::InvalidArgument(path + ": cell count mismatch for " +
                                     validated.ToString());
    }
    entry.id = std::move(validated);
  }

  if (report != nullptr) {
    report->version = 2;
    report->meta = meta;
    report->elements.clear();
    report->corrupt_elements = 0;
  }

  // Data section: each payload stands alone under its directory CRC, so
  // damage is localized — the element is quarantined and the scan moves
  // to the next payload offset.
  ElementStore store(shape);
  uint64_t data_offset = header_bytes + raw.size() + 4;
  bool truncated = false;
  for (const DirectoryEntry& entry : entries) {
    const uint64_t payload_bytes = entry.cell_count * sizeof(double);
    std::string detail;
    if (truncated || data_offset + payload_bytes > file_size) {
      truncated = true;
      detail = "payload truncated";
    } else {
      TensorBuffer cells(entry.cell_count);
      if (!ReadBytes(f, cells.data(), payload_bytes)) {
        truncated = true;
        detail = "payload truncated";
      } else if (MaskCrc32c(Crc32c(cells.data(), payload_bytes)) !=
                 entry.data_crc) {
        detail = "payload checksum mismatch";
      } else {
        Tensor data;
        VECUBE_ASSIGN_OR_RETURN(
            data,
            Tensor::FromBuffer(entry.id.DataExtents(shape),
                               std::move(cells)));
        VECUBE_RETURN_NOT_OK(store.Put(entry.id, std::move(data)));
      }
    }
    if (!detail.empty()) {
      VECUBE_RETURN_NOT_OK(store.Quarantine(entry.id));
    }
    if (report != nullptr) {
      report->elements.push_back(
          ElementDiagnostic{entry.id, !detail.empty(), detail});
      if (!detail.empty()) ++report->corrupt_elements;
    }
    data_offset += payload_bytes;
  }
  if (!truncated && data_offset != file_size) {
    return Status::InvalidArgument(path + ": trailing bytes after store");
  }
  return store;
}

}  // namespace

Status SaveStore(const ElementStore& store, const std::string& path) {
  const std::string tmp = path + ".tmp";
  VECUBE_RETURN_NOT_OK(WriteStoreV1(store, tmp));
  return AtomicRename(tmp, path, kFailpointScope);
}

Status SaveStoreV2(const ElementStore& store, const std::string& path,
                   const SnapshotMeta& meta) {
  const std::string tmp = path + ".tmp";
  VECUBE_RETURN_NOT_OK(WriteStoreV2(store, tmp, meta));
  return AtomicRename(tmp, path, kFailpointScope);
}

Result<ElementStore> LoadStore(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path + " for reading");
  }
  uint64_t file_size;
  VECUBE_ASSIGN_OR_RETURN(file_size, FileSize(path));
  std::FILE* f = file.get();

  char magic[8];
  if (!ReadBytes(f, magic, sizeof(magic))) {
    return Status::InvalidArgument(path + " is not a vecube store file");
  }
  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    return LoadStoreV1Body(f, path, file_size);
  }
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    SnapshotReport report;
    ElementStore store(CubeShape{});
    VECUBE_ASSIGN_OR_RETURN(store,
                            LoadStoreV2Body(f, path, file_size, &report));
    if (!report.clean()) {
      return Status::InvalidArgument(
          path + ": " + std::to_string(report.corrupt_elements) +
          " corrupt element(s); use LoadStoreV2 for a degraded load");
    }
    return store;
  }
  return Status::InvalidArgument(path + " is not a vecube store file");
}

Result<ElementStore> LoadStoreV2(const std::string& path,
                                 SnapshotReport* report) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::NotFound("cannot open " + path + " for reading");
  }
  uint64_t file_size;
  VECUBE_ASSIGN_OR_RETURN(file_size, FileSize(path));
  std::FILE* f = file.get();

  char magic[8];
  if (!ReadBytes(f, magic, sizeof(magic)) ||
      std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::InvalidArgument(path + " is not a v2 vecube store file");
  }
  return LoadStoreV2Body(f, path, file_size, report);
}

}  // namespace vecube
