#include "graph/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

namespace ecocharge {

namespace {

constexpr char kSnapshotMagic[8] = {'E', 'C', 'G', 'S', 'N', 'A', 'P', '\0'};
constexpr uint32_t kSnapshotVersion = 1;
constexpr uint64_t kSectionAlign = 64;

/// Fixed-size file header. Trivially copyable by construction; any layout
/// change here or in Arc/Point must bump kSnapshotVersion.
struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t section_count;
  uint64_t num_nodes;
  uint64_t num_edges;
  double min_x, min_y, max_x, max_y;
  uint32_t locator_nx;
  uint32_t locator_ny;
  double locator_cell_m;
  uint32_t num_landmarks;
  uint32_t reserved;
};

struct SectionEntry {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;
  uint64_t byte_size;
};

static_assert(std::is_trivially_copyable_v<SnapshotHeader>);
static_assert(std::is_trivially_copyable_v<SectionEntry>);
static_assert(std::is_trivially_copyable_v<Point> && sizeof(Point) == 16,
              "snapshot format assumes 16-byte Point records");

enum SectionId : uint32_t {
  kSectionPositions = 1,
  kSectionOutOffsets = 2,
  kSectionOutArcs = 3,
  kSectionInOffsets = 4,
  kSectionInArcs = 5,
  // 6 held the forward edge id of each in-arc; no longer written, skipped
  // on load.
  kSectionInEdgeIds = 6,
  kSectionLocatorOffsets = 7,
  kSectionLocatorPoints = 8,
  // 9-11 held ALT landmark tables; no longer written, skipped on load.
  kSectionLandmarkNodes = 9,
  kSectionLandmarkFrom = 10,
  kSectionLandmarkTo = 11,
  // 12-16 held a contraction hierarchy; no longer written, skipped on load.
  kSectionChRank = 12,
  kSectionChUpOffsets = 13,
  kSectionChUpArcs = 14,
  kSectionChDownOffsets = 15,
  kSectionChDownArcs = 16,
};

uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

/// Read-only mapping whose lifetime backs a loaded network's views.
struct MappedFile {
  const uint8_t* data = nullptr;
  size_t size = 0;
  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (data != nullptr) {
      munmap(const_cast<uint8_t*>(data), size);
    }
  }
};

Result<std::shared_ptr<MappedFile>> MapFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  auto mapped = std::make_shared<MappedFile>();
  mapped->size = static_cast<size_t>(st.st_size);
  if (mapped->size > 0) {
    void* addr = ::mmap(nullptr, mapped->size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      return Status::IOError("cannot mmap " + path);
    }
    mapped->data = static_cast<const uint8_t*>(addr);
  }
  ::close(fd);  // the mapping outlives the descriptor
  return mapped;
}

struct SectionPlan {
  uint32_t id;
  uint64_t offset;
  uint64_t byte_size;
};

Status WriteSection(std::ofstream& out, uint64_t* position,
                    const SectionPlan& plan, const void* bytes,
                    uint64_t byte_size) {
  static const char zeros[kSectionAlign] = {};
  if (plan.offset < *position) return Status::Internal("section overlap");
  out.write(zeros, static_cast<std::streamsize>(plan.offset - *position));
  out.write(static_cast<const char*>(bytes),
            static_cast<std::streamsize>(byte_size));
  *position = plan.offset + byte_size;
  if (!out) return Status::IOError("snapshot write failed");
  return Status::OK();
}

}  // namespace

namespace {

Status WriteSnapshotTo(const RoadNetwork& network, const std::string& path) {
  const uint64_t n = network.NumNodes();
  const uint64_t m = network.NumEdges();
  const uint64_t cells =
      static_cast<uint64_t>(network.locator_nx()) * network.locator_ny();

  std::vector<SectionPlan> plan;
  auto add = [&](uint32_t id, uint64_t byte_size) {
    plan.push_back({id, 0, byte_size});
  };
  add(kSectionPositions, n * sizeof(Point));
  add(kSectionOutOffsets, (n + 1) * sizeof(uint32_t));
  add(kSectionOutArcs, m * sizeof(Arc));
  add(kSectionInOffsets, (n + 1) * sizeof(uint32_t));
  add(kSectionInArcs, m * sizeof(Arc));
  add(kSectionLocatorOffsets, (cells + 1) * sizeof(uint32_t));
  add(kSectionLocatorPoints, n * sizeof(uint32_t));

  uint64_t offset =
      sizeof(SnapshotHeader) + plan.size() * sizeof(SectionEntry);
  for (SectionPlan& p : plan) {
    offset = AlignUp(offset);
    p.offset = offset;
    offset += p.byte_size;
  }

  SnapshotHeader header = {};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.version = kSnapshotVersion;
  header.section_count = static_cast<uint32_t>(plan.size());
  header.num_nodes = n;
  header.num_edges = m;
  header.min_x = network.Bounds().min.x;
  header.min_y = network.Bounds().min.y;
  header.max_x = network.Bounds().max.x;
  header.max_y = network.Bounds().max.y;
  header.locator_nx = network.locator_nx();
  header.locator_ny = network.locator_ny();
  header.locator_cell_m = network.locator_cell_m();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for (const SectionPlan& p : plan) {
    SectionEntry entry = {p.id, 0, p.offset, p.byte_size};
    out.write(reinterpret_cast<const char*>(&entry), sizeof(entry));
  }
  uint64_t position =
      sizeof(SnapshotHeader) + plan.size() * sizeof(SectionEntry);

  size_t next = 0;
  auto write_next = [&](const void* bytes, uint64_t byte_size) {
    return WriteSection(out, &position, plan[next++], bytes, byte_size);
  };
  ECOCHARGE_RETURN_NOT_OK(
      write_next(network.positions().data(), n * sizeof(Point)));
  ECOCHARGE_RETURN_NOT_OK(
      write_next(network.out_offsets().data(), (n + 1) * sizeof(uint32_t)));
  ECOCHARGE_RETURN_NOT_OK(
      write_next(network.out_arcs().data(), m * sizeof(Arc)));
  ECOCHARGE_RETURN_NOT_OK(
      write_next(network.in_offsets().data(), (n + 1) * sizeof(uint32_t)));
  ECOCHARGE_RETURN_NOT_OK(
      write_next(network.in_arcs().data(), m * sizeof(Arc)));
  ECOCHARGE_RETURN_NOT_OK(write_next(network.locator_cell_offsets().data(),
                                     (cells + 1) * sizeof(uint32_t)));
  ECOCHARGE_RETURN_NOT_OK(write_next(network.locator_cell_points().data(),
                                     n * sizeof(uint32_t)));
  out.flush();
  if (!out) return Status::IOError("snapshot write failed");
  return Status::OK();
}

}  // namespace

Status SaveSnapshot(const RoadNetwork& network, const std::string& path,
                    std::nullptr_t, const ChSnapshotViews*) {
  // Write to a sibling temp file and rename into place: the target may be
  // the very file backing the network's mmap views (re-snapshotting a
  // loaded network), and truncating it in place would corrupt the bytes
  // still being read out of the mapping. The rename keeps the old inode
  // alive for any open mapping and also makes the save crash-atomic.
  const std::string tmp = path + ".tmp";
  Status st = WriteSnapshotTo(network, tmp);
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " over " + path);
  }
  return Status::OK();
}

namespace {

struct ParsedSnapshot {
  SnapshotHeader header;
  std::vector<SectionEntry> sections;

  const SectionEntry* Find(uint32_t id) const {
    for (const SectionEntry& s : sections) {
      if (s.id == id) return &s;
    }
    return nullptr;
  }
};

/// Validates the header and section table against the file size. Every
/// failure mode (bad magic, unknown version, truncation anywhere) comes
/// back as a clean Status.
Result<ParsedSnapshot> ParseSnapshot(const uint8_t* data, uint64_t size,
                                     const std::string& path) {
  ParsedSnapshot parsed;
  if (size < sizeof(SnapshotHeader)) {
    return Status::IOError("truncated snapshot (no header): " + path);
  }
  std::memcpy(&parsed.header, data, sizeof(SnapshotHeader));
  if (std::memcmp(parsed.header.magic, kSnapshotMagic,
                  sizeof(kSnapshotMagic)) != 0) {
    return Status::IOError("bad snapshot magic: " + path);
  }
  if (parsed.header.version != kSnapshotVersion) {
    return Status::IOError("unsupported snapshot version " +
                           std::to_string(parsed.header.version) +
                           " (expected " + std::to_string(kSnapshotVersion) +
                           "): " + path);
  }
  const uint64_t count = parsed.header.section_count;
  const uint64_t table_end =
      sizeof(SnapshotHeader) + count * sizeof(SectionEntry);
  if (count > 4096 || table_end > size) {
    return Status::IOError("truncated snapshot section table: " + path);
  }
  parsed.sections.resize(count);
  std::memcpy(parsed.sections.data(), data + sizeof(SnapshotHeader),
              count * sizeof(SectionEntry));
  // Every writer lays the sections out back to back in table order, each
  // 64-byte aligned. Holding the table to that layout keeps a corrupt
  // entry from pointing a section at another section's bytes: the loader
  // maps the arc payloads without reading them.
  uint64_t end = table_end;
  for (const SectionEntry& s : parsed.sections) {
    if (s.byte_size > size || s.offset > size - s.byte_size) {
      return Status::IOError("snapshot section " + std::to_string(s.id) +
                             " out of bounds (truncated file?): " + path);
    }
    if (s.offset != AlignUp(end)) {
      return Status::IOError("snapshot section " + std::to_string(s.id) +
                             " is not where the writer puts it: " + path);
    }
    end = s.offset + s.byte_size;
  }
  return parsed;
}

/// Returns the section's payload as a typed span, checking the exact
/// expected element count.
template <typename T>
Result<std::span<const T>> SectionSpan(const ParsedSnapshot& parsed,
                                       const uint8_t* data, uint32_t id,
                                       uint64_t expected_count,
                                       const std::string& path) {
  const SectionEntry* s = parsed.Find(id);
  if (s == nullptr) {
    return Status::IOError("snapshot missing section " + std::to_string(id) +
                           ": " + path);
  }
  // Divide rather than multiply: a corrupt header's locator shape can make
  // expected_count * sizeof(T) wrap around to the section's size.
  if (s->byte_size % sizeof(T) != 0 ||
      s->byte_size / sizeof(T) != expected_count) {
    return Status::IOError("snapshot section " + std::to_string(id) +
                           " has unexpected size: " + path);
  }
  return std::span<const T>(reinterpret_cast<const T*>(data + s->offset),
                            expected_count);
}

}  // namespace

Result<std::shared_ptr<RoadNetwork>> LoadSnapshot(const std::string& path) {
  ECOCHARGE_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> mapped,
                             MapFile(path));
  ECOCHARGE_ASSIGN_OR_RETURN(
      ParsedSnapshot parsed,
      ParseSnapshot(mapped->data, mapped->size, path));
  const SnapshotHeader& h = parsed.header;
  ECOCHARGE_RETURN_NOT_OK(ValidateGraphCounts(h.num_nodes, h.num_edges));
  const uint64_t n = h.num_nodes;
  const uint64_t m = h.num_edges;
  const uint64_t cells = static_cast<uint64_t>(h.locator_nx) * h.locator_ny;

  RoadNetwork::Views views;
  const uint8_t* data = mapped->data;
  ECOCHARGE_ASSIGN_OR_RETURN(
      views.positions,
      SectionSpan<Point>(parsed, data, kSectionPositions, n, path));
  ECOCHARGE_ASSIGN_OR_RETURN(
      views.out_offsets,
      SectionSpan<uint32_t>(parsed, data, kSectionOutOffsets, n + 1, path));
  ECOCHARGE_ASSIGN_OR_RETURN(
      views.out_arcs, SectionSpan<Arc>(parsed, data, kSectionOutArcs, m, path));
  ECOCHARGE_ASSIGN_OR_RETURN(
      views.in_offsets,
      SectionSpan<uint32_t>(parsed, data, kSectionInOffsets, n + 1, path));
  ECOCHARGE_ASSIGN_OR_RETURN(
      views.in_arcs, SectionSpan<Arc>(parsed, data, kSectionInArcs, m, path));
  ECOCHARGE_ASSIGN_OR_RETURN(
      views.locator_cell_offsets,
      SectionSpan<uint32_t>(parsed, data, kSectionLocatorOffsets, cells + 1,
                            path));
  ECOCHARGE_ASSIGN_OR_RETURN(
      views.locator_cell_points,
      SectionSpan<uint32_t>(parsed, data, kSectionLocatorPoints, n, path));
  views.bounds = BoundingBox{Point{h.min_x, h.min_y}, Point{h.max_x, h.max_y}};
  views.locator_nx = h.locator_nx;
  views.locator_ny = h.locator_ny;
  views.locator_cell_m = h.locator_cell_m;
  views.backing = mapped;

  return RoadNetwork::FromViews(std::move(views));
}

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  ECOCHARGE_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> mapped,
                             MapFile(path));
  ECOCHARGE_ASSIGN_OR_RETURN(
      ParsedSnapshot parsed,
      ParseSnapshot(mapped->data, mapped->size, path));
  SnapshotInfo info;
  info.version = parsed.header.version;
  info.num_nodes = parsed.header.num_nodes;
  info.num_edges = parsed.header.num_edges;
  info.num_landmarks = parsed.header.num_landmarks;
  info.file_bytes = mapped->size;
  info.bounds = BoundingBox{Point{parsed.header.min_x, parsed.header.min_y},
                            Point{parsed.header.max_x, parsed.header.max_y}};
  for (const SectionEntry& s : parsed.sections) {
    info.sections.emplace_back(s.id, s.byte_size);
  }
  return info;
}

const char* SnapshotSectionName(uint32_t id) {
  switch (id) {
    case kSectionPositions:
      return "positions";
    case kSectionOutOffsets:
      return "out_offsets";
    case kSectionOutArcs:
      return "out_arcs";
    case kSectionInOffsets:
      return "in_offsets";
    case kSectionInArcs:
      return "in_arcs";
    case kSectionInEdgeIds:
      return "in_edge_ids";
    case kSectionLocatorOffsets:
      return "locator_offsets";
    case kSectionLocatorPoints:
      return "locator_points";
    case kSectionLandmarkNodes:
      return "landmark_nodes";
    case kSectionLandmarkFrom:
      return "landmark_from";
    case kSectionLandmarkTo:
      return "landmark_to";
    case kSectionChRank:
      return "ch_rank";
    case kSectionChUpOffsets:
      return "ch_up_offsets";
    case kSectionChUpArcs:
      return "ch_up_arcs";
    case kSectionChDownOffsets:
      return "ch_down_offsets";
    case kSectionChDownArcs:
      return "ch_down_arcs";
    default:
      return "unknown";
  }
}

}  // namespace ecocharge
