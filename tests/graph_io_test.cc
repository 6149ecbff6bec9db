#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"

namespace ecocharge {
namespace {

std::shared_ptr<RoadNetwork> SampleNetwork() {
  GridNetworkOptions opts;
  opts.nx = 8;
  opts.ny = 7;
  opts.seed = 11;
  return MakeGridNetwork(opts).MoveValueUnsafe();
}

std::string SnapshotPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Positions and both arc streams, field by field.
void ExpectSameGraph(const RoadNetwork& a, const RoadNetwork& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  auto expect_same_arcs = [](std::span<const Arc> x, std::span<const Arc> y,
                             NodeId v) {
    ASSERT_EQ(x.size(), y.size()) << "node " << v;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].node, y[i].node) << "node " << v << " arc " << i;
      EXPECT_EQ(x[i].length_m, y[i].length_m) << "node " << v << " arc " << i;
      EXPECT_EQ(x[i].road_class, y[i].road_class)
          << "node " << v << " arc " << i;
    }
  };
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(a.NodePosition(v), b.NodePosition(v));
    expect_same_arcs(a.OutArcs(v), b.OutArcs(v), v);
    expect_same_arcs(a.InArcs(v), b.InArcs(v), v);
  }
}

/// Costs of a sweep from `source` that settles every node.
std::vector<double> SweepCosts(const RoadNetwork& network, NodeId source) {
  std::vector<NodeId> all(network.NumNodes());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  DijkstraSearch search(network);
  search.OneToMany(source, all, LengthCost);
  std::vector<double> costs;
  for (NodeId v : all) costs.push_back(search.CostTo(v));
  return costs;
}

/// Byte offsets mirroring SnapshotHeader and SectionEntry in graph/io.cc.
constexpr size_t kHeaderBytes = 88;
constexpr size_t kSectionCountAt = 12;
constexpr size_t kNumNodesAt = 16;
constexpr size_t kNumEdgesAt = 24;
constexpr size_t kLocatorNxAt = 64;
constexpr size_t kLocatorNyAt = 68;
constexpr size_t kNumLandmarksAt = 80;
struct Entry {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;
  uint64_t byte_size;
};
static_assert(sizeof(Entry) == 24);

uint64_t HeaderCount(const std::string& bytes, size_t at) {
  uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

/// One section-table entry of a snapshot with its payload.
struct Section {
  Entry entry;
  std::string payload;
};

std::vector<Section> ReadSections(const std::string& bytes) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + kSectionCountAt, sizeof(count));
  std::vector<Section> sections(count);
  for (uint32_t i = 0; i < count; ++i) {
    Section& s = sections[i];
    std::memcpy(&s.entry, bytes.data() + kHeaderBytes + i * sizeof(Entry),
                sizeof(Entry));
    s.payload = bytes.substr(s.entry.offset, s.entry.byte_size);
  }
  return sections;
}

/// A snapshot with the header of `bytes` and `sections`, laid out as every
/// writer lays them out: back to back in table order, each 64-byte aligned.
std::string WriteSections(const std::string& bytes,
                          std::vector<Section> sections) {
  std::string out = bytes.substr(0, kHeaderBytes);
  const uint32_t count = static_cast<uint32_t>(sections.size());
  std::memcpy(out.data() + kSectionCountAt, &count, sizeof(count));
  uint64_t end = kHeaderBytes + count * sizeof(Entry);
  for (Section& s : sections) {
    s.entry.offset = (end + 63) / 64 * 64;
    s.entry.byte_size = s.payload.size();
    end = s.entry.offset + s.entry.byte_size;
    out.append(reinterpret_cast<const char*>(&s.entry), sizeof(Entry));
  }
  for (const Section& s : sections) {
    out.resize(s.entry.offset, '\0');
    out += s.payload;
  }
  return out;
}

/// Rewrites snapshot `bytes` into the layout of a file from an older build
/// that also wrote the sections in `extra` (id, byte size; contents zero,
/// since nothing reads them) after the existing ones.
std::string WithExtraSections(
    const std::string& bytes,
    const std::vector<std::pair<uint32_t, uint64_t>>& extra) {
  std::vector<Section> sections = ReadSections(bytes);
  for (const auto& [id, size] : extra) {
    sections.push_back(Section{Entry{id, 0, 0, size}, std::string(size, '\0')});
  }
  return WriteSections(bytes, std::move(sections));
}

/// A file from a build that still wrote ALT landmark tables: header
/// landmark count `num_landmarks`, and sections 9-11 (the landmark node
/// ids, then the "from" and "to" distance rows).
std::string WithLegacyLandmarkSections(const std::string& bytes,
                                       uint32_t num_landmarks) {
  const uint64_t n = HeaderCount(bytes, kNumNodesAt);
  std::string out =
      WithExtraSections(bytes, {{9, num_landmarks * sizeof(NodeId)},
                                {10, num_landmarks * n * sizeof(double)},
                                {11, num_landmarks * n * sizeof(double)}});
  std::memcpy(out.data() + kNumLandmarksAt, &num_landmarks,
              sizeof(num_landmarks));
  return out;
}

/// A file from a build that still wrote the in-edge id map: section 6, one
/// u32 forward edge id per in-arc.
std::string WithLegacyInEdgeIds(const std::string& bytes) {
  const uint64_t m = HeaderCount(bytes, kNumEdgesAt);
  return WithExtraSections(bytes, {{6, m * sizeof(uint32_t)}});
}

/// A file from a build that still wrote a contraction hierarchy: sections
/// 12-16, the node ranks and then the upward and downward CSR (offsets,
/// 32-byte arc records; one arc per edge in each direction here).
std::string WithLegacyChSections(const std::string& bytes) {
  const uint64_t n = HeaderCount(bytes, kNumNodesAt);
  const uint64_t m = HeaderCount(bytes, kNumEdgesAt);
  return WithExtraSections(bytes, {{12, n * sizeof(uint32_t)},
                                   {13, (n + 1) * sizeof(uint32_t)},
                                   {14, m * 32},
                                   {15, (n + 1) * sizeof(uint32_t)},
                                   {16, m * 32}});
}

bool ListsSection(const SnapshotInfo& info, uint32_t id) {
  return std::any_of(info.sections.begin(), info.sections.end(),
                     [id](const auto& s) { return s.first == id; });
}

TEST(SnapshotTest, RoundTripPreservesStructure) {
  // Once as saved, once as a build that also wrote a contraction hierarchy
  // left it: the loader skips sections 12-16, so both files load into the
  // same arrays.
  auto original = SampleNetwork();
  for (const bool with_ch : {false, true}) {
    SCOPED_TRACE(with_ch ? "with ch" : "plain");
    std::string path =
        SnapshotPath(with_ch ? "roundtrip_ch.ecgs" : "roundtrip.ecgs");
    ASSERT_TRUE(SaveSnapshot(*original, path).ok());
    if (with_ch) {
      WriteFileBytes(path, WithLegacyChSections(ReadFileBytes(path)));
    }

    auto loaded_result = LoadSnapshot(path);
    ASSERT_TRUE(loaded_result.ok()) << loaded_result.status();
    auto loaded = loaded_result.MoveValueUnsafe();

    ExpectSameGraph(*loaded, *original);
    EXPECT_EQ(SweepCosts(*original, 0), SweepCosts(*loaded, 0));
    EXPECT_EQ(loaded->Bounds().min.x, original->Bounds().min.x);
    EXPECT_EQ(loaded->Bounds().max.y, original->Bounds().max.y);
  }
}

TEST(SnapshotTest, RoundTripPreservesQueries) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("queries.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  auto loaded = LoadSnapshot(path).MoveValueUnsafe();

  // Bit-identical sweep costs (same arrays, same iteration order).
  EXPECT_EQ(SweepCosts(*original, 0), SweepCosts(*loaded, 0));
  // The mmap-backed locator answers NearestNode identically.
  for (NodeId v = 0; v < original->NumNodes(); v += 7) {
    Point probe = original->NodePosition(v) + Point{13.0, -9.0};
    EXPECT_EQ(original->NearestNode(probe), loaded->NearestNode(probe));
  }
}

TEST(SnapshotTest, RoundTripPreservesLandmarks) {
  // Builds that ordered refinement by ALT bounds wrote landmark tables as
  // sections 9-11. Nothing reads them any more; such a file (here also
  // carrying a contraction hierarchy) must still load, and `graph info`
  // must still list them.
  auto original = SampleNetwork();
  std::string path = SnapshotPath("legacy_landmarks.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  WriteFileBytes(path, WithLegacyLandmarkSections(
                           WithLegacyChSections(ReadFileBytes(path)), 3));

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->num_landmarks, 3u);
  for (uint32_t id : {9u, 10u, 11u, 12u, 16u}) {
    EXPECT_TRUE(ListsSection(*info, id)) << "section " << id;
  }

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameGraph(**loaded, *original);
  EXPECT_EQ(SweepCosts(*original, 0), SweepCosts(**loaded, 0));
}

TEST(SnapshotTest, LoadWithoutLandmarksYieldsNull) {
  // A snapshot written now carries no landmark tables and no hierarchy:
  // the header count is 0, no section 9-16 is listed, and the network
  // still loads.
  auto original = SampleNetwork();
  std::string path = SnapshotPath("nolandmarks.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->num_landmarks, 0u);
  for (const auto& [id, bytes] : info->sections) {
    EXPECT_TRUE(id < 9 || id > 16) << "section " << id;
  }

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(*loaded, nullptr);
  EXPECT_EQ((*loaded)->NumNodes(), original->NumNodes());
}

TEST(SnapshotTest, LoadsLegacyInEdgeIdSection) {
  // Builds that kept an EdgeId adjacency API wrote the forward edge id of
  // each in-arc as section 6. A fresh save no longer lists it; a file that
  // carries it still loads (the loader skips it) and `graph info` still
  // names it.
  auto original = SampleNetwork();
  std::string path = SnapshotPath("legacy_in_edge_ids.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  auto fresh = ReadSnapshotInfo(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_FALSE(ListsSection(*fresh, 6));

  WriteFileBytes(path, WithLegacyInEdgeIds(ReadFileBytes(path)));
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_TRUE(ListsSection(*info, 6));
  for (const auto& [id, bytes] : info->sections) {
    if (id == 6) {
      EXPECT_EQ(bytes, original->NumEdges() * sizeof(uint32_t));
    }
  }
  EXPECT_STREQ(SnapshotSectionName(6), "in_edge_ids");

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameGraph(**loaded, *original);
  EXPECT_EQ(SweepCosts(*original, 0), SweepCosts(**loaded, 0));
}

TEST(SnapshotTest, InfoReportsCountsAndSections) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("info.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());

  auto info_result = ReadSnapshotInfo(path);
  ASSERT_TRUE(info_result.ok()) << info_result.status();
  const SnapshotInfo& info = *info_result;
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.num_nodes, original->NumNodes());
  EXPECT_EQ(info.num_edges, original->NumEdges());
  EXPECT_EQ(info.num_landmarks, 0u);
  EXPECT_GT(info.file_bytes, 0u);
  // Positions, both CSR directions (offsets, arcs) and the locator (cell
  // offsets, node ids).
  std::vector<std::string> names;
  for (const auto& [id, bytes] : info.sections) {
    names.push_back(SnapshotSectionName(id));
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "positions", "out_offsets", "out_arcs", "in_offsets",
                       "in_arcs", "locator_offsets", "locator_points"}));
  EXPECT_EQ(info.bounds.min.x, original->Bounds().min.x);
}

TEST(SnapshotTest, RejectsCorruptMagic) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("badmagic.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(SnapshotTest, RejectsWrongVersion) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("badversion.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[8] = 99;  // version field follows the 8-byte magic
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(SnapshotTest, RejectsTruncatedFile) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("truncated.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  std::string bytes = ReadFileBytes(path);
  // Cut mid-section and mid-header: both must fail cleanly, not crash.
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(LoadSnapshot(path).ok());
  WriteFileBytes(path, bytes.substr(0, 16));
  EXPECT_FALSE(LoadSnapshot(path).ok());
}

TEST(SnapshotTest, RejectsLocatorShapeWhoseSectionSizeWraps) {
  // A 2^31 x 2^31 locator needs (2^62 + 1) u32 cell offsets: 2^64 + 4
  // bytes, which wraps to 4 in 64-bit arithmetic. A file that lists those
  // 4 bytes (as its last section, so the layout holds) must still be
  // rejected, not mapped as a span of 2^62 + 1 offsets.
  auto original = SampleNetwork();
  std::string path = SnapshotPath("wrapping_locator.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  std::string bytes = ReadFileBytes(path);
  const uint32_t side = 1u << 31;
  std::memcpy(bytes.data() + kLocatorNxAt, &side, sizeof(side));
  std::memcpy(bytes.data() + kLocatorNyAt, &side, sizeof(side));
  std::vector<Section> sections = ReadSections(bytes);
  std::erase_if(sections, [](const Section& s) { return s.entry.id == 7; });
  sections.push_back(Section{Entry{7, 0, 0, 4}, std::string(4, '\0')});
  WriteFileBytes(path, WriteSections(bytes, std::move(sections)));
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("unexpected size"),
            std::string::npos)
      << result.status();
}

TEST(SnapshotTest, RejectsMissingFile) {
  EXPECT_FALSE(LoadSnapshot("/no/such/snapshot.ecgs").ok());
  EXPECT_FALSE(ReadSnapshotInfo("/no/such/snapshot.ecgs").ok());
}

// ---------------------------------------------------------------------------
// Contraction-hierarchy sections (ids 12-16) of files from older builds.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, InfoReportsChAndLandmarkPresence) {
  auto original = SampleNetwork();
  std::string plain = SnapshotPath("info_plain.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, plain).ok());
  auto plain_info = ReadSnapshotInfo(plain).MoveValueUnsafe();
  EXPECT_EQ(plain_info.num_landmarks, 0u);
  for (uint32_t id = 9; id <= 16; ++id) {
    EXPECT_FALSE(ListsSection(plain_info, id)) << "section " << id;
  }

  // Neither landmark tables nor a hierarchy are written any more; a file
  // from a build that wrote both still reports the landmark count and
  // every section.
  std::string full = SnapshotPath("info_full.ecgs");
  WriteFileBytes(full, WithLegacyLandmarkSections(
                           WithLegacyChSections(ReadFileBytes(plain)), 3));
  auto info = ReadSnapshotInfo(full).MoveValueUnsafe();
  EXPECT_EQ(info.num_landmarks, 3u);
  // Every section, legacy ones included, shows up with a known name.
  std::vector<std::string> ch_names;
  for (const auto& [id, bytes] : info.sections) {
    const std::string name = SnapshotSectionName(id);
    EXPECT_NE(name, "unknown") << "section id " << id;
    if (name.rfind("ch_", 0) == 0) ch_names.push_back(name);
  }
  EXPECT_EQ(ch_names,
            (std::vector<std::string>{"ch_rank", "ch_up_offsets", "ch_up_arcs",
                                      "ch_down_offsets", "ch_down_arcs"}));
}

TEST(SnapshotTest, ResaveOverOwnBackingFileIsSafe) {
  // Re-snapshotting a loaded (mmap-backed) network over the file it came
  // from, a file that still carries a hierarchy: the save must not
  // truncate the file its own source arrays are still mapped from, and it
  // drops the hierarchy sections, whatever views it is handed.
  auto original = SampleNetwork();
  std::string path = SnapshotPath("resave_in_place.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  WriteFileBytes(path, WithLegacyChSections(ReadFileBytes(path)));

  auto loaded = LoadSnapshot(path).MoveValueUnsafe();
  const ChSnapshotViews views;
  ASSERT_TRUE(SaveSnapshot(*loaded, path, nullptr, &views).ok());
  ExpectSameGraph(*loaded, *original);

  auto reloaded = LoadSnapshot(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ExpectSameGraph(**reloaded, *original);
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  for (uint32_t id = 12; id <= 16; ++id) {
    EXPECT_FALSE(ListsSection(*info, id)) << "section " << id;
  }
}

TEST(SnapshotTest, RejectsTruncatedChSection) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("truncated_ch.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  const std::string bytes = WithLegacyChSections(ReadFileBytes(path));
  WriteFileBytes(path, bytes);
  ASSERT_TRUE(LoadSnapshot(path).ok());  // intact file loads

  // Cut into the trailing CH arc section: the loader skips its payload,
  // but the section table still points past the end of the file, so the
  // load must fail with a typed IOError.
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 100));
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("out of bounds"), std::string::npos)
      << result.status();
  EXPECT_FALSE(ReadSnapshotInfo(path).ok());
}

// ---------------------------------------------------------------------------
// Seeded fuzzing of the header and section table.
// ---------------------------------------------------------------------------

/// Applies one to four seeded mutations to the first `prefix` bytes of
/// `bytes`: a random byte, a flipped bit, or an aligned 4- or 8-byte field
/// set to an edge value or nudged by a small multiple of 8 (which moves a
/// section offset onto other in-file bytes or resizes a section by whole
/// records).
void MutatePrefix(Rng& rng, size_t prefix, std::string* bytes) {
  const int mutations = static_cast<int>(rng.NextInt(1, 4));
  for (int i = 0; i < mutations; ++i) {
    switch (rng.NextBounded(4)) {
      case 0:
        (*bytes)[rng.NextBounded(prefix)] =
            static_cast<char>(rng.NextBounded(256));
        break;
      case 1:
        (*bytes)[rng.NextBounded(prefix)] ^=
            static_cast<char>(1u << rng.NextBounded(8));
        break;
      case 2: {
        const uint64_t edge[] = {0,          1,          7,
                                 0xFFFFFFFF, 0x80000000, ~uint64_t{0},
                                 1ull << 62, bytes->size()};
        const uint64_t value = edge[rng.NextBounded(std::size(edge))];
        const size_t width = rng.NextBool() ? 4 : 8;
        const size_t at = rng.NextBounded(prefix / width) * width;
        std::memcpy(bytes->data() + at, &value, width);
        break;
      }
      default: {
        const size_t at = rng.NextBounded(prefix / 8) * 8;
        uint64_t value = 0;
        std::memcpy(&value, bytes->data() + at, sizeof(value));
        value += static_cast<uint64_t>(rng.NextInt(-64, 64)) * 8;
        std::memcpy(bytes->data() + at, &value, sizeof(value));
        break;
      }
    }
  }
}

/// Whether a loaded network's arrays index only into themselves: every arc
/// endpoint and locator entry names a node and every road class is known.
bool ArraysInBounds(const RoadNetwork& network) {
  const size_t n = network.NumNodes();
  for (std::span<const Arc> arcs : {network.out_arcs(), network.in_arcs()}) {
    for (const Arc& a : arcs) {
      if (a.node >= n ||
          static_cast<int>(a.road_class) >= kNumRoadClasses) {
        return false;
      }
    }
  }
  for (uint32_t v : network.locator_cell_points()) {
    if (v >= n) return false;
  }
  return true;
}

TEST(SnapshotFuzzTest, MutatedHeaderAndSectionTableFailTypedOrLoadSound) {
  // A plain snapshot and one carrying every legacy section (6, 9-11 and
  // 12-16), each mutated 1500 times in its header and section table only.
  // Every LoadSnapshot and ReadSnapshotInfo call must return OK or an
  // IOError / InvalidArgument, and a network that loads must be safe to
  // query.
  auto original = SampleNetwork();
  const std::string path = SnapshotPath("fuzz.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  const std::string plain = ReadFileBytes(path);
  const std::string legacy = WithLegacyLandmarkSections(
      WithLegacyChSections(WithLegacyInEdgeIds(plain)), 3);

  const auto typed = [](const Status& status) {
    return status.ok() || status.code() == StatusCode::kIOError ||
           status.code() == StatusCode::kInvalidArgument;
  };
  Rng rng(20240513);
  size_t loaded = 0;
  size_t rejected = 0;
  for (const std::string* base : {&plain, &legacy}) {
    uint32_t count = 0;
    std::memcpy(&count, base->data() + kSectionCountAt, sizeof(count));
    const size_t prefix = kHeaderBytes + count * sizeof(Entry);
    for (int trial = 0; trial < 1500; ++trial) {
      std::string bytes = *base;
      MutatePrefix(rng, prefix, &bytes);
      WriteFileBytes(path, bytes);
      SCOPED_TRACE("trial " + std::to_string(trial) + " of a " +
                   std::to_string(count) + "-section file");

      auto info = ReadSnapshotInfo(path);
      EXPECT_TRUE(typed(info.status())) << info.status();
      auto network = LoadSnapshot(path);
      ASSERT_TRUE(typed(network.status())) << network.status();
      if (!network.ok()) {
        ++rejected;
        continue;
      }
      ++loaded;
      EXPECT_TRUE(info.ok()) << "loads, but graph info fails";
      ASSERT_TRUE(ArraysInBounds(**network));
      const RoadNetwork& graph = **network;
      graph.NearestNode(graph.NodePosition(graph.NumNodes() - 1));
      SweepCosts(graph, 0);
    }
  }
  // The mutator reaches both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace ecocharge
