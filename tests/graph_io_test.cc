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

#include "ch/ch_index.h"
#include "ch/contraction.h"
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

/// Rewrites snapshot `bytes` into the layout of a file from an older build
/// that also wrote the sections in `extra` (id, byte size; contents zero,
/// since nothing reads them) after the existing ones. The section table
/// grows by one entry per extra section, so every existing payload moves
/// back by that growth rounded up to 64 bytes, which keeps the writer's
/// 64-byte alignment.
std::string WithExtraSections(
    const std::string& bytes,
    const std::vector<std::pair<uint32_t, uint64_t>>& extra) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + kSectionCountAt, sizeof(count));
  const size_t table_end = kHeaderBytes + count * sizeof(Entry);
  const uint64_t shift = (extra.size() * sizeof(Entry) + 63) / 64 * 64;

  std::string out = bytes.substr(0, kHeaderBytes);
  const uint32_t new_count = count + static_cast<uint32_t>(extra.size());
  std::memcpy(out.data() + kSectionCountAt, &new_count, sizeof(new_count));
  const auto append_entry = [&out](const Entry& e) {
    out.append(reinterpret_cast<const char*>(&e), sizeof(e));
  };
  for (uint32_t i = 0; i < count; ++i) {
    Entry e;
    std::memcpy(&e, bytes.data() + kHeaderBytes + i * sizeof(Entry),
                sizeof(e));
    e.offset += shift;
    append_entry(e);
  }
  std::string tail;
  uint64_t end = bytes.size() + shift;
  for (const auto& [id, size] : extra) {
    const uint64_t offset = (end + 63) / 64 * 64;
    tail.append(offset - end + size, '\0');
    append_entry(Entry{id, 0, offset, size});
    end = offset + size;
  }
  out.append(table_end + shift - out.size(), '\0');
  out += bytes.substr(table_end);
  out += tail;
  return out;
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

bool ListsSection(const SnapshotInfo& info, uint32_t id) {
  return std::any_of(info.sections.begin(), info.sections.end(),
                     [id](const auto& s) { return s.first == id; });
}

TEST(SnapshotTest, RoundTripPreservesStructure) {
  // Once plain, once carrying a contraction hierarchy the way perfbench's
  // regional_ch saves it: the loader skips the CH sections, so both files
  // load into the same arrays.
  auto original = SampleNetwork();
  const ChSnapshotViews views =
      ToSnapshotViews(BuildChIndex(*original).MoveValueUnsafe());
  const ChSnapshotViews* const variants[] = {nullptr, &views};
  for (const ChSnapshotViews* ch : variants) {
    SCOPED_TRACE(ch == nullptr ? "plain" : "with ch");
    std::string path = SnapshotPath(ch == nullptr ? "roundtrip.ecgs"
                                                  : "roundtrip_ch.ecgs");
    ASSERT_TRUE(SaveSnapshot(*original, path, nullptr, ch).ok());

    auto loaded_result = LoadSnapshot(path);
    ASSERT_TRUE(loaded_result.ok()) << loaded_result.status();
    auto loaded = loaded_result.MoveValueUnsafe();

    ExpectSameGraph(*loaded, *original);
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
  std::shared_ptr<ChIndex> ch = BuildChIndex(*original).MoveValueUnsafe();
  const ChSnapshotViews views = ToSnapshotViews(ch);
  std::string path = SnapshotPath("legacy_landmarks.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path, nullptr, &views).ok());
  WriteFileBytes(path, WithLegacyLandmarkSections(ReadFileBytes(path), 3));

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->num_landmarks, 3u);
  for (uint32_t id : {9u, 10u, 11u}) {
    EXPECT_TRUE(ListsSection(*info, id)) << "section " << id;
  }

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameGraph(**loaded, *original);
  EXPECT_EQ(SweepCosts(*original, 0), SweepCosts(**loaded, 0));
  EXPECT_EQ(info->ch_up_arcs, ch->NumUpArcs());
}

TEST(SnapshotTest, LoadWithoutLandmarksYieldsNull) {
  // A snapshot written now carries no landmark tables: the header count is
  // 0, no section 9-11 is listed, and the network still loads.
  auto original = SampleNetwork();
  std::string path = SnapshotPath("nolandmarks.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->num_landmarks, 0u);
  for (const auto& [id, bytes] : info->sections) {
    EXPECT_TRUE(id < 9 || id > 11) << "section " << id;
  }

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(*loaded, nullptr);
  EXPECT_EQ((*loaded)->NumNodes(), original->NumNodes());
  EXPECT_FALSE(info->has_ch);
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

TEST(SnapshotTest, RejectsMissingFile) {
  EXPECT_FALSE(LoadSnapshot("/no/such/snapshot.ecgs").ok());
  EXPECT_FALSE(ReadSnapshotInfo("/no/such/snapshot.ecgs").ok());
}

// ---------------------------------------------------------------------------
// Contraction-hierarchy sections.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, InfoReportsChAndLandmarkPresence) {
  auto original = SampleNetwork();
  std::shared_ptr<ChIndex> ch = BuildChIndex(*original).MoveValueUnsafe();
  const ChSnapshotViews views = ToSnapshotViews(ch);

  std::string plain = SnapshotPath("info_plain.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, plain).ok());
  auto plain_info = ReadSnapshotInfo(plain).MoveValueUnsafe();
  EXPECT_FALSE(plain_info.has_ch);
  EXPECT_EQ(plain_info.ch_up_arcs, 0u);
  EXPECT_EQ(plain_info.num_landmarks, 0u);

  // Landmark tables are no longer written; a file from a build that wrote
  // them still reports their count and sections.
  std::string full = SnapshotPath("info_full.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, full, nullptr, &views).ok());
  EXPECT_EQ(ReadSnapshotInfo(full).MoveValueUnsafe().num_landmarks, 0u);
  WriteFileBytes(full, WithLegacyLandmarkSections(ReadFileBytes(full), 3));
  auto info = ReadSnapshotInfo(full).MoveValueUnsafe();
  EXPECT_TRUE(info.has_ch);
  EXPECT_EQ(info.ch_up_arcs, ch->NumUpArcs());
  EXPECT_EQ(info.ch_down_arcs, ch->NumDownArcs());
  EXPECT_EQ(info.num_landmarks, 3u);
  // Every section, legacy ones included, shows up with a known name.
  size_t ch_sections = 0;
  for (const auto& [id, bytes] : info.sections) {
    const std::string name = SnapshotSectionName(id);
    EXPECT_NE(name, "unknown") << "section id " << id;
    if (name.rfind("ch_", 0) == 0) ++ch_sections;
  }
  EXPECT_EQ(ch_sections, 5u);  // rank + two offset arrays + two arc arrays
}

TEST(SnapshotTest, ResaveOverOwnBackingFileIsSafe) {
  // Re-snapshotting a loaded (mmap-backed) network over the file it came
  // from, with a hierarchy added: the save must not truncate the file its
  // own source arrays are still mapped from.
  auto original = SampleNetwork();
  std::string path = SnapshotPath("resave_in_place.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());

  auto loaded = LoadSnapshot(path).MoveValueUnsafe();
  std::shared_ptr<ChIndex> ch = BuildChIndex(*loaded).MoveValueUnsafe();
  const ChSnapshotViews views = ToSnapshotViews(ch);
  ASSERT_TRUE(SaveSnapshot(*loaded, path, nullptr, &views).ok());

  auto reloaded = LoadSnapshot(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ((*reloaded)->NumNodes(), original->NumNodes());
  EXPECT_EQ((*reloaded)->NumEdges(), original->NumEdges());
  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_TRUE(info->has_ch);
  EXPECT_EQ(info->ch_up_arcs, ch->NumUpArcs());
  EXPECT_EQ(info->ch_down_arcs, ch->NumDownArcs());
}

TEST(SnapshotTest, RejectsTruncatedChSection) {
  auto original = SampleNetwork();
  std::shared_ptr<ChIndex> ch = BuildChIndex(*original).MoveValueUnsafe();
  const ChSnapshotViews views = ToSnapshotViews(ch);
  std::string path = SnapshotPath("truncated_ch.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path, nullptr, &views).ok());
  ASSERT_TRUE(LoadSnapshot(path).ok());  // intact file loads

  // Cut into the trailing CH arc section: the loader skips its payload,
  // but the section table still points past the end of the file, so the
  // load must fail with a typed IOError.
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 100));
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("out of bounds"), std::string::npos)
      << result.status();
  EXPECT_FALSE(ReadSnapshotInfo(path).ok());
}

}  // namespace
}  // namespace ecocharge
