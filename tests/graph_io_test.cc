#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"

namespace ecocharge {
namespace {

TEST(GraphIoTest, RoundTripPreservesStructure) {
  GridNetworkOptions opts;
  opts.nx = 6;
  opts.ny = 5;
  opts.seed = 4;
  auto original = MakeGridNetwork(opts).MoveValueUnsafe();

  std::stringstream buffer;
  ASSERT_TRUE(SaveRoadNetwork(*original, buffer).ok());
  auto loaded_result = LoadRoadNetwork(buffer);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status();
  auto loaded = loaded_result.MoveValueUnsafe();

  ASSERT_EQ(loaded->NumNodes(), original->NumNodes());
  ASSERT_EQ(loaded->NumEdges(), original->NumEdges());
  for (NodeId v = 0; v < original->NumNodes(); ++v) {
    EXPECT_EQ(loaded->NodePosition(v), original->NodePosition(v));
  }
  for (EdgeId e = 0; e < original->NumEdges(); ++e) {
    EXPECT_EQ(loaded->edge(e).from, original->edge(e).from);
    EXPECT_EQ(loaded->edge(e).to, original->edge(e).to);
    EXPECT_EQ(loaded->edge(e).length_m, original->edge(e).length_m);
    EXPECT_EQ(loaded->edge(e).road_class, original->edge(e).road_class);
  }
}

TEST(GraphIoTest, RoundTripPreservesShortestPaths) {
  GridNetworkOptions opts;
  opts.nx = 7;
  opts.ny = 7;
  auto original = MakeGridNetwork(opts).MoveValueUnsafe();
  std::stringstream buffer;
  ASSERT_TRUE(SaveRoadNetwork(*original, buffer).ok());
  auto loaded = LoadRoadNetwork(buffer).MoveValueUnsafe();

  DijkstraSearch s1(*original), s2(*loaded);
  EXPECT_DOUBLE_EQ(s1.ShortestPath(0, 48).cost, s2.ShortestPath(0, 48).cost);
}

TEST(GraphIoTest, RejectsBadMagic) {
  std::stringstream buffer("xyz 1\n1 0\n0 0\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, RejectsWrongVersion) {
  std::stringstream buffer("ecg 99\n1 0\n0 0\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, RejectsTruncatedNodes) {
  std::stringstream buffer("ecg 1\n3 0\n0 0\n1 1\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, RejectsTruncatedEdges) {
  std::stringstream buffer("ecg 1\n2 2\n0 0\n1 1\n0 1 10.0 0\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, RejectsInvalidRoadClass) {
  std::stringstream buffer("ecg 1\n2 1\n0 0\n1 1\n0 1 10.0 7\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, RejectsOutOfRangeEdge) {
  std::stringstream buffer("ecg 1\n2 1\n0 0\n1 1\n0 9 10.0 0\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, FileApiFailsOnMissingPath) {
  EXPECT_FALSE(LoadRoadNetworkFile("/no/such/file.ecg").ok());
}

// ---------------------------------------------------------------------------
// Binary snapshots.
// ---------------------------------------------------------------------------

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

/// Rewrites snapshot `bytes` into the layout of a file from a build that
/// still wrote ALT landmark tables: header landmark count `num_landmarks`,
/// and sections 9-11 (the landmark node ids, then the "from" and "to"
/// distance rows) appended after the existing ones. The section table
/// grows by three entries, so every existing payload moves back by one
/// 128-byte step, which keeps the writer's 64-byte alignment. The byte
/// offsets mirror SnapshotHeader and SectionEntry in graph/io.cc.
std::string WithLegacyLandmarkSections(const std::string& bytes,
                                       uint32_t num_landmarks) {
  constexpr size_t kHeaderBytes = 88;
  constexpr size_t kSectionCountAt = 12;
  constexpr size_t kNumNodesAt = 16;
  constexpr size_t kNumLandmarksAt = 80;
  constexpr uint64_t kShift = 128;
  struct Entry {
    uint32_t id;
    uint32_t reserved;
    uint64_t offset;
    uint64_t byte_size;
  };
  static_assert(sizeof(Entry) == 24);

  uint32_t count = 0;
  uint64_t n = 0;
  std::memcpy(&count, bytes.data() + kSectionCountAt, sizeof(count));
  std::memcpy(&n, bytes.data() + kNumNodesAt, sizeof(n));
  const size_t table_end = kHeaderBytes + count * sizeof(Entry);

  std::string out = bytes.substr(0, kHeaderBytes);
  const uint32_t new_count = count + 3;
  std::memcpy(out.data() + kSectionCountAt, &new_count, sizeof(new_count));
  std::memcpy(out.data() + kNumLandmarksAt, &num_landmarks,
              sizeof(num_landmarks));
  const auto append_entry = [&out](const Entry& e) {
    out.append(reinterpret_cast<const char*>(&e), sizeof(e));
  };
  for (uint32_t i = 0; i < count; ++i) {
    Entry e;
    std::memcpy(&e, bytes.data() + kHeaderBytes + i * sizeof(Entry),
                sizeof(e));
    e.offset += kShift;
    append_entry(e);
  }
  const uint64_t sizes[3] = {num_landmarks * sizeof(NodeId),
                             num_landmarks * n * sizeof(double),
                             num_landmarks * n * sizeof(double)};
  std::string tail;
  uint64_t end = bytes.size() + kShift;
  for (uint32_t k = 0; k < 3; ++k) {
    const uint64_t offset = (end + 63) / 64 * 64;
    tail.append(offset - end + sizes[k], '\0');  // contents are never read
    append_entry(Entry{9 + k, 0, offset, sizes[k]});
    end = offset + sizes[k];
  }
  out.append(table_end + kShift - out.size(), '\0');
  out += bytes.substr(table_end);
  out += tail;
  return out;
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

    ASSERT_EQ(loaded->NumNodes(), original->NumNodes());
    ASSERT_EQ(loaded->NumEdges(), original->NumEdges());
    for (NodeId v = 0; v < original->NumNodes(); ++v) {
      EXPECT_EQ(loaded->NodePosition(v), original->NodePosition(v));
      ASSERT_EQ(loaded->OutArcs(v).size(), original->OutArcs(v).size());
      ASSERT_EQ(loaded->InArcs(v).size(), original->InArcs(v).size());
      for (size_t i = 0; i < original->OutArcs(v).size(); ++i) {
        EXPECT_EQ(loaded->OutArcs(v)[i].node, original->OutArcs(v)[i].node);
        EXPECT_EQ(loaded->OutArcs(v)[i].length_m,
                  original->OutArcs(v)[i].length_m);
      }
      for (size_t i = 0; i < original->InArcs(v).size(); ++i) {
        EXPECT_EQ(loaded->InArcs(v)[i].node, original->InArcs(v)[i].node);
      }
    }
    for (EdgeId e = 0; e < original->NumEdges(); ++e) {
      EXPECT_EQ(loaded->edge(e).from, original->edge(e).from);
      EXPECT_EQ(loaded->edge(e).to, original->edge(e).to);
      EXPECT_EQ(loaded->edge(e).length_m, original->edge(e).length_m);
      EXPECT_EQ(loaded->edge(e).road_class, original->edge(e).road_class);
    }
    EXPECT_EQ(loaded->Bounds().min.x, original->Bounds().min.x);
    EXPECT_EQ(loaded->Bounds().max.y, original->Bounds().max.y);
  }
}

TEST(SnapshotTest, RoundTripPreservesQueries) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("queries.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  auto loaded = LoadSnapshot(path).MoveValueUnsafe();

  // Bit-identical shortest paths (same arrays, same iteration order).
  DijkstraSearch s1(*original), s2(*loaded);
  for (NodeId target : {NodeId{5}, NodeId{23}, NodeId{55}}) {
    EXPECT_EQ(s1.ShortestPath(0, target).cost,
              s2.ShortestPath(0, target).cost);
  }
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
  std::vector<uint32_t> ids;
  for (const auto& [id, bytes] : info->sections) ids.push_back(id);
  for (uint32_t id : {9u, 10u, 11u}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end())
        << "section " << id;
  }

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const RoadNetwork& network = **loaded;
  ASSERT_EQ(network.NumNodes(), original->NumNodes());
  ASSERT_EQ(network.NumEdges(), original->NumEdges());
  for (NodeId v = 0; v < original->NumNodes(); ++v) {
    EXPECT_EQ(network.NodePosition(v), original->NodePosition(v));
  }
  for (EdgeId e = 0; e < original->NumEdges(); ++e) {
    EXPECT_EQ(network.edge(e).from, original->edge(e).from);
    EXPECT_EQ(network.edge(e).to, original->edge(e).to);
    EXPECT_EQ(network.edge(e).length_m, original->edge(e).length_m);
  }
  DijkstraSearch s1(*original), s2(network);
  EXPECT_EQ(s1.ShortestPath(0, 55).cost, s2.ShortestPath(0, 55).cost);
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
  EXPECT_GE(info.sections.size(), 8u);  // positions, 2x CSR, locator, ids
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
