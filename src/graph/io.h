#ifndef ECOCHARGE_GRAPH_IO_H_
#define ECOCHARGE_GRAPH_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/road_network.h"

namespace ecocharge {

/// Empty: SaveSnapshot writes no contraction hierarchy. perfbench's
/// regional_ch setup still passes one (ch/ch_index.h ToSnapshotViews).
struct ChSnapshotViews {};

/// \brief Versioned binary snapshot with zero-copy mmap load: the road
/// network's one file format.
///
/// Layout: a fixed header (magic "ECGSNAP\0", version, counts, bounds,
/// locator shape), a section table, then 64-byte-aligned sections holding
/// the network's raw arrays — positions, both CSR directions (offsets and
/// inlined arcs) and the node-locator grid. LoadSnapshot maps the file
/// read-only and serves every array straight out of the mapping. Byte
/// order and Arc layout are host-native; snapshots are machine-local
/// artifacts, not an exchange format.
/// Versioning rule: any change to a section's layout bumps the version,
/// and loaders reject versions they were not built for. Dropping a section
/// does not, because loaders skip section ids they do not read: the
/// in-edge id map (id 6), the ALT landmark tables (ids 9-11) and the
/// contraction hierarchy (ids 12-16) older builds wrote; every
/// section-table entry is still bounds checked against the file and must
/// sit where the writer puts it (back to back in table order, 64-byte
/// aligned). The header's landmark count is written as 0.
///
/// The save writes `path + ".tmp"` and renames it into place, so saving
/// over the snapshot a loaded (mmap-backed) network came from is safe.
/// The last two parameters are unused; perfbench still passes nullptr and
/// its (empty) hierarchy views there.
Status SaveSnapshot(const RoadNetwork& network, const std::string& path,
                    std::nullptr_t = nullptr,
                    const ChSnapshotViews* = nullptr);

/// Maps a snapshot read-only; the returned network's arrays alias the
/// mapping, which stays alive for the network's lifetime.
Result<std::shared_ptr<RoadNetwork>> LoadSnapshot(const std::string& path);

/// Header-level metadata, read without mapping the payload (`graph info`).
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint32_t num_landmarks = 0;  ///< legacy header slot; 0 in new files
  uint64_t file_bytes = 0;
  BoundingBox bounds;
  std::vector<std::pair<uint32_t, uint64_t>> sections;  ///< (id, bytes)
};

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

/// Human-readable name of a snapshot section id ("unknown" for ids this
/// build does not know) — `graph info` reports every section instead of
/// silently skipping unrecognized ones.
const char* SnapshotSectionName(uint32_t id);

}  // namespace ecocharge

#endif  // ECOCHARGE_GRAPH_IO_H_
