#include "ch/ch_index.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "graph/io.h"

namespace ecocharge {

static_assert(sizeof(ChArc) == kChSnapshotArcBytes,
              "ChArc layout must match the snapshot record size");

namespace {

Status CheckOffsets(std::span<const uint32_t> offsets, size_t n,
                    size_t arc_count, const char* what) {
  if (offsets.size() != n + 1) {
    return Status::InvalidArgument(std::string(what) +
                                   " offsets size != nodes+1");
  }
  if (offsets[0] != 0 || offsets[n] != arc_count) {
    return Status::InvalidArgument(std::string(what) +
                                   " offsets do not cover the arc array");
  }
  for (size_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Status::InvalidArgument(std::string(what) +
                                     " offsets not monotone");
    }
  }
  return Status::OK();
}

Status CheckArcs(std::span<const uint32_t> offsets, std::span<const ChArc> arcs,
                 size_t n, uint64_t num_edges, const char* what) {
  for (const ChArc& a : arcs) {
    if (a.node >= n) {
      return Status::InvalidArgument(std::string(what) +
                                     " arc endpoint out of range");
    }
    if (a.orig != kChShortcutEdge && a.orig >= num_edges) {
      return Status::InvalidArgument(std::string(what) +
                                     " original edge id out of range");
    }
  }
  // Rows must be sorted by far endpoint — customization and unpacking
  // binary-search them.
  for (size_t v = 0; v < n; ++v) {
    for (size_t i = offsets[v] + 1; i < offsets[v + 1]; ++i) {
      if (arcs[i - 1].node > arcs[i].node) {
        return Status::InvalidArgument(std::string(what) +
                                       " row not sorted by neighbor");
      }
    }
  }
  return Status::OK();
}

size_t FindInRow(std::span<const ChArc> row, NodeId node) {
  const auto it =
      std::lower_bound(row.begin(), row.end(), node,
                       [](const ChArc& a, NodeId n) { return a.node < n; });
  if (it == row.end() || it->node != node) return SIZE_MAX;
  return static_cast<size_t>(it - row.begin());
}

}  // namespace

size_t ChIndex::FindUpArc(NodeId v, NodeId to) const {
  const size_t i = FindInRow(UpArcs(v), to);
  return i == SIZE_MAX ? SIZE_MAX : up_offsets_[v] + i;
}

size_t ChIndex::FindDownArc(NodeId v, NodeId from) const {
  const size_t i = FindInRow(DownArcs(v), from);
  return i == SIZE_MAX ? SIZE_MAX : down_offsets_[v] + i;
}

Result<std::shared_ptr<ChIndex>> ChIndex::FromViews(Views views,
                                                    uint64_t num_graph_edges) {
  const size_t n = views.rank.size();
  if (n == 0) return Status::InvalidArgument("ch index over empty graph");
  ECOCHARGE_RETURN_NOT_OK(
      CheckOffsets(views.up_offsets, n, views.up_arcs.size(), "ch up"));
  ECOCHARGE_RETURN_NOT_OK(
      CheckOffsets(views.down_offsets, n, views.down_arcs.size(), "ch down"));
  ECOCHARGE_RETURN_NOT_OK(CheckArcs(views.up_offsets, views.up_arcs, n,
                                    num_graph_edges, "ch up"));
  ECOCHARGE_RETURN_NOT_OK(CheckArcs(views.down_offsets, views.down_arcs, n,
                                    num_graph_edges, "ch down"));
  // Ranks must be a permutation and every row's far endpoints must outrank
  // its owner: customization walks nodes in rank order and reads only
  // rows of lower-ranked nodes.
  std::vector<bool> seen(n, false);
  for (uint32_t r : views.rank) {
    if (r >= n) return Status::InvalidArgument("ch rank out of range");
    if (seen[r]) return Status::InvalidArgument("ch rank not a permutation");
    seen[r] = true;
  }
  for (const auto& [offsets, arcs] :
       {std::pair{views.up_offsets, views.up_arcs},
        std::pair{views.down_offsets, views.down_arcs}}) {
    for (size_t v = 0; v < n; ++v) {
      for (size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        if (views.rank[arcs[i].node] <= views.rank[v]) {
          return Status::InvalidArgument(
              "ch arc endpoint not ranked above its row");
        }
      }
    }
  }
  auto ch = std::shared_ptr<ChIndex>(new ChIndex());
  ch->rank_ = views.rank;
  ch->up_offsets_ = views.up_offsets;
  ch->up_arcs_ = views.up_arcs;
  ch->down_offsets_ = views.down_offsets;
  ch->down_arcs_ = views.down_arcs;
  ch->backing_ = std::move(views.backing);
  return ch;
}

ChSnapshotViews ToSnapshotViews(std::shared_ptr<const ChIndex> ch) {
  ChSnapshotViews views;
  views.rank = ch->rank_array();
  views.up_offsets = ch->up_offsets();
  views.down_offsets = ch->down_offsets();
  views.up_arcs = std::as_bytes(ch->up_arcs());
  views.down_arcs = std::as_bytes(ch->down_arcs());
  views.backing = std::move(ch);
  return views;
}

Result<std::shared_ptr<ChIndex>> ChIndexFromSnapshot(
    const ChSnapshotViews& snapshot, uint64_t num_graph_edges) {
  if (snapshot.up_arcs.size() % sizeof(ChArc) != 0 ||
      snapshot.down_arcs.size() % sizeof(ChArc) != 0) {
    return Status::InvalidArgument("ch arc section not a whole arc count");
  }
  // mmap-ed sections are 64-byte aligned, comfortably above alignof(ChArc);
  // guard against hand-built views anyway.
  if (reinterpret_cast<uintptr_t>(snapshot.up_arcs.data()) % alignof(ChArc) !=
          0 ||
      reinterpret_cast<uintptr_t>(snapshot.down_arcs.data()) %
              alignof(ChArc) !=
          0) {
    return Status::InvalidArgument("ch arc section misaligned");
  }
  ChIndex::Views views;
  views.rank = snapshot.rank;
  views.up_offsets = snapshot.up_offsets;
  views.down_offsets = snapshot.down_offsets;
  views.up_arcs = std::span<const ChArc>(
      reinterpret_cast<const ChArc*>(snapshot.up_arcs.data()),
      snapshot.up_arcs.size() / sizeof(ChArc));
  views.down_arcs = std::span<const ChArc>(
      reinterpret_cast<const ChArc*>(snapshot.down_arcs.data()),
      snapshot.down_arcs.size() / sizeof(ChArc));
  views.backing = snapshot.backing;
  return ChIndex::FromViews(std::move(views), num_graph_edges);
}

}  // namespace ecocharge
