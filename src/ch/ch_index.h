#ifndef ECOCHARGE_CH_CH_INDEX_H_
#define ECOCHARGE_CH_CH_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "common/result.h"
#include "graph/road_network.h"

namespace ecocharge {

struct ChSnapshotViews;  // graph/io.h

/// Sentinel in ChArc::orig marking a contraction shortcut (no original edge).
inline constexpr EdgeId kChShortcutEdge = 0xFFFFFFFFu;

/// Number of RoadClass values; original arcs store one length per class.
inline constexpr int kChNumClasses = kNumRoadClasses;

/// \brief One arc of the contraction hierarchy's search graphs.
///
/// Stored in the upward CSR of its lower-ranked tail or the downward CSR of
/// its lower-ranked head, sorted by the far endpoint within each row.
///
/// The hierarchy's topology is metric-independent: an original arc carries
/// its length decomposed by road class, while a shortcut
/// (`orig == kChShortcutEdge`) carries no static weight at all. The layout
/// is fixed and trivially copyable — snapshots store these records directly
/// (graph/io.h kSectionChUpArcs/DownArcs).
struct ChArc {
  NodeId node = kInvalidNode;     ///< far (higher-ranked) endpoint
  EdgeId orig = kChShortcutEdge;  ///< forward EdgeId, or kChShortcutEdge
  double len[kChNumClasses] = {0.0, 0.0, 0.0};  ///< meters per road class
};

static_assert(sizeof(ChArc) == 32, "ChArc is a fixed snapshot record");
static_assert(std::is_trivially_copyable_v<ChArc>, "ChArc must be mmap-able");

/// \brief Immutable contraction hierarchy over one RoadNetwork.
///
/// Holds the contraction rank of every node plus two CSR graphs:
/// `UpArcs(v)` are arcs from v to higher-ranked nodes, `DownArcs(v)` are
/// arcs from higher-ranked nodes into v. Every arc of the original graph
/// plus every shortcut appears in exactly one of the two, and the shortcut
/// set is closed under triangles: if arcs (a -> x) and (x -> b) exist with
/// x ranked below both, so does (a -> b).
///
/// No query reads a hierarchy: exact derouting runs the Dijkstra sweeps
/// (DESIGN.md §14). perfbench's regional_ch setup still contracts one and
/// writes it into its snapshot (ToSnapshotViews, SaveSnapshot), so the
/// builder, this container and the snapshot writer stay.
class ChIndex {
 public:
  /// Storage bundle used by the builder. `backing` keeps whatever owns the
  /// bytes alive.
  struct Views {
    std::span<const uint32_t> rank;          ///< size nodes
    std::span<const uint32_t> up_offsets;    ///< size nodes+1
    std::span<const ChArc> up_arcs;
    std::span<const uint32_t> down_offsets;  ///< size nodes+1
    std::span<const ChArc> down_arcs;
    std::shared_ptr<const void> backing;
  };

  /// Validates view consistency (offset monotonicity, arc endpoints,
  /// per-row neighbor ordering, original-edge ids against
  /// `num_graph_edges`, ranks forming a permutation with every far
  /// endpoint ranked above its row's node) and wraps the bundle. Used by
  /// BuildChIndex. Triangle closure is not checked.
  static Result<std::shared_ptr<ChIndex>> FromViews(Views views,
                                                    uint64_t num_graph_edges);

  size_t NumNodes() const { return rank_.size(); }
  size_t NumUpArcs() const { return up_arcs_.size(); }
  size_t NumDownArcs() const { return down_arcs_.size(); }

  uint32_t rank(NodeId v) const { return rank_[v]; }

  /// Arcs from `v` to higher-ranked nodes, sorted by head node.
  std::span<const ChArc> UpArcs(NodeId v) const {
    return up_arcs_.subspan(up_offsets_[v], up_offsets_[v + 1] - up_offsets_[v]);
  }

  /// Arcs from higher-ranked nodes into `v` (`ChArc::node` is the arc's
  /// source), sorted by source node.
  std::span<const ChArc> DownArcs(NodeId v) const {
    return down_arcs_.subspan(down_offsets_[v],
                              down_offsets_[v + 1] - down_offsets_[v]);
  }

  // Raw array views, exposed for snapshot serialization (graph/io.cc
  // treats the arc arrays as opaque fixed-size records).
  std::span<const uint32_t> rank_array() const { return rank_; }
  std::span<const uint32_t> up_offsets() const { return up_offsets_; }
  std::span<const ChArc> up_arcs() const { return up_arcs_; }
  std::span<const uint32_t> down_offsets() const { return down_offsets_; }
  std::span<const ChArc> down_arcs() const { return down_arcs_; }

 private:
  ChIndex() = default;

  std::span<const uint32_t> rank_;
  std::span<const uint32_t> up_offsets_;
  std::span<const ChArc> up_arcs_;
  std::span<const uint32_t> down_offsets_;
  std::span<const ChArc> down_arcs_;
  std::shared_ptr<const void> backing_;
};

/// Snapshot-section views of `ch`'s arrays (graph/io.h SaveSnapshot input).
/// The returned views share ownership of the index, so they stay valid even
/// if the caller drops its own reference.
ChSnapshotViews ToSnapshotViews(std::shared_ptr<const ChIndex> ch);

}  // namespace ecocharge

#endif  // ECOCHARGE_CH_CH_INDEX_H_
