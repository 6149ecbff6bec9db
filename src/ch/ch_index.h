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

/// Sentinel packed arc reference ("no arc").
inline constexpr uint32_t kChNoArc = 0xFFFFFFFFu;

/// Number of RoadClass values; original arcs store one length per class.
inline constexpr int kChNumClasses = kNumRoadClasses;

/// \brief One arc of the contraction hierarchy's search graphs.
///
/// Stored in the upward CSR of its lower-ranked tail (forward search) or the
/// downward CSR of its lower-ranked head (backward search), sorted by the far
/// endpoint within each row so customization and unpacking can binary-search
/// for a specific neighbor.
///
/// The hierarchy's topology is metric-independent: an original arc carries
/// its length decomposed by road class (the derouting metric at any traffic
/// instant is `sum_c len[c] / speed_factor(c, tau)`), while a shortcut
/// (`orig == kChShortcutEdge`) carries no static weight at all — its cost
/// under the query-time class weights is produced by ChQuery's customization
/// pass, which also records the middle node used for unpacking. One
/// contraction therefore serves every time bucket exactly. The layout is
/// fixed and trivially copyable — snapshots mmap these records directly
/// (graph/io.h kSectionChUpArcs/DownArcs).
struct ChArc {
  NodeId node = kInvalidNode;     ///< far (higher-ranked) endpoint
  EdgeId orig = kChShortcutEdge;  ///< forward EdgeId, or kChShortcutEdge
  double len[kChNumClasses] = {0.0, 0.0, 0.0};  ///< meters per road class

  /// Scalar geometric length (the uniform-weight metric); 0 for shortcuts.
  double TotalLength() const { return len[0] + len[1] + len[2]; }
};

static_assert(sizeof(ChArc) == 32, "ChArc is a fixed snapshot record");
static_assert(std::is_trivially_copyable_v<ChArc>, "ChArc must be mmap-able");

/// \brief Immutable contraction hierarchy over one RoadNetwork.
///
/// Holds the contraction rank of every node plus two CSR search graphs:
/// `UpArcs(v)` are arcs from v to higher-ranked nodes (relaxed by the
/// forward search), `DownArcs(v)` are arcs from higher-ranked nodes into v
/// (relaxed, reversed, by the backward search). Every arc of the original
/// graph plus every shortcut appears in exactly one of the two, and the
/// shortcut set is closed under triangles: if arcs (a -> x) and (x -> b)
/// exist with x ranked below both, so does (a -> b). That closure is what
/// lets ChQuery customize the hierarchy for arbitrary class weights with a
/// single bottom-up sweep.
///
/// All array members are read-only views backed either by owned vectors
/// (contraction path) or an mmap-ed snapshot (zero-copy load path), the
/// same ownership scheme as RoadNetwork. Query state lives in ChQuery so
/// one index can be shared read-only across workers.
class ChIndex {
 public:
  /// High bit of a packed arc reference: set = index into the downward arc
  /// array, clear = index into the upward arc array.
  static constexpr uint32_t kDownBit = 0x80000000u;

  /// Storage bundle used by the builder and the snapshot loader. `backing`
  /// keeps whatever owns the bytes (vectors or an mmap region) alive.
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
  /// BuildChIndex and the snapshot loader. Triangle closure is not
  /// checked; customization skips a missing enclosing arc.
  static Result<std::shared_ptr<ChIndex>> FromViews(Views views,
                                                    uint64_t num_graph_edges);

  size_t NumNodes() const { return rank_.size(); }
  size_t NumUpArcs() const { return up_arcs_.size(); }
  size_t NumDownArcs() const { return down_arcs_.size(); }

  uint32_t rank(NodeId v) const { return rank_[v]; }

  /// Arcs from `v` to higher-ranked nodes (forward-search adjacency),
  /// sorted by head node.
  std::span<const ChArc> UpArcs(NodeId v) const {
    return up_arcs_.subspan(up_offsets_[v], up_offsets_[v + 1] - up_offsets_[v]);
  }

  /// Arcs from higher-ranked nodes into `v` (backward-search adjacency;
  /// `ChArc::node` is the arc's source), sorted by source node.
  std::span<const ChArc> DownArcs(NodeId v) const {
    return down_arcs_.subspan(down_offsets_[v],
                              down_offsets_[v + 1] - down_offsets_[v]);
  }

  /// Resolves a packed reference (kDownBit selects the array).
  const ChArc& arc(uint32_t ref) const {
    return (ref & kDownBit) != 0 ? down_arcs_[ref & ~kDownBit] : up_arcs_[ref];
  }

  /// Global packed reference of `UpArcs(v)[i]` / `DownArcs(v)[i]`.
  uint32_t UpRef(NodeId v, size_t i) const {
    return up_offsets_[v] + static_cast<uint32_t>(i);
  }
  uint32_t DownRef(NodeId v, size_t i) const {
    return kDownBit | (down_offsets_[v] + static_cast<uint32_t>(i));
  }

  /// First index into `UpArcs(v)` whose head is `to`, or SIZE_MAX. Parallel
  /// original arcs share a head; callers scan forward across the run.
  size_t FindUpArc(NodeId v, NodeId to) const;
  /// First index into `DownArcs(v)` whose source is `from`, or SIZE_MAX.
  size_t FindDownArc(NodeId v, NodeId from) const;

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

/// Rehydrates a ChIndex from mmap-ed snapshot views — zero-copy: the index
/// aliases the mapping (kept alive via `views.backing`) and runs the same
/// validation as FromViews, so a corrupt section cannot reach the query
/// kernel.
Result<std::shared_ptr<ChIndex>> ChIndexFromSnapshot(
    const ChSnapshotViews& views, uint64_t num_graph_edges);

}  // namespace ecocharge

#endif  // ECOCHARGE_CH_CH_INDEX_H_
