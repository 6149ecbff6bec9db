#ifndef ECOCHARGE_CH_CH_PROFILE_H_
#define ECOCHARGE_CH_CH_PROFILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ch/ch_customize.h"
#include "ch/ch_index.h"
#include "graph/shortest_path.h"

namespace ecocharge {

/// One pending shortcut/arc expansion step (packed ref + forward
/// orientation endpoints).
struct ChUnpackItem {
  uint32_t ref;  ///< packed ChIndex arc reference
  NodeId from;   ///< arc tail in forward orientation
  NodeId to;     ///< arc head
};

/// \brief One endpoint's elimination-tree label space across k weight
/// planes (an ETA window's lanes).
///
/// `chain` lists the endpoint and its elimination-tree ancestors in
/// ascending rank; `dist[i * lanes + j]` is the cheapest up-graph (forward)
/// or reversed-down-graph (backward) climb cost from the source to
/// `chain[i]` under plane j, `pred_*` likewise. Lane j is bit-identical to
/// the one-lane space (ChSpace) of plane j — the window is one chain walk
/// and one arc sweep instead of k.
struct ChProfileSpace {
  std::vector<NodeId> chain;
  std::vector<double> dist;        ///< position-major, `lanes` per position
  std::vector<uint32_t> pred_arc;  ///< packed ref per (position, lane)
  std::vector<uint32_t> pred_pos;  ///< predecessor chain index per (pos, lane)
  size_t lanes = 0;
  NodeId source = kInvalidNode;
  bool forward = true;
};

/// \brief Multi-plane (time-dependent "profile") batch-space query: one
/// elimination-tree pass answers a whole ETA window.
///
/// A continuous query wants the same charger legs at k consecutive
/// congestion buckets (the Offering Table's forecast horizon). Running
/// ChQuery k times repeats the chain walk, the arc-row traversal, and the
/// cache misses k-fold for data that differs only in the weight plane.
/// ChProfileQuery walks the chain once and relaxes each arc against all k
/// planes in the inner loop — the planes' cost arrays are indexed by the
/// same arc offsets, so the per-lane relaxation sequence (and therefore
/// every lane's labels, predecessors, unpacked paths, and refolded costs)
/// is bit-identical to k independent single-plane queries.
///
/// Planes are shared immutable ChCustomizations — typically k consecutive
/// bucket planes out of one ChCustomizationCache, so a prewarm pass both
/// fills the cache and prices the window in a single search.
class ChProfileQuery {
 public:
  static constexpr uint32_t kNoArcRef = 0xFFFFFFFFu;

  explicit ChProfileQuery(const ChIndex& ch);

  /// Sets the window's lanes (plane j = lane j). Planes must belong to
  /// this index; the query keeps shared ownership.
  void SetPlanes(
      std::span<const std::shared_ptr<const ChCustomization>> planes);

  size_t lanes() const { return planes_.size(); }
  const ChCustomization& plane(size_t lane) const { return *planes_[lane]; }

  /// Builds v's label space across every lane (`v` must be in range).
  /// No priority queue and no stall scans: ancestors are relaxed in chain
  /// order, which is topological for both climb directions. Returns false
  /// when a relax target leaves the ancestor chain in ANY lane, i.e. the
  /// fill is not closed (conservative: the caller falls back to the
  /// Dijkstra sweeps).
  bool BuildSpace(NodeId v, SweepDirection dir, ChProfileSpace* out);

  /// Per-lane cheapest connection over the spaces' common suffix (two
  /// root paths of a tree meet in exactly that suffix, and the peak of any
  /// shortest up-down path is a common ancestor): `dist[j]` / `fpos[j]` /
  /// `bpos[j]` are lane j's meet (kInfiniteCost when unconnected). Spans
  /// must have lanes() elements.
  void MeetSpaces(const ChProfileSpace& fwd, const ChProfileSpace& bwd,
                  std::span<double> dist, std::span<uint32_t> fpos,
                  std::span<uint32_t> bpos) const;

  /// Unpacks lane `lane`'s connection into original EdgeIds in forward
  /// (fwd.source -> bwd.source) order; empty when the sources coincide.
  void UnpackMeet(const ChProfileSpace& fwd, uint32_t fpos,
                  const ChProfileSpace& bwd, uint32_t bpos, size_t lane,
                  std::vector<EdgeId>* out);

  const ChIndex& index() const { return ch_; }

 private:
  void EnsureElimTree();

  const ChIndex& ch_;
  std::vector<std::shared_ptr<const ChCustomization>> planes_;
  std::vector<const double*> lane_up_;    ///< planes_[j]->cw_up.data()
  std::vector<const double*> lane_down_;  ///< planes_[j]->cw_down.data()

  std::vector<NodeId> parent_;
  std::vector<uint32_t> pos_;
  std::vector<uint32_t> pos_stamp_;
  uint32_t space_epoch_ = 0;

  std::vector<ChUnpackItem> unpack_stack_;
  std::vector<ChUnpackItem> path_items_;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CH_CH_PROFILE_H_
