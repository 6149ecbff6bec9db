#include "ch/ch_profile.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace ecocharge {

namespace {

constexpr uint32_t kNoParentArc = ChProfileQuery::kNoArcRef;

/// Metric-independent elimination-tree parents of `ch`: the lowest-ranked
/// far endpoint of each node's rows (kInvalidNode at the root).
std::vector<NodeId> ChElimTreeParents(const ChIndex& ch) {
  const size_t n = ch.NumNodes();
  std::vector<NodeId> parent(n, kInvalidNode);
  // Every far endpoint of a node's rows outranks it, so the lowest-ranked
  // one is the elimination-tree parent; the chain to the root is strictly
  // rank-increasing.
  for (NodeId v = 0; v < n; ++v) {
    uint32_t best_rank = 0xFFFFFFFFu;
    NodeId best = kInvalidNode;
    for (const ChArc& a : ch.UpArcs(v)) {
      if (ch.rank(a.node) < best_rank) {
        best_rank = ch.rank(a.node);
        best = a.node;
      }
    }
    for (const ChArc& a : ch.DownArcs(v)) {
      if (ch.rank(a.node) < best_rank) {
        best_rank = ch.rank(a.node);
        best = a.node;
      }
    }
    parent[v] = best;
  }
  return parent;
}

/// Cheapest record of the (possibly parallel) run `v -> to` in v's up row
/// under `plane`; ties break on the first record. Mirrors the run-minima
/// collapse of the customization sweep, so expansion re-finds exactly the
/// records the sweep summed.
uint32_t ChMinUpRef(const ChIndex& ch, const ChCustomization& plane, NodeId v,
                    NodeId to) {
  size_t k = ch.FindUpArc(v, to);
  assert(k != SIZE_MAX && "unpack: missing up arc");
  const auto up = ch.up_arcs();
  size_t best = k;
  for (size_t i = k + 1; i < ch.up_offsets()[v + 1] && up[i].node == to; ++i) {
    if (plane.cw_up[i] < plane.cw_up[best]) best = i;
  }
  return static_cast<uint32_t>(best);
}

/// Cheapest record of the run `from -> v` in v's down row (kDownBit set).
uint32_t ChMinDownRef(const ChIndex& ch, const ChCustomization& plane,
                      NodeId v, NodeId from) {
  size_t k = ch.FindDownArc(v, from);
  assert(k != SIZE_MAX && "unpack: missing down arc");
  const auto down = ch.down_arcs();
  size_t best = k;
  for (size_t i = k + 1; i < ch.down_offsets()[v + 1] && down[i].node == from;
       ++i) {
    if (plane.cw_down[i] < plane.cw_down[best]) best = i;
  }
  return ChIndex::kDownBit | static_cast<uint32_t>(best);
}

/// Expands `item` into original EdgeIds (appended to `*out`, forward
/// order) by recursing through each priced arc's via node. `*stack` is
/// caller-owned LIFO scratch (cleared here), so warm calls allocate
/// nothing.
void ChExpandItem(const ChIndex& ch, const ChCustomization& plane,
                  const ChUnpackItem& item, std::vector<ChUnpackItem>* stack,
                  std::vector<EdgeId>* out) {
  stack->clear();
  stack->push_back(item);
  while (!stack->empty()) {
    const ChUnpackItem it = stack->back();
    stack->pop_back();
    const NodeId via = (it.ref & ChIndex::kDownBit) != 0
                           ? plane.via_down[it.ref & ~ChIndex::kDownBit]
                           : plane.via_up[it.ref];
    if (via == kInvalidNode) {
      // Cheapest realization is the original arc itself.
      assert(ch.arc(it.ref).orig != kChShortcutEdge);
      out->push_back(ch.arc(it.ref).orig);
      continue;
    }
    // The via node sits below both endpoints, so the halves live in its own
    // rows: (from -> via) among its down arcs, (via -> to) among its up
    // arcs. Their customized costs are the ones the sweep summed, so
    // re-finding the cheapest records reproduces the priced path exactly.
    // LIFO: left half on top so it expands first.
    stack->push_back({ChMinUpRef(ch, plane, via, it.to), via, it.to});
    stack->push_back({ChMinDownRef(ch, plane, via, it.from), it.from, via});
  }
}

}  // namespace

ChProfileQuery::ChProfileQuery(const ChIndex& ch) : ch_(ch) {}

void ChProfileQuery::SetPlanes(
    std::span<const std::shared_ptr<const ChCustomization>> planes) {
  planes_.assign(planes.begin(), planes.end());
  lane_up_.clear();
  lane_down_.clear();
  for (const auto& p : planes_) {
    assert(p != nullptr && p->cw_up.size() == ch_.NumUpArcs() &&
           p->cw_down.size() == ch_.NumDownArcs());
    lane_up_.push_back(p->cw_up.data());
    lane_down_.push_back(p->cw_down.data());
  }
}

void ChProfileQuery::EnsureElimTree() {
  if (!parent_.empty()) return;
  parent_ = ChElimTreeParents(ch_);
  pos_.assign(ch_.NumNodes(), 0);
  pos_stamp_.assign(ch_.NumNodes(), 0);
}

bool ChProfileQuery::BuildSpace(NodeId v, SweepDirection dir,
                                ChProfileSpace* out) {
  const size_t lanes = planes_.size();
  assert(lanes > 0 && "SetPlanes before BuildSpace");
  assert(v < ch_.NumNodes());
  EnsureElimTree();
  if (++space_epoch_ == 0) {
    std::fill(pos_stamp_.begin(), pos_stamp_.end(), 0);
    space_epoch_ = 1;
  }
  out->source = v;
  out->forward = dir == SweepDirection::kForward;
  out->lanes = lanes;
  out->chain.clear();
  for (NodeId x = v; x != kInvalidNode; x = parent_[x]) {
    pos_[x] = static_cast<uint32_t>(out->chain.size());
    pos_stamp_[x] = space_epoch_;
    out->chain.push_back(x);
  }
  const size_t len = out->chain.size();
  out->dist.assign(len * lanes, kInfiniteCost);
  out->pred_arc.assign(len * lanes, kNoParentArc);
  out->pred_pos.assign(len * lanes, 0);
  for (size_t j = 0; j < lanes; ++j) out->dist[j] = 0.0;
  // One in-order chain pass, all lanes in the inner loop. Per lane this
  // executes exactly the single-plane relaxation sequence (same positions,
  // same arcs, same comparisons on the same doubles), so each lane's
  // labels are bit-identical to a one-lane build over that plane. An
  // off-chain target is tolerated only if EVERY live lane prices the arc
  // infinite — a conservative superset; failure (false) just means the
  // caller falls back, never a wrong value.
  const auto up_off = ch_.up_offsets();
  const auto down_off = ch_.down_offsets();
  for (size_t i = 0; i < len; ++i) {
    const double* di = out->dist.data() + i * lanes;
    const NodeId x = out->chain[i];
    const uint32_t row_begin = out->forward ? up_off[x] : down_off[x];
    const uint32_t row_end = out->forward ? up_off[x + 1] : down_off[x + 1];
    const auto arcs = out->forward ? ch_.UpArcs(x) : ch_.DownArcs(x);
    const auto& lane_cw = out->forward ? lane_up_ : lane_down_;
    for (uint32_t a = row_begin; a < row_end; ++a) {
      const size_t k = a - row_begin;
      const NodeId y = arcs[k].node;
      // Does any lane actually relax through this arc?
      bool live = false;
      for (size_t j = 0; j < lanes; ++j) {
        if (di[j] < kInfiniteCost && lane_cw[j][a] < kInfiniteCost) {
          live = true;
          break;
        }
      }
      if (!live) continue;
      if (pos_stamp_[y] != space_epoch_) return false;
      const uint32_t jpos = pos_[y];
      double* dy = out->dist.data() + jpos * lanes;
      uint32_t* pa = out->pred_arc.data() + jpos * lanes;
      uint32_t* pp = out->pred_pos.data() + jpos * lanes;
      const uint32_t ref = out->forward ? ch_.UpRef(x, k) : ch_.DownRef(x, k);
      for (size_t j = 0; j < lanes; ++j) {
        const double d = di[j];
        if (!(d < kInfiniteCost)) continue;
        const double w = lane_cw[j][a];
        if (!(w < kInfiniteCost)) continue;
        const double nd = d + w;
        if (nd < dy[j]) {
          dy[j] = nd;
          pa[j] = ref;
          pp[j] = static_cast<uint32_t>(i);
        }
      }
    }
  }
  return true;
}

void ChProfileQuery::MeetSpaces(const ChProfileSpace& fwd,
                                const ChProfileSpace& bwd,
                                std::span<double> dist,
                                std::span<uint32_t> fpos,
                                std::span<uint32_t> bpos) const {
  const size_t lanes = planes_.size();
  assert(fwd.lanes == lanes && bwd.lanes == lanes);
  assert(dist.size() == lanes && fpos.size() == lanes && bpos.size() == lanes);
  // Common-suffix scan per lane: ties keep the deepest node (first
  // improvement in the ascending-k scan).
  const size_t fn = fwd.chain.size();
  const size_t bn = bwd.chain.size();
  size_t l = 0;
  while (l < fn && l < bn && fwd.chain[fn - 1 - l] == bwd.chain[bn - 1 - l]) {
    ++l;
  }
  for (size_t j = 0; j < lanes; ++j) dist[j] = kInfiniteCost;
  for (size_t k = 0; k < l; ++k) {
    const size_t fi = fn - l + k;
    const size_t bj = bn - l + k;
    const double* fd = fwd.dist.data() + fi * lanes;
    const double* bd = bwd.dist.data() + bj * lanes;
    for (size_t j = 0; j < lanes; ++j) {
      const double sum = fd[j] + bd[j];
      if (sum < dist[j]) {
        dist[j] = sum;
        fpos[j] = static_cast<uint32_t>(fi);
        bpos[j] = static_cast<uint32_t>(bj);
      }
    }
  }
}

void ChProfileQuery::UnpackMeet(const ChProfileSpace& fwd, uint32_t fpos,
                                const ChProfileSpace& bwd, uint32_t bpos,
                                size_t lane, std::vector<EdgeId>* out) {
  out->clear();
  const size_t lanes = planes_.size();
  const ChCustomization& plane = *planes_[lane];
  // Upward half: predecessor chain runs meet -> source; collect and
  // reverse so the expansion emits edges in source -> meet order.
  path_items_.clear();
  for (uint32_t p = fpos; fwd.pred_arc[p * lanes + lane] != kNoParentArc;
       p = fwd.pred_pos[p * lanes + lane]) {
    path_items_.push_back({fwd.pred_arc[p * lanes + lane],
                           fwd.chain[fwd.pred_pos[p * lanes + lane]],
                           fwd.chain[p]});
  }
  std::reverse(path_items_.begin(), path_items_.end());
  for (const ChUnpackItem& item : path_items_) {
    ChExpandItem(ch_, plane, item, &unpack_stack_, out);
  }
  // Downward half: each predecessor arc already runs chain[p] ->
  // chain[pred_pos[p]] in forward orientation, walking meet -> target.
  for (uint32_t p = bpos; bwd.pred_arc[p * lanes + lane] != kNoParentArc;
       p = bwd.pred_pos[p * lanes + lane]) {
    ChExpandItem(ch_, plane,
                 {bwd.pred_arc[p * lanes + lane], bwd.chain[p],
                  bwd.chain[bwd.pred_pos[p * lanes + lane]]},
                 &unpack_stack_, out);
  }
}

}  // namespace ecocharge
