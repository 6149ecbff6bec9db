#include "ch/ch_query.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace ecocharge {

namespace {

bool SameWeights(const ChClassWeights& a, const ChClassWeights& b) {
  return a.w[0] == b.w[0] && a.w[1] == b.w[1] && a.w[2] == b.w[2];
}

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

ChQuery::ChQuery(ChCustomizationCache& cache)
    : cache_(cache), ch_(cache.index()) {}

bool ChQuery::UsePublished(const ChClassWeights& weights) {
  if (plane_ != nullptr && SameWeights(plane_->weights, weights)) return true;
  std::shared_ptr<const ChCustomization> plane = cache_.Lookup(weights);
  if (plane == nullptr) return false;
  assert(plane->cw_up.size() == ch_.NumUpArcs() &&
         plane->cw_down.size() == ch_.NumDownArcs());
  plane_ = std::move(plane);
  return true;
}

void ChQuery::EnsureElimTree() {
  if (!parent_.empty()) return;
  parent_ = ChElimTreeParents(ch_);
  pos_.assign(ch_.NumNodes(), 0);
  pos_stamp_.assign(ch_.NumNodes(), 0);
}

bool ChQuery::BuildSpace(NodeId v, SweepDirection dir, ChSpace* out) {
  assert(plane_ != nullptr && "UsePublished before BuildSpace");
  assert(v < ch_.NumNodes());
  EnsureElimTree();
  if (++space_epoch_ == 0) {
    std::fill(pos_stamp_.begin(), pos_stamp_.end(), 0);
    space_epoch_ = 1;
  }
  out->source = v;
  out->forward = dir == SweepDirection::kForward;
  out->chain.clear();
  for (NodeId x = v; x != kInvalidNode; x = parent_[x]) {
    pos_[x] = static_cast<uint32_t>(out->chain.size());
    pos_stamp_[x] = space_epoch_;
    out->chain.push_back(x);
  }
  const size_t len = out->chain.size();
  out->dist.assign(len, kInfiniteCost);
  out->pred_arc.assign(len, kNoArcRef);
  out->pred_pos.assign(len, 0);
  out->dist[0] = 0.0;
  // One in-order chain pass. An off-chain target is tolerated only when the
  // arc is priced infinite or its tail is unreached; failure (false) just
  // means the caller falls back, never a wrong value.
  const auto up_off = ch_.up_offsets();
  const auto down_off = ch_.down_offsets();
  const double* cw =
      out->forward ? plane_->cw_up.data() : plane_->cw_down.data();
  for (size_t i = 0; i < len; ++i) {
    const double d = out->dist[i];
    if (!(d < kInfiniteCost)) continue;
    const NodeId x = out->chain[i];
    const uint32_t row_begin = out->forward ? up_off[x] : down_off[x];
    const uint32_t row_end = out->forward ? up_off[x + 1] : down_off[x + 1];
    const auto arcs = out->forward ? ch_.UpArcs(x) : ch_.DownArcs(x);
    for (uint32_t a = row_begin; a < row_end; ++a) {
      const double w = cw[a];
      if (!(w < kInfiniteCost)) continue;
      const size_t k = a - row_begin;
      const NodeId y = arcs[k].node;
      if (pos_stamp_[y] != space_epoch_) return false;
      const uint32_t jpos = pos_[y];
      const double nd = d + w;
      if (nd < out->dist[jpos]) {
        out->dist[jpos] = nd;
        out->pred_arc[jpos] =
            out->forward ? ch_.UpRef(x, k) : ch_.DownRef(x, k);
        out->pred_pos[jpos] = static_cast<uint32_t>(i);
      }
    }
  }
  return true;
}

double ChQuery::MeetSpaces(const ChSpace& fwd, const ChSpace& bwd,
                           uint32_t* fpos, uint32_t* bpos) const {
  // Common-suffix scan: ties keep the deepest node (first improvement in
  // the ascending-k scan).
  const size_t fn = fwd.chain.size();
  const size_t bn = bwd.chain.size();
  size_t l = 0;
  while (l < fn && l < bn && fwd.chain[fn - 1 - l] == bwd.chain[bn - 1 - l]) {
    ++l;
  }
  double dist = kInfiniteCost;
  for (size_t k = 0; k < l; ++k) {
    const size_t fi = fn - l + k;
    const size_t bj = bn - l + k;
    const double sum = fwd.dist[fi] + bwd.dist[bj];
    if (sum < dist) {
      dist = sum;
      *fpos = static_cast<uint32_t>(fi);
      *bpos = static_cast<uint32_t>(bj);
    }
  }
  return dist;
}

void ChQuery::UnpackMeet(const ChSpace& fwd, uint32_t fpos, const ChSpace& bwd,
                         uint32_t bpos, std::vector<EdgeId>* out) {
  out->clear();
  const ChCustomization& plane = *plane_;
  // Upward half: predecessor chain runs meet -> source; collect and
  // reverse so the expansion emits edges in source -> meet order.
  path_items_.clear();
  for (uint32_t p = fpos; fwd.pred_arc[p] != kNoArcRef; p = fwd.pred_pos[p]) {
    path_items_.push_back(
        {fwd.pred_arc[p], fwd.chain[fwd.pred_pos[p]], fwd.chain[p]});
  }
  std::reverse(path_items_.begin(), path_items_.end());
  for (const ChUnpackItem& item : path_items_) {
    ChExpandItem(ch_, plane, item, &unpack_stack_, out);
  }
  // Downward half: each predecessor arc already runs chain[p] ->
  // chain[pred_pos[p]] in forward orientation, walking meet -> target.
  for (uint32_t p = bpos; bwd.pred_arc[p] != kNoArcRef; p = bwd.pred_pos[p]) {
    ChExpandItem(ch_, plane, {bwd.pred_arc[p], bwd.chain[p],
                              bwd.chain[bwd.pred_pos[p]]},
                 &unpack_stack_, out);
  }
}

double ChExactPathCost(ChQuery* query, const RoadNetwork& network,
                       const ChSpace& fwd, const ChSpace& bwd,
                       const EdgeCostFn& cost, SweepDirection fold,
                       std::vector<EdgeId>* scratch) {
  uint32_t fpos = 0;
  uint32_t bpos = 0;
  if (!(query->MeetSpaces(fwd, bwd, &fpos, &bpos) < kInfiniteCost)) {
    return kInfiniteCost;
  }
  query->UnpackMeet(fwd, fpos, bwd, bpos, scratch);
  // Fold in the reference sweep's association order. A forward Dijkstra
  // accumulates ((0 + c1) + c2) + ... from the source; a backward sweep
  // seeds the far end, so its sum attaches arcs target-side first —
  // iterate the forward-oriented path in reverse (addition commutes
  // bitwise in IEEE 754; only the grouping matters).
  double acc = 0.0;
  if (fold == SweepDirection::kForward) {
    for (EdgeId e : *scratch) acc = acc + cost(network.arc(e));
  } else {
    for (auto it = scratch->rbegin(); it != scratch->rend(); ++it) {
      acc = acc + cost(network.arc(*it));
    }
  }
  return acc;
}

}  // namespace ecocharge
