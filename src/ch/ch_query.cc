#include "ch/ch_query.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace ecocharge {

namespace {

constexpr uint32_t kNoParentArc = ChQuery::kNoArcRef;

bool SameWeights(const ChClassWeights& a, const ChClassWeights& b) {
  return a.w[0] == b.w[0] && a.w[1] == b.w[1] && a.w[2] == b.w[2];
}

}  // namespace

ChQuery::ChQuery(ChCustomizationCache& cache)
    : cache_(cache),
      ch_(cache.index()),
      flabel_(ch_.NumNodes(),
              Label{kInfiniteCost, kNoParentArc, kInvalidNode, 0}),
      blabel_(ch_.NumNodes(),
              Label{kInfiniteCost, kNoParentArc, kInvalidNode, 0}),
      fsettled_(ch_.NumNodes(), 0),
      bsettled_(ch_.NumNodes(), 0) {}

void ChQuery::AttachMetrics(obs::MetricsRegistry* registry) {
  customizations_mirror_ =
      registry != nullptr
          ? registry->GetCounter("ch.customizations", "sweeps")
          : nullptr;
}

void ChQuery::EnsureCustomized(const ChClassWeights& weights) {
  if (plane_ != nullptr && SameWeights(plane_->weights, weights)) return;
  // The cache dedups across workers; only a plane this call actually
  // built counts as this query's customization.
  bool built = false;
  plane_ = cache_.Get(weights, &built);
  if (built) {
    ++customizations_;
    if (customizations_mirror_ != nullptr) customizations_mirror_->Add();
  }
  cw_up_ = plane_->cw_up.data();
  cw_down_ = plane_->cw_down.data();
}

double ChQuery::Search(NodeId s, NodeId t, const ChClassWeights& weights) {
  EnsureCustomized(weights);
  last_settled_ = 0;
  last_s_ = s;
  last_t_ = t;
  meet_ = kInvalidNode;
  const size_t n = ch_.NumNodes();
  if (s >= n || t >= n) return kInfiniteCost;
  if (s == t) {
    meet_ = s;
    return 0.0;
  }
  if (++epoch_ == 0) {
    for (Label& l : flabel_) l.version = 0;
    for (Label& l : blabel_) l.version = 0;
    std::fill(fsettled_.begin(), fsettled_.end(), 0);
    std::fill(bsettled_.begin(), bsettled_.end(), 0);
    epoch_ = 1;
  }
  fheap_.clear();
  bheap_.clear();
  flabel_[s] = {0.0, kNoParentArc, kInvalidNode, epoch_};
  blabel_[t] = {0.0, kNoParentArc, kInvalidNode, epoch_};
  fheap_.push_back({0.0, s});
  bheap_.push_back({0.0, t});

  double best = kInfiniteCost;
  auto try_meet = [&](NodeId v) {
    if (flabel_[v].version == epoch_ && blabel_[v].version == epoch_) {
      const double sum = flabel_[v].dist + blabel_[v].dist;
      if (sum < best) {
        best = sum;
        meet_ = v;
      }
    }
  };

  const auto up_off = ch_.up_offsets();
  const auto down_off = ch_.down_offsets();

  // Both directions climb the hierarchy and may only meet at the path's
  // peak, so (unlike plain bidirectional Dijkstra) each side must keep
  // settling until its own queue minimum reaches the best connection.
  while (!fheap_.empty() || !bheap_.empty()) {
    const double ftop = fheap_.empty() ? kInfiniteCost : fheap_.front().priority;
    const double btop = bheap_.empty() ? kInfiniteCost : bheap_.front().priority;
    if (std::min(ftop, btop) >= best) break;
    const bool forward = ftop <= btop;
    std::vector<HeapEntry>& heap = forward ? fheap_ : bheap_;
    std::vector<Label>& label = forward ? flabel_ : blabel_;
    std::vector<uint32_t>& settled = forward ? fsettled_ : bsettled_;

    std::pop_heap(heap.begin(), heap.end(), Later);
    const NodeId v = heap.back().node;
    heap.pop_back();
    if (settled[v] == epoch_) continue;  // stale heap entry
    settled[v] = epoch_;
    ++last_settled_;
    const double d = label[v].dist;
    if (d >= best) continue;

    // Stall-on-demand: when a higher-ranked node already reached v more
    // cheaply through the opposite adjacency, v's label is not a prefix of
    // any shortest up-down path — settle it but do not expand.
    bool stalled = false;
    if (forward) {
      const auto arcs = ch_.DownArcs(v);  // arcs a.node -> v
      for (size_t i = 0; i < arcs.size(); ++i) {
        const Label& lu = flabel_[arcs[i].node];
        if (lu.version == epoch_ && lu.dist + cw_down_[down_off[v] + i] < d) {
          stalled = true;
          break;
        }
      }
    } else {
      const auto arcs = ch_.UpArcs(v);  // arcs v -> a.node
      for (size_t i = 0; i < arcs.size(); ++i) {
        const Label& lu = blabel_[arcs[i].node];
        if (lu.version == epoch_ && lu.dist + cw_up_[up_off[v] + i] < d) {
          stalled = true;
          break;
        }
      }
    }
    if (stalled) continue;

    if (forward) {
      const auto arcs = ch_.UpArcs(v);
      for (size_t i = 0; i < arcs.size(); ++i) {
        const double w = cw_up_[up_off[v] + i];
        if (!(w < kInfiniteCost)) continue;
        const double nd = d + w;
        Label& lw = flabel_[arcs[i].node];
        if (lw.version != epoch_ || nd < lw.dist) {
          lw = {nd, ch_.UpRef(v, i), v, epoch_};
          fheap_.push_back({nd, arcs[i].node});
          std::push_heap(fheap_.begin(), fheap_.end(), Later);
          try_meet(arcs[i].node);
        }
      }
    } else {
      const auto arcs = ch_.DownArcs(v);
      for (size_t i = 0; i < arcs.size(); ++i) {  // arc arcs[i].node -> v
        const double w = cw_down_[down_off[v] + i];
        if (!(w < kInfiniteCost)) continue;
        const double nd = d + w;
        Label& lw = blabel_[arcs[i].node];
        if (lw.version != epoch_ || nd < lw.dist) {
          lw = {nd, ch_.DownRef(v, i), v, epoch_};
          bheap_.push_back({nd, arcs[i].node});
          std::push_heap(bheap_.begin(), bheap_.end(), Later);
          try_meet(arcs[i].node);
        }
      }
    }
  }
  return best;
}

void ChQuery::EnsureElimTree() {
  if (!parent_.empty()) return;
  parent_ = ChElimTreeParents(ch_);
  pos_.assign(ch_.NumNodes(), 0);
  pos_stamp_.assign(ch_.NumNodes(), 0);
}

bool ChQuery::BuildSpace(NodeId v, SweepDirection dir, ChSpace* out) {
  assert(plane_ != nullptr && "BuildSpace requires a customization");
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
  out->pred_arc.assign(len, kNoParentArc);
  out->pred_pos.assign(len, 0);
  out->dist[0] = 0.0;
  // Chain order ascends in rank, and both climb directions only ever step
  // to higher ranks, so one in-order pass relaxes every arc after its
  // tail's label is final — Dijkstra's invariant without the heap. A relax
  // target off the chain means the fill was not closed under the
  // contraction order; the caller gets `false` and uses Search() instead.
  const auto up_off = ch_.up_offsets();
  const auto down_off = ch_.down_offsets();
  for (size_t i = 0; i < len; ++i) {
    const double d = out->dist[i];
    if (!(d < kInfiniteCost)) continue;
    const NodeId x = out->chain[i];
    if (out->forward) {
      const auto arcs = ch_.UpArcs(x);
      for (size_t k = 0; k < arcs.size(); ++k) {
        const double w = cw_up_[up_off[x] + k];
        if (!(w < kInfiniteCost)) continue;
        const NodeId y = arcs[k].node;
        if (pos_stamp_[y] != space_epoch_) return false;
        const uint32_t j = pos_[y];
        const double nd = d + w;
        if (nd < out->dist[j]) {
          out->dist[j] = nd;
          out->pred_arc[j] = ch_.UpRef(x, k);
          out->pred_pos[j] = static_cast<uint32_t>(i);
        }
      }
    } else {
      const auto arcs = ch_.DownArcs(x);  // arcs arcs[k].node -> x
      for (size_t k = 0; k < arcs.size(); ++k) {
        const double w = cw_down_[down_off[x] + k];
        if (!(w < kInfiniteCost)) continue;
        const NodeId y = arcs[k].node;
        if (pos_stamp_[y] != space_epoch_) return false;
        const uint32_t j = pos_[y];
        const double nd = d + w;
        if (nd < out->dist[j]) {
          out->dist[j] = nd;
          out->pred_arc[j] = ch_.DownRef(x, k);
          out->pred_pos[j] = static_cast<uint32_t>(i);
        }
      }
    }
  }
  return true;
}

double ChQuery::MeetSpaces(const ChSpace& fwd, const ChSpace& bwd,
                           uint32_t* fpos, uint32_t* bpos) const {
  // Two root paths of a tree intersect in exactly their common suffix, and
  // the peak of any shortest up-down path is a common ancestor, so scanning
  // the suffix sees every candidate meet. Ties keep the deepest node.
  const size_t fn = fwd.chain.size();
  const size_t bn = bwd.chain.size();
  size_t l = 0;
  while (l < fn && l < bn && fwd.chain[fn - 1 - l] == bwd.chain[bn - 1 - l]) {
    ++l;
  }
  double best = kInfiniteCost;
  for (size_t k = 0; k < l; ++k) {
    const size_t fi = fn - l + k;
    const size_t bj = bn - l + k;
    const double sum = fwd.dist[fi] + bwd.dist[bj];
    if (sum < best) {
      best = sum;
      *fpos = static_cast<uint32_t>(fi);
      *bpos = static_cast<uint32_t>(bj);
    }
  }
  return best;
}

void ChQuery::UnpackMeet(const ChSpace& fwd, uint32_t fpos, const ChSpace& bwd,
                         uint32_t bpos, std::vector<EdgeId>* out) {
  out->clear();
  // Upward half: predecessor chain runs meet -> source; collect and reverse
  // so the expansion emits edges in source -> meet order.
  path_items_.clear();
  for (uint32_t p = fpos; fwd.pred_arc[p] != kNoParentArc;
       p = fwd.pred_pos[p]) {
    path_items_.push_back(
        {fwd.pred_arc[p], fwd.chain[fwd.pred_pos[p]], fwd.chain[p]});
  }
  std::reverse(path_items_.begin(), path_items_.end());
  for (const ChUnpackItem& item : path_items_) {
    ChExpandItem(ch_, *plane_, item, &unpack_stack_, out);
  }
  // Downward half: each predecessor arc already runs chain[p] ->
  // chain[pred_pos[p]] in forward orientation, walking meet -> target.
  for (uint32_t p = bpos; bwd.pred_arc[p] != kNoParentArc;
       p = bwd.pred_pos[p]) {
    ChExpandItem(ch_, *plane_,
                 {bwd.pred_arc[p], bwd.chain[p], bwd.chain[bwd.pred_pos[p]]},
                 &unpack_stack_, out);
  }
}

void ChQuery::UnpackPath(std::vector<EdgeId>* out) {
  out->clear();
  if (meet_ == kInvalidNode || last_s_ == last_t_) return;
  // Upward half: parent chain runs meet -> s; collect and reverse so the
  // expansion emits edges in s -> meet order.
  path_items_.clear();
  for (NodeId v = meet_; v != last_s_; v = flabel_[v].parent_node) {
    path_items_.push_back({flabel_[v].parent_arc, flabel_[v].parent_node, v});
  }
  std::reverse(path_items_.begin(), path_items_.end());
  for (const ChUnpackItem& item : path_items_) {
    ChExpandItem(ch_, *plane_, item, &unpack_stack_, out);
  }
  // Downward half: the backward parent chain already walks meet -> t in
  // forward arc orientation (each parent arc runs v -> parent).
  for (NodeId v = meet_; v != last_t_; v = blabel_[v].parent_node) {
    ChExpandItem(ch_, *plane_,
                 {blabel_[v].parent_arc, v, blabel_[v].parent_node},
                 &unpack_stack_, out);
  }
}

double ChExactPathCost(ChQuery* query, const RoadNetwork& network, NodeId s,
                       NodeId t, const ChClassWeights& weights,
                       const EdgeCostFn& cost, SweepDirection fold,
                       std::vector<EdgeId>* scratch) {
  const double search_dist = query->Search(s, t, weights);
  if (!(search_dist < kInfiniteCost)) return kInfiniteCost;
  query->UnpackPath(scratch);
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
