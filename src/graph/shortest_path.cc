#include "graph/shortest_path.h"

#include <algorithm>
#include <queue>

namespace ecocharge {

double LengthCost(const Arc& a) { return a.length_m; }

DijkstraSearch::DijkstraSearch(const RoadNetwork& network)
    : network_(network),
      labels_(network.NumNodes(), NodeLabel{kInfiniteCost, kInvalidNode, 0}),
      settled_version_(network.NumNodes(), 0),
      target_version_(network.NumNodes(), 0) {}

void DijkstraSearch::NewEpoch() {
  ++epoch_;
  if (epoch_ == 0) {
    // Wrapped around: hard reset.
    for (NodeLabel& label : labels_) label.version = 0;
    std::fill(settled_version_.begin(), settled_version_.end(), 0);
    std::fill(target_version_.begin(), target_version_.end(), 0);
    epoch_ = 1;
  }
  last_settled_ = 0;
}

std::vector<NodeId> DijkstraSearch::ReconstructPath(NodeId source,
                                                    NodeId target) const {
  std::vector<NodeId> nodes;
  NodeId v = target;
  while (v != kInvalidNode) {
    nodes.push_back(v);
    if (v == source) break;
    v = labels_[v].parent;
  }
  std::reverse(nodes.begin(), nodes.end());
  return nodes;
}

namespace {

struct HeapEntry {
  double priority;
  NodeId node;
  bool operator>(const HeapEntry& o) const { return priority > o.priority; }
};

using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

}  // namespace

PathResult DijkstraSearch::AStar(NodeId source, NodeId target,
                                 const EdgeCostFn& cost,
                                 double heuristic_scale) {
  PathResult result;
  if (source >= network_.NumNodes() || target >= network_.NumNodes()) {
    return result;
  }
  NewEpoch();
  const Point& goal = network_.NodePosition(target);
  auto h = [&](NodeId v) {
    return Distance(network_.NodePosition(v), goal) * heuristic_scale;
  };
  MinHeap heap;
  labels_[source] = {0.0, kInvalidNode, epoch_};
  heap.push({h(source), source});

  while (!heap.empty()) {
    auto [f, v] = heap.top();
    heap.pop();
    if (settled_version_[v] == epoch_) continue;  // stale heap entry
    settled_version_[v] = epoch_;
    ++last_settled_;
    if (v == target) {
      result.cost = labels_[v].dist;
      result.nodes = ReconstructPath(source, target);
      return result;
    }
    const double dv = labels_[v].dist;  // loop-invariant: no self-loops
    for (const Arc& a : network_.OutArcs(v)) {
      double nd = dv + cost(a);
      NodeLabel& lw = labels_[a.node];
      if (lw.version != epoch_ || nd < lw.dist) {
        lw = {nd, v, epoch_};
        heap.push({nd + h(a.node), a.node});
      }
    }
  }
  return result;
}

size_t DijkstraSearch::OneToMany(NodeId source,
                                 std::span<const NodeId> targets,
                                 const EdgeCostFn& cost) {
  NodeId sources[1] = {source};
  StartSweep(std::span<const NodeId>(sources, 1), SweepDirection::kForward);
  return ExtendSweep(targets, cost);
}

void DijkstraSearch::FrontierPush(SweepEntry entry) {
  frontier_.push_back(entry);
  size_t i = frontier_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (frontier_[parent].priority <= entry.priority) break;
    frontier_[i] = frontier_[parent];
    i = parent;
  }
  frontier_[i] = entry;
}

NodeId DijkstraSearch::FrontierPop() {
  const NodeId top = frontier_.front().node;
  const SweepEntry last = frontier_.back();
  frontier_.pop_back();
  const size_t n = frontier_.size();
  if (n == 0) return top;
  const SweepEntry* heap = frontier_.data();
  // The smaller-priority slot of a and b, selected by arithmetic rather
  // than a branch: which sibling is smallest is a coin flip, and a
  // mispredicted branch per comparison is what a pop costs otherwise.
  auto lesser = [heap](size_t a, size_t b) {
    const size_t pick_b = 0 - static_cast<size_t>(heap[b].priority <
                                                  heap[a].priority);
    return a ^ ((a ^ b) & pick_b);
  };
  // Sift the former last entry down from the root through the hole.
  size_t i = 0;
  for (;;) {
    const size_t first = 4 * i + 1;
    size_t best;
    if (first + 4 <= n) {
      best = lesser(lesser(first, first + 1), lesser(first + 2, first + 3));
    } else {
      if (first >= n) break;
      best = first;
      for (size_t c = first + 1; c < n; ++c) best = lesser(best, c);
    }
    if (heap[best].priority >= last.priority) break;
    frontier_[i] = heap[best];
    i = best;
  }
  frontier_[i] = last;
  return top;
}

void DijkstraSearch::StartSweep(std::span<const NodeId> sources,
                                SweepDirection direction) {
  NewEpoch();
  direction_ = direction;
  frontier_.clear();
  for (NodeId s : sources) {
    if (s >= network_.NumNodes() || labels_[s].version == epoch_) continue;
    labels_[s] = {0.0, kInvalidNode, epoch_};
    FrontierPush({0.0, s});
  }
}

size_t DijkstraSearch::ExtendSweep(std::span<const NodeId> targets,
                                   const EdgeCostFn& cost) {
  const size_t n = network_.NumNodes();
  // Count the distinct, valid, not-yet-final targets this call must reach.
  // A target stamped by an earlier extension of this sweep but still
  // unsettled can only mean the frontier is already exhausted (extensions
  // return only when pending hits zero or the frontier empties), so it is
  // correct to skip it here as well.
  size_t pending = 0;
  for (NodeId t : targets) {
    if (t >= n || settled_version_[t] == epoch_ ||
        target_version_[t] == epoch_) {
      continue;
    }
    target_version_[t] = epoch_;
    ++pending;
  }

  // The target set only decides when to STOP, never what gets relaxed.
  // That is the property the derouting batch relies on for bit-identical
  // costs: a sweep asked for one target and a sweep asked for many perform
  // the same pop/relax prefix, so every settled distance is the same double.
  //
  // Nor do the costs depend on which of several equal priorities the heap
  // pops first. Pops come out in nondecreasing priority, so when v settles
  // at d(v) every node u with d(u) < d(v) has settled and relaxed its arcs
  // into v. A node u with d(u) >= d(v) offers d(u) + c >= d(v) (costs are
  // nonnegative and IEEE addition rounds monotonically), which can never
  // lower the label. So the settled label is the minimum over relaxations
  // from strictly closer nodes, whatever order the ties were popped in: by
  // induction over the distinct distances, every final cost is the same
  // double under any tie-breaking. Only parents, tentative labels and
  // which tied nodes settle before the sweep stops may differ; none of
  // them is a final cost.
  const bool forward = direction_ == SweepDirection::kForward;
  while (pending > 0 && !frontier_.empty()) {
    const NodeId v = FrontierPop();
    if (settled_version_[v] == epoch_) continue;  // stale heap entry
    settled_version_[v] = epoch_;
    ++last_settled_;
    if (target_version_[v] == epoch_) --pending;
    auto arcs = forward ? network_.OutArcs(v) : network_.InArcs(v);
    const double dv = labels_[v].dist;  // loop-invariant: no self-loops
    for (const Arc& a : arcs) {
      const NodeId w = a.node;
      // No settled pre-check: a settled w holds its final minimal distance,
      // so nd >= labels_[w].dist always and the label test rejects it.
      double nd = dv + cost(a);
      NodeLabel& lw = labels_[w];
      if (lw.version != epoch_ || nd < lw.dist) {
        lw = {nd, v, epoch_};
        FrontierPush({nd, w});
      }
    }
  }

  size_t settled_targets = 0;
  for (NodeId t : targets) {
    if (t < n && settled_version_[t] == epoch_) ++settled_targets;
  }
  return settled_targets;
}

PathResult BellmanFordShortestPath(const RoadNetwork& network, NodeId source,
                                   NodeId target, const EdgeCostFn& cost) {
  PathResult result;
  size_t n = network.NumNodes();
  if (source >= n || target >= n) return result;
  std::vector<double> dist(n, kInfiniteCost);
  std::vector<NodeId> parent(n, kInvalidNode);
  dist[source] = 0.0;
  bool changed = true;
  for (size_t round = 0; round + 1 < n && changed; ++round) {
    changed = false;
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] == kInfiniteCost) continue;
      for (const Arc& a : network.OutArcs(v)) {
        double nd = dist[v] + cost(a);
        if (nd < dist[a.node]) {
          dist[a.node] = nd;
          parent[a.node] = v;
          changed = true;
        }
      }
    }
  }
  if (dist[target] == kInfiniteCost) return result;
  result.cost = dist[target];
  NodeId v = target;
  while (v != kInvalidNode) {
    result.nodes.push_back(v);
    if (v == source) break;
    v = parent[v];
  }
  std::reverse(result.nodes.begin(), result.nodes.end());
  return result;
}

}  // namespace ecocharge
