#include "ch/contraction.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

namespace ecocharge {

namespace {

/// Leaf size of the nested-dissection recursion; cells at or below this
/// size are ordered purely by the greedy heuristic.
constexpr size_t kNdLeafSize = 64;

/// Above this many in x out pairs the fill term of the priority is
/// approximated by the pair count itself (a clique-regime upper bound)
/// instead of enumerated — the exact edge difference stops mattering once a
/// separator has collapsed into a near-clique, while enumerating it would
/// make every lazy-queue pop quadratic.
constexpr size_t kFillCountCap = 4096;

/// Priority distance between adjacent dissection levels. Must exceed any
/// greedy priority magnitude (bounded by a few times the largest clique's
/// pair count) so the dissection order is strict.
constexpr double kNdLevelBias = 1.0e9;

/// \brief Geometric nested dissection: depth[v] = recursion depth at which
/// v joined a separator (leaf cells share their cell's depth).
///
/// Recursive median bisection on the wider bounding-box axis; the
/// separator is the set of left-half nodes with an arc into the right half
/// (either direction), which disconnects the remainder. Deeper nodes are
/// contracted first, so separators rise to the top of the hierarchy and
/// fill-in stays confined to cells — the planar-graph guarantee the greedy
/// edge-difference order alone cannot give (its fill grows like a clique on
/// grid-like networks).
std::vector<uint32_t> NdDepths(const RoadNetwork& net, uint32_t* max_depth) {
  const size_t n = net.NumNodes();
  std::vector<uint32_t> depth(n, 0);
  std::vector<uint32_t> side(n, 0);
  uint32_t stamp = 0;
  *max_depth = 0;

  struct Task {
    std::vector<NodeId> nodes;
    uint32_t d;
  };
  std::vector<Task> stack;
  Task root;
  root.nodes.resize(n);
  std::iota(root.nodes.begin(), root.nodes.end(), NodeId{0});
  root.d = 0;
  stack.push_back(std::move(root));

  while (!stack.empty()) {
    Task t = std::move(stack.back());
    stack.pop_back();
    *max_depth = std::max(*max_depth, t.d);
    if (t.nodes.size() <= kNdLeafSize) {
      for (NodeId v : t.nodes) depth[v] = t.d;
      continue;
    }
    double minx = std::numeric_limits<double>::infinity(), maxx = -minx;
    double miny = minx, maxy = maxx;
    for (NodeId v : t.nodes) {
      const Point& p = net.NodePosition(v);
      minx = std::min(minx, p.x);
      maxx = std::max(maxx, p.x);
      miny = std::min(miny, p.y);
      maxy = std::max(maxy, p.y);
    }
    const bool split_x = (maxx - minx) >= (maxy - miny);
    const auto coord = [&](NodeId v) {
      const Point& p = net.NodePosition(v);
      return split_x ? p.x : p.y;
    };
    const size_t mid = t.nodes.size() / 2;
    std::nth_element(t.nodes.begin(), t.nodes.begin() + mid, t.nodes.end(),
                     [&](NodeId a, NodeId b) {
                       const double ca = coord(a), cb = coord(b);
                       if (ca != cb) return ca < cb;
                       return a < b;  // deterministic on coordinate ties
                     });
    const uint32_t right_stamp = ++stamp;
    for (size_t i = mid; i < t.nodes.size(); ++i) side[t.nodes[i]] = right_stamp;

    Task left{{}, t.d + 1}, right{{}, t.d + 1};
    right.nodes.assign(t.nodes.begin() + mid, t.nodes.end());
    for (size_t i = 0; i < mid; ++i) {
      const NodeId v = t.nodes[i];
      bool crossing = false;
      for (const Arc& a : net.OutArcs(v)) {
        if (side[a.node] == right_stamp) {
          crossing = true;
          break;
        }
      }
      if (!crossing) {
        for (const Arc& a : net.InArcs(v)) {
          if (side[a.node] == right_stamp) {
            crossing = true;
            break;
          }
        }
      }
      if (crossing) {
        depth[v] = t.d;  // separator: highest ranks of this cell
      } else {
        left.nodes.push_back(v);
      }
    }
    stack.push_back(std::move(left));
    stack.push_back(std::move(right));
  }
  return depth;
}

/// Mutable contraction state. The elimination works on the simple directed
/// graph (one entry per ordered node pair): per-node sorted neighbor-id
/// vectors are the core adjacency, fill-in pairs are appended to a flat
/// list, and nothing is ever removed — contracted endpoints are filtered on
/// iteration, and every arc (original or fill) survives into the final
/// hierarchy so the triangle closure holds.
class Contractor {
 public:
  Contractor(const RoadNetwork& network, ChBuildStats* stats)
      : net_(network), stats_(stats) {}

  Result<std::shared_ptr<ChIndex>> Run();

 private:
  struct HeapEntry {
    double priority;
    NodeId node;
  };
  static bool Later(const HeapEntry& a, const HeapEntry& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.node > b.node;  // deterministic tie-break
  }

  void SeedAdjacency();
  void GatherLive(NodeId x);
  double Priority(NodeId x);
  void Contract(NodeId x);
  Result<std::shared_ptr<ChIndex>> Finalize();

  static bool Contains(const std::vector<NodeId>& sorted, NodeId v) {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
    return it != sorted.end() && *it == v;
  }
  static void Insert(std::vector<NodeId>& sorted, NodeId v) {
    sorted.insert(std::lower_bound(sorted.begin(), sorted.end(), v), v);
  }

  const RoadNetwork& net_;
  ChBuildStats* stats_;

  std::vector<std::vector<NodeId>> out_;  // sorted, unique, grows only
  std::vector<std::vector<NodeId>> in_;
  std::vector<uint8_t> contracted_;
  std::vector<uint32_t> rank_;
  std::vector<uint32_t> del_neighbors_;
  std::vector<uint32_t> nd_depth_;
  uint32_t nd_max_depth_ = 0;
  uint32_t next_rank_ = 0;

  // Fill-in pairs in creation order (tail, head), emitted as shortcut arcs.
  std::vector<NodeId> fill_tail_;
  std::vector<NodeId> fill_head_;

  // GatherLive() scratch.
  std::vector<NodeId> live_ins_;
  std::vector<NodeId> live_outs_;
};

void Contractor::SeedAdjacency() {
  const size_t n = net_.NumNodes();
  out_.resize(n);
  in_.resize(n);
  contracted_.assign(n, 0);
  rank_.assign(n, 0);
  del_neighbors_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const Arc& a : net_.OutArcs(v)) {
      if (a.node == v) continue;  // self-loops never lie on shortest paths
      out_[v].push_back(a.node);
      in_[a.node].push_back(v);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    std::sort(out_[v].begin(), out_[v].end());
    out_[v].erase(std::unique(out_[v].begin(), out_[v].end()), out_[v].end());
    std::sort(in_[v].begin(), in_[v].end());
    in_[v].erase(std::unique(in_[v].begin(), in_[v].end()), in_[v].end());
  }
}

void Contractor::GatherLive(NodeId x) {
  live_ins_.clear();
  live_outs_.clear();
  for (NodeId u : in_[x]) {
    if (contracted_[u] == 0) live_ins_.push_back(u);
  }
  for (NodeId v : out_[x]) {
    if (contracted_[v] == 0) live_outs_.push_back(v);
  }
}

double Contractor::Priority(NodeId x) {
  GatherLive(x);
  const size_t removed = live_ins_.size() + live_outs_.size();
  const size_t pairs = live_ins_.size() * live_outs_.size();
  size_t fill;
  if (pairs > kFillCountCap) {
    fill = pairs;  // clique regime: the upper bound orders just as well
  } else {
    fill = 0;
    for (NodeId u : live_ins_) {
      for (NodeId v : live_outs_) {
        if (v != u && !Contains(out_[u], v)) ++fill;
      }
    }
  }
  const double greedy = 2.0 * (static_cast<double>(fill) -
                               static_cast<double>(removed)) +
                        static_cast<double>(del_neighbors_[x]);
  // Strict dissection-level separation: deeper cells contract first.
  return greedy +
         kNdLevelBias * static_cast<double>(nd_max_depth_ - nd_depth_[x]);
}

void Contractor::Contract(NodeId x) {
  // GatherLive(x) just ran inside the Priority() call that won the queue.
  for (NodeId u : live_ins_) {
    for (NodeId v : live_outs_) {
      if (v == u || Contains(out_[u], v)) continue;
      Insert(out_[u], v);
      Insert(in_[v], u);
      fill_tail_.push_back(u);
      fill_head_.push_back(v);
      if (stats_ != nullptr) ++stats_->shortcuts;
    }
  }
  contracted_[x] = 1;
  rank_[x] = next_rank_++;
  // Deleted-neighbor heuristic: every still-live neighbor loses x.
  for (NodeId u : live_ins_) ++del_neighbors_[u];
  for (NodeId v : live_outs_) ++del_neighbors_[v];
}

Result<std::shared_ptr<ChIndex>> Contractor::Finalize() {
  const size_t n = net_.NumNodes();
  struct Owned {
    std::vector<uint32_t> rank, up_offsets, down_offsets;
    std::vector<ChArc> up_arcs, down_arcs;
  };
  auto owned = std::make_shared<Owned>();
  owned->rank = std::move(rank_);
  owned->up_offsets.assign(n + 1, 0);
  owned->down_offsets.assign(n + 1, 0);

  // Pass 1: per-node degrees. An arc climbs the hierarchy (up CSR at its
  // tail) or descends (down CSR at its head); ranks are distinct, so every
  // arc lands in exactly one array. Parallel original arcs all survive.
  auto count_arc = [&](NodeId from, NodeId to) {
    if (owned->rank[from] < owned->rank[to]) {
      ++owned->up_offsets[from + 1];
    } else {
      ++owned->down_offsets[to + 1];
    }
  };
  for (NodeId v = 0; v < n; ++v) {
    for (const Arc& a : net_.OutArcs(v)) {
      if (a.node != v) count_arc(v, a.node);
    }
  }
  for (size_t i = 0; i < fill_tail_.size(); ++i) {
    count_arc(fill_tail_[i], fill_head_[i]);
  }
  for (size_t v = 0; v < n; ++v) {
    owned->up_offsets[v + 1] += owned->up_offsets[v];
    owned->down_offsets[v + 1] += owned->down_offsets[v];
  }
  owned->up_arcs.resize(owned->up_offsets[n]);
  owned->down_arcs.resize(owned->down_offsets[n]);

  // Pass 2: scatter the records through per-row cursors.
  std::vector<uint32_t> up_cursor(owned->up_offsets.begin(),
                                  owned->up_offsets.end() - 1);
  std::vector<uint32_t> down_cursor(owned->down_offsets.begin(),
                                    owned->down_offsets.end() - 1);
  auto place_arc = [&](NodeId from, NodeId to, ChArc rec) {
    if (owned->rank[from] < owned->rank[to]) {
      rec.node = to;
      owned->up_arcs[up_cursor[from]++] = rec;
    } else {
      rec.node = from;  // backward search walks head -> tail
      owned->down_arcs[down_cursor[to]++] = rec;
    }
  };
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId first = net_.FirstOutEdge(v);
    const auto arcs = net_.OutArcs(v);
    for (size_t i = 0; i < arcs.size(); ++i) {
      const Arc& a = arcs[i];
      if (a.node == v) continue;
      ChArc rec{};
      rec.orig = first + static_cast<EdgeId>(i);
      rec.len[static_cast<int>(a.road_class)] = a.length_m;
      place_arc(v, a.node, rec);
    }
  }
  for (size_t i = 0; i < fill_tail_.size(); ++i) {
    ChArc rec{};  // orig = kChShortcutEdge, len = 0: no static weight
    place_arc(fill_tail_[i], fill_head_[i], rec);
  }

  // Pass 3: sort each row by far endpoint (parallel originals by EdgeId),
  // the order ChIndex::FromViews checks.
  auto row_order = [](const ChArc& a, const ChArc& b) {
    if (a.node != b.node) return a.node < b.node;
    return a.orig < b.orig;
  };
  for (size_t v = 0; v < n; ++v) {
    std::sort(owned->up_arcs.begin() + owned->up_offsets[v],
              owned->up_arcs.begin() + owned->up_offsets[v + 1], row_order);
    std::sort(owned->down_arcs.begin() + owned->down_offsets[v],
              owned->down_arcs.begin() + owned->down_offsets[v + 1], row_order);
  }

  ChIndex::Views views;
  views.rank = owned->rank;
  views.up_offsets = owned->up_offsets;
  views.up_arcs = owned->up_arcs;
  views.down_offsets = owned->down_offsets;
  views.down_arcs = owned->down_arcs;
  views.backing = owned;
  return ChIndex::FromViews(views, net_.NumEdges());
}

Result<std::shared_ptr<ChIndex>> Contractor::Run() {
  const size_t n = net_.NumNodes();
  if (n == 0) return Status::InvalidArgument("cannot contract an empty graph");
  SeedAdjacency();
  nd_depth_ = NdDepths(net_, &nd_max_depth_);

  std::vector<HeapEntry> heap;
  heap.reserve(n);
  for (NodeId v = 0; v < n; ++v) heap.push_back({Priority(v), v});
  std::make_heap(heap.begin(), heap.end(), Later);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), Later);
    const NodeId x = heap.back().node;
    heap.pop_back();
    if (contracted_[x] != 0) continue;
    // Lazy update: neighbors contracted since this entry was pushed may
    // have changed x's priority. Recompute; reinsert unless it still wins.
    const double p = Priority(x);
    if (!heap.empty() && p > heap.front().priority) {
      heap.push_back({p, x});
      std::push_heap(heap.begin(), heap.end(), Later);
      continue;
    }
    Contract(x);  // consumes the live lists Priority() just gathered
  }
  return Finalize();
}

}  // namespace

Result<std::shared_ptr<ChIndex>> BuildChIndex(const RoadNetwork& network,
                                              ChBuildStats* stats) {
  if (stats != nullptr) *stats = ChBuildStats{};
  Contractor contractor(network, stats);
  return contractor.Run();
}

}  // namespace ecocharge
