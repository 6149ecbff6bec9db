#include "graph/road_network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace ecocharge {

double FreeFlowSpeed(RoadClass road_class) {
  switch (road_class) {
    case RoadClass::kHighway:
      return 120.0 / 3.6;  // 120 km/h
    case RoadClass::kArterial:
      return 60.0 / 3.6;  // 60 km/h
    case RoadClass::kLocal:
      return 30.0 / 3.6;  // 30 km/h
  }
  return 30.0 / 3.6;
}

Status ValidateGraphCounts(uint64_t num_nodes, uint64_t num_edges) {
  if (num_nodes > kMaxNodeCount) {
    return Status::InvalidArgument(
        "node count " + std::to_string(num_nodes) +
        " overflows 32-bit node ids (max " + std::to_string(kMaxNodeCount) +
        ")");
  }
  if (num_edges > kMaxEdgeCount) {
    return Status::InvalidArgument(
        "edge count " + std::to_string(num_edges) +
        " overflows 32-bit edge ids and CSR offsets (max " +
        std::to_string(kMaxEdgeCount) + ")");
  }
  return Status::OK();
}

namespace {

/// Heap-owned backing for built (non-mmap) networks; Views spans alias
/// these vectors and the shared_ptr keeps them alive.
struct OwnedArrays {
  std::vector<Point> positions;
  std::vector<uint32_t> out_offsets;
  std::vector<Arc> out_arcs;
  std::vector<uint32_t> in_offsets;
  std::vector<Arc> in_arcs;
  std::vector<uint32_t> locator_cell_offsets;
  std::vector<uint32_t> locator_cell_points;
};

/// Canonical adjacency order within one node's slot range: by target id,
/// then length, then class — a total order on the attributes, so the final
/// arrays do not depend on edge emission order.
bool ArcLess(const Arc& a, const Arc& b) {
  if (a.node != b.node) return a.node < b.node;
  if (a.length_m != b.length_m) return a.length_m < b.length_m;
  return static_cast<uint8_t>(a.road_class) < static_cast<uint8_t>(b.road_class);
}

struct LocatorShape {
  uint32_t nx = 1;
  uint32_t ny = 1;
  double cell_m = 1.0;
};

/// Sizes the uniform grid for ~4 nodes per cell, clamped so the cell table
/// never dwarfs the node array.
LocatorShape SizeLocator(const BoundingBox& bounds, size_t num_nodes) {
  LocatorShape shape;
  const double w = std::max(bounds.Width(), 0.0);
  const double h = std::max(bounds.Height(), 0.0);
  double cell;
  if (w > 0.0 && h > 0.0) {
    cell = std::sqrt(w * h * 4.0 / static_cast<double>(num_nodes));
  } else {
    cell = std::max({w, h, 1.0});
  }
  if (!(cell > 0.0)) cell = 1.0;
  auto dims_for = [&](double c) {
    uint64_t nx = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(w / c)));
    uint64_t ny = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(h / c)));
    return std::pair<uint64_t, uint64_t>(nx, ny);
  };
  auto [nx, ny] = dims_for(cell);
  // Extreme aspect ratios can blow up one dimension; grow the cell until
  // the table is proportional to the node count.
  while (nx * ny > 2 * static_cast<uint64_t>(num_nodes) + 64) {
    cell *= 2.0;
    std::tie(nx, ny) = dims_for(cell);
  }
  shape.nx = static_cast<uint32_t>(nx);
  shape.ny = static_cast<uint32_t>(ny);
  shape.cell_m = cell;
  return shape;
}

size_t LocatorCellOf(const Point& p, const BoundingBox& bounds,
                     const LocatorShape& shape) {
  auto clamp_axis = [](double value, uint32_t dim) {
    if (!(value > 0.0)) return uint32_t{0};
    uint32_t cell = static_cast<uint32_t>(value);
    return std::min(cell, dim - 1);
  };
  uint32_t ix = clamp_axis((p.x - bounds.min.x) / shape.cell_m, shape.nx);
  uint32_t iy = clamp_axis((p.y - bounds.min.y) / shape.cell_m, shape.ny);
  return static_cast<size_t>(iy) * shape.nx + ix;
}

/// Counting-sorts node ids by locator cell; within a cell ids stay
/// ascending (the scan order), which NearestNode's tie-break relies on.
void BuildLocator(const std::vector<Point>& positions,
                  const BoundingBox& bounds, const LocatorShape& shape,
                  std::vector<uint32_t>* cell_offsets,
                  std::vector<uint32_t>* cell_points) {
  const size_t cells = static_cast<size_t>(shape.nx) * shape.ny;
  cell_offsets->assign(cells + 1, 0);
  for (const Point& p : positions) {
    ++(*cell_offsets)[LocatorCellOf(p, bounds, shape) + 1];
  }
  for (size_t c = 0; c < cells; ++c) {
    (*cell_offsets)[c + 1] += (*cell_offsets)[c];
  }
  cell_points->resize(positions.size());
  std::vector<uint32_t> cursor(cell_offsets->begin(), cell_offsets->end() - 1);
  for (uint32_t v = 0; v < positions.size(); ++v) {
    (*cell_points)[cursor[LocatorCellOf(positions[v], bounds, shape)]++] = v;
  }
}

/// Completes a network whose forward CSR (positions, out_offsets, out_arcs)
/// is final: derives the backward stream, bounds, and node locator, then
/// wraps everything behind read-only views.
Result<std::shared_ptr<RoadNetwork>> FinishAssembly(
    std::shared_ptr<OwnedArrays> owned) {
  const size_t n = owned->positions.size();
  const size_t m = owned->out_arcs.size();

  // Sort each node's slot range into canonical adjacency order. Edge ids
  // are final after this point.
  for (size_t v = 0; v < n; ++v) {
    std::sort(owned->out_arcs.begin() + owned->out_offsets[v],
              owned->out_arcs.begin() + owned->out_offsets[v + 1], ArcLess);
  }

  // Backward stream, derived from the final forward stream. Scattering in
  // ascending (source, edge id) order leaves every in-list sorted by source
  // id with edge ids as the tie-break — no per-node sort needed.
  owned->in_offsets.assign(n + 1, 0);
  for (const Arc& a : owned->out_arcs) ++owned->in_offsets[a.node + 1];
  for (size_t v = 0; v < n; ++v) {
    owned->in_offsets[v + 1] += owned->in_offsets[v];
  }
  owned->in_arcs.resize(m);
  {
    std::vector<uint32_t> cursor(owned->in_offsets.begin(),
                                 owned->in_offsets.end() - 1);
    for (size_t v = 0; v < n; ++v) {
      for (uint32_t slot = owned->out_offsets[v];
           slot < owned->out_offsets[v + 1]; ++slot) {
        const Arc& a = owned->out_arcs[slot];
        owned->in_arcs[cursor[a.node]++] =
            Arc{static_cast<NodeId>(v), a.road_class, a.length_m};
      }
    }
  }

  BoundingBox bounds;
  for (const Point& p : owned->positions) bounds.Extend(p);
  LocatorShape shape = SizeLocator(bounds, n);
  BuildLocator(owned->positions, bounds, shape, &owned->locator_cell_offsets,
               &owned->locator_cell_points);

  RoadNetwork::Views views;
  views.positions = owned->positions;
  views.out_offsets = owned->out_offsets;
  views.out_arcs = owned->out_arcs;
  views.in_offsets = owned->in_offsets;
  views.in_arcs = owned->in_arcs;
  views.bounds = bounds;
  views.locator_nx = shape.nx;
  views.locator_ny = shape.ny;
  views.locator_cell_m = shape.cell_m;
  views.locator_cell_offsets = owned->locator_cell_offsets;
  views.locator_cell_points = owned->locator_cell_points;
  views.backing = std::move(owned);
  return RoadNetwork::FromViews(std::move(views));
}

bool OffsetsValid(std::span<const uint32_t> offsets, size_t total) {
  if (offsets.empty() || offsets.front() != 0) return false;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  return offsets.back() == total;
}

}  // namespace

Result<std::shared_ptr<RoadNetwork>> RoadNetwork::FromViews(Views views) {
  const size_t n = views.positions.size();
  const size_t m = views.out_arcs.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot build an empty road network");
  }
  ECOCHARGE_RETURN_NOT_OK(ValidateGraphCounts(n, m));
  if (views.out_offsets.size() != n + 1 || views.in_offsets.size() != n + 1) {
    return Status::InvalidArgument("CSR offset array size mismatch");
  }
  if (views.in_arcs.size() != m) {
    return Status::InvalidArgument("backward stream size mismatch");
  }
  if (!OffsetsValid(views.out_offsets, m) ||
      !OffsetsValid(views.in_offsets, m)) {
    return Status::InvalidArgument("CSR offsets are not monotone to the "
                                   "edge count");
  }
  const size_t cells =
      static_cast<size_t>(views.locator_nx) * views.locator_ny;
  if (cells == 0 || !(views.locator_cell_m > 0.0) ||
      views.locator_cell_offsets.size() != cells + 1 ||
      views.locator_cell_points.size() != n ||
      !OffsetsValid(views.locator_cell_offsets, n)) {
    return Status::InvalidArgument("node locator tables are inconsistent");
  }

  auto network = std::shared_ptr<RoadNetwork>(new RoadNetwork());
  network->positions_ = views.positions;
  network->out_offsets_ = views.out_offsets;
  network->out_arcs_ = views.out_arcs;
  network->in_offsets_ = views.in_offsets;
  network->in_arcs_ = views.in_arcs;
  network->bounds_ = views.bounds;
  network->locator_nx_ = views.locator_nx;
  network->locator_ny_ = views.locator_ny;
  network->locator_cell_m_ = views.locator_cell_m;
  network->locator_cell_offsets_ = views.locator_cell_offsets;
  network->locator_cell_points_ = views.locator_cell_points;
  network->backing_ = std::move(views.backing);
  return network;
}

NodeId RoadNetwork::NearestNode(const Point& p) const {
  if (NumNodes() == 0) return kInvalidNode;
  const int64_t nx = locator_nx_;
  const int64_t ny = locator_ny_;
  const double cell = locator_cell_m_;
  auto clamp_axis = [](double value, int64_t dim) {
    if (!(value > 0.0)) return int64_t{0};
    return std::min(static_cast<int64_t>(value), dim - 1);
  };
  const int64_t cx = clamp_axis((p.x - bounds_.min.x) / cell, nx);
  const int64_t cy = clamp_axis((p.y - bounds_.min.y) / cell, ny);

  double best_d2 = std::numeric_limits<double>::infinity();
  NodeId best = kInvalidNode;
  auto scan_cell = [&](int64_t ix, int64_t iy) {
    if (ix < 0 || iy < 0 || ix >= nx || iy >= ny) return;
    const size_t c = static_cast<size_t>(iy) * nx + ix;
    for (uint32_t i = locator_cell_offsets_[c];
         i < locator_cell_offsets_[c + 1]; ++i) {
      const NodeId v = locator_cell_points_[i];
      const double dx = positions_[v].x - p.x;
      const double dy = positions_[v].y - p.y;
      const double d2 = dx * dx + dy * dy;
      if (d2 < best_d2 || (d2 == best_d2 && v < best)) {
        best_d2 = d2;
        best = v;
      }
    }
  };

  // Expanding ring search. Any node in a cell at Chebyshev ring k lies at
  // least (k-1) cells away from p, so once the best distance beats that
  // bound the search is exact.
  const int64_t max_ring = std::max(nx, ny);
  for (int64_t k = 0; k <= max_ring; ++k) {
    if (best != kInvalidNode) {
      const double bound = static_cast<double>(k - 1) * cell;
      if (bound > 0.0 && bound * bound > best_d2) break;
    }
    if (k == 0) {
      scan_cell(cx, cy);
      continue;
    }
    for (int64_t ix = cx - k; ix <= cx + k; ++ix) {
      scan_cell(ix, cy - k);
      scan_cell(ix, cy + k);
    }
    for (int64_t iy = cy - k + 1; iy <= cy + k - 1; ++iy) {
      scan_cell(cx - k, iy);
      scan_cell(cx + k, iy);
    }
  }
  return best;
}

bool RoadNetwork::IsStronglyConnected() const {
  if (NumNodes() == 0) return false;
  // Forward and backward BFS from node 0 must both cover all nodes.
  auto bfs = [this](bool forward) {
    std::vector<char> seen(NumNodes(), 0);
    std::vector<NodeId> queue = {0};
    seen[0] = 1;
    size_t count = 1;
    while (!queue.empty()) {
      NodeId v = queue.back();
      queue.pop_back();
      auto arcs = forward ? OutArcs(v) : InArcs(v);
      for (const Arc& a : arcs) {
        if (!seen[a.node]) {
          seen[a.node] = 1;
          ++count;
          queue.push_back(a.node);
        }
      }
    }
    return count == NumNodes();
  };
  return bfs(true) && bfs(false);
}

NodeId GraphBuilder::AddNode(const Point& position) {
  positions_.push_back(position);
  return static_cast<NodeId>(positions_.size() - 1);
}

Status GraphBuilder::AddEdge(NodeId from, NodeId to, RoadClass road_class,
                             double length_m) {
  if (from >= positions_.size() || to >= positions_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (from == to) {
    return Status::InvalidArgument("self-loop edges are not allowed");
  }
  Edge e;
  e.from = from;
  e.to = to;
  e.road_class = road_class;
  e.length_m =
      length_m >= 0.0 ? length_m : Distance(positions_[from], positions_[to]);
  if (e.length_m <= 0.0) {
    // Coincident nodes: give the edge a tiny positive length so Dijkstra's
    // non-negativity and strict-progress assumptions hold.
    e.length_m = 0.1;
  }
  edges_.push_back(e);
  return Status::OK();
}

Status GraphBuilder::AddBidirectional(NodeId a, NodeId b, RoadClass road_class,
                                      double length_m) {
  ECOCHARGE_RETURN_NOT_OK(AddEdge(a, b, road_class, length_m));
  return AddEdge(b, a, road_class, length_m);
}

Result<std::shared_ptr<RoadNetwork>> GraphBuilder::Build() {
  if (positions_.empty()) {
    return Status::InvalidArgument("cannot build an empty road network");
  }
  ECOCHARGE_RETURN_NOT_OK(
      ValidateGraphCounts(positions_.size(), edges_.size()));
  auto owned = std::make_shared<OwnedArrays>();
  owned->positions = positions_;

  const size_t n = positions_.size();
  owned->out_offsets.assign(n + 1, 0);
  for (const Edge& e : edges_) ++owned->out_offsets[e.from + 1];
  for (size_t v = 0; v < n; ++v) {
    owned->out_offsets[v + 1] += owned->out_offsets[v];
  }
  owned->out_arcs.resize(edges_.size());
  {
    std::vector<uint32_t> cursor(owned->out_offsets.begin(),
                                 owned->out_offsets.end() - 1);
    for (const Edge& e : edges_) {
      owned->out_arcs[cursor[e.from]++] = Arc{e.to, e.road_class, e.length_m};
    }
  }
  return FinishAssembly(std::move(owned));
}

namespace {

/// Pass-1 sink: validates endpoints and tallies out-degrees.
class CountingSink : public EdgeSink {
 public:
  CountingSink(size_t num_nodes, std::vector<uint32_t>* degree)
      : num_nodes_(num_nodes), degree_(degree) {}

  void Directed(NodeId from, NodeId to, RoadClass /*road_class*/,
                double /*length_m*/) override {
    if (!status_.ok()) return;
    if (from >= num_nodes_ || to >= num_nodes_) {
      status_ = Status::InvalidArgument("edge endpoint out of range");
      return;
    }
    if (from == to) {
      status_ = Status::InvalidArgument("self-loop edges are not allowed");
      return;
    }
    ++(*degree_)[from];
    ++total_;
  }

  const Status& status() const { return status_; }
  uint64_t total() const { return total_; }

 private:
  size_t num_nodes_;
  std::vector<uint32_t>* degree_;
  uint64_t total_ = 0;
  Status status_ = Status::OK();
};

/// Pass-2 sink: scatters arcs into their final forward-CSR slots.
class ScatterSink : public EdgeSink {
 public:
  ScatterSink(const OwnedArrays& owned, std::vector<uint32_t>* cursor,
              std::vector<Arc>* arcs)
      : owned_(owned), cursor_(cursor), arcs_(arcs) {}

  void Directed(NodeId from, NodeId to, RoadClass road_class,
                double length_m) override {
    if (!status_.ok()) return;
    if (from >= owned_.positions.size() || to >= owned_.positions.size() ||
        from == to || (*cursor_)[from] >= owned_.out_offsets[from + 1]) {
      status_ = Status::Internal(
          "chunked source emitted different edges across passes");
      return;
    }
    double len = length_m >= 0.0
                     ? length_m
                     : Distance(owned_.positions[from], owned_.positions[to]);
    if (len <= 0.0) len = 0.1;
    (*arcs_)[(*cursor_)[from]++] = Arc{to, road_class, len};
  }

  const Status& status() const { return status_; }

 private:
  const OwnedArrays& owned_;
  std::vector<uint32_t>* cursor_;
  std::vector<Arc>* arcs_;
  Status status_ = Status::OK();
};

}  // namespace

Result<std::shared_ptr<RoadNetwork>> BuildFromChunkedSource(
    const ChunkedEdgeSource& source) {
  const uint64_t n64 = source.NumNodes();
  if (n64 == 0) {
    return Status::InvalidArgument("cannot build an empty road network");
  }
  ECOCHARGE_RETURN_NOT_OK(ValidateGraphCounts(n64, 0));
  const size_t n = static_cast<size_t>(n64);
  const uint64_t chunks = std::max<uint64_t>(1, source.NumChunks());

  auto owned = std::make_shared<OwnedArrays>();
  owned->positions.resize(n);
  for (size_t v = 0; v < n; ++v) {
    owned->positions[v] = source.NodePosition(static_cast<NodeId>(v));
  }

  // Pass 1: count out-degrees chunk by chunk (no edge is stored).
  std::vector<uint32_t> degree(n, 0);
  CountingSink counter(n, &degree);
  for (uint64_t c = 0; c < chunks; ++c) source.EmitEdges(c, counter);
  ECOCHARGE_RETURN_NOT_OK(counter.status());
  ECOCHARGE_RETURN_NOT_OK(ValidateGraphCounts(n64, counter.total()));

  owned->out_offsets.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    owned->out_offsets[v + 1] = owned->out_offsets[v] + degree[v];
  }
  degree.clear();
  degree.shrink_to_fit();
  owned->out_arcs.resize(static_cast<size_t>(counter.total()));

  // Pass 2: replay the chunks, scattering each arc straight into its slot.
  {
    std::vector<uint32_t> cursor(owned->out_offsets.begin(),
                                 owned->out_offsets.end() - 1);
    ScatterSink scatter(*owned, &cursor, &owned->out_arcs);
    for (uint64_t c = 0; c < chunks; ++c) source.EmitEdges(c, scatter);
    ECOCHARGE_RETURN_NOT_OK(scatter.status());
    for (size_t v = 0; v < n; ++v) {
      if (cursor[v] != owned->out_offsets[v + 1]) {
        return Status::Internal(
            "chunked source emitted different edges across passes");
      }
    }
  }
  return FinishAssembly(std::move(owned));
}

}  // namespace ecocharge
