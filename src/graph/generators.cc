#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "spatial/quadtree.h"

namespace ecocharge {

namespace {

/// Union-find used to patch disconnected components.
class DisjointSet {
 public:
  explicit DisjointSet(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<size_t> parent_;
};

struct PendingEdge {
  NodeId a;
  NodeId b;
  RoadClass road_class;
};

/// Adds edges joining components until one component remains: repeatedly
/// connects each minor component's node to its nearest node in a different
/// component (via a quadtree over all nodes).
void PatchConnectivity(const std::vector<Point>& positions,
                       std::vector<PendingEdge>& edges) {
  DisjointSet ds(positions.size());
  for (const PendingEdge& e : edges) ds.Union(e.a, e.b);

  QuadTree tree;
  tree.Build(positions);
  bool merged = true;
  while (merged) {
    merged = false;
    // Group nodes by component root.
    std::vector<size_t> root(positions.size());
    size_t first_root = ds.Find(0);
    bool multiple = false;
    for (size_t i = 0; i < positions.size(); ++i) {
      root[i] = ds.Find(i);
      if (root[i] != first_root) multiple = true;
    }
    if (!multiple) break;
    // For the first node found in a non-primary component, link it to its
    // nearest foreign neighbor.
    for (size_t i = 0; i < positions.size(); ++i) {
      if (root[i] == first_root) continue;
      std::vector<Neighbor> nn =
          tree.Knn(positions[i], std::min<size_t>(positions.size(), 16));
      for (const Neighbor& cand : nn) {
        if (ds.Find(cand.id) != root[i]) {
          edges.push_back({static_cast<NodeId>(i), cand.id,
                           RoadClass::kArterial});
          ds.Union(i, cand.id);
          merged = true;
          break;
        }
      }
      if (merged) break;
    }
    if (!merged) {
      // Fallback: directly join to node 0 (possible when the 16-NN
      // neighborhood is entirely same-component).
      for (size_t i = 0; i < positions.size(); ++i) {
        if (ds.Find(i) != first_root) {
          edges.push_back({static_cast<NodeId>(i), 0, RoadClass::kArterial});
          ds.Union(i, 0);
          merged = true;
          break;
        }
      }
    }
  }
}

Result<std::shared_ptr<RoadNetwork>> BuildFrom(
    const std::vector<Point>& positions, std::vector<PendingEdge> edges) {
  PatchConnectivity(positions, edges);
  GraphBuilder builder;
  for (const Point& p : positions) builder.AddNode(p);
  for (const PendingEdge& e : edges) {
    ECOCHARGE_RETURN_NOT_OK(builder.AddBidirectional(e.a, e.b, e.road_class));
  }
  return builder.Build();
}

}  // namespace

Result<std::shared_ptr<RoadNetwork>> MakeGridNetwork(
    const GridNetworkOptions& options) {
  if (options.nx < 2 || options.ny < 2) {
    return Status::InvalidArgument("grid needs at least 2x2 nodes");
  }
  if (options.spacing_m <= 0.0) {
    return Status::InvalidArgument("spacing must be positive");
  }
  Rng rng(options.seed);
  std::vector<Point> positions;
  positions.reserve(static_cast<size_t>(options.nx) * options.ny);
  double jitter = options.spacing_m * options.jitter_fraction;
  for (int y = 0; y < options.ny; ++y) {
    for (int x = 0; x < options.nx; ++x) {
      positions.push_back(Point{x * options.spacing_m +
                                    rng.NextDouble(-jitter, jitter),
                                y * options.spacing_m +
                                    rng.NextDouble(-jitter, jitter)});
    }
  }
  auto node_at = [&](int x, int y) {
    return static_cast<NodeId>(y * options.nx + x);
  };
  auto line_class = [&](int index, int center) {
    if (index == center) return RoadClass::kHighway;
    if (options.arterial_every > 0 && index % options.arterial_every == 0) {
      return RoadClass::kArterial;
    }
    return RoadClass::kLocal;
  };
  std::vector<PendingEdge> edges;
  for (int y = 0; y < options.ny; ++y) {
    RoadClass row_class = line_class(y, options.ny / 2);
    for (int x = 0; x + 1 < options.nx; ++x) {
      edges.push_back({node_at(x, y), node_at(x + 1, y), row_class});
    }
  }
  for (int x = 0; x < options.nx; ++x) {
    RoadClass col_class = line_class(x, options.nx / 2);
    for (int y = 0; y + 1 < options.ny; ++y) {
      edges.push_back({node_at(x, y), node_at(x, y + 1), col_class});
    }
  }
  return BuildFrom(positions, std::move(edges));
}

Result<std::shared_ptr<RoadNetwork>> MakeRadialCity(
    const RadialCityOptions& options) {
  if (options.rings < 1 || options.spokes < 3) {
    return Status::InvalidArgument("need >=1 ring and >=3 spokes");
  }
  Rng rng(options.seed);
  std::vector<Point> positions;
  positions.push_back(Point{0.0, 0.0});  // center
  auto ring_node = [&](int ring, int spoke) {
    // Rings are 1-based; node ids: 1 + (ring-1)*spokes + spoke.
    return static_cast<NodeId>(1 + (ring - 1) * options.spokes + spoke);
  };
  double jitter = options.ring_spacing_m * options.jitter_fraction;
  for (int ring = 1; ring <= options.rings; ++ring) {
    double radius = ring * options.ring_spacing_m;
    for (int spoke = 0; spoke < options.spokes; ++spoke) {
      double angle = 2.0 * M_PI * spoke / options.spokes;
      positions.push_back(
          Point{radius * std::cos(angle) + rng.NextDouble(-jitter, jitter),
                radius * std::sin(angle) + rng.NextDouble(-jitter, jitter)});
    }
  }
  std::vector<PendingEdge> edges;
  // Radial spokes: center -> ring1, ring_i -> ring_{i+1}. Inner radials are
  // arterials, the outermost ring connector stays arterial, spokes 0 and
  // spokes/2 form a highway axis.
  for (int spoke = 0; spoke < options.spokes; ++spoke) {
    RoadClass rc = (spoke == 0 || spoke == options.spokes / 2)
                       ? RoadClass::kHighway
                       : RoadClass::kArterial;
    edges.push_back({0, ring_node(1, spoke), rc});
    for (int ring = 1; ring < options.rings; ++ring) {
      edges.push_back({ring_node(ring, spoke), ring_node(ring + 1, spoke), rc});
    }
  }
  // Ring roads: local except the middle ring (arterial ring road).
  for (int ring = 1; ring <= options.rings; ++ring) {
    RoadClass rc = ring == (options.rings + 1) / 2 ? RoadClass::kArterial
                                                   : RoadClass::kLocal;
    for (int spoke = 0; spoke < options.spokes; ++spoke) {
      edges.push_back({ring_node(ring, spoke),
                       ring_node(ring, (spoke + 1) % options.spokes), rc});
    }
  }
  return BuildFrom(positions, std::move(edges));
}

Result<std::shared_ptr<RoadNetwork>> MakeRandomGeometric(
    const RandomGeometricOptions& options) {
  if (options.num_nodes < 2) {
    return Status::InvalidArgument("need at least 2 nodes");
  }
  if (options.k_nearest < 1) {
    return Status::InvalidArgument("k_nearest must be >= 1");
  }
  Rng rng(options.seed);
  std::vector<Point> positions;
  positions.reserve(options.num_nodes);
  for (size_t i = 0; i < options.num_nodes; ++i) {
    positions.push_back(Point{rng.NextDouble(0.0, options.width_m),
                              rng.NextDouble(0.0, options.height_m)});
  }
  QuadTree tree;
  tree.Build(positions);
  // Every node links to its k nearest neighbours, whichever id is lower.
  // Links are collected as undirected pairs (lower id first) and a pair
  // both endpoints chose becomes one road, arterial when it is either
  // endpoint's nearest neighbour (kArterial sorts before kLocal, and
  // std::unique keeps the first of a run).
  std::vector<PendingEdge> edges;
  for (size_t i = 0; i < positions.size(); ++i) {
    std::vector<Neighbor> nn = tree.Knn(
        positions[i], static_cast<size_t>(options.k_nearest) + 1);
    const NodeId self = static_cast<NodeId>(i);
    int linked = 0;
    for (const Neighbor& cand : nn) {
      if (cand.id == self) continue;
      RoadClass rc = linked == 0 ? RoadClass::kArterial : RoadClass::kLocal;
      edges.push_back(
          {std::min(self, cand.id), std::max(self, cand.id), rc});
      if (++linked >= options.k_nearest) break;
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const PendingEdge& x, const PendingEdge& y) {
              return std::tie(x.a, x.b, x.road_class) <
                     std::tie(y.a, y.b, y.road_class);
            });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const PendingEdge& x, const PendingEdge& y) {
                            return x.a == y.a && x.b == y.b;
                          }),
              edges.end());
  return BuildFrom(positions, std::move(edges));
}

Result<std::shared_ptr<RoadNetwork>> MakeCorridorRegion(
    const CorridorRegionOptions& options) {
  if (options.num_cities < 1) {
    return Status::InvalidArgument("need at least one city");
  }
  Rng rng(options.seed);
  std::vector<Point> positions;
  std::vector<PendingEdge> edges;
  std::vector<NodeId> city_centers;

  for (int city = 0; city < options.num_cities; ++city) {
    double cx = rng.NextDouble(0.1, 0.9) * options.region_width_m;
    double cy = rng.NextDouble(0.1, 0.9) * options.region_height_m;
    NodeId base = static_cast<NodeId>(positions.size());
    double jitter = options.city_spacing_m * 0.15;
    for (int y = 0; y < options.city_ny; ++y) {
      for (int x = 0; x < options.city_nx; ++x) {
        positions.push_back(Point{
            cx + (x - options.city_nx / 2) * options.city_spacing_m +
                rng.NextDouble(-jitter, jitter),
            cy + (y - options.city_ny / 2) * options.city_spacing_m +
                rng.NextDouble(-jitter, jitter)});
      }
    }
    auto node_at = [&](int x, int y) {
      return static_cast<NodeId>(base + y * options.city_nx + x);
    };
    for (int y = 0; y < options.city_ny; ++y) {
      RoadClass rc = y == options.city_ny / 2 ? RoadClass::kArterial
                                              : RoadClass::kLocal;
      for (int x = 0; x + 1 < options.city_nx; ++x) {
        edges.push_back({node_at(x, y), node_at(x + 1, y), rc});
      }
    }
    for (int x = 0; x < options.city_nx; ++x) {
      RoadClass rc = x == options.city_nx / 2 ? RoadClass::kArterial
                                              : RoadClass::kLocal;
      for (int y = 0; y + 1 < options.city_ny; ++y) {
        edges.push_back({node_at(x, y), node_at(x, y + 1), rc});
      }
    }
    city_centers.push_back(
        node_at(options.city_nx / 2, options.city_ny / 2));
  }

  // Highway corridors: chain cities in x-order, with waypoint nodes every
  // ~10 km so trajectories can follow the corridor smoothly.
  std::vector<size_t> order(city_centers.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return positions[city_centers[a]].x < positions[city_centers[b]].x;
  });
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    NodeId from = city_centers[order[i]];
    NodeId to = city_centers[order[i + 1]];
    Point a = positions[from];
    Point b = positions[to];
    double dist = Distance(a, b);
    int hops = std::max(1, static_cast<int>(dist / 10000.0));
    NodeId prev = from;
    for (int h = 1; h < hops; ++h) {
      double t = static_cast<double>(h) / hops;
      Point mid = a + (b - a) * t;
      mid.y += rng.NextGaussian(0.0, dist * 0.01);
      NodeId wp = static_cast<NodeId>(positions.size());
      positions.push_back(mid);
      edges.push_back({prev, wp, RoadClass::kHighway});
      prev = wp;
    }
    edges.push_back({prev, to, RoadClass::kHighway});
  }
  return BuildFrom(positions, std::move(edges));
}

// ---------------------------------------------------------------------------
// Streaming generators.
// ---------------------------------------------------------------------------

namespace {

/// SplitMix64-style mix over (seed, a, b). Per-node randomness must be a
/// pure function of the node id so positions and edges are identical for
/// any chunk partition; a sequential Rng would tie the output to emission
/// order.
uint64_t Hash64(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed + (a + 1) * 0x9E3779B97F4A7C15ull +
               (b + 1) * 0xD1B54A32D192ED03ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Uniform in [0, 1).
double HashUnit(uint64_t seed, uint64_t a, uint64_t b) {
  return static_cast<double>(Hash64(seed, a, b) >> 11) * 0x1.0p-53;
}

class StreamingGridSource : public ChunkedEdgeSource {
 public:
  explicit StreamingGridSource(const StreamingGridOptions& o) : o_(o) {
    chunks_ = std::clamp<uint64_t>(o.num_chunks, 1, o.ny);
  }

  uint64_t NumNodes() const override { return o_.nx * o_.ny; }
  uint64_t NumChunks() const override { return chunks_; }

  Point NodePosition(NodeId v) const override {
    uint64_t x = v % o_.nx;
    uint64_t y = v / o_.nx;
    double jitter = o_.spacing_m * o_.jitter_fraction;
    return Point{
        x * o_.spacing_m + (2.0 * HashUnit(o_.seed, v, 0) - 1.0) * jitter,
        y * o_.spacing_m + (2.0 * HashUnit(o_.seed, v, 1) - 1.0) * jitter};
  }

  void EmitEdges(uint64_t chunk, EdgeSink& sink) const override {
    // Chunk = a range of rows; each row owns its horizontal edges and the
    // vertical edges up to the next row, so every edge has one owner.
    uint64_t y0 = chunk * o_.ny / chunks_;
    uint64_t y1 = (chunk + 1) * o_.ny / chunks_;
    for (uint64_t y = y0; y < y1; ++y) {
      RoadClass row_class = LineClass(y, o_.ny / 2);
      for (uint64_t x = 0; x + 1 < o_.nx; ++x) {
        sink.Bidirectional(NodeAt(x, y), NodeAt(x + 1, y), row_class);
      }
      if (y + 1 < o_.ny) {
        for (uint64_t x = 0; x < o_.nx; ++x) {
          sink.Bidirectional(NodeAt(x, y), NodeAt(x, y + 1),
                             LineClass(x, o_.nx / 2));
        }
      }
    }
  }

 private:
  NodeId NodeAt(uint64_t x, uint64_t y) const {
    return static_cast<NodeId>(y * o_.nx + x);
  }
  RoadClass LineClass(uint64_t index, uint64_t center) const {
    if (index == center) return RoadClass::kHighway;
    if (o_.arterial_every > 0 &&
        index % static_cast<uint64_t>(o_.arterial_every) == 0) {
      return RoadClass::kArterial;
    }
    return RoadClass::kLocal;
  }

  StreamingGridOptions o_;
  uint64_t chunks_;
};

/// Nodes are assigned to grid cells in contiguous id blocks (cell c holds
/// ids [c*n/C, (c+1)*n/C)), which makes both the id -> cell map and the
/// cell -> id-range map O(1) arithmetic — no per-node bucket arrays. Each
/// cell's first node is its *anchor*; anchors form a west/south lattice and
/// every other node links to its anchor, so the graph is strongly connected
/// by construction. Proximity edges join nodes within `radius`, scanning
/// only the four forward neighbor cells (E, N, NE, SE) so each unordered
/// pair is considered exactly once; cell sides are >= radius, so no pair
/// beyond adjacent cells can be within range.
class StreamingGeometricSource : public ChunkedEdgeSource {
 public:
  StreamingGeometricSource(const StreamingGeometricOptions& o, double radius,
                           uint64_t gx, uint64_t gy)
      : o_(o),
        radius_(radius),
        gx_(gx),
        gy_(gy),
        cells_(gx * gy),
        cell_w_(o.width_m / static_cast<double>(gx)),
        cell_h_(o.height_m / static_cast<double>(gy)) {
    chunks_ = std::clamp<uint64_t>(o.num_chunks, 1, cells_);
  }

  uint64_t NumNodes() const override { return o_.num_nodes; }
  uint64_t NumChunks() const override { return chunks_; }

  Point NodePosition(NodeId v) const override {
    uint64_t c = CellOf(v);
    uint64_t cx = c % gx_;
    uint64_t cy = c / gx_;
    return Point{(cx + HashUnit(o_.seed, v, 0)) * cell_w_,
                 (cy + HashUnit(o_.seed, v, 1)) * cell_h_};
  }

  void EmitEdges(uint64_t chunk, EdgeSink& sink) const override {
    uint64_t c0 = chunk * cells_ / chunks_;
    uint64_t c1 = (chunk + 1) * cells_ / chunks_;
    for (uint64_t c = c0; c < c1; ++c) EmitCell(c, sink);
  }

 private:
  uint64_t CellOf(uint64_t v) const {
    return ((v + 1) * cells_ - 1) / o_.num_nodes;
  }
  uint64_t CellStart(uint64_t c) const { return c * o_.num_nodes / cells_; }
  NodeId AnchorOf(uint64_t c) const {
    return static_cast<NodeId>(CellStart(c));
  }

  void EmitCell(uint64_t c, EdgeSink& sink) const {
    uint64_t cx = c % gx_;
    uint64_t cy = c / gx_;
    uint64_t start = CellStart(c);
    uint64_t end = CellStart(c + 1);
    NodeId anchor = static_cast<NodeId>(start);

    // Backbone: west/south anchor links (highway on the central lines of
    // the cell grid, arterial elsewhere) plus member -> anchor locals.
    if (cx > 0) {
      sink.Bidirectional(anchor, AnchorOf(c - 1),
                         cy == gy_ / 2 ? RoadClass::kHighway
                                       : RoadClass::kArterial);
    }
    if (cy > 0) {
      sink.Bidirectional(anchor, AnchorOf(c - gx_),
                         cx == gx_ / 2 ? RoadClass::kHighway
                                       : RoadClass::kArterial);
    }
    for (uint64_t v = start + 1; v < end; ++v) {
      sink.Bidirectional(anchor, static_cast<NodeId>(v), RoadClass::kLocal);
    }

    // Proximity edges: in-cell pairs (u < v), then forward neighbor cells.
    for (uint64_t u = start; u < end; ++u) {
      Point pu = NodePosition(static_cast<NodeId>(u));
      for (uint64_t v = u + 1; v < end; ++v) MaybeLink(u, pu, v, sink);
    }
    static constexpr int64_t kForward[4][2] = {{1, 0}, {0, 1}, {1, 1}, {1, -1}};
    for (const auto& d : kForward) {
      int64_t nx = static_cast<int64_t>(cx) + d[0];
      int64_t ny = static_cast<int64_t>(cy) + d[1];
      if (nx < 0 || ny < 0 || nx >= static_cast<int64_t>(gx_) ||
          ny >= static_cast<int64_t>(gy_)) {
        continue;
      }
      uint64_t nc = static_cast<uint64_t>(ny) * gx_ + static_cast<uint64_t>(nx);
      uint64_t ns = CellStart(nc);
      uint64_t ne = CellStart(nc + 1);
      for (uint64_t u = start; u < end; ++u) {
        Point pu = NodePosition(static_cast<NodeId>(u));
        for (uint64_t v = ns; v < ne; ++v) MaybeLink(u, pu, v, sink);
      }
    }
  }

  void MaybeLink(uint64_t u, const Point& pu, uint64_t v,
                 EdgeSink& sink) const {
    Point pv = NodePosition(static_cast<NodeId>(v));
    double dx = pu.x - pv.x;
    double dy = pu.y - pv.y;
    if (dx * dx + dy * dy <= radius_ * radius_) {
      sink.Bidirectional(static_cast<NodeId>(u), static_cast<NodeId>(v),
                         RoadClass::kLocal);
    }
  }

  StreamingGeometricOptions o_;
  double radius_;
  uint64_t gx_;
  uint64_t gy_;
  uint64_t cells_;
  double cell_w_;
  double cell_h_;
  uint64_t chunks_;
};

/// Preferential-attachment flavor of a hyperbolic random graph: node v
/// links to targets t = floor(v * u^skew) with u uniform in [0,1), so the
/// target distribution is a power law biased toward low ids. Low ids are
/// placed near the disk center (radius grows as sqrt(id/n), keeping areal
/// density uniform), giving the centrally-located hub structure and
/// heavy-tailed degree distribution of real highway networks. Every node
/// v >= 1 links to some t < v, so the (bidirectional) graph is connected
/// by construction.
class StreamingHyperbolicSource : public ChunkedEdgeSource {
 public:
  explicit StreamingHyperbolicSource(const StreamingHyperbolicOptions& o)
      : o_(o) {
    chunks_ = std::clamp<uint64_t>(o.num_chunks, 1, o.num_nodes);
    highway_cut_ = std::max<uint64_t>(2, o.num_nodes / 512);
    arterial_cut_ = std::max<uint64_t>(16, o.num_nodes / 32);
  }

  uint64_t NumNodes() const override { return o_.num_nodes; }
  uint64_t NumChunks() const override { return chunks_; }

  Point NodePosition(NodeId v) const override {
    double frac = (v + HashUnit(o_.seed, v, 0)) /
                  static_cast<double>(o_.num_nodes);
    double rad = o_.radius_m * std::sqrt(frac);
    double angle = 2.0 * M_PI * HashUnit(o_.seed, v, 1);
    return Point{o_.radius_m + rad * std::cos(angle),
                 o_.radius_m + rad * std::sin(angle)};
  }

  void EmitEdges(uint64_t chunk, EdgeSink& sink) const override {
    uint64_t v0 = std::max<uint64_t>(1, chunk * o_.num_nodes / chunks_);
    uint64_t v1 = (chunk + 1) * o_.num_nodes / chunks_;
    std::vector<uint64_t> seen(o_.out_links);
    for (uint64_t v = v0; v < v1; ++v) {
      uint32_t emitted = 0;
      for (uint32_t j = 0; j < o_.out_links; ++j) {
        double u = HashUnit(o_.seed, v, 100 + j);
        uint64_t t = static_cast<uint64_t>(
            static_cast<double>(v) * std::pow(u, o_.skew));
        if (t >= v) t = v - 1;  // FP guard; mathematically t < v already
        bool dup = false;
        for (uint32_t k = 0; k < emitted; ++k) dup |= seen[k] == t;
        if (dup) continue;  // skip rather than resample: deterministic
        seen[emitted++] = t;
        sink.Bidirectional(static_cast<NodeId>(v), static_cast<NodeId>(t),
                           ClassOf(t));
      }
    }
  }

 private:
  RoadClass ClassOf(uint64_t target) const {
    if (target < highway_cut_) return RoadClass::kHighway;
    if (target < arterial_cut_) return RoadClass::kArterial;
    return RoadClass::kLocal;
  }

  StreamingHyperbolicOptions o_;
  uint64_t chunks_;
  uint64_t highway_cut_;
  uint64_t arterial_cut_;
};

}  // namespace

Result<std::shared_ptr<RoadNetwork>> MakeStreamingGrid(
    const StreamingGridOptions& options) {
  if (options.nx < 2 || options.ny < 2) {
    return Status::InvalidArgument("grid needs at least 2x2 nodes");
  }
  if (options.spacing_m <= 0.0) {
    return Status::InvalidArgument("spacing must be positive");
  }
  if (options.nx > kMaxNodeCount / options.ny) {
    return Status::InvalidArgument("grid dimensions overflow the node limit");
  }
  StreamingGridSource source(options);
  return BuildFromChunkedSource(source);
}

Result<std::shared_ptr<RoadNetwork>> MakeStreamingGeometric(
    const StreamingGeometricOptions& options) {
  if (options.num_nodes < 2) {
    return Status::InvalidArgument("need at least 2 nodes");
  }
  if (options.width_m <= 0.0 || options.height_m <= 0.0) {
    return Status::InvalidArgument("extent must be positive");
  }
  double radius = options.radius_m;
  if (radius <= 0.0) {
    if (options.target_degree <= 0.0) {
      return Status::InvalidArgument(
          "target_degree must be positive when radius is derived");
    }
    // E[neighbors within r] = n * pi * r^2 / (w * h), solved for r.
    radius = std::sqrt(options.target_degree * options.width_m *
                       options.height_m /
                       (M_PI * static_cast<double>(options.num_nodes)));
  }
  // Cell sides must be >= radius so only adjacent cells can hold neighbors;
  // cell count must be <= num_nodes so every cell has an anchor.
  uint64_t gx = std::max<uint64_t>(
      1, static_cast<uint64_t>(options.width_m / radius));
  uint64_t gy = std::max<uint64_t>(
      1, static_cast<uint64_t>(options.height_m / radius));
  while (gx * gy > options.num_nodes) {
    if (gx >= gy && gx > 1) {
      gx = (gx + 1) / 2;
    } else if (gy > 1) {
      gy = (gy + 1) / 2;
    } else {
      break;
    }
  }
  StreamingGeometricSource source(options, radius, gx, gy);
  return BuildFromChunkedSource(source);
}

Result<std::shared_ptr<RoadNetwork>> MakeStreamingHyperbolic(
    const StreamingHyperbolicOptions& options) {
  if (options.num_nodes < 2) {
    return Status::InvalidArgument("need at least 2 nodes");
  }
  if (options.out_links < 1 || options.out_links > 64) {
    return Status::InvalidArgument("out_links must be in [1, 64]");
  }
  if (options.skew < 1.0) {
    return Status::InvalidArgument("skew must be >= 1");
  }
  if (options.radius_m <= 0.0) {
    return Status::InvalidArgument("radius must be positive");
  }
  StreamingHyperbolicSource source(options);
  return BuildFromChunkedSource(source);
}

// ---------------------------------------------------------------------------
// Option-string front end.
// ---------------------------------------------------------------------------

namespace {

/// Consumes `key=value` pairs out of a parsed spec; whatever is left after
/// a generator has taken its keys is an unknown-option error.
class SpecReader {
 public:
  explicit SpecReader(std::map<std::string, std::string> kv)
      : kv_(std::move(kv)) {}

  Status TakeU64(const char* key, uint64_t* out) {
    auto it = kv_.find(key);
    if (it == kv_.end()) return Status::OK();
    const std::string& s = it->second;
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || end != s.c_str() + s.size() ||
        s.find('-') != std::string::npos) {
      return BadValue(key, s);
    }
    *out = parsed;
    kv_.erase(it);
    return Status::OK();
  }

  Status TakeI32(const char* key, int* out) {
    auto it = kv_.find(key);
    if (it == kv_.end()) return Status::OK();
    const std::string& s = it->second;
    char* end = nullptr;
    long parsed = std::strtol(s.c_str(), &end, 10);
    if (s.empty() || end != s.c_str() + s.size() ||
        parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max()) {
      return BadValue(key, s);
    }
    *out = static_cast<int>(parsed);
    kv_.erase(it);
    return Status::OK();
  }

  Status TakeF64(const char* key, double* out) {
    auto it = kv_.find(key);
    if (it == kv_.end()) return Status::OK();
    const std::string& s = it->second;
    char* end = nullptr;
    double parsed = std::strtod(s.c_str(), &end);
    if (s.empty() || end != s.c_str() + s.size() || !std::isfinite(parsed)) {
      return BadValue(key, s);
    }
    *out = parsed;
    kv_.erase(it);
    return Status::OK();
  }

  Status CheckExhausted() const {
    if (!kv_.empty()) {
      return Status::InvalidArgument("unknown generator option '" +
                                     kv_.begin()->first + "'");
    }
    return Status::OK();
  }

 private:
  static Status BadValue(const char* key, const std::string& value) {
    return Status::InvalidArgument(std::string("bad value for '") + key +
                                   "': '" + value + "'");
  }

  std::map<std::string, std::string> kv_;
};

Result<std::map<std::string, std::string>> ParseSpec(const std::string& spec) {
  std::map<std::string, std::string> kv;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    // Trim surrounding whitespace.
    size_t first = item.find_first_not_of(" \t");
    size_t last = item.find_last_not_of(" \t");
    if (first == std::string::npos) continue;
    item = item.substr(first, last - first + 1);
    size_t eq = item.find('=');
    std::string key = eq == std::string::npos ? item : item.substr(0, eq);
    std::string value = eq == std::string::npos ? "1" : item.substr(eq + 1);
    if (key.empty()) {
      return Status::InvalidArgument("empty key in generator spec: '" + spec +
                                     "'");
    }
    kv[key] = value;  // last occurrence wins
  }
  return kv;
}

}  // namespace

Result<std::shared_ptr<RoadNetwork>> GenerateNetwork(const std::string& spec) {
  ECOCHARGE_ASSIGN_OR_RETURN(auto kv, ParseSpec(spec));
  auto type_it = kv.find("type");
  if (type_it == kv.end()) {
    return Status::InvalidArgument(
        "generator spec needs a type= entry (grid, rgg, hyperbolic, radial, "
        "corridor)");
  }
  std::string type = type_it->second;
  kv.erase(type_it);
  SpecReader reader(std::move(kv));

  uint64_t validate = 1;
  ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("validate", &validate));

  Result<std::shared_ptr<RoadNetwork>> built =
      Status::Internal("generator did not run");
  if (type == "grid") {
    StreamingGridOptions o;
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("nx", &o.nx));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("ny", &o.ny));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("spacing", &o.spacing_m));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("jitter", &o.jitter_fraction));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeI32("arterial_every",
                                           &o.arterial_every));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("seed", &o.seed));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("chunks", &o.num_chunks));
    ECOCHARGE_RETURN_NOT_OK(reader.CheckExhausted());
    built = MakeStreamingGrid(o);
  } else if (type == "rgg") {
    StreamingGeometricOptions o;
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("nodes", &o.num_nodes));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("width", &o.width_m));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("height", &o.height_m));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("radius", &o.radius_m));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("degree", &o.target_degree));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("seed", &o.seed));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("chunks", &o.num_chunks));
    ECOCHARGE_RETURN_NOT_OK(reader.CheckExhausted());
    built = MakeStreamingGeometric(o);
  } else if (type == "hyperbolic") {
    StreamingHyperbolicOptions o;
    uint64_t links = o.out_links;
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("nodes", &o.num_nodes));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("links", &links));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("skew", &o.skew));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("radius", &o.radius_m));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("seed", &o.seed));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("chunks", &o.num_chunks));
    ECOCHARGE_RETURN_NOT_OK(reader.CheckExhausted());
    if (links > 64) return Status::InvalidArgument("links must be in [1, 64]");
    o.out_links = static_cast<uint32_t>(links);
    built = MakeStreamingHyperbolic(o);
  } else if (type == "radial") {
    RadialCityOptions o;
    ECOCHARGE_RETURN_NOT_OK(reader.TakeI32("rings", &o.rings));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeI32("spokes", &o.spokes));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("ring_spacing", &o.ring_spacing_m));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("jitter", &o.jitter_fraction));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("seed", &o.seed));
    ECOCHARGE_RETURN_NOT_OK(reader.CheckExhausted());
    built = MakeRadialCity(o);
  } else if (type == "corridor") {
    CorridorRegionOptions o;
    ECOCHARGE_RETURN_NOT_OK(reader.TakeI32("cities", &o.num_cities));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeI32("city_nx", &o.city_nx));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeI32("city_ny", &o.city_ny));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("city_spacing",
                                           &o.city_spacing_m));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("width", &o.region_width_m));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeF64("height", &o.region_height_m));
    ECOCHARGE_RETURN_NOT_OK(reader.TakeU64("seed", &o.seed));
    ECOCHARGE_RETURN_NOT_OK(reader.CheckExhausted());
    built = MakeCorridorRegion(o);
  } else {
    return Status::InvalidArgument("unknown generator type '" + type + "'");
  }

  ECOCHARGE_RETURN_NOT_OK(built.status());
  if (validate != 0 && !(*built)->IsStronglyConnected()) {
    return Status::Internal("generated network is not strongly connected");
  }
  return built;
}

}  // namespace ecocharge
