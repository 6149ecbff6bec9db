#ifndef ECOCHARGE_GRAPH_ROAD_NETWORK_H_
#define ECOCHARGE_GRAPH_ROAD_NETWORK_H_

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geo/bbox.h"
#include "geo/point.h"

namespace ecocharge {

using NodeId = uint32_t;
using EdgeId = uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/// Hard capacity limits of the 32-bit id space. kInvalidNode is reserved as
/// a sentinel, so the largest representable node id is kInvalidNode - 1;
/// edge ids and CSR offsets are plain uint32_t counters.
inline constexpr uint64_t kMaxNodeCount = 0xFFFFFFFFull;  // ids 0..2^32-2
inline constexpr uint64_t kMaxEdgeCount = 0xFFFFFFFFull;

/// Explicit kInvalidArgument when a node or edge count would overflow the
/// 32-bit id/offset space. Both builders call this before allocating; unit
/// tests exercise it directly so the check does not need 4-billion-node
/// fixtures.
Status ValidateGraphCounts(uint64_t num_nodes, uint64_t num_edges);

/// \brief Functional road class; drives free-flow speed and congestion shape.
enum class RoadClass : uint8_t {
  kHighway = 0,   ///< motorway / freeway
  kArterial = 1,  ///< major urban road
  kLocal = 2,     ///< residential / access road
};

/// Number of RoadClass values.
inline constexpr int kNumRoadClasses = 3;

/// Free-flow speed for a road class, meters per second.
double FreeFlowSpeed(RoadClass road_class);

/// \brief One directed edge of the road network, endpoint-qualified.
///
/// This is GraphBuilder's input record. The network itself stores only the
/// inlined Arc records below.
struct Edge {
  NodeId from = 0;
  NodeId to = 0;
  double length_m = 0.0;     ///< geometric length, meters
  RoadClass road_class = RoadClass::kLocal;

  /// Travel time at free-flow speed, seconds.
  double FreeFlowSeconds() const {
    return length_m / FreeFlowSpeed(road_class);
  }
};

/// \brief One inlined CSR adjacency record: the far endpoint plus the edge
/// attributes the relax loops need, in one 16-byte cache-friendly slot.
///
/// `node` is the target in the forward stream and the source in the backward
/// stream. The layout is fixed (trivially copyable, no padding surprises) —
/// snapshots mmap these arrays directly, so reordering fields is a snapshot
/// format change.
struct Arc {
  NodeId node = 0;
  RoadClass road_class = RoadClass::kLocal;
  // 3 bytes of padding.
  double length_m = 0.0;

  /// Travel time at free-flow speed, seconds.
  double FreeFlowSeconds() const {
    return length_m / FreeFlowSpeed(road_class);
  }
};

static_assert(sizeof(Arc) == 16, "Arc must stay a 16-byte snapshot record");
static_assert(std::is_trivially_copyable_v<Arc>, "Arc must be mmap-able");

/// \brief Immutable directed road network G = (V, E) in inlined CSR layout.
///
/// Matches the paper's system model: nodes carry planar coordinates, edges
/// carry a weight (length / free-flow time; time-varying traffic multipliers
/// come from the traffic module). Adjacency is stored as two contiguous
/// per-direction Arc streams — `(endpoint, road class, length)` inlined in
/// adjacency order and sorted by endpoint id within each node — so the
/// Dijkstra/sweep relax loop touches one stream instead of chasing
/// `adjacency[i] -> edges[e]` indirections. EdgeId is the index into the
/// forward stream.
///
/// All array members are read-only views; they are backed either by owned
/// vectors (builder path) or by an mmap-ed snapshot (zero-copy load path).
/// Query-side state (shortest-path workspaces) lives outside so a network
/// can be shared read-only across vehicles.
class RoadNetwork {
 public:
  /// Internal storage bundle used by the builders and the snapshot loader;
  /// not part of the stable query API. `backing` keeps whatever owns the
  /// bytes (vectors or an mmap region) alive for the network's lifetime.
  struct Views {
    std::span<const Point> positions;
    std::span<const uint32_t> out_offsets;  ///< size nodes+1
    std::span<const Arc> out_arcs;          ///< size edges
    std::span<const uint32_t> in_offsets;   ///< size nodes+1
    std::span<const Arc> in_arcs;           ///< size edges
    BoundingBox bounds;
    uint32_t locator_nx = 0;
    uint32_t locator_ny = 0;
    double locator_cell_m = 0.0;
    std::span<const uint32_t> locator_cell_offsets;  ///< size nx*ny+1
    std::span<const uint32_t> locator_cell_points;   ///< size nodes
    std::shared_ptr<const void> backing;
  };

  /// Validates view consistency (sizes, offset monotonicity) and wraps the
  /// bundle. Used by GraphBuilder, the streaming builder, and LoadSnapshot.
  static Result<std::shared_ptr<RoadNetwork>> FromViews(Views views);

  size_t NumNodes() const { return positions_.size(); }
  size_t NumEdges() const { return out_arcs_.size(); }

  const Point& NodePosition(NodeId v) const { return positions_[v]; }
  std::span<const Point> positions() const { return positions_; }

  /// Outgoing arcs of `v`: the hot-path accessor. One contiguous stream,
  /// sorted by target id.
  std::span<const Arc> OutArcs(NodeId v) const {
    return out_arcs_.subspan(out_offsets_[v],
                             out_offsets_[v + 1] - out_offsets_[v]);
  }

  /// Incoming arcs of `v` (`Arc::node` is the source node), sorted by
  /// source id.
  std::span<const Arc> InArcs(NodeId v) const {
    return in_arcs_.subspan(in_offsets_[v],
                            in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// Forward-stream arc record of edge `e` (cheap; no endpoint recovery).
  const Arc& arc(EdgeId e) const { return out_arcs_[e]; }

  /// Id of the first out-edge of `v`; `OutArcs(v)[i]` is edge
  /// `FirstOutEdge(v) + i`.
  EdgeId FirstOutEdge(NodeId v) const { return out_offsets_[v]; }

  /// The network's bounding box.
  const BoundingBox& Bounds() const { return bounds_; }

  /// Nearest node to an arbitrary point (grid-accelerated; ties broken by
  /// smallest node id).
  NodeId NearestNode(const Point& p) const;

  /// True if every node can reach every other node (strong connectivity);
  /// generator post-condition checked in tests.
  bool IsStronglyConnected() const;

  // Raw array views, exposed for snapshot serialization (io.cc). The spans
  // alias the network's backing storage.
  std::span<const uint32_t> out_offsets() const { return out_offsets_; }
  std::span<const Arc> out_arcs() const { return out_arcs_; }
  std::span<const uint32_t> in_offsets() const { return in_offsets_; }
  std::span<const Arc> in_arcs() const { return in_arcs_; }
  uint32_t locator_nx() const { return locator_nx_; }
  uint32_t locator_ny() const { return locator_ny_; }
  double locator_cell_m() const { return locator_cell_m_; }
  std::span<const uint32_t> locator_cell_offsets() const {
    return locator_cell_offsets_;
  }
  std::span<const uint32_t> locator_cell_points() const {
    return locator_cell_points_;
  }

 private:
  RoadNetwork() = default;

  std::span<const Point> positions_;
  std::span<const uint32_t> out_offsets_;
  std::span<const Arc> out_arcs_;
  std::span<const uint32_t> in_offsets_;
  std::span<const Arc> in_arcs_;
  BoundingBox bounds_;

  // Flat uniform-grid node locator (mmap-able, unlike the pointer-heavy
  // spatial indexes): node ids bucketed by cell in CSR form.
  uint32_t locator_nx_ = 0;
  uint32_t locator_ny_ = 0;
  double locator_cell_m_ = 0.0;
  std::span<const uint32_t> locator_cell_offsets_;
  std::span<const uint32_t> locator_cell_points_;

  std::shared_ptr<const void> backing_;
};

/// \brief Incrementally assembles a RoadNetwork from explicit Add calls.
///
/// Materializes the full edge list, so it is meant for city-scale fixtures
/// and file loads; continental-scale graphs go through
/// BuildFromChunkedSource, which never holds more than one chunk of edges.
class GraphBuilder {
 public:
  /// Adds a node at `position`, returning its id.
  NodeId AddNode(const Point& position);

  /// Adds a directed edge; length defaults to the Euclidean node distance.
  Status AddEdge(NodeId from, NodeId to, RoadClass road_class,
                 double length_m = -1.0);

  /// Adds both directions with identical attributes.
  Status AddBidirectional(NodeId a, NodeId b, RoadClass road_class,
                          double length_m = -1.0);

  size_t NumNodes() const { return positions_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  /// Finalizes into an immutable network. Fails on an empty graph or on
  /// counts that overflow the 32-bit id space.
  Result<std::shared_ptr<RoadNetwork>> Build();

 private:
  std::vector<Point> positions_;
  std::vector<Edge> edges_;
};

/// \brief Edge-emission target handed to chunked sources during streaming
/// construction. Lengths < 0 default to the Euclidean node distance.
class EdgeSink {
 public:
  virtual void Directed(NodeId from, NodeId to, RoadClass road_class,
                        double length_m = -1.0) = 0;
  void Bidirectional(NodeId a, NodeId b, RoadClass road_class,
                     double length_m = -1.0) {
    Directed(a, b, road_class, length_m);
    Directed(b, a, road_class, length_m);
  }

 protected:
  ~EdgeSink() = default;
};

/// \brief A graph source that can re-emit its edges chunk by chunk.
///
/// The KaGen-style contract: EmitEdges(c, ...) must emit the same edges for
/// chunk `c` every time it is called (the builder replays the stream for the
/// count and scatter passes), every edge must be emitted by exactly one
/// chunk, and NodePosition must be a pure function of the node id. Under
/// that contract the built network is identical for any chunk partition.
class ChunkedEdgeSource {
 public:
  virtual ~ChunkedEdgeSource() = default;
  virtual uint64_t NumNodes() const = 0;
  virtual uint64_t NumChunks() const = 0;
  virtual Point NodePosition(NodeId v) const = 0;
  virtual void EmitEdges(uint64_t chunk, EdgeSink& sink) const = 0;
};

/// \brief Two-pass streaming CSR construction: pass 1 counts degrees, pass 2
/// scatters arcs straight into their final slots. Peak memory is the final
/// CSR arrays plus one degree-cursor array — no edge-list materialization.
Result<std::shared_ptr<RoadNetwork>> BuildFromChunkedSource(
    const ChunkedEdgeSource& source);

}  // namespace ecocharge

#endif  // ECOCHARGE_GRAPH_ROAD_NETWORK_H_
