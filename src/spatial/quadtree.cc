#include "spatial/quadtree.h"

#include <algorithm>

namespace ecocharge {

QuadTree::QuadTree(size_t bucket_capacity, int max_depth)
    : bucket_capacity_(std::max<size_t>(1, bucket_capacity)),
      max_depth_(max_depth) {}

void QuadTree::Build(std::vector<Point> points) {
  points_ = std::move(points);
  nodes_.clear();
  if (points_.empty()) return;

  BoundingBox bounds;
  for (const Point& p : points_) bounds.Extend(p);
  // Expand slightly so boundary points are strictly inside and a degenerate
  // (all-identical) cloud still yields a valid box.
  double margin = std::max(1.0, std::max(bounds.Width(), bounds.Height())) *
                  1e-9;
  bounds = bounds.Expanded(margin);

  Node root;
  root.bounds = bounds;
  nodes_.push_back(std::move(root));
  for (uint32_t id = 0; id < points_.size(); ++id) Insert(0, id);
}

int QuadTree::QuadrantOf(const Node& node, const Point& p) const {
  Point c = node.bounds.Center();
  int q = 0;
  if (p.x >= c.x) q |= 1;
  if (p.y >= c.y) q |= 2;
  return q;
}

void QuadTree::Split(uint32_t node_index) {
  // Note: creates the four children and redistributes items; the vector of
  // nodes may reallocate, so re-fetch the node after each push_back.
  Point c = nodes_[node_index].bounds.Center();
  BoundingBox b = nodes_[node_index].bounds;
  int child_depth = nodes_[node_index].depth + 1;
  BoundingBox quads[4] = {
      {{b.min.x, b.min.y}, {c.x, c.y}},
      {{c.x, b.min.y}, {b.max.x, c.y}},
      {{b.min.x, c.y}, {c.x, b.max.y}},
      {{c.x, c.y}, {b.max.x, b.max.y}},
  };
  uint32_t first_child = static_cast<uint32_t>(nodes_.size());
  for (int q = 0; q < 4; ++q) {
    Node child;
    child.bounds = quads[q];
    child.depth = child_depth;
    nodes_.push_back(std::move(child));
  }
  Node& node = nodes_[node_index];
  for (int q = 0; q < 4; ++q) node.children[q] = first_child + q;
  node.is_leaf = false;
  std::vector<uint32_t> items = std::move(node.items);
  node.items.clear();
  for (uint32_t id : items) {
    int q = QuadrantOf(nodes_[node_index], points_[id]);
    nodes_[nodes_[node_index].children[q]].items.push_back(id);
  }
  // A child may now itself exceed capacity (all items in one quadrant);
  // Insert() handles further splits lazily on the next insertion, so force
  // the invariant here.
  for (int q = 0; q < 4; ++q) {
    uint32_t ci = nodes_[node_index].children[q];
    if (nodes_[ci].items.size() > bucket_capacity_ &&
        nodes_[ci].depth < max_depth_) {
      Split(ci);
    }
  }
}

void QuadTree::Insert(uint32_t node_index, uint32_t point_id) {
  uint32_t current = node_index;
  while (!nodes_[current].is_leaf) {
    int q = QuadrantOf(nodes_[current], points_[point_id]);
    current = nodes_[current].children[q];
  }
  nodes_[current].items.push_back(point_id);
  if (nodes_[current].items.size() > bucket_capacity_ &&
      nodes_[current].depth < max_depth_) {
    Split(current);
  }
}

int QuadTree::depth() const {
  int d = 0;
  for (const Node& n : nodes_) d = std::max(d, n.depth);
  return d;
}

void QuadTree::KnnInto(const Point& query, size_t k, IndexScratch* scratch,
                       std::vector<Neighbor>* out) const {
  using spatial_internal::FrontierGreater;
  out->clear();
  if (nodes_.empty() || k == 0) return;

  // Best-first search: a min-heap over (distance-to-box, node) frontier and
  // a max-heap of the k best points found so far.
  auto& open = scratch->frontier;
  auto& best = scratch->best;
  open.clear();
  best.clear();
  open.push_back({nodes_[0].bounds.DistanceTo(query), 0});

  while (!open.empty()) {
    IndexScratch::FrontierEntry f = open.front();
    std::pop_heap(open.begin(), open.end(), FrontierGreater);
    open.pop_back();
    if (best.size() == k && f.distance > best.front().distance) break;
    const Node& node = nodes_[f.node];
    if (node.is_leaf) {
      for (uint32_t id : node.items) {
        double d = Distance(points_[id], query);
        spatial_internal::OfferNeighbor(&best, k, {id, d});
      }
    } else {
      for (uint32_t child : node.children) {
        double d = nodes_[child].bounds.DistanceTo(query);
        if (best.size() < k || d <= best.front().distance) {
          open.push_back({d, child});
          std::push_heap(open.begin(), open.end(), FrontierGreater);
        }
      }
    }
  }
  spatial_internal::FinishKnn(best, out);
}

void QuadTree::RangeSearchInto(const Point& query, double radius,
                               IndexScratch* scratch,
                               std::vector<Neighbor>* out) const {
  out->clear();
  if (nodes_.empty()) return;
  auto& stack = scratch->stack;
  stack.assign(1, 0);
  while (!stack.empty()) {
    uint32_t ni = stack.back();
    stack.pop_back();
    const Node& node = nodes_[ni];
    if (node.bounds.DistanceTo(query) > radius) continue;
    if (node.is_leaf) {
      for (uint32_t id : node.items) {
        double d = Distance(points_[id], query);
        if (d <= radius) out->push_back({id, d});
      }
    } else {
      for (uint32_t child : node.children) stack.push_back(child);
    }
  }
}

void QuadTree::BoxSearchInto(const BoundingBox& box, IndexScratch* scratch,
                             std::vector<uint32_t>* out) const {
  out->clear();
  if (nodes_.empty()) return;
  auto& stack = scratch->stack;
  stack.assign(1, 0);
  while (!stack.empty()) {
    uint32_t ni = stack.back();
    stack.pop_back();
    const Node& node = nodes_[ni];
    if (!node.bounds.Intersects(box)) continue;
    if (node.is_leaf) {
      for (uint32_t id : node.items) {
        if (box.Contains(points_[id])) out->push_back(id);
      }
    } else {
      for (uint32_t child : node.children) stack.push_back(child);
    }
  }
}

}  // namespace ecocharge
