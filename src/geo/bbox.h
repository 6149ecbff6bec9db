#ifndef ECOCHARGE_GEO_BBOX_H_
#define ECOCHARGE_GEO_BBOX_H_

#include <algorithm>
#include <limits>

#include "geo/point.h"

namespace ecocharge {

/// \brief Axis-aligned rectangle; the unit of space partitioning for the
/// quadtree index.
struct BoundingBox {
  Point min{std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()};
  Point max{-std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()};

  BoundingBox() = default;
  BoundingBox(const Point& min_in, const Point& max_in)
      : min(min_in), max(max_in) {}

  /// An empty box contains nothing and has negative extent.
  bool IsEmpty() const { return min.x > max.x || min.y > max.y; }

  double Width() const { return IsEmpty() ? 0.0 : max.x - min.x; }
  double Height() const { return IsEmpty() ? 0.0 : max.y - min.y; }
  Point Center() const { return (min + max) / 2.0; }

  /// True iff `p` lies inside or on the boundary.
  bool Contains(const Point& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }

  /// True iff the two boxes share any point.
  bool Intersects(const BoundingBox& o) const {
    return !IsEmpty() && !o.IsEmpty() && min.x <= o.max.x &&
           o.min.x <= max.x && min.y <= o.max.y && o.min.y <= max.y;
  }

  /// Grows the box (in place) to cover `p`.
  void Extend(const Point& p) {
    min.x = std::min(min.x, p.x);
    min.y = std::min(min.y, p.y);
    max.x = std::max(max.x, p.x);
    max.y = std::max(max.y, p.y);
  }

  /// Box expanded by `margin` on every side.
  BoundingBox Expanded(double margin) const {
    return BoundingBox{{min.x - margin, min.y - margin},
                       {max.x + margin, max.y + margin}};
  }

  /// Minimum distance from `p` to any point of the box (0 if inside).
  double DistanceTo(const Point& p) const {
    double dx = std::max({min.x - p.x, 0.0, p.x - max.x});
    double dy = std::max({min.y - p.y, 0.0, p.y - max.y});
    return std::hypot(dx, dy);
  }
};

}  // namespace ecocharge

#endif  // ECOCHARGE_GEO_BBOX_H_
