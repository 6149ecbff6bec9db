#ifndef ECOCHARGE_GEO_POINT_H_
#define ECOCHARGE_GEO_POINT_H_

#include <cmath>
#include <ostream>

namespace ecocharge {

/// \brief A point in the library's planar working frame, in meters.
///
/// All spatial computation (indexes, shortest paths, derouting) happens in
/// this planar frame.
struct Point {
  double x = 0.0;  ///< easting, meters
  double y = 0.0;  ///< northing, meters

  constexpr Point() = default;
  constexpr Point(double x_in, double y_in) : x(x_in), y(y_in) {}

  constexpr Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  constexpr Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  constexpr Point operator*(double s) const { return {x * s, y * s}; }
  constexpr Point operator/(double s) const { return {x / s, y / s}; }
  constexpr bool operator==(const Point& o) const {
    return x == o.x && y == o.y;
  }

  /// Dot product with another point treated as a vector.
  constexpr double Dot(const Point& o) const { return x * o.x + y * o.y; }

  /// Z-component of the 2D cross product.
  constexpr double Cross(const Point& o) const { return x * o.y - y * o.x; }

  /// Euclidean norm.
  double Norm() const { return std::hypot(x, y); }

  /// Squared Euclidean norm (avoids the sqrt for comparisons).
  constexpr double NormSquared() const { return x * x + y * y; }
};

/// Euclidean distance between two points, meters.
inline double Distance(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// Squared Euclidean distance; cheaper, preserves ordering.
inline constexpr double DistanceSquared(const Point& a, const Point& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

}  // namespace ecocharge

#endif  // ECOCHARGE_GEO_POINT_H_
