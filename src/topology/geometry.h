// 2-D plane geometry for device positions and base-station coverage.
#pragma once

#include <cmath>

namespace eotora::topology {

struct Point {
  double x = 0.0;  // meters
  double y = 0.0;  // meters

  friend constexpr bool operator==(Point a, Point b) {
    return a.x == b.x && a.y == b.y;
  }
};

[[nodiscard]] inline double distance(Point a, Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

// Axis-aligned rectangular region (the simulated service area).
struct Region {
  double width = 1000.0;   // meters
  double height = 1000.0;  // meters

  [[nodiscard]] bool contains(Point p) const {
    return p.x >= 0.0 && p.x <= width && p.y >= 0.0 && p.y <= height;
  }

  [[nodiscard]] Point clamp(Point p) const {
    return Point{p.x < 0.0 ? 0.0 : (p.x > width ? width : p.x),
                 p.y < 0.0 ? 0.0 : (p.y > height ? height : p.y)};
  }
};

// Axis-aligned rectangle a device roams in (MobileDevice::box).
struct BoundingBox {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  [[nodiscard]] bool contains(Point p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  [[nodiscard]] Point clamp(Point p) const {
    return Point{p.x < min_x ? min_x : (p.x > max_x ? max_x : p.x),
                 p.y < min_y ? min_y : (p.y > max_y ? max_y : p.y)};
  }
};

}  // namespace eotora::topology
