//! Planar geometry primitives used throughout the simulator.
//!
//! All coordinates are in meters in a Euclidean plane. The sensor field is a
//! rectangle with its origin at the lower-left corner, `x` growing to the
//! right (east) and `y` growing upward (north).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Squared distance, in m², below which two positions count as one place:
/// GPSR delivers a packet at a node this close to its target, and a
/// [`crate::topology::Topology`] notes whether two of its nodes ever stood
/// this close.
pub const COINCIDENT_SQ: f64 = 1e-18;

/// A point (or position vector) in the deployment plane, in meters.
///
/// # Examples
///
/// ```
/// use pool_netsim::geometry::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate in meters.
    pub x: f64,
    /// Vertical coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    ///
    /// ```
    /// # use pool_netsim::geometry::Point;
    /// assert_eq!(Point::new(1.0, 1.0).distance(Point::new(1.0, 3.0)), 2.0);
    /// ```
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed).
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Midpoint of the segment between `self` and `other`.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Angle of the vector from `self` to `other`, in radians in `(-π, π]`.
    pub fn angle_to(self, other: Point) -> f64 {
        (other.y - self.y).atan2(other.x - self.x)
    }

    /// Vector difference `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn sub(self, other: Point) -> Point {
        Point::new(self.x - other.x, self.y - other.y)
    }

    /// 2-D cross product (z component) of the vectors `self` and `other`
    /// treated as position vectors.
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle, typically the deployment field.
///
/// The rectangle spans `[min.x, max.x] × [min.y, max.y]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    ///
    /// Panics if `min.x > max.x` or `min.y > max.y`.
    pub fn new(min: Point, max: Point) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y,
            "rect corners out of order: min={min}, max={max}"
        );
        Rect { min, max }
    }

    /// A square field `[0, side] × [0, side]`.
    pub fn square(side: f64) -> Self {
        Rect::new(Point::new(0.0, 0.0), Point::new(side, side))
    }

    /// Width (extent along x) in meters.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (extent along y) in meters.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square meters.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point of the rectangle.
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Whether `p` lies inside the rectangle (boundary inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` to the closest point inside the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.min.x, self.max.x), p.y.clamp(self.min.y, self.max.y))
    }
}

/// Orientation of the ordered triple `(a, b, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Counter-clockwise turn.
    CounterClockwise,
    /// Clockwise turn.
    Clockwise,
    /// The three points are collinear.
    Collinear,
}

/// Computes the orientation of the ordered point triple `(a, b, c)`.
pub fn orientation(a: Point, b: Point, c: Point) -> Orientation {
    let v = (b.sub(a)).cross(c.sub(a));
    if v > f64::EPSILON {
        Orientation::CounterClockwise
    } else if v < -f64::EPSILON {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// Whether the closed segments `a1–a2` and `b1–b2` properly intersect,
/// excluding intersections that occur exactly at a shared endpoint.
///
/// Perimeter-mode GPSR uses this to detect when a forwarded packet would
/// cross the line between its source and destination, which triggers a face
/// change.
pub fn segments_cross(a1: Point, a2: Point, b1: Point, b2: Point) -> bool {
    // Shared endpoints do not count as crossings: a perimeter walk that
    // merely touches the source-destination line at a node should not
    // trigger a face change.
    let share = |p: Point, q: Point| p.distance_sq(q) < 1e-18;
    if share(a1, b1) || share(a1, b2) || share(a2, b1) || share(a2, b2) {
        return false;
    }
    let o1 = orientation(a1, a2, b1);
    let o2 = orientation(a1, a2, b2);
    let o3 = orientation(b1, b2, a1);
    let o4 = orientation(b1, b2, a2);
    if o1 != o2 && o3 != o4 && o1 != Orientation::Collinear && o2 != Orientation::Collinear {
        return true;
    }
    // Collinear overlap cases.
    let on_segment = |p: Point, q: Point, r: Point| {
        orientation(p, q, r) == Orientation::Collinear
            && r.x >= p.x.min(q.x)
            && r.x <= p.x.max(q.x)
            && r.y >= p.y.min(q.y)
            && r.y <= p.y.max(q.y)
    };
    on_segment(a1, a2, b1)
        || on_segment(a1, a2, b2)
        || on_segment(b1, b2, a1)
        || on_segment(b1, b2, a2)
}

/// Intersection point of the (infinite) lines through `a1–a2` and `b1–b2`,
/// or `None` if they are parallel.
pub fn line_intersection(a1: Point, a2: Point, b1: Point, b2: Point) -> Option<Point> {
    let d1 = a2.sub(a1);
    let d2 = b2.sub(b1);
    let denom = d1.cross(d2);
    if denom.abs() < f64::EPSILON {
        return None;
    }
    let t = (b1.sub(a1)).cross(d2) / denom;
    Some(Point::new(a1.x + t * d1.x, a1.y + t * d1.y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_euclidean() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point::new(-1.0, 0.5);
        let b = Point::new(2.0, -3.5);
        assert!((a.distance_sq(b) - a.distance(b).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_halfway() {
        let m = Point::new(0.0, 0.0).midpoint(Point::new(2.0, 4.0));
        assert_eq!(m, Point::new(1.0, 2.0));
    }

    #[test]
    fn angle_to_cardinal_directions() {
        let o = Point::new(0.0, 0.0);
        assert!((o.angle_to(Point::new(1.0, 0.0)) - 0.0).abs() < 1e-12);
        assert!((o.angle_to(Point::new(0.0, 1.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((o.angle_to(Point::new(-1.0, 0.0)) - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn rect_contains_and_clamp() {
        let r = Rect::square(10.0);
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(0.0, 10.0)));
        assert!(!r.contains(Point::new(-0.1, 5.0)));
        assert_eq!(r.clamp(Point::new(-3.0, 12.0)), Point::new(0.0, 10.0));
        assert_eq!(r.area(), 100.0);
        assert_eq!(r.center(), Point::new(5.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "rect corners out of order")]
    fn rect_rejects_inverted_corners() {
        let _ = Rect::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
    }

    #[test]
    fn orientation_turns() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(orientation(a, b, Point::new(1.0, 1.0)), Orientation::CounterClockwise);
        assert_eq!(orientation(a, b, Point::new(1.0, -1.0)), Orientation::Clockwise);
        assert_eq!(orientation(a, b, Point::new(2.0, 0.0)), Orientation::Collinear);
    }

    #[test]
    fn crossing_segments_detected() {
        let cross = segments_cross(
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 0.0),
        );
        assert!(cross);
    }

    #[test]
    fn parallel_segments_do_not_cross() {
        assert!(!segments_cross(
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(2.0, 1.0),
        ));
    }

    #[test]
    fn shared_endpoint_is_not_a_crossing() {
        assert!(!segments_cross(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 0.0),
        ));
    }

    #[test]
    fn collinear_overlap_counts_as_crossing() {
        assert!(segments_cross(
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ));
    }

    #[test]
    fn line_intersection_basic() {
        let p = line_intersection(
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 0.0),
        )
        .unwrap();
        assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
        assert!(line_intersection(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0)
        )
        .is_none());
    }
}
