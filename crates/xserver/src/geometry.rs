//! Screen geometry: points, rectangles, and occlusion arithmetic.
//!
//! The clickjacking defense (§IV-A, *Trusted input*) needs to know whether
//! a window "has stayed visible above a predefined time threshold", which
//! in turn needs an occlusion test: how much of a window is covered by
//! windows stacked above it.

/// A point in screen coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: i32,
    /// Vertical coordinate.
    pub y: i32,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }
}

/// The longest side of a drawable: Xorg refuses a width or height above
/// it.
const MAX_SIDE: u32 = 32_767;

/// An axis-aligned rectangle (origin + size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Left edge.
    pub x: i32,
    /// Top edge.
    pub y: i32,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Rect {
    /// Creates a rectangle.
    pub const fn new(x: i32, y: i32, width: u32, height: u32) -> Self {
        Rect {
            x,
            y,
            width,
            height,
        }
    }

    /// Right edge (exclusive).
    pub fn right(&self) -> i32 {
        self.x + self.width as i32
    }

    /// Bottom edge (exclusive).
    pub fn bottom(&self) -> i32 {
        self.y + self.height as i32
    }

    /// Area in pixels.
    pub fn area(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Whether the rectangle is valid window geometry: `x` and `y` fit
    /// X11's INT16 coordinates and neither side exceeds 32 767, Xorg's
    /// limit on a drawable. Edge arithmetic on such a rectangle cannot
    /// overflow `i32`, and its area stays under 2^30 pixels.
    pub fn in_x11_range(&self) -> bool {
        i16::try_from(self.x).is_ok()
            && i16::try_from(self.y).is_ok()
            && self.width <= MAX_SIDE
            && self.height <= MAX_SIDE
    }

    /// Whether `p` lies inside the rectangle.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x && p.x < self.right() && p.y >= self.y && p.y < self.bottom()
    }

    /// The intersection of two rectangles, or `None` if disjoint or either
    /// is empty.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x = self.x.max(other.x);
        let y = self.y.max(other.y);
        let right = self.right().min(other.right());
        let bottom = self.bottom().min(other.bottom());
        if x < right && y < bottom {
            Some(Rect::new(x, y, (right - x) as u32, (bottom - y) as u32))
        } else {
            None
        }
    }

    /// Fraction of `self`'s area covered by the union of `covers`,
    /// in `[0, 1]`. Exact: uses coordinate-compression over the cover set.
    pub fn coverage_by(&self, covers: &[Rect]) -> f64 {
        if self.area() == 0 {
            return 0.0;
        }
        let clipped: Vec<Rect> = covers.iter().filter_map(|c| self.intersect(c)).collect();
        if clipped.is_empty() {
            return 0.0;
        }
        // Coordinate compression: split the plane into a grid induced by
        // all rectangle edges and count covered cells.
        let mut xs: Vec<i32> = clipped.iter().flat_map(|r| [r.x, r.right()]).collect();
        let mut ys: Vec<i32> = clipped.iter().flat_map(|r| [r.y, r.bottom()]).collect();
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();
        let mut covered: u64 = 0;
        for xi in 0..xs.len() - 1 {
            for yi in 0..ys.len() - 1 {
                let cell = Rect::new(
                    xs[xi],
                    ys[yi],
                    (xs[xi + 1] - xs[xi]) as u32,
                    (ys[yi + 1] - ys[yi]) as u32,
                );
                if clipped.iter().any(|c| {
                    c.x <= cell.x
                        && c.y <= cell.y
                        && c.right() >= cell.right()
                        && c.bottom() >= cell.bottom()
                }) {
                    covered += cell.area();
                }
            }
        }
        covered as f64 / self.area() as f64
    }
}

mod pack {
    //! Snapshot codec for screen geometry.

    use overhaul_sim::impl_pack;

    use super::{Point, Rect};

    impl_pack!(Point { x, y });
    impl_pack!(Rect {
        x,
        y,
        width,
        height
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_respects_exclusive_edges() {
        let r = Rect::new(0, 0, 10, 10);
        assert!(r.contains(Point::new(0, 0)));
        assert!(r.contains(Point::new(9, 9)));
        assert!(!r.contains(Point::new(10, 9)));
        assert!(!r.contains(Point::new(-1, 5)));
    }

    #[test]
    fn intersect_overlapping() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Some(Rect::new(5, 5, 5, 5)));
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(20, 20, 5, 5);
        assert_eq!(a.intersect(&b), None);
        // Touching edges do not intersect.
        let c = Rect::new(10, 0, 5, 10);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn coverage_empty_and_full() {
        let r = Rect::new(0, 0, 10, 10);
        assert_eq!(r.coverage_by(&[]), 0.0);
        assert_eq!(r.coverage_by(&[Rect::new(-5, -5, 30, 30)]), 1.0);
    }

    #[test]
    fn coverage_half() {
        let r = Rect::new(0, 0, 10, 10);
        let half = Rect::new(0, 0, 5, 10);
        assert!((r.coverage_by(&[half]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn coverage_does_not_double_count_overlapping_covers() {
        let r = Rect::new(0, 0, 10, 10);
        // Two identical half-covers: union is still one half.
        let half = Rect::new(0, 0, 5, 10);
        assert!((r.coverage_by(&[half, half]) - 0.5).abs() < 1e-9);
        // Two quarter-covers overlapping in one eighth.
        let a = Rect::new(0, 0, 5, 5);
        let b = Rect::new(2, 0, 5, 5);
        let expected = (25.0 + 25.0 - 15.0) / 100.0;
        assert!((r.coverage_by(&[a, b]) - expected).abs() < 1e-9);
    }

    #[test]
    fn x11_range_bounds_origin_and_sides() {
        assert!(Rect::new(-32_768, 32_767, MAX_SIDE, MAX_SIDE).in_x11_range());
        assert!(Rect::new(0, 0, 0, 0).in_x11_range());
        assert!(!Rect::new(-32_769, 0, 10, 10).in_x11_range());
        assert!(!Rect::new(0, 32_768, 10, 10).in_x11_range());
        assert!(!Rect::new(0, 0, MAX_SIDE + 1, 10).in_x11_range());
        assert!(!Rect::new(0, 0, 10, u32::MAX).in_x11_range());
    }

    #[test]
    fn coverage_of_zero_area_rect_is_zero() {
        let r = Rect::new(0, 0, 0, 10);
        assert_eq!(r.coverage_by(&[Rect::new(0, 0, 100, 100)]), 0.0);
    }
}
