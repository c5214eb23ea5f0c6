//! Edge-case tests for the geometry kernel's public API.

use pdr_geometry::{
    approx_eq, CellId, GridSpec, Interval, IntervalSet, LSquare, Point, Rect, RegionSet, EPS,
};

#[test]
fn approx_eq_uses_eps() {
    assert!(approx_eq(1.0, 1.0 + EPS / 2.0));
    assert!(!approx_eq(1.0, 1.0 + 10.0 * EPS));
    assert!(approx_eq(0.0, -EPS / 2.0));
}

#[test]
fn rect_from_corners_any_order() {
    let a = Point::new(3.0, 1.0);
    let b = Point::new(1.0, 4.0);
    assert_eq!(Rect::from_corners(a, b), Rect::from_corners(b, a));
    assert_eq!(Rect::from_corners(a, b), Rect::new(1.0, 1.0, 3.0, 4.0));
    // Coincident corners make a degenerate point-rect.
    assert!(Rect::from_corners(a, a).is_degenerate());
}

#[test]
fn lsquare_bounding_rect_is_closed_cover() {
    let s = LSquare::new(Point::new(5.0, 5.0), 4.0);
    let bb = s.bounding_rect();
    assert_eq!(bb, Rect::new(3.0, 3.0, 7.0, 7.0));
    // Everything the half-open square contains is inside the closed box.
    for p in [
        Point::new(7.0, 7.0),
        Point::new(3.1, 3.1),
        Point::new(5.0, 5.0),
    ] {
        if s.contains(p) {
            assert!(bb.contains(p));
        }
    }
    // The closed box additionally contains the excluded edges.
    assert!(bb.contains(Point::new(3.0, 5.0)));
    assert!(!s.contains(Point::new(3.0, 5.0)));
}

#[test]
fn grid_cells_intersecting_degenerate_rect() {
    let g = GridSpec::unit_origin(100.0, 10);
    // A zero-area rect on a cell border still intersects the touching
    // cells (closed semantics).
    let hits: Vec<CellId> = g
        .cells_intersecting(&Rect::new(10.0, 5.0, 10.0, 5.0))
        .collect();
    assert!(hits.contains(&CellId::new(0, 0)));
    assert!(hits.contains(&CellId::new(1, 0)));
}

#[test]
fn grid_cells_intersecting_whole_plane() {
    let g = GridSpec::unit_origin(100.0, 4);
    let hits: Vec<CellId> = g
        .cells_intersecting(&Rect::new(-10.0, -10.0, 110.0, 110.0))
        .collect();
    assert_eq!(hits.len(), 16);
}

#[test]
fn interval_set_contains_at_merge_seams() {
    let s = IntervalSet::from_intervals([
        Interval::new(0.0, 1.0),
        Interval::new(1.0, 2.0), // merges with the first
        Interval::new(3.0, 4.0),
    ]);
    assert_eq!(s.intervals().len(), 2);
    assert!(s.contains(1.0), "seam point belongs to the merged interval");
    assert!(!s.contains(2.5));
    assert!(s.contains(3.0) && s.contains(4.0));
}

#[test]
fn interval_intersection_at_touching_endpoints_is_empty_measure() {
    let a = IntervalSet::from_intervals([Interval::new(0.0, 1.0)]);
    let b = IntervalSet::from_intervals([Interval::new(1.0, 2.0)]);
    assert_eq!(a.intersection(&b).measure(), 0.0);
}

#[test]
fn region_contains_respects_half_open_edges() {
    let r = RegionSet::from_rects([Rect::new(0.0, 0.0, 1.0, 1.0)]);
    assert!(r.contains(Point::new(0.0, 0.0)));
    assert!(!r.contains(Point::new(1.0, 0.0)));
    assert!(!r.contains(Point::new(0.0, 1.0)));
    // Two abutting rects: the shared edge belongs to exactly the right
    // one, so the union contains it once.
    let r2 = RegionSet::from_rects([Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(1.0, 0.0, 2.0, 1.0)]);
    assert!(r2.contains(Point::new(1.0, 0.5)));
}

#[test]
fn region_extend_accumulates() {
    let mut a = RegionSet::from_rects([Rect::new(0.0, 0.0, 1.0, 1.0)]);
    let b = RegionSet::from_rects([Rect::new(2.0, 0.0, 3.0, 1.0)]);
    a.extend_from(&b);
    assert_eq!(a.len(), 2);
    assert!((a.area() - 2.0).abs() < 1e-12);
}

#[test]
fn canonicalize_is_idempotent() {
    let mut r = RegionSet::from_rects([
        Rect::new(0.0, 0.0, 1.0, 1.0),
        Rect::new(0.0, 1.0, 1.0, 2.0),
        Rect::new(1.0, 0.0, 2.0, 1.0),
        Rect::new(1.0, 1.0, 2.0, 2.0),
    ]);
    r.canonicalize();
    let once = r.clone();
    r.canonicalize();
    assert_eq!(once.rects(), r.rects(), "canonicalize must be idempotent");
    assert!((r.area() - 4.0).abs() < 1e-12);
}

#[test]
fn grid_linear_index_is_row_major_bijection() {
    let g = GridSpec::unit_origin(10.0, 3);
    let mut seen = [false; 9];
    for cell in g.all_cells() {
        let idx = g.linear_index(cell);
        assert!(!seen[idx], "duplicate linear index {idx}");
        seen[idx] = true;
    }
    assert!(seen.iter().all(|&s| s));
}
