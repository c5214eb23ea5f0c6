//! The two-level plane-sweep refinement (Algorithms 2 and 3).
//!
//! Given a target rectangle `R` (a candidate cell, or the whole region
//! for the brute-force oracle) and every object within `R` inflated by
//! `l/2`, the sweep reports the exact set of ρ-dense points inside `R`
//! as a union of half-open rectangles.
//!
//! The key observation (Lemmas 1–2 of the paper) is that the point
//! density `d(x, y)` only changes when the `l`-square boundary crosses
//! an object, so along X it is piecewise constant between the *stopping
//! events* `{x_o ± l/2}`, and likewise along Y. Sweeping an `l`-band
//! along X and, inside each band, an `l`-square along Y enumerates every
//! constant-density rectangle.
//!
//! Membership uses the half-open `l`-square of Definition 1: an object
//! at `x_o` is inside the band centered at `x_c` iff
//! `x_c ∈ [x_o − l/2, x_o + l/2)`. Each segment is classified by its
//! *midpoint*, which is equivalent to classifying the whole segment (the
//! density is constant on it) and immune to boundary ties.

use crate::DenseThreshold;
use pdr_geometry::{Point, Rect, RegionSet};

/// Exact ρ-dense sub-rectangles of `target`, given `objects` — every
/// object position within `target.inflate(l/2)` (a superset is fine;
/// objects further out cannot affect any point of `target`).
///
/// Sorts `objects` in place through the mutable borrow: the refinement
/// hot loop refills one positions buffer per candidate cell and hands
/// the same buffer here every time, so no per-cell vector is allocated.
/// Borrowing callers go through [`refine_region_set`], which pays the
/// one copy explicitly.
///
/// Returns half-open `[lo, hi)` rectangles, one per maximal dense
/// Y-run of each X band between consecutive stopping events. Runs of
/// neighbouring bands are not joined: callers merging several cells
/// canonicalize once at the end.
pub fn refine_region(
    target: &Rect,
    objects: &mut [Point],
    threshold: DenseThreshold,
    l: f64,
) -> Vec<Rect> {
    refine_bands(target, objects, threshold, l, sweep_y)
}

/// The X band sweep of [`refine_region`] (Algorithm 2). For every band
/// `[x0, x1)` that holds enough objects it calls `sweep_band` with the
/// members' sorted Y coordinates, which pushes the band's dense
/// rectangles.
fn refine_bands<F>(
    target: &Rect,
    objects: &mut [Point],
    threshold: DenseThreshold,
    l: f64,
    sweep_band: F,
) -> Vec<Rect>
where
    F: Fn(&Rect, &[f64], DenseThreshold, f64, f64, f64, &mut Vec<Rect>),
{
    assert!(l > 0.0, "edge length must be positive");
    let mut out = Vec::new();
    if target.is_degenerate() {
        return out;
    }
    // A region can only be dense if enough objects are around at all.
    if !threshold.met_by(objects.len()) {
        return out;
    }
    let half = l / 2.0;

    // Objects sorted by x for the band sweep (in the caller's buffer).
    let by_x = objects;
    by_x.sort_by(|a, b| a.x.total_cmp(&b.x));

    // Stopping events along X, clamped to the target.
    let mut xs: Vec<f64> = Vec::with_capacity(2 * by_x.len() + 2);
    xs.push(target.x_lo);
    xs.push(target.x_hi);
    for p in by_x.iter() {
        for e in [p.x - half, p.x + half] {
            if e > target.x_lo && e < target.x_hi {
                xs.push(e);
            }
        }
    }
    xs.sort_by(f64::total_cmp);
    xs.dedup();

    // Two pointers over by_x: the band at center x_c contains objects
    // with x_o ∈ (x_c − l/2, x_c + l/2]; evaluated at segment midpoints
    // (monotonically increasing), both pointers only advance.
    let mut lo = 0; // index of first object with x_o > mid − l/2
    let mut hi = 0; // index one past last object with x_o ≤ mid + l/2
    let mut band: Vec<f64> = Vec::new(); // y-coords of band members, rebuilt per segment

    for w in xs.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        if x1 <= x0 {
            continue;
        }
        let mid = 0.5 * (x0 + x1);
        while lo < by_x.len() && by_x[lo].x <= mid - half {
            lo += 1;
        }
        if hi < lo {
            hi = lo;
        }
        while hi < by_x.len() && by_x[hi].x <= mid + half {
            hi += 1;
        }
        let members = &by_x[lo..hi];
        if !threshold.met_by(members.len()) {
            continue; // the band cannot contain a dense square
        }
        band.clear();
        band.extend(members.iter().map(|p| p.y));
        band.sort_by(f64::total_cmp);
        sweep_band(target, &band, threshold, half, x0, x1, &mut out);
    }
    out
}

/// The inner `l`-square sweep along Y (Algorithm 3) for one X band,
/// emitting one rectangle per maximal run of dense segments.
fn sweep_y(
    target: &Rect,
    ys: &[f64],
    threshold: DenseThreshold,
    half: f64,
    x0: f64,
    x1: f64,
    out: &mut Vec<Rect>,
) {
    let mut events: Vec<f64> = Vec::with_capacity(2 * ys.len() + 2);
    events.push(target.y_lo);
    events.push(target.y_hi);
    for &y in ys {
        for e in [y - half, y + half] {
            if e > target.y_lo && e < target.y_hi {
                events.push(e);
            }
        }
    }
    events.sort_by(f64::total_cmp);
    events.dedup();

    let mut lo = 0;
    let mut hi = 0;
    // The dense run being extended, pushed when a gap ends it.
    let mut run: Option<(f64, f64)> = None;
    for w in events.windows(2) {
        let (y0, y1) = (w[0], w[1]);
        if y1 <= y0 {
            continue;
        }
        let mid = 0.5 * (y0 + y1);
        while lo < ys.len() && ys[lo] <= mid - half {
            lo += 1;
        }
        if hi < lo {
            hi = lo;
        }
        while hi < ys.len() && ys[hi] <= mid + half {
            hi += 1;
        }
        if !threshold.met_by(hi - lo) {
            continue;
        }
        match &mut run {
            Some(r) if r.1 == y0 => r.1 = y1,
            _ => {
                if let Some((a, b)) = run.replace((y0, y1)) {
                    out.push(Rect::new(x0, a, x1, b));
                }
            }
        }
    }
    if let Some((a, b)) = run {
        out.push(Rect::new(x0, a, x1, b));
    }
}

/// Convenience wrapper over borrowed positions returning a canonical
/// [`RegionSet`]. This is the one place that copies the slice.
pub fn refine_region_set(
    target: &Rect,
    objects: &[Point],
    threshold: DenseThreshold,
    l: f64,
) -> RegionSet {
    let mut owned = objects.to_vec();
    let mut rs = RegionSet::from_rects(refine_region(target, &mut owned, threshold, l));
    rs.canonicalize();
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::point_density;
    use crate::test_rng::Lcg;
    use pdr_geometry::LSquare;

    fn thresh(k: f64) -> DenseThreshold {
        DenseThreshold::from_count(k)
    }

    #[test]
    fn empty_when_too_few_objects() {
        let target = Rect::new(0.0, 0.0, 10.0, 10.0);
        let mut objects = vec![Point::new(5.0, 5.0)];
        assert!(refine_region(&target, &mut objects, thresh(2.0), 2.0).is_empty());
    }

    #[test]
    fn single_cluster_produces_square_region() {
        // 4 coincident objects, l = 2, threshold 4: the dense points are
        // exactly those whose l-square contains the cluster point, i.e.
        // the half-open square [p − 1, p + 1) ... by Definition 1 the
        // object at q is inside S_p iff p ∈ [q − l/2, q + l/2).
        let target = Rect::new(0.0, 0.0, 10.0, 10.0);
        let q = Point::new(5.0, 5.0);
        let objects = vec![q; 4];
        let rs = refine_region_set(&target, &objects, thresh(4.0), 2.0);
        let truth = RegionSet::from_rects([Rect::new(4.0, 4.0, 6.0, 6.0)]);
        assert!(rs.symmetric_difference_area(&truth) < 1e-9, "got {rs:?}");
    }

    #[test]
    fn figure1a_answer_loss_scene() {
        // The paper's Figure 1(a): four objects near a grid corner, none
        // of the four unit cells dense, but the l-square around the
        // corner holds all four. PDR must report a nonempty region.
        let target = Rect::new(0.0, 0.0, 4.0, 4.0);
        let objects = vec![
            Point::new(1.9, 1.9),
            Point::new(2.1, 1.9),
            Point::new(1.9, 2.1),
            Point::new(2.1, 2.1),
        ];
        let rs = refine_region_set(&target, &objects, thresh(4.0), 1.0);
        assert!(!rs.is_empty(), "answer loss: dense region missed");
        // The center point (2, 2) has all 4 objects in its unit square
        // neighborhood ((1.5, 2.5] x (1.5, 2.5] contains all).
        assert!(rs.contains(Point::new(2.0, 2.0)));
    }

    /// Brute-force check: every reported point is dense, every dense
    /// sample point is reported.
    fn cross_validate(target: Rect, objects: &[Point], k: f64, l: f64, samples: u32) {
        let rs = refine_region_set(&target, objects, thresh(k), l);
        let mut seed = 0xDEADBEEFu64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..samples {
            let p = Point::new(
                target.x_lo + rng() * target.width(),
                target.y_lo + rng() * target.height(),
            );
            let n = objects
                .iter()
                .filter(|&&o| LSquare::new(p, l).contains(o))
                .count();
            let dense = thresh(k).met_by(n);
            assert_eq!(
                rs.contains(p),
                dense,
                "point {p:?}: neighborhood count {n}, threshold {k}, density {}",
                point_density(p, l, objects)
            );
        }
    }

    #[test]
    fn matches_brute_force_on_random_scenes() {
        let mut seed = 424242u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for scene in 0..5 {
            let target = Rect::new(0.0, 0.0, 50.0, 50.0);
            let n = 30 + scene * 25;
            let objects: Vec<Point> = (0..n)
                .map(|_| {
                    // Cluster half the objects to force dense pockets.
                    if rng() < 0.5 {
                        Point::new(20.0 + rng() * 8.0, 20.0 + rng() * 8.0)
                    } else {
                        Point::new(rng() * 60.0 - 5.0, rng() * 60.0 - 5.0)
                    }
                })
                .collect();
            cross_validate(target, &objects, 4.0, 6.0, 400);
        }
    }

    #[test]
    fn target_boundary_is_respected() {
        // Objects outside the target can make border points dense, but
        // no reported rectangle may leave the target.
        let target = Rect::new(10.0, 10.0, 20.0, 20.0);
        let objects: Vec<Point> = (0..10).map(|i| Point::new(9.5, 10.0 + i as f64)).collect();
        let rs = refine_region_set(&target, &objects, thresh(2.0), 4.0);
        for r in rs.rects() {
            assert!(target.contains_rect(r), "rect {r:?} escapes target");
        }
    }

    #[test]
    fn dense_everywhere_when_threshold_zero() {
        let target = Rect::new(0.0, 0.0, 5.0, 5.0);
        let rs = refine_region_set(&target, &[], thresh(0.0), 1.0);
        assert!((rs.area() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_threshold() {
        // threshold 2.5 means 3 objects needed.
        let target = Rect::new(0.0, 0.0, 10.0, 10.0);
        let mut two = vec![Point::new(5.0, 5.0); 2];
        assert!(refine_region(&target, &mut two, thresh(2.5), 2.0).is_empty());
        let mut three = vec![Point::new(5.0, 5.0); 3];
        assert!(!refine_region(&target, &mut three, thresh(2.5), 2.0).is_empty());
    }

    #[test]
    fn boundary_ties_single_object_half_open_square() {
        // One object at (10, 10), l = 4, threshold 1. By Definition 1 an
        // object q is inside the square of center c iff c − 2 < q ≤ c + 2
        // per axis, so the dense centers form exactly the half-open
        // square [8, 12) × [8, 12): the *lower* boundary is dense (the
        // object sits on the included top/right edge of that center's
        // square) and the *upper* boundary is not. All coordinates are
        // small integers with l = 4.0, so every event value (q ± l/2) is
        // exact in floating point and the ties are genuine.
        let target = Rect::new(0.0, 0.0, 20.0, 20.0);
        let objects = vec![Point::new(10.0, 10.0)];
        let rs = refine_region_set(&target, &objects, thresh(1.0), 4.0);
        assert!((rs.area() - 16.0).abs() < 1e-9, "area {}", rs.area());
        // Exactly on the lower-left corner / edges: dense.
        assert!(rs.contains(Point::new(8.0, 8.0)));
        assert!(rs.contains(Point::new(8.0, 10.0)));
        assert!(rs.contains(Point::new(10.0, 8.0)));
        // Exactly on the upper-right edges: not dense.
        assert!(!rs.contains(Point::new(12.0, 10.0)));
        assert!(!rs.contains(Point::new(10.0, 12.0)));
        assert!(!rs.contains(Point::new(12.0, 12.0)));
        // Mixed corners: one axis in, one out.
        assert!(!rs.contains(Point::new(8.0, 12.0)));
        assert!(!rs.contains(Point::new(12.0, 8.0)));
    }

    #[test]
    fn boundary_ties_match_half_open_membership_pointwise() {
        // A tie-heavy lattice scene: objects on integer multiples of
        // l/2, so the stopping events of different objects coincide and
        // probe centers land exactly on x_c ± l/2 of several objects at
        // once. Every event coordinate (and every segment midpoint) is
        // cross-validated point-by-point against LSquare::contains.
        let l = 4.0;
        let half = l / 2.0;
        let target = Rect::new(0.0, 0.0, 16.0, 16.0);
        let objects = vec![
            Point::new(4.0, 4.0),
            Point::new(8.0, 4.0),
            Point::new(4.0, 8.0),
            Point::new(8.0, 8.0),
            Point::new(6.0, 6.0),
            Point::new(12.0, 12.0),
        ];
        // Probe coordinates: every stopping event q ± l/2 (clamped into
        // the target) plus midpoints between consecutive events.
        let mut coords: Vec<f64> = vec![target.x_lo, target.x_hi];
        for p in &objects {
            for c in [p.x - half, p.x + half, p.y - half, p.y + half] {
                if c >= target.x_lo && c <= target.x_hi {
                    coords.push(c);
                }
            }
        }
        coords.sort_by(f64::total_cmp);
        coords.dedup();
        let mids: Vec<f64> = coords.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        coords.extend(mids);

        for k in [1.0, 2.0, 3.0, 4.0] {
            let rs = refine_region_set(&target, &objects, thresh(k), l);
            for &x in &coords {
                for &y in &coords {
                    let p = Point::new(x, y);
                    let n = objects
                        .iter()
                        .filter(|&&o| LSquare::new(p, l).contains(o))
                        .count();
                    assert_eq!(
                        rs.contains(p),
                        thresh(k).met_by(n),
                        "tie point {p:?}: {n} objects in square, threshold {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn objects_exactly_on_band_edges_count_asymmetrically() {
        // Two objects straddling a probe center at exactly ± l/2: the one
        // at center + l/2 is on the included edge, the one at center − l/2
        // on the excluded edge. With threshold 2 the probe is dense only
        // where both objects fall inside, which by the half-open rule is
        // the strip [6, 8) × [4, 12) ∩ ... — cross-check pointwise.
        let l = 4.0;
        let target = Rect::new(0.0, 0.0, 16.0, 16.0);
        let objects = vec![Point::new(6.0, 8.0), Point::new(10.0, 8.0)];
        let rs = refine_region_set(&target, &objects, thresh(2.0), l);
        // Center (8, 8): objects at x = 6 (= 8 − 2, excluded edge) and
        // x = 10 (= 8 + 2, included edge) → only one inside → not dense.
        assert!(!rs.contains(Point::new(8.0, 8.0)));
        // Center (8 − ulp-free step, i.e. 7.0): objects at 6 and 10 with
        // 5 < 6 ≤ 9 true but 5 < 10 ≤ 9 false → still one → not dense.
        assert!(!rs.contains(Point::new(7.0, 8.0)));
        // No center can hold both: they are exactly l apart and the
        // square is half-open, so the dense set is empty.
        assert!(rs.is_empty(), "{rs:?}");

        // Move the right object 1 closer: centers in [8, 9) × [6, 10)
        // hold both (q − l/2 ≤ c < q + l/2 for q = 6 gives c ∈ [4, 8);
        // for q = 9 gives c ∈ [7, 11); x-intersection [7, 8)).
        let objects = vec![Point::new(6.0, 8.0), Point::new(9.0, 8.0)];
        let rs = refine_region_set(&target, &objects, thresh(2.0), l);
        assert!(rs.contains(Point::new(7.0, 8.0)));
        assert!(!rs.contains(Point::new(8.0, 8.0)), "c = 8 loses q = 6");
        assert!(!rs.contains(Point::new(7.0, 5.75)), "below the y band");
        for r in rs.rects() {
            assert!(
                (r.x_lo - 7.0).abs() < 1e-12 && (r.x_hi - 8.0).abs() < 1e-12,
                "{r:?}"
            );
        }
    }

    #[test]
    fn arbitrary_shape_regions_emerge() {
        // Two overlapping clusters produce an L-ish/elongated region,
        // demonstrating "arbitrary shape and size" (Figure 3).
        let target = Rect::new(0.0, 0.0, 20.0, 20.0);
        let mut objects = vec![Point::new(5.0, 5.0); 3];
        objects.extend(vec![Point::new(7.0, 7.0); 3]); // diagonal offset
        let rs = refine_region_set(&target, &objects, thresh(3.0), 4.0);
        let bb = rs.bounding_rect().unwrap();
        assert!(bb.width() > 4.0, "region should span both clusters");
        // The union of the two offset squares is a staircase, not a
        // plain rectangle: its area is strictly below the bbox area.
        assert!(rs.area() < bb.area() - 1e-9);
    }

    /// The Y sweep before maximal runs: one rectangle per dense
    /// elementary segment.
    fn sweep_y_segments(
        target: &Rect,
        ys: &[f64],
        threshold: DenseThreshold,
        half: f64,
        x0: f64,
        x1: f64,
        out: &mut Vec<Rect>,
    ) {
        let mut events = vec![target.y_lo, target.y_hi];
        for &y in ys {
            for e in [y - half, y + half] {
                if e > target.y_lo && e < target.y_hi {
                    events.push(e);
                }
            }
        }
        events.sort_by(f64::total_cmp);
        events.dedup();
        for w in events.windows(2) {
            let (y0, y1) = (w[0], w[1]);
            let mid = 0.5 * (y0 + y1);
            let n = ys
                .iter()
                .filter(|&&y| mid - half < y && y <= mid + half)
                .count();
            if y1 > y0 && threshold.met_by(n) {
                out.push(Rect::new(x0, y0, x1, y1));
            }
        }
    }

    /// A candidate cell and the objects around it, built to put sweep
    /// events on top of each other: coincident objects, objects on cell
    /// edges and objects exactly l/2 or l from another one, on a grid at
    /// the cell-edge limit (pitch = l/2) of a dyadic and a non-dyadic l.
    fn adversarial_scene(rng: &mut Lcg, case: usize) -> (Rect, Vec<Point>, f64) {
        let l = if case.is_multiple_of(2) {
            10.0
        } else {
            2000.0 / 30.0
        };
        let pitch = l / 2.0;
        let (i, j) = (rng.below(4) as f64, rng.below(4) as f64);
        let target = Rect::new(i * pitch, j * pitch, (i + 1.0) * pitch, (j + 1.0) * pitch);
        let area = target.inflate(pitch);
        let mut objects: Vec<Point> = Vec::new();
        for _ in 0..(4 + rng.below(40)) {
            let fresh = Point::new(
                rng.in_range(area.x_lo, area.x_hi),
                rng.in_range(area.y_lo, area.y_hi),
            );
            let p = match (objects.last().copied(), rng.below(6)) {
                (Some(q), 0) => q,
                (Some(q), 1) => Point::new(q.x + pitch, q.y),
                (Some(q), 2) => Point::new(q.x, q.y - pitch),
                (Some(q), 3) => Point::new(q.x + l, q.y + pitch),
                (_, 4) => Point::new(
                    (fresh.x / pitch).round() * pitch,
                    (fresh.y / pitch).round() * pitch,
                ),
                _ => fresh,
            };
            objects.push(p);
        }
        (target, objects, l)
    }

    #[test]
    fn maximal_runs_canonicalize_like_per_segment_output() {
        let mut rng = Lcg(0x5EED_0015);
        for case in 0..1500 {
            let (target, objects, l) = adversarial_scene(&mut rng, case);
            let threshold = thresh(1.0 + rng.below(6) as f64);
            let runs = refine_bands(&target, &mut objects.clone(), threshold, l, sweep_y);
            let segments = refine_bands(
                &target,
                &mut objects.clone(),
                threshold,
                l,
                sweep_y_segments,
            );
            assert!(runs.len() <= segments.len());

            // Within one X band the runs are disjoint and never abut.
            let mut by_band = runs.clone();
            by_band.sort_by(|a, b| {
                (a.x_lo.total_cmp(&b.x_lo))
                    .then(a.x_hi.total_cmp(&b.x_hi))
                    .then(a.y_lo.total_cmp(&b.y_lo))
            });
            for w in by_band.windows(2) {
                if w[0].x_lo == w[1].x_lo && w[0].x_hi == w[1].x_hi {
                    assert!(
                        w[0].y_hi < w[1].y_lo,
                        "case {case}: {:?} meets {:?}",
                        w[0],
                        w[1]
                    );
                }
            }

            let canonical = |rects: Vec<Rect>| {
                let mut rs = RegionSet::from_rects(rects);
                rs.canonicalize();
                rs.rects()
                    .iter()
                    .map(|r| [r.x_lo, r.y_lo, r.x_hi, r.y_hi].map(f64::to_bits))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                canonical(runs),
                canonical(segments),
                "case {case}: {objects:?}"
            );
        }
    }
}
