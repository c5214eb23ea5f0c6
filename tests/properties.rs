//! Randomized property tests on the core data structures and the
//! paper's invariants. Inputs are drawn from the in-repo deterministic
//! PRNG (`pdr::workload::StdRng`) so the suite needs no network-fetched
//! test frameworks and every failure reproduces from the fixed seeds.

use pdr::chebyshev::{delta_coefficients, ChebyshevApprox, CoeffTriangle};
use pdr::geometry::{Interval, IntervalSet, LSquare, Point, Rect, RegionSet};
use pdr::mobject::{MotionState, ObjectId, Timestamp};
use pdr::tprtree::{TprConfig, TprTree};
use pdr::workload::StdRng;
use pdr::{refine_region_set, DenseThreshold};

// ---------------------------------------------------------------------
// Deterministic generators (mirroring the old proptest strategies)
// ---------------------------------------------------------------------

fn rand_interval(rng: &mut StdRng) -> Interval {
    let lo = rng.random_range(-100.0..100.0);
    let len = rng.random_range(0.0..50.0);
    Interval::new(lo, lo + len)
}

fn rand_interval_set(rng: &mut StdRng) -> IntervalSet {
    let n = rng.random_range(0..12usize);
    IntervalSet::from_intervals((0..n).map(|_| rand_interval(rng)))
}

fn rand_rect(rng: &mut StdRng) -> Rect {
    let x = rng.random_range(0.0..90.0);
    let y = rng.random_range(0.0..90.0);
    let w = rng.random_range(0.1..40.0);
    let h = rng.random_range(0.1..40.0);
    Rect::new(x, y, x + w, y + h)
}

fn rand_region(rng: &mut StdRng) -> RegionSet {
    let n = rng.random_range(0..10usize);
    RegionSet::from_rects((0..n).map(|_| rand_rect(rng)))
}

fn rand_motion(rng: &mut StdRng) -> MotionState {
    MotionState::new(
        Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)),
        Point::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0)),
        0,
    )
}

// ---------------------------------------------------------------------
// Geometry: interval sets
// ---------------------------------------------------------------------

/// Normalization invariants: sorted, disjoint, non-empty items.
#[test]
fn interval_sets_are_normalized() {
    let mut rng = StdRng::seed_from_u64(0x1A01);
    for _ in 0..256 {
        let s = rand_interval_set(&mut rng);
        let items = s.intervals();
        for w in items.windows(2) {
            assert!(w[0].hi < w[1].lo, "not disjoint/sorted: {items:?}");
        }
        for iv in items {
            assert!(iv.lo < iv.hi);
        }
    }
}

/// measure(A ∪ B) = measure(A) + measure(B) − measure(A ∩ B).
#[test]
fn interval_inclusion_exclusion() {
    let mut rng = StdRng::seed_from_u64(0x1A02);
    for _ in 0..256 {
        let a = rand_interval_set(&mut rng);
        let b = rand_interval_set(&mut rng);
        let lhs = a.union(&b).measure();
        let rhs = a.measure() + b.measure() - a.intersection(&b).measure();
        assert!((lhs - rhs).abs() < 1e-6, "{lhs} vs {rhs}");
    }
}

/// Difference measure is consistent with membership sampling.
#[test]
fn interval_difference_vs_membership() {
    let mut rng = StdRng::seed_from_u64(0x1A03);
    for _ in 0..256 {
        let a = rand_interval_set(&mut rng);
        let b = rand_interval_set(&mut rng);
        for _ in 0..20 {
            let x = rng.random_range(-110.0..110.0);
            if a.contains(x) && !b.contains(x) {
                // x sits in A\B, so the difference is a legal set with
                // non-negative measure.
                assert!(a.difference_measure(&b) >= 0.0);
            }
        }
        assert!(a.difference_measure(&b) <= a.measure() + 1e-9);
    }
}

// ---------------------------------------------------------------------
// Geometry: region sets
// ---------------------------------------------------------------------

/// area(A ∪ B) = area(A) + area(B) − area(A ∩ B).
#[test]
fn region_inclusion_exclusion() {
    let mut rng = StdRng::seed_from_u64(0x2B01);
    for _ in 0..256 {
        let a = rand_region(&mut rng);
        let b = rand_region(&mut rng);
        let lhs = a.union_area(&b);
        let rhs = a.area() + b.area() - a.intersection_area(&b);
        assert!((lhs - rhs).abs() < 1e-6, "{lhs} vs {rhs}");
    }
}

/// Differences are complementary: area(A) = area(A∩B) + area(A\B).
#[test]
fn region_difference_partition() {
    let mut rng = StdRng::seed_from_u64(0x2B02);
    for _ in 0..256 {
        let a = rand_region(&mut rng);
        let b = rand_region(&mut rng);
        let total = a.intersection_area(&b) + a.difference_area(&b);
        assert!((total - a.area()).abs() < 1e-6);
    }
}

/// Canonicalizing never changes the point set (checked by area of the
/// symmetric difference with the original).
#[test]
fn canonicalize_preserves_point_set() {
    let mut rng = StdRng::seed_from_u64(0x2B03);
    for _ in 0..256 {
        let a = rand_region(&mut rng);
        let mut c = a.clone();
        c.canonicalize();
        assert!(a.symmetric_difference_area(&c) < 1e-6);
    }
}

/// Membership is monotone under union: points inside a region stay
/// inside the union with anything.
#[test]
fn region_membership_monotone() {
    let mut rng = StdRng::seed_from_u64(0x2B04);
    for _ in 0..256 {
        let a = rand_region(&mut rng);
        let b = rand_region(&mut rng);
        let p = Point::new(rng.random_range(0.0..130.0), rng.random_range(0.0..130.0));
        if a.contains(p) {
            let mut u = a.clone();
            u.extend_from(&b);
            assert!(u.contains(p));
        }
    }
}

// ---------------------------------------------------------------------
// The plane-sweep refinement vs brute force
// ---------------------------------------------------------------------

/// On random scenes, the sweep's answer agrees pointwise with the
/// brute-force density definition.
#[test]
fn sweep_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x3C01);
    for _ in 0..64 {
        let l = 5.0;
        let target = Rect::new(0.0, 0.0, 30.0, 30.0);
        let n = rng.random_range(0..60usize);
        let objects: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.random_range(0.0..30.0), rng.random_range(0.0..30.0)))
            .collect();
        let threshold = rng.random_range(1..6usize);
        let region = refine_region_set(
            &target,
            &objects,
            DenseThreshold::from_count(threshold as f64),
            l,
        );
        for _ in 0..30 {
            let p = Point::new(rng.random_range(0.0..30.0), rng.random_range(0.0..30.0));
            let sq = LSquare::new(p, l);
            let count = objects.iter().filter(|&&o| sq.contains(o)).count();
            assert_eq!(
                region.contains(p),
                count >= threshold,
                "point {p:?} with {count} neighbors, threshold {threshold}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// TPR-tree vs brute force
// ---------------------------------------------------------------------

/// Range queries after inserts and deletes match linear scan.
#[test]
fn tprtree_matches_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0x4D01);
    for _ in 0..24 {
        let n = rng.random_range(1..250usize);
        let motions: Vec<MotionState> = (0..n).map(|_| rand_motion(&mut rng)).collect();
        let remove_mod = rng.random_range(2..5usize);
        let qt = rng.random_range(0..20u64);
        let qx = rng.random_range(0.0..900.0);
        let qy = rng.random_range(0.0..900.0);
        let qw = rng.random_range(10.0..300.0);
        let qh = rng.random_range(10.0..300.0);

        let mut tree = TprTree::new(
            TprConfig {
                buffer_pages: 16,
                min_fill_ratio: 0.4,
                horizon: 20.0,
                integral_metrics: true,
            },
            0,
        );
        for (i, m) in motions.iter().enumerate() {
            tree.insert(ObjectId(i as u64), m, 0);
        }
        let mut live: Vec<(ObjectId, MotionState)> = Vec::new();
        for (i, m) in motions.iter().enumerate() {
            if i % remove_mod == 0 {
                assert!(tree.remove(ObjectId(i as u64)));
            } else {
                live.push((ObjectId(i as u64), *m));
            }
        }
        let rect = Rect::new(qx, qy, qx + qw, qy + qh);
        let mut got: Vec<u64> = tree
            .range_at(&rect, qt as Timestamp)
            .into_iter()
            .map(|(id, _)| id.0)
            .collect();
        got.sort_unstable();
        let mut expect: Vec<u64> = live
            .iter()
            .filter(|(_, m)| rect.contains(m.position_at(qt as Timestamp)))
            .map(|(id, _)| id.0)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
        tree.validate();
    }
}

// ---------------------------------------------------------------------
// Chebyshev machinery
// ---------------------------------------------------------------------

/// Interval bounds are sound for random indicator-sum surfaces.
#[test]
fn chebyshev_bounds_sound() {
    let mut rng = StdRng::seed_from_u64(0x5E01);
    for _ in 0..48 {
        let domain = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut f = ChebyshevApprox::zero(domain, 5);
        let boxes = rng.random_range(1..6usize);
        for _ in 0..boxes {
            let x = rng.random_range(0.0..80.0);
            let y = rng.random_range(0.0..80.0);
            let w = rng.random_range(1.0..20.0);
            let h = rng.random_range(1.0..20.0);
            let weight = rng.random_range(-2.0..2.0);
            f.add_box(&Rect::new(x, y, x + w, y + h), weight);
        }
        let rx = rng.random_range(0.0..80.0);
        let ry = rng.random_range(0.0..80.0);
        let rw = rng.random_range(1.0..20.0);
        let rh = rng.random_range(1.0..20.0);
        let r = Rect::new(rx, ry, rx + rw, ry + rh);
        let (lo, hi) = f.bounds(&r);
        for _ in 0..20 {
            let fx = rng.random_range(0.0..1.0);
            let fy = rng.random_range(0.0..1.0);
            let p = Point::new(r.x_lo + fx * r.width(), r.y_lo + fy * r.height());
            let v = f.eval(p);
            assert!(
                v >= lo - 1e-9 && v <= hi + 1e-9,
                "value {v} outside [{lo}, {hi}] at {p:?}"
            );
        }
    }
}

/// Coefficient linearity: delta(A) + delta(B) applied in either order
/// gives the same surface.
#[test]
fn chebyshev_update_order_independent() {
    let mut rng = StdRng::seed_from_u64(0x5E02);
    for _ in 0..256 {
        let x1 = rng.random_range(0.0..0.5);
        let y1 = rng.random_range(0.0..0.5);
        let x2 = rng.random_range(-0.5..0.0);
        let y2 = rng.random_range(-0.5..0.0);
        let w1 = rng.random_range(0.1..3.0);
        let w2 = rng.random_range(0.1..3.0);
        let a = delta_coefficients(4, x1 - 0.2, x1 + 0.2, y1 - 0.2, y1 + 0.2, w1);
        let b = delta_coefficients(4, x2 - 0.2, x2 + 0.2, y2 - 0.2, y2 + 0.2, w2);
        let mut ab = CoeffTriangle::zero(4);
        ab.add_assign(&a);
        ab.add_assign(&b);
        let mut ba = CoeffTriangle::zero(4);
        ba.add_assign(&b);
        ba.add_assign(&a);
        for (i, j, v) in ab.iter() {
            assert!((v - ba.get(i, j)).abs() < 1e-12);
        }
    }
}

// ---------------------------------------------------------------------
// Motion model
// ---------------------------------------------------------------------

/// Rebasing a motion never changes its trajectory.
#[test]
fn rebase_preserves_trajectory() {
    let mut rng = StdRng::seed_from_u64(0x6F01);
    for _ in 0..256 {
        let m = rand_motion(&mut rng);
        let t1 = rng.random_range(0..100u64);
        let probe = rng.random_range(0..200u64);
        let r = m.rebased_to(t1);
        let a = m.position_at(probe);
        let b = r.position_at(probe);
        assert!((a.x - b.x).abs() < 1e-6 && (a.y - b.y).abs() < 1e-6);
    }
}
