//! Branch-and-bound extraction of super-level sets (Section 6.3).

use pdr_geometry::{Rect, RegionSet};

/// A scalar field over a rectangular domain that can report sound
/// lower/upper bounds on sub-rectangles. Implemented by
/// [`crate::ChebyshevApprox`]; the abstraction lets tests drive the
/// branch-and-bound with exactly-known fields.
pub trait BoundedField {
    /// The field's rectangular domain.
    fn domain(&self) -> Rect;
    /// Field value at `(x, y)`.
    fn value(&self, x: f64, y: f64) -> f64;
    /// `(lower, upper)` bounds of the field over `r` (must be sound:
    /// every value of the field on `r ∩ domain` lies within them).
    fn value_bounds(&self, r: &Rect) -> (f64, f64);
}

impl BoundedField for crate::ChebyshevApprox {
    fn domain(&self) -> Rect {
        self.domain()
    }
    fn value(&self, x: f64, y: f64) -> f64 {
        self.eval(pdr_geometry::Point::new(x, y))
    }
    fn value_bounds(&self, r: &Rect) -> (f64, f64) {
        self.bounds(r)
    }
}

impl BoundedField for crate::PolyGrid {
    fn domain(&self) -> Rect {
        crate::PolyGrid::domain(self)
    }
    fn value(&self, x: f64, y: f64) -> f64 {
        self.eval(pdr_geometry::Point::new(x, y))
    }
    fn value_bounds(&self, r: &Rect) -> (f64, f64) {
        // Sound bound over r ∩ domain: combine the bounds of every tile
        // whose domain overlaps r.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for tile in self.tiles_intersecting(r) {
            let (tl, th) = tile.bounds(r);
            lo = lo.min(tl);
            hi = hi.max(th);
        }
        if lo > hi {
            (0.0, 0.0) // r misses the domain entirely
        } else {
            (lo, hi)
        }
    }
}

/// Configuration of the recursive subdivision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BnbConfig {
    /// Stop subdividing once a region's longer edge is below this; the
    /// region is then classified by its center value. This is the
    /// paper's `L/m_d` resolution: the trivial alternative evaluates an
    /// `m_d × m_d` point grid.
    pub min_edge: f64,
}

impl BnbConfig {
    /// Resolution equivalent to an `m_d × m_d` evaluation grid over a
    /// domain of the given extent.
    pub fn for_grid(extent: f64, m_d: u32) -> Self {
        assert!(m_d > 0, "evaluation grid must be positive");
        BnbConfig {
            min_edge: extent / m_d as f64,
        }
    }
}

/// Node accounting of one branch-and-bound run: where the recursion
/// spent its bound evaluations. `expanded` is the total number of nodes
/// visited (each costs one interval-bound evaluation — the quantity
/// that makes the PA query cost threshold-dependent, Figure 9(a));
/// `accepted` / `pruned` count the nodes whose interval bound decided
/// them outright, and `leaf_evals` counts the resolution-limit leaves
/// that fell back to a center-point evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BnbStats {
    /// Nodes visited (= interval-bound evaluations performed).
    pub expanded: u64,
    /// Nodes accepted whole because their lower bound cleared `tau`.
    pub accepted: u64,
    /// Nodes pruned whole because their upper bound fell below `tau`.
    pub pruned: u64,
    /// Leaf nodes classified by their center value.
    pub leaf_evals: u64,
}

impl std::ops::AddAssign for BnbStats {
    fn add_assign(&mut self, rhs: BnbStats) {
        self.expanded += rhs.expanded;
        self.accepted += rhs.accepted;
        self.pruned += rhs.pruned;
        self.leaf_evals += rhs.leaf_evals;
    }
}

/// Returns the region where `field ≥ tau`, as a union of rectangles,
/// following the paper's recursion: if the lower bound over a region
/// clears `tau` the whole region is accepted; if the upper bound is
/// below `tau` it is pruned; otherwise the region splits in four, until
/// [`BnbConfig::min_edge`], where the center value decides.
///
/// Also returns the [`BnbStats`] node accounting; `stats.expanded` is
/// the bound-evaluation count earlier revisions returned bare.
pub fn superlevel_set<F: BoundedField>(
    field: &F,
    tau: f64,
    cfg: &BnbConfig,
) -> (RegionSet, BnbStats) {
    let mut out = RegionSet::new();
    let mut stats = BnbStats::default();
    recurse(field, tau, cfg, &field.domain(), &mut out, &mut stats);
    out.canonicalize();
    (out, stats)
}

fn recurse<F: BoundedField>(
    field: &F,
    tau: f64,
    cfg: &BnbConfig,
    r: &Rect,
    out: &mut RegionSet,
    stats: &mut BnbStats,
) {
    stats.expanded += 1;
    let (lo, hi) = field.value_bounds(r);
    if lo >= tau {
        stats.accepted += 1;
        out.push(*r);
        return;
    }
    if hi < tau {
        stats.pruned += 1;
        return;
    }
    if r.width().max(r.height()) <= cfg.min_edge {
        stats.leaf_evals += 1;
        let c = r.center();
        if field.value(c.x, c.y) >= tau {
            out.push(*r);
        }
        return;
    }
    let cx = (r.x_lo + r.x_hi) / 2.0;
    let cy = (r.y_lo + r.y_hi) / 2.0;
    for quad in [
        Rect::new(r.x_lo, r.y_lo, cx, cy),
        Rect::new(cx, r.y_lo, r.x_hi, cy),
        Rect::new(r.x_lo, cy, cx, r.y_hi),
        Rect::new(cx, cy, r.x_hi, r.y_hi),
    ] {
        recurse(field, tau, cfg, &quad, out, stats);
    }
}

/// The `k` highest-valued spots of `field`: best-first branch-and-bound
/// that always expands the region with the largest upper bound, records
/// a peak whenever a leaf-sized region surfaces, and skips leaves whose
/// centers are within `min_separation` (L∞) of an already-recorded
/// peak.
///
/// Because regions are popped in decreasing upper-bound order, the
/// first recorded peak is within the bound looseness of the global
/// maximum; subsequent peaks are greedy under the separation
/// constraint. Returns up to `k` `(leaf_rect, center_value)` pairs in
/// decreasing value order.
pub fn top_k_peaks<F: BoundedField>(
    field: &F,
    k: usize,
    cfg: &BnbConfig,
    min_separation: f64,
) -> Vec<(Rect, f64)> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Entry {
        ub: f64,
        rect: Rect,
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.ub == other.ub
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.ub.total_cmp(&other.ub)
        }
    }

    let mut heap = BinaryHeap::new();
    let root = field.domain();
    let (_, ub) = field.value_bounds(&root);
    heap.push(Entry { ub, rect: root });
    let mut peaks: Vec<(Rect, f64)> = Vec::with_capacity(k);

    while let Some(Entry { ub, rect }) = heap.pop() {
        if peaks.len() >= k {
            break;
        }
        // Nothing in the heap can beat the worst peak we could still
        // accept; also prune regions dominated by existing separation.
        if rect.width().max(rect.height()) <= cfg.min_edge {
            let c = rect.center();
            let separated = peaks
                .iter()
                .all(|(p, _)| p.center().linf_distance(c) >= min_separation);
            if separated {
                peaks.push((rect, field.value(c.x, c.y)));
            }
            continue;
        }
        let _ = ub;
        let cx = (rect.x_lo + rect.x_hi) / 2.0;
        let cy = (rect.y_lo + rect.y_hi) / 2.0;
        for quad in [
            Rect::new(rect.x_lo, rect.y_lo, cx, cy),
            Rect::new(cx, rect.y_lo, rect.x_hi, cy),
            Rect::new(rect.x_lo, cy, cx, rect.y_hi),
            Rect::new(cx, cy, rect.x_hi, rect.y_hi),
        ] {
            let (_, qub) = field.value_bounds(&quad);
            heap.push(Entry {
                ub: qub,
                rect: quad,
            });
        }
    }
    // Peaks were found in UB order; report in decreasing value order.
    peaks.sort_by(|a, b| b.1.total_cmp(&a.1));
    peaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_geometry::Point;

    /// A test field with exactly-known level sets: a cone peaking at
    /// `peak` with height `h` and slope 1 (L∞ cone, so level sets are
    /// squares).
    struct Cone {
        domain: Rect,
        peak: Point,
        h: f64,
    }

    impl BoundedField for Cone {
        fn domain(&self) -> Rect {
            self.domain
        }
        fn value(&self, x: f64, y: f64) -> f64 {
            self.h - self.peak.linf_distance(Point::new(x, y))
        }
        fn value_bounds(&self, r: &Rect) -> (f64, f64) {
            // L-inf distance from peak to rect: 0 if inside.
            let dx = (r.x_lo - self.peak.x).max(self.peak.x - r.x_hi).max(0.0);
            let dy = (r.y_lo - self.peak.y).max(self.peak.y - r.y_hi).max(0.0);
            let dmin = dx.max(dy);
            // Max L-inf distance: farthest corner.
            let fx = (self.peak.x - r.x_lo)
                .abs()
                .max((r.x_hi - self.peak.x).abs());
            let fy = (self.peak.y - r.y_lo)
                .abs()
                .max((r.y_hi - self.peak.y).abs());
            let dmax = fx.max(fy);
            (self.h - dmax, self.h - dmin)
        }
    }

    #[test]
    fn recovers_square_level_set() {
        let cone = Cone {
            domain: Rect::new(0.0, 0.0, 64.0, 64.0),
            peak: Point::new(32.0, 32.0),
            h: 10.0,
        };
        // {value >= 4} is the square of half-width 6 around the peak.
        let (region, _) = superlevel_set(&cone, 4.0, &BnbConfig { min_edge: 0.25 });
        let truth = RegionSet::from_rects([Rect::new(26.0, 26.0, 38.0, 38.0)]);
        let err = region.symmetric_difference_area(&truth);
        assert!(
            err < 0.05 * truth.area(),
            "level-set symmetric difference {err}"
        );
    }

    #[test]
    fn empty_when_threshold_above_peak() {
        let cone = Cone {
            domain: Rect::new(0.0, 0.0, 64.0, 64.0),
            peak: Point::new(10.0, 10.0),
            h: 5.0,
        };
        let (region, stats) = superlevel_set(&cone, 6.0, &BnbConfig { min_edge: 0.5 });
        assert!(region.is_empty());
        // Pruned at the very first bound check.
        assert_eq!(stats.expanded, 1);
        assert_eq!(stats.pruned, 1);
        assert_eq!(stats.accepted + stats.leaf_evals, 0);
    }

    #[test]
    fn whole_domain_when_threshold_below_minimum() {
        let d = Rect::new(0.0, 0.0, 32.0, 32.0);
        let cone = Cone {
            domain: d,
            peak: Point::new(16.0, 16.0),
            h: 100.0,
        };
        let (region, stats) = superlevel_set(&cone, 10.0, &BnbConfig { min_edge: 0.5 });
        assert!((region.area() - d.area()).abs() < 1e-9);
        assert_eq!(stats.expanded, 1, "entire domain accepted at the root");
        assert_eq!(stats.accepted, 1);
    }

    #[test]
    fn higher_threshold_prunes_more() {
        let cone = Cone {
            domain: Rect::new(0.0, 0.0, 64.0, 64.0),
            peak: Point::new(32.0, 32.0),
            h: 10.0,
        };
        let cfg = BnbConfig { min_edge: 0.25 };
        let (_, stats_low) = superlevel_set(&cone, 2.0, &cfg);
        let (_, stats_high) = superlevel_set(&cone, 9.0, &cfg);
        assert!(
            stats_high.expanded < stats_low.expanded,
            "expected fewer bound evaluations at higher threshold ({} vs {})",
            stats_high.expanded,
            stats_low.expanded
        );
        // Every node is decided exactly one way.
        for s in [stats_low, stats_high] {
            let children = s.expanded - 1; // all but the root are children
            assert_eq!(children % 4, 0, "quadtree children come in fours");
            assert_eq!(
                s.accepted + s.pruned + s.leaf_evals + children / 4,
                s.expanded,
                "accounting must partition the visited nodes: {s:?}"
            );
        }
    }

    /// A two-cone field with peaks of different heights: top-2 must
    /// find both, tallest first.
    struct TwoCones {
        domain: Rect,
        peaks: [(Point, f64); 2],
    }

    impl BoundedField for TwoCones {
        fn domain(&self) -> Rect {
            self.domain
        }
        fn value(&self, x: f64, y: f64) -> f64 {
            self.peaks
                .iter()
                .map(|(c, h)| h - c.linf_distance(Point::new(x, y)))
                .fold(f64::NEG_INFINITY, f64::max)
        }
        fn value_bounds(&self, r: &Rect) -> (f64, f64) {
            let per_peak = |c: &Point, h: f64| {
                let dx = (r.x_lo - c.x).max(c.x - r.x_hi).max(0.0);
                let dy = (r.y_lo - c.y).max(c.y - r.y_hi).max(0.0);
                let dmin = dx.max(dy);
                let fx = (c.x - r.x_lo).abs().max((r.x_hi - c.x).abs());
                let fy = (c.y - r.y_lo).abs().max((r.y_hi - c.y).abs());
                (h - fx.max(fy), h - dmin)
            };
            let (l1, h1) = per_peak(&self.peaks[0].0, self.peaks[0].1);
            let (l2, h2) = per_peak(&self.peaks[1].0, self.peaks[1].1);
            (l1.max(l2), h1.max(h2))
        }
    }

    #[test]
    fn top_k_finds_both_peaks_tallest_first() {
        let field = TwoCones {
            domain: Rect::new(0.0, 0.0, 64.0, 64.0),
            peaks: [
                (Point::new(16.0, 16.0), 10.0),
                (Point::new(48.0, 48.0), 7.0),
            ],
        };
        let cfg = BnbConfig { min_edge: 0.5 };
        let found = top_k_peaks(&field, 2, &cfg, 5.0);
        assert_eq!(found.len(), 2);
        assert!(found[0].1 > found[1].1, "tallest peak first");
        assert!(found[0].0.center().linf_distance(Point::new(16.0, 16.0)) < 1.0);
        assert!(found[1].0.center().linf_distance(Point::new(48.0, 48.0)) < 1.0);
        assert!((found[0].1 - 10.0).abs() < 0.5);
        assert!((found[1].1 - 7.0).abs() < 0.5);
    }

    #[test]
    fn separation_suppresses_shoulder_peaks() {
        let field = TwoCones {
            domain: Rect::new(0.0, 0.0, 64.0, 64.0),
            peaks: [
                (Point::new(30.0, 30.0), 10.0),
                (Point::new(33.0, 30.0), 9.0),
            ],
        };
        let cfg = BnbConfig { min_edge: 0.5 };
        // With separation 10, the second cone (3 away) is suppressed;
        // asking for 2 peaks yields the main one plus something far.
        let found = top_k_peaks(&field, 2, &cfg, 10.0);
        assert_eq!(found.len(), 2);
        assert!(
            found[0].0.center().linf_distance(found[1].0.center()) >= 10.0,
            "peaks too close: {found:?}"
        );
    }

    #[test]
    fn top_k_on_polygrid_surface() {
        use crate::PolyGrid;
        let mut g = PolyGrid::new(100.0, 4, 6);
        g.add_box(&Rect::new(20.0, 20.0, 30.0, 30.0), 3.0); // hot
        g.add_box(&Rect::new(70.0, 70.0, 80.0, 80.0), 1.0); // warm
        let found = g.top_k_peaks(2, &BnbConfig { min_edge: 1.0 }, 20.0);
        assert_eq!(found.len(), 2);
        assert!(
            found[0].0.center().linf_distance(Point::new(25.0, 25.0)) < 6.0,
            "hot peak misplaced: {found:?}"
        );
        assert!(found[0].1 > found[1].1);
    }

    #[test]
    fn for_grid_resolution() {
        let cfg = BnbConfig::for_grid(1000.0, 1000);
        assert_eq!(cfg.min_edge, 1.0);
    }
}
