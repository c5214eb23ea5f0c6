//! Measurable unions of rectangles.
//!
//! PDR query answers are unions of axis-aligned rectangles, and the
//! paper's accuracy metrics are ratios of areas of such unions and their
//! set differences:
//!
//! ```text
//! r_fp = area(D' \ D) / area(D)      (may exceed 1)
//! r_fn = area(D \ D') / area(D)      (never exceeds 1)
//! ```
//!
//! where `D` is the true dense region and `D'` the region a method
//! reports. [`RegionSet`] supports exactly these measures via a vertical
//! slab sweep: the union of distinct X coordinates of both operand sets
//! cuts the plane into slabs inside which membership along Y is constant,
//! so each slab reduces to 1-D [`IntervalSet`] arithmetic.

use crate::{Interval, IntervalSet, Point, Rect, EPS};
use std::fmt;

/// A union of axis-aligned rectangles, treated as a point set with
/// half-open `[lo, hi)` semantics (so abutting rectangles do not overlap).
///
/// The representation is a plain list of rectangles — possibly
/// overlapping, possibly abutting. All measure operations are computed on
/// the *union*, so duplicates and overlaps are harmless for correctness;
/// [`canonicalize`](RegionSet::canonicalize) compacts the list into the
/// one disjoint decomposition that depends only on the point set.
#[derive(Clone, Default, PartialEq)]
pub struct RegionSet {
    rects: Vec<Rect>,
}

impl RegionSet {
    /// The empty region.
    pub fn new() -> Self {
        RegionSet { rects: Vec::new() }
    }

    /// Builds a region from rectangles, dropping degenerate ones.
    pub fn from_rects<I: IntoIterator<Item = Rect>>(iter: I) -> Self {
        RegionSet {
            rects: iter.into_iter().filter(|r| !r.is_degenerate()).collect(),
        }
    }

    /// Adds one rectangle (ignored when degenerate).
    pub fn push(&mut self, r: Rect) {
        if !r.is_degenerate() {
            self.rects.push(r);
        }
    }

    /// Appends all rectangles of `other`.
    pub fn extend_from(&mut self, other: &RegionSet) {
        self.rects.extend_from_slice(&other.rects);
    }

    /// The underlying rectangles (overlaps permitted).
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Number of stored rectangles (not a measure of the union).
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// `true` when no rectangles are stored.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Membership test (half-open `[lo, hi)` on each rectangle).
    pub fn contains(&self, p: Point) -> bool {
        self.rects.iter().any(|r| r.contains_half_open(p))
    }

    /// Bounding rectangle of the whole region, or `None` when empty.
    pub fn bounding_rect(&self) -> Option<Rect> {
        let mut it = self.rects.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union(r)))
    }

    /// Area of the union of all stored rectangles.
    pub fn area(&self) -> f64 {
        slab_sweep(self, None, Mode::SelfArea)
    }

    /// Area of `self ∩ other` (as point sets).
    pub fn intersection_area(&self, other: &RegionSet) -> f64 {
        slab_sweep(self, Some(other), Mode::Intersection)
    }

    /// Area of `self \ other` (as point sets).
    pub fn difference_area(&self, other: &RegionSet) -> f64 {
        slab_sweep(self, Some(other), Mode::Difference)
    }

    /// Area of `self ∪ other`.
    pub fn union_area(&self, other: &RegionSet) -> f64 {
        self.area() + other.difference_area(self)
    }

    /// Symmetric-difference area, a convenient scalar distance between two
    /// reported answer regions.
    pub fn symmetric_difference_area(&self, other: &RegionSet) -> f64 {
        self.difference_area(other) + other.difference_area(self)
    }

    /// Rewrites the set into its *canonical maximal-slab decomposition*:
    /// disjoint rectangles, each spanning a maximal X-run over which the
    /// union's Y-cross-section is one fixed maximal interval, sorted by
    /// `(x_lo, y_lo)`.
    ///
    /// The result depends only on the union **as a point set** — not on
    /// how it was cut into rectangles — so two canonicalized sets covering
    /// the same points are bit-identical rectangle lists. The sharded
    /// engine plane relies on this to reproduce the unsharded answer
    /// whatever its cuts. All comparisons are exact (`f64::total_cmp`), no
    /// epsilon: shards hand back coordinates copied from the same
    /// arithmetic the unsharded engine performs.
    ///
    /// An event sweep over the distinct X coordinates: rectangles enter
    /// and leave an active list once each, every slab merges the active
    /// Y-spans into maximal runs, and a merge-join on `y_lo` carries each
    /// run that continues unchanged from the previous slab. The cost is
    /// O(n log n) plus the active spans summed over slabs.
    pub fn canonicalize(&mut self) {
        let by_x_then_y =
            |a: &Rect, b: &Rect| a.x_lo.total_cmp(&b.x_lo).then(a.y_lo.total_cmp(&b.y_lo));
        self.rects.retain(|r| !r.is_degenerate());
        if self.rects.len() < 2 {
            self.rects.sort_by(by_x_then_y);
            return;
        }
        let mut xs: Vec<f64> = self.rects.iter().flat_map(|r| [r.x_lo, r.x_hi]).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| a.total_cmp(b).is_eq());

        let mut active = Active::new(&self.rects);
        let mut out: Vec<Rect> = Vec::new();
        // Rectangles still extendable rightward (their y-run persisted
        // through the previous slab), sorted by `y_lo`.
        let mut open: Vec<Rect> = Vec::new();
        let mut next_open: Vec<Rect> = Vec::new();
        let mut spans: Vec<(f64, f64)> = Vec::new();
        let mut runs: Vec<(f64, f64)> = Vec::new();
        for w in xs.windows(2) {
            let (x0, x1) = (w[0], w[1]);
            if x0 >= x1 {
                continue; // e.g. the zero-width -0.0 / +0.0 slab
            }
            // Maximal disjoint Y-runs of the union inside this slab.
            spans.clear();
            spans.extend(active.at(x0).map(|r| (r.y_lo, r.y_hi)));
            spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
            runs.clear();
            for &(lo, hi) in &spans {
                match runs.last_mut() {
                    // Half-open semantics: overlapping *or* abutting runs merge.
                    Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                    _ => runs.push((lo, hi)),
                }
            }
            // Both `runs` and `open` are disjoint and ascending in y:
            // extend an identical run across the slab boundary,
            // otherwise open a fresh rectangle; unmatched leftovers close.
            let mut j = 0;
            for &(lo, hi) in &runs {
                while j < open.len() && open[j].y_lo < lo {
                    out.push(open[j]);
                    j += 1;
                }
                match open.get(j) {
                    Some(r) if r.y_lo == lo && r.y_hi == hi => {
                        next_open.push(Rect { x_hi: x1, ..*r });
                        j += 1;
                    }
                    _ => next_open.push(Rect::new(x0, lo, x1, hi)),
                }
            }
            out.extend_from_slice(&open[j..]);
            open.clear();
            std::mem::swap(&mut open, &mut next_open);
        }
        out.append(&mut open);
        out.sort_by(by_x_then_y);
        self.rects = out;
    }

    /// Boundary-aware merge of per-shard answers: clips each partial
    /// answer to the rectangle its shard *owns* (shards also see halo
    /// objects, so their raw answers overhang their cut lines), unions
    /// the disjoint clipped pieces, and canonicalizes.
    ///
    /// Because [`canonicalize`](RegionSet::canonicalize) depends only on
    /// the point set, the merged answer is a bit-identical rectangle list
    /// to `canonicalize(unsharded answer)` whenever every shard computed
    /// the exact dense region over its owned sub-rectangle — at *any*
    /// shard count, including 1.
    pub fn union_disjoint_clipped<'a, I>(parts: I) -> RegionSet
    where
        I: IntoIterator<Item = (&'a RegionSet, Rect)>,
    {
        let mut merged = RegionSet::new();
        for (set, owned) in parts {
            for r in &set.rects {
                if let Some(clipped) = r.intersection(&owned) {
                    merged.push(clipped); // push drops degenerate slivers
                }
            }
        }
        merged.canonicalize();
        merged
    }
}

impl fmt::Debug for RegionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.rects.iter()).finish()
    }
}

impl FromIterator<Rect> for RegionSet {
    fn from_iter<T: IntoIterator<Item = Rect>>(iter: T) -> Self {
        RegionSet::from_rects(iter)
    }
}

enum Mode {
    SelfArea,
    Intersection,
    Difference,
}

/// Vertical slab sweep over the union of X-event coordinates of both
/// operands. Within a slab, each operand's footprint along Y is a fixed
/// union of intervals, so the slab's contribution is
/// `slab_width × measure(interval-set expression)`.
fn slab_sweep(a: &RegionSet, b: Option<&RegionSet>, mode: Mode) -> f64 {
    let mut xs: Vec<f64> = a
        .rects
        .iter()
        .chain(b.map_or(&[][..], |b| &b.rects[..]))
        .flat_map(|r| [r.x_lo, r.x_hi])
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|x, y| (*x - *y).abs() <= EPS);

    let mut live_a = Active::new(&a.rects);
    let mut live_b = b.map(|b| Active::new(&b.rects));

    let mut total = 0.0;
    for w in xs.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        let width = x1 - x0;
        if width <= 0.0 {
            continue;
        }
        let mid = 0.5 * (x0 + x1);
        let ya = live_a.cross_section(mid);
        let mut yb = || {
            live_b
                .as_mut()
                .expect("binary mode needs rhs")
                .cross_section(mid)
        };
        let contribution = match mode {
            Mode::SelfArea => ya.measure(),
            Mode::Intersection => ya.intersection(&yb()).measure(),
            Mode::Difference => ya.difference_measure(&yb()),
        };
        total += width * contribution;
    }
    total
}

/// The active list of a left-to-right sweep: the rectangles whose
/// X-extent `[x_lo, x_hi)` covers the sweep position. Each rectangle
/// enters once, in `x_lo` order, and leaves once, so a sweep over every
/// slab costs O(n log n) plus the active rectangles summed over slabs
/// instead of a scan of the whole list per slab. The live rectangles
/// stay in input order, so each slab sees exactly the sequence a filter
/// over the whole list would yield.
struct Active<'a> {
    rects: &'a [Rect],
    /// Indices into `rects`, sorted by `x_lo`.
    by_x_lo: Vec<usize>,
    /// How many of `by_x_lo` have entered.
    entered: usize,
    /// Indices of the live rectangles, ascending.
    live: Vec<usize>,
}

impl<'a> Active<'a> {
    fn new(rects: &'a [Rect]) -> Self {
        let mut by_x_lo: Vec<usize> = (0..rects.len()).collect();
        by_x_lo.sort_by(|&i, &j| rects[i].x_lo.total_cmp(&rects[j].x_lo));
        Active {
            rects,
            by_x_lo,
            entered: 0,
            live: Vec::new(),
        }
    }

    /// Moves the sweep to `x`, which must not lie left of the previous
    /// position, and yields the rectangles with `x_lo <= x < x_hi`.
    fn at(&mut self, x: f64) -> impl Iterator<Item = &'a Rect> + '_ {
        let rects = self.rects;
        self.live.retain(|&i| x < rects[i].x_hi);
        while let Some(&i) = self.by_x_lo.get(self.entered) {
            if rects[i].x_lo <= x {
                self.entered += 1;
                if x < rects[i].x_hi {
                    let at = self.live.partition_point(|&k| k < i);
                    self.live.insert(at, i);
                }
            } else {
                break;
            }
        }
        self.live.iter().map(move |&i| &rects[i])
    }

    /// The Y cross-section of the union at `x` (see [`at`](Self::at)).
    fn cross_section(&mut self, x: f64) -> IntervalSet {
        IntervalSet::from_intervals(self.at(x).map(|r| Interval::new(r.y_lo, r.y_hi)))
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(rects: &[(f64, f64, f64, f64)]) -> RegionSet {
        RegionSet::from_rects(rects.iter().map(|&(a, b, c, d)| Rect::new(a, b, c, d)))
    }

    #[test]
    fn union_area_deduplicates_overlap() {
        // Two unit squares overlapping in a 0.5 x 1 strip.
        let s = rs(&[(0.0, 0.0, 1.0, 1.0), (0.5, 0.0, 1.5, 1.0)]);
        assert!((s.area() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn union_area_of_disjoint_adds() {
        let s = rs(&[(0.0, 0.0, 1.0, 1.0), (5.0, 5.0, 7.0, 6.0)]);
        assert!((s.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let s = rs(&[(0.0, 0.0, 2.0, 2.0), (0.0, 0.0, 2.0, 2.0)]);
        assert!((s.area() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_and_difference_areas() {
        let a = rs(&[(0.0, 0.0, 2.0, 2.0)]);
        let b = rs(&[(1.0, 1.0, 3.0, 3.0)]);
        assert!((a.intersection_area(&b) - 1.0).abs() < 1e-12);
        assert!((a.difference_area(&b) - 3.0).abs() < 1e-12);
        assert!((b.difference_area(&a) - 3.0).abs() < 1e-12);
        assert!((a.union_area(&b) - 7.0).abs() < 1e-12);
        assert!((a.symmetric_difference_area(&b) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn difference_with_superset_is_zero() {
        let a = rs(&[(0.5, 0.5, 1.0, 1.0)]);
        let b = rs(&[(0.0, 0.0, 2.0, 2.0)]);
        assert_eq!(a.difference_area(&b), 0.0);
    }

    #[test]
    fn l_shaped_region() {
        // An L made of two rectangles sharing an edge.
        let l = rs(&[(0.0, 0.0, 3.0, 1.0), (0.0, 1.0, 1.0, 3.0)]);
        assert!((l.area() - 5.0).abs() < 1e-12);
        assert!(l.contains(Point::new(0.5, 2.5)));
        assert!(!l.contains(Point::new(2.0, 2.0)));
    }

    #[test]
    fn empty_regions() {
        let e = RegionSet::new();
        assert_eq!(e.area(), 0.0);
        let a = rs(&[(0.0, 0.0, 1.0, 1.0)]);
        assert_eq!(e.intersection_area(&a), 0.0);
        assert_eq!(e.difference_area(&a), 0.0);
        assert!((a.difference_area(&e) - 1.0).abs() < 1e-12);
        assert!(e.bounding_rect().is_none());
    }

    #[test]
    fn degenerate_rects_are_dropped() {
        let s = rs(&[(0.0, 0.0, 0.0, 5.0), (1.0, 1.0, 1.0, 1.0)]);
        assert!(s.is_empty());
    }

    #[test]
    fn canonicalize_merges_cells() {
        // A 3x3 block of unit cells, stored cell by cell.
        let mut cells = RegionSet::new();
        for i in 0..3 {
            for j in 0..3 {
                cells.push(Rect::new(
                    i as f64,
                    j as f64,
                    i as f64 + 1.0,
                    j as f64 + 1.0,
                ));
            }
        }
        let before_area = cells.area();
        let block = rs(&[(0.0, 0.0, 3.0, 3.0)]);
        cells.canonicalize();
        assert!(
            cells.len() < 9,
            "canonicalize should merge cells, got {}",
            cells.len()
        );
        assert!((cells.area() - before_area).abs() < 1e-12);
        assert!(cells.symmetric_difference_area(&block) < 1e-9);
    }

    #[test]
    fn canonicalize_is_cut_invariant() {
        // An L of three unit cells A = [0,1)², B = [1,2)×[0,1),
        // C = [1,2)×[1,2), merged pairwise two ways: B+C as one column
        // next to A, or A+B as one bar under C (as a shard cut at y = 1
        // would leave it). Same point set, different lists.
        let global = rs(&[(0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 2.0, 2.0)]);
        let recombined = rs(&[(0.0, 0.0, 2.0, 1.0), (1.0, 1.0, 2.0, 2.0)]);
        assert_ne!(global.rects(), recombined.rects(), "premise of the test");

        let mut g = global.clone();
        g.canonicalize();
        let mut r = recombined.clone();
        r.canonicalize();
        assert_eq!(g.rects(), r.rects());
        assert!((g.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn canonicalize_preserves_point_set_and_sorts() {
        let mut s = rs(&[
            (0.0, 0.0, 2.0, 2.0),
            (1.0, 1.0, 3.0, 3.0), // overlaps the first
            (2.0, 0.0, 3.0, 1.0),
            (5.0, 5.0, 6.0, 6.0),
        ]);
        let before = s.clone();
        s.canonicalize();
        assert!(s.symmetric_difference_area(&before) < 1e-12);
        // Disjoint output, sorted by (x_lo, y_lo).
        for (i, a) in s.rects().iter().enumerate() {
            for b in &s.rects()[i + 1..] {
                assert!(!a.overlaps_interior(b), "{a:?} overlaps {b:?}");
            }
        }
        let mut sorted = s.rects().to_vec();
        sorted.sort_by(|a, b| a.x_lo.total_cmp(&b.x_lo).then(a.y_lo.total_cmp(&b.y_lo)));
        assert_eq!(s.rects(), sorted.as_slice());
        // Idempotent.
        let mut again = s.clone();
        again.canonicalize();
        assert_eq!(again.rects(), s.rects());
    }

    #[test]
    fn canonicalize_rejoins_spurious_cuts() {
        // One 3x1 bar chopped into three pieces at arbitrary places,
        // plus a decoy above that introduces extra x-events.
        let mut s = rs(&[
            (0.0, 0.0, 1.25, 1.0),
            (1.25, 0.0, 2.5, 1.0),
            (2.5, 0.0, 3.0, 1.0),
            (0.5, 4.0, 2.75, 5.0),
        ]);
        s.canonicalize();
        assert_eq!(
            s.rects(),
            &[
                Rect::new(0.0, 0.0, 3.0, 1.0),
                Rect::new(0.5, 4.0, 2.75, 5.0)
            ]
        );
    }

    #[test]
    fn union_disjoint_clipped_matches_canonical_whole() {
        // A blobby answer; shard it with a 2x2 cut at (1.1, 0.7) where
        // each "shard answer" is the whole thing (halo overhang) clipped
        // coarsely, and check the merge equals the canonical whole.
        let whole = rs(&[
            (0.0, 0.0, 2.0, 1.0),
            (0.5, 1.0, 1.5, 2.0),
            (1.4, 0.2, 2.4, 1.4),
        ]);
        let cuts = [
            Rect::new(f64::NEG_INFINITY, f64::NEG_INFINITY, 1.1, 0.7),
            Rect::new(1.1, f64::NEG_INFINITY, f64::INFINITY, 0.7),
            Rect::new(f64::NEG_INFINITY, 0.7, 1.1, f64::INFINITY),
            Rect::new(1.1, 0.7, f64::INFINITY, f64::INFINITY),
        ];
        let merged = RegionSet::union_disjoint_clipped(cuts.iter().map(|&owned| (&whole, owned)));
        let mut canonical = whole.clone();
        canonical.canonicalize();
        assert_eq!(merged.rects(), canonical.rects());
    }

    #[test]
    fn bounding_rect_covers_all() {
        let s = rs(&[(0.0, 0.0, 1.0, 1.0), (4.0, -2.0, 5.0, 0.0)]);
        assert_eq!(s.bounding_rect().unwrap(), Rect::new(0.0, -2.0, 5.0, 1.0));
    }
}
