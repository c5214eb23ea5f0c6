//! Brute-force reference implementations (the ground truth `D` of the
//! accuracy metrics, and the oracle the engines are tested against).

use crate::{refine_region, DenseThreshold, PdrQuery};
use pdr_geometry::{LSquare, Point, Rect, RegionSet};
use pdr_mobject::{ObjectTable, Timestamp, Update};

/// The point density of Definition 2, computed by brute force:
/// `d(p) = n(S_p^l) / l²`.
pub fn point_density(p: Point, l: f64, objects: &[Point]) -> f64 {
    LSquare::new(p, l).density_of(objects)
}

/// The exact ρ-dense region of a *static* snapshot, over `bounds`, by
/// running the plane sweep on the entire region at once. This is the
/// ground truth `D` used for `r_fp` / `r_fn` (the FR engine computes
/// the same set faster by filtering first; equality of the two is a
/// tested invariant).
pub fn exact_dense_regions(objects: &[Point], bounds: &Rect, query: &PdrQuery) -> RegionSet {
    let threshold = DenseThreshold::of(query);
    // Only objects within bounds ⊕ l/2 can influence any in-bounds point.
    let inflated = bounds.inflate(query.l / 2.0);
    let mut relevant: Vec<Point> = objects
        .iter()
        .copied()
        .filter(|p| inflated.contains(*p))
        .collect();
    let mut rs = RegionSet::from_rects(refine_region(bounds, &mut relevant, threshold, query.l));
    rs.canonicalize();
    rs
}

/// A brute-force oracle bundling object positions with query helpers;
/// used pervasively in tests and in the accuracy experiments, where
/// every method's answer is compared against `ExactOracle::dense_regions`.
///
/// The oracle serves two roles:
///
/// * a **frozen snapshot** (its original form): `new` captures fixed
///   positions and [`dense_regions`](Self::dense_regions) /
///   [`density_at`](Self::density_at) / [`is_dense`](Self::is_dense)
///   answer against exactly that snapshot;
/// * a **live engine** (the [`DensityEngine`](crate::DensityEngine)
///   plane): protocol updates fed through [`apply`](Self::apply) are
///   replayed into an internal [`ObjectTable`], and
///   [`dense_regions_at`](Self::dense_regions_at) answers against the
///   frozen snapshot *plus* the live objects extrapolated to the query
///   timestamp.
///
/// Existing snapshot users never call `apply`, so their behavior is
/// unchanged.
pub struct ExactOracle {
    bounds: Rect,
    positions: Vec<Point>,
    table: ObjectTable,
    updates_applied: u64,
    missed_deletes: u64,
    /// Standing subscriptions (maintained by recompute — the oracle has
    /// no group memo and does not need one).
    pub(crate) subs: crate::sub::SubscriptionTable,
}

impl ExactOracle {
    /// Creates an oracle over a snapshot of object positions.
    pub fn new(bounds: Rect, positions: Vec<Point>) -> Self {
        ExactOracle {
            bounds,
            positions,
            table: ObjectTable::new(),
            updates_applied: 0,
            missed_deletes: 0,
            subs: crate::sub::SubscriptionTable::new(),
        }
    }

    /// Applies one protocol update to the live object table.
    pub fn apply(&mut self, update: &Update) {
        self.updates_applied += 1;
        // `ObjectTable::apply` only reports failure for deletions of
        // unknown objects, so a `false` here is exactly a missed delete.
        if !self.table.apply(update) {
            self.missed_deletes += 1;
        }
    }

    /// Protocol updates applied via [`apply`](Self::apply).
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Deletions of objects the live table did not hold.
    pub fn missed_deletes(&self) -> u64 {
        self.missed_deletes
    }

    /// Live objects in the update-fed table (excludes the frozen
    /// snapshot positions).
    pub fn live_objects(&self) -> usize {
        self.table.len()
    }

    /// Every position the oracle knows at timestamp `t`: the frozen
    /// snapshot plus the live objects extrapolated to `t`.
    pub fn positions_at(&self, t: Timestamp) -> Vec<Point> {
        let mut all = self.positions.clone();
        all.extend(self.table.positions_at(t));
        all
    }

    /// The exact dense region at the query's timestamp, over frozen ∪
    /// extrapolated live objects. Equals
    /// [`dense_regions`](Self::dense_regions) when no updates were
    /// applied.
    pub fn dense_regions_at(&self, query: &PdrQuery) -> RegionSet {
        if self.table.is_empty() {
            return self.dense_regions(query);
        }
        exact_dense_regions(&self.positions_at(query.q_t), &self.bounds, query)
    }

    /// The monitored region.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The snapshot positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Brute-force point density at `p`.
    pub fn density_at(&self, p: Point, l: f64) -> f64 {
        point_density(p, l, &self.positions)
    }

    /// `true` when `p` is ρ-dense (Definition 3).
    pub fn is_dense(&self, p: Point, query: &PdrQuery) -> bool {
        let sq = LSquare::new(p, query.l);
        let n = self.positions.iter().filter(|&&o| sq.contains(o)).count();
        DenseThreshold::of(query).met_by(n)
    }

    /// The exact dense region.
    pub fn dense_regions(&self, query: &PdrQuery) -> RegionSet {
        exact_dense_regions(&self.positions, &self.bounds, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_counts_half_open() {
        let objects = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(-1.0, 0.0),
        ];
        // l = 2 around origin: contains (0,0) and (1,1); excludes (-1,0).
        assert_eq!(point_density(Point::ORIGIN, 2.0, &objects), 2.0 / 4.0);
    }

    #[test]
    fn oracle_agrees_with_sweep() {
        let bounds = Rect::new(0.0, 0.0, 30.0, 30.0);
        let mut objects = vec![Point::new(10.0, 10.0); 5];
        objects.push(Point::new(25.0, 25.0));
        let oracle = ExactOracle::new(bounds, objects);
        let q = PdrQuery::new(5.0 / 16.0, 4.0, 0); // threshold = 5 objects
        let region = oracle.dense_regions(&q);
        assert!(!region.is_empty());
        assert!(region.contains(Point::new(10.0, 10.0)));
        assert!(!region.contains(Point::new(25.0, 25.0)));
        assert!(oracle.is_dense(Point::new(10.0, 10.0), &q));
        assert!(!oracle.is_dense(Point::new(25.0, 25.0), &q));
    }

    #[test]
    fn out_of_bounds_objects_still_count_near_border() {
        let bounds = Rect::new(0.0, 0.0, 10.0, 10.0);
        // Cluster just outside the left border.
        let objects = vec![Point::new(-0.4, 5.0); 4];
        let oracle = ExactOracle::new(bounds, objects);
        let q = PdrQuery::new(1.0, 2.0, 0); // threshold 4
        let region = oracle.dense_regions(&q);
        // Border points whose neighborhood reaches outside are dense:
        // need -0.4 in (x-1, x+1] => x in [-1.4, 0.6).
        assert!(region.contains(Point::new(0.1, 5.0)));
        assert!(!region.contains(Point::new(1.0, 5.0)));
    }
}
