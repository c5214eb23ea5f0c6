//! Stand-alone density-histogram answers (the "DH" method of
//! Section 7.2).
//!
//! The paper evaluates what happens if the filter step is used *as the
//! whole method*: its three-way classification must be forced into a
//! yes/no answer for the candidate cells.
//!
//! * **optimistic DH** counts every candidate cell as dense: no false
//!   negatives, possibly huge false positives;
//! * **pessimistic DH** drops all candidates: no false positives,
//!   possibly huge false negatives.
//!
//! Both are shown in Figure 8 to be far less accurate than PA at equal
//! (even much larger) memory, which is the paper's argument that DH
//! must be paired with the refinement sweep.

use crate::{CellClass, Classification};
use pdr_geometry::RegionSet;

/// The optimistic DH answer: accepted ∪ candidate cells.
pub fn dh_optimistic(cls: &Classification) -> RegionSet {
    let grid = cls.grid();
    let mut rs: RegionSet = cls
        .cells_of(CellClass::Accept)
        .chain(cls.cells_of(CellClass::Candidate))
        .map(|c| grid.cell_rect(c))
        .collect();
    rs.canonicalize();
    rs
}

/// The pessimistic DH answer: accepted cells only.
pub fn dh_pessimistic(cls: &Classification) -> RegionSet {
    let grid = cls.grid();
    let mut rs: RegionSet = cls
        .cells_of(CellClass::Accept)
        .map(|c| grid.cell_rect(c))
        .collect();
    rs.canonicalize();
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accuracy, classify_cells, ExactOracle, PdrQuery};
    use pdr_geometry::Point;
    use pdr_histogram::DensityHistogram;
    use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Update};

    fn scene() -> (DensityHistogram, Vec<Point>) {
        let mut h = DensityHistogram::new(100.0, 10, TimeHorizon::new(1, 1), 0);
        let mut pts = Vec::new();
        let mut seed = 5u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for i in 0..150 {
            let p = if i % 2 == 0 {
                Point::new(30.0 + rng() * 25.0, 30.0 + rng() * 25.0)
            } else {
                Point::new(rng() * 100.0, rng() * 100.0)
            };
            pts.push(p);
            h.apply(&Update::insert(
                ObjectId(i as u64),
                0,
                MotionState::stationary(p, 0),
            ));
        }
        (h, pts)
    }

    #[test]
    fn optimistic_has_no_false_negatives_pessimistic_no_false_positives() {
        let (h, pts) = scene();
        let q = PdrQuery::new(0.025, 20.0, 0); // threshold = 10 objects
        let cls = classify_cells(h.grid(), &h.prefix_sums_at(0), &q);
        let oracle = ExactOracle::new(h.grid().bounds(), pts);
        let truth = oracle.dense_regions(&q);
        let opt = dh_optimistic(&cls);
        let pes = dh_pessimistic(&cls);
        let a_opt = accuracy(&truth, &opt);
        let a_pes = accuracy(&truth, &pes);
        assert!(
            a_opt.r_fn < 1e-9,
            "optimistic DH must cover all dense area, r_fn = {}",
            a_opt.r_fn
        );
        assert!(
            a_pes.r_fp < 1e-9,
            "pessimistic DH must report only dense area, r_fp = {}",
            a_pes.r_fp
        );
        // And both are (generally) inaccurate on the other metric.
        assert!(a_opt.r_fp > 0.0);
        assert!(a_pes.r_fn > 0.0);
    }

    #[test]
    fn pessimistic_subset_of_optimistic() {
        let (h, _) = scene();
        let q = PdrQuery::new(0.025, 20.0, 0);
        let cls = classify_cells(h.grid(), &h.prefix_sums_at(0), &q);
        let opt = dh_optimistic(&cls);
        let pes = dh_pessimistic(&cls);
        assert!(pes.difference_area(&opt) < 1e-9);
    }
}
