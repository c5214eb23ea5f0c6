//! Prior-work baselines the paper compares against (Sections 1–2).
//!
//! * [`dense_cell_query`] — the *dense cell* simplification of
//!   Hadjieleftheriou et al. (SSTD 2003): partition the plane into grid
//!   cells and report cells whose own density clears the threshold.
//!   Suffers **answer loss** (Figure 1(a)): a dense square straddling
//!   cell borders is invisible.
//! * [`effective_density_query`] — the *effective density query* of
//!   Jensen et al. (ICDE 2006), faithful in spirit: report
//!   **non-overlapping** `l × l` squares with at least `ρl²` objects,
//!   chosen greedily by object count. Fixes answer loss but introduces
//!   **ambiguity** (Figure 1(b)): of two overlapping dense squares only
//!   one is reported, and which one depends on the reporting strategy.
//!
//! Both restrict answers to fixed-size shapes and give no local-density
//! guarantee; the integration tests reproduce each defect and show the
//! PDR answer avoiding it.

use crate::{DenseThreshold, PdrQuery};
use pdr_geometry::{GridSpec, LSquare, Point, Rect, RegionSet};

/// The dense-cell baseline: every grid cell whose own object count
/// divided by its area reaches `ρ` is reported, nothing else.
pub fn dense_cell_query(positions: &[Point], grid: GridSpec, rho: f64) -> RegionSet {
    let mut counts = vec![0u32; grid.cell_count()];
    for &p in positions {
        if let Some(cell) = grid.locate(p) {
            counts[grid.linear_index(cell)] += 1;
        }
    }
    let cell_area = grid.cell_edge() * grid.cell_edge();
    let mut rs = RegionSet::new();
    for cell in grid.all_cells() {
        let density = counts[grid.linear_index(cell)] as f64 / cell_area;
        if density + 1e-9 >= rho {
            rs.push(grid.cell_rect(cell));
        }
    }
    rs.canonicalize();
    rs
}

/// One reported EDQ square.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdqSquare {
    /// Center of the reported `l × l` square.
    pub center: Point,
    /// Objects inside it.
    pub count: usize,
}

/// The effective-density-query baseline: greedily report disjoint
/// `l × l` squares containing at least `ρl²` objects, highest count
/// first. Candidate centers are every object position and the centers
/// of an `l/2`-step grid (so clusters that sit between objects are
/// still found); exhaustiveness over the continuum is not needed for a
/// greedy, non-overlapping answer.
pub fn effective_density_query(
    positions: &[Point],
    bounds: &Rect,
    query: &PdrQuery,
) -> Vec<EdqSquare> {
    let threshold = DenseThreshold::of(query);
    let l = query.l;

    // Candidate centers.
    let mut centers: Vec<Point> = positions
        .iter()
        .copied()
        .filter(|p| bounds.contains(*p))
        .collect();
    let step = l / 2.0;
    let nx = (bounds.width() / step).ceil() as i64;
    let ny = (bounds.height() / step).ceil() as i64;
    for i in 0..=nx {
        for j in 0..=ny {
            centers.push(Point::new(
                (bounds.x_lo + i as f64 * step).min(bounds.x_hi),
                (bounds.y_lo + j as f64 * step).min(bounds.y_hi),
            ));
        }
    }

    // Score each candidate.
    let mut scored: Vec<EdqSquare> = centers
        .into_iter()
        .map(|c| {
            let sq = LSquare::new(c, l);
            let count = positions.iter().filter(|&&p| sq.contains(p)).count();
            EdqSquare { center: c, count }
        })
        .filter(|s| threshold.met_by(s.count))
        .collect();
    scored.sort_by_key(|s| std::cmp::Reverse(s.count));

    // Greedy non-overlap selection.
    let mut chosen: Vec<EdqSquare> = Vec::new();
    for s in scored {
        let r = Rect::centered_square(s.center, l);
        if chosen
            .iter()
            .all(|c| !Rect::centered_square(c.center, l).overlaps_interior(&r))
        {
            chosen.push(s);
        }
    }
    chosen
}

/// The EDQ answer as a region (union of its squares), for comparison
/// with PDR answers.
pub fn edq_region(squares: &[EdqSquare], l: f64) -> RegionSet {
    let mut rs: RegionSet = squares
        .iter()
        .map(|s| Rect::centered_square(s.center, l))
        .collect();
    rs.canonicalize();
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_dense_regions, PdrQuery};

    /// Figure 1(a): four objects hugging a grid corner. No grid cell is
    /// dense, so the dense-cell method reports nothing — answer loss.
    /// The PDR answer is nonempty.
    #[test]
    fn dense_cell_answer_loss() {
        let grid = GridSpec::unit_origin(4.0, 4); // unit cells
        let positions = vec![
            Point::new(1.9, 1.9),
            Point::new(2.1, 1.9),
            Point::new(1.9, 2.1),
            Point::new(2.1, 2.1),
        ];
        let rho = 4.0; // 4 objects per unit area
        let cells = dense_cell_query(&positions, grid, rho);
        assert!(cells.is_empty(), "no single cell holds 4 objects");
        let q = PdrQuery::new(rho, 1.0, 0);
        let pdr = exact_dense_regions(&positions, &grid.bounds(), &q);
        assert!(!pdr.is_empty(), "PDR must not lose the answer");
        assert!(pdr.contains(Point::new(2.0, 2.0)));
    }

    /// Figure 1(b): overlapping dense squares. The EDQ answer must drop
    /// every dense square that overlaps a reported one — so valid
    /// answers are excluded and the reported region differs from the
    /// full set of dense points, which PDR reports in its entirety.
    #[test]
    fn edq_ambiguity() {
        // Two clusters of 4 objects, 1.5 apart, each dense for l = 2,
        // threshold 4; squares covering them overlap.
        let mut positions = vec![Point::new(3.0, 3.0); 4];
        positions.extend(vec![Point::new(4.5, 3.0); 4]);
        let bounds = Rect::new(0.0, 0.0, 8.0, 8.0);
        let q = PdrQuery::new(1.0, 2.0, 0); // threshold = 4 objects
        let squares = effective_density_query(&positions, &bounds, &q);
        assert!(!squares.is_empty());
        // Ambiguity: there exists a dense square (e.g. centered on a
        // cluster) that was NOT reported because it overlaps a reported
        // one — a different reporting strategy would have chosen it.
        let reported_rects: Vec<Rect> = squares
            .iter()
            .map(|s| Rect::centered_square(s.center, 2.0))
            .collect();
        let excluded_dense_square_exists = [Point::new(3.0, 3.0), Point::new(4.5, 3.0)]
            .into_iter()
            .any(|c| {
                let sq = LSquare::new(c, 2.0);
                let count = positions.iter().filter(|&&p| sq.contains(p)).count();
                let is_dense = count >= 4;
                let reported = squares.iter().any(|s| s.center == c);
                let overlaps_reported = reported_rects
                    .iter()
                    .any(|r| r.overlaps_interior(&Rect::centered_square(c, 2.0)));
                is_dense && !reported && overlaps_reported
            });
        assert!(
            excluded_dense_square_exists,
            "expected a valid dense square excluded by the non-overlap rule; got {squares:?}"
        );
        // PDR has no such ambiguity: it reports *all* dense points,
        // including both cluster centers.
        let pdr = exact_dense_regions(&positions, &bounds, &q);
        assert!(pdr.contains(Point::new(3.0, 3.0)));
        assert!(pdr.contains(Point::new(4.5, 3.0)));
        // And the fixed-shape EDQ region cannot coincide with the
        // arbitrary-shape PDR region.
        let edq = edq_region(&squares, 2.0);
        assert!(edq.symmetric_difference_area(&pdr) > 0.1);
    }

    /// Figure 1(c): a dense square with an empty pocket. The region
    /// density clears the threshold but the pocket's local density does
    /// not; PDR excludes the pocket.
    #[test]
    fn local_density_guarantee() {
        // 8 objects in the left half of [0,2]x[0,2]; right half empty.
        let positions: Vec<Point> = (0..8)
            .map(|i| Point::new(0.3 + 0.05 * i as f64, 0.5 + 0.2 * (i % 4) as f64))
            .collect();
        let bounds = Rect::new(0.0, 0.0, 4.0, 4.0);
        // Whole 2x2 square has density 8/4 = 2 >= 1 — "dense" by region
        // density. But p = (1.9, 1.0) has an l=1 neighborhood with no
        // objects.
        let q = PdrQuery::new(1.0, 1.0, 0);
        let pdr = exact_dense_regions(&positions, &bounds, &q);
        assert!(
            !pdr.contains(Point::new(1.9, 1.0)),
            "PDR must exclude locally sparse points"
        );
        assert!(pdr.contains(Point::new(0.5, 0.9)));
    }

    #[test]
    fn dense_cell_reports_truly_dense_cells() {
        let grid = GridSpec::unit_origin(10.0, 10);
        let positions = vec![Point::new(5.5, 5.5); 3];
        let rs = dense_cell_query(&positions, grid, 3.0);
        assert!((rs.area() - 1.0).abs() < 1e-12);
        assert!(rs.contains(Point::new(5.5, 5.5)));
        // Threshold above the count: nothing.
        assert!(dense_cell_query(&positions, grid, 3.5).is_empty());
    }

    #[test]
    fn edq_squares_never_overlap() {
        let mut positions = Vec::new();
        let mut seed = 3u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..200 {
            positions.push(Point::new(rng() * 20.0, rng() * 20.0));
        }
        let bounds = Rect::new(0.0, 0.0, 20.0, 20.0);
        let q = PdrQuery::new(0.5, 3.0, 0);
        let squares = effective_density_query(&positions, &bounds, &q);
        for (i, a) in squares.iter().enumerate() {
            for b in squares.iter().skip(i + 1) {
                let ra = Rect::centered_square(a.center, 3.0);
                let rb = Rect::centered_square(b.center, 3.0);
                assert!(
                    !ra.overlaps_interior(&rb),
                    "overlap between {a:?} and {b:?}"
                );
            }
            assert!(a.count as f64 >= q.count_threshold() - 1e-9);
        }
    }

    /// The generality claim (Section 3.1): centers of baseline answers
    /// are ρ-dense under PDR, so the PDR answer is a superset.
    #[test]
    fn pdr_generalizes_baselines() {
        let mut positions = Vec::new();
        let mut seed = 11u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for i in 0..150 {
            let p = if i % 2 == 0 {
                Point::new(8.0 + rng() * 4.0, 8.0 + rng() * 4.0)
            } else {
                Point::new(rng() * 20.0, rng() * 20.0)
            };
            positions.push(p);
        }
        let bounds = Rect::new(0.0, 0.0, 20.0, 20.0);
        let q = PdrQuery::new(1.0, 2.0, 0); // threshold 4
        let pdr = exact_dense_regions(&positions, &bounds, &q);
        // EDQ centers are dense points under PDR.
        for s in effective_density_query(&positions, &bounds, &q) {
            assert!(
                pdr.contains(s.center) || !bounds.contains_half_open(s.center),
                "EDQ center {:?} (count {}) missing from PDR answer",
                s.center,
                s.count
            );
        }
        // Dense-cell centers too, when the cell edge equals l.
        let grid = GridSpec::unit_origin(20.0, 10); // 2-unit cells = l
        let cells = dense_cell_query(&positions, grid, q.rho);
        for r in cells.rects() {
            // The cell's center has the whole cell in its l-square.
            assert!(
                pdr.contains(r.center()),
                "dense cell center {:?} missing from PDR answer",
                r.center()
            );
        }
    }
}
