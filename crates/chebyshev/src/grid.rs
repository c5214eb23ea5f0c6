//! The `g × g` multi-polynomial grid of Section 6.4.

use crate::{BnbConfig, ChebyshevApprox};
use pdr_geometry::{CellId, GridSpec, Point, Rect, RegionSet};

/// A grid of `g × g` independent Chebyshev approximations tiling a
/// square domain (Section 6.4 of the paper).
///
/// A single global polynomial cannot track a heavily skewed density
/// surface; tiling the plane and approximating each tile independently
/// confines each polynomial to a small, smoother piece. Updates touch
/// only the tiles overlapping the object's `l`-square, and queries run
/// branch-and-bound per tile.
#[derive(Clone, Debug)]
pub struct PolyGrid {
    spec: GridSpec,
    degree: usize,
    cells: Vec<ChebyshevApprox>,
}

impl PolyGrid {
    /// Creates a zero field over `[0, extent]²` tiled into `g × g`
    /// degree-`degree` approximations.
    pub fn new(extent: f64, g: u32, degree: usize) -> Self {
        let spec = GridSpec::unit_origin(extent, g);
        let cells = spec
            .all_cells()
            .map(|c| ChebyshevApprox::zero(spec.cell_rect(c), degree))
            .collect();
        PolyGrid {
            spec,
            degree,
            cells,
        }
    }

    /// Tiles per side, `g`.
    pub fn g(&self) -> u32 {
        self.spec.cells_per_side()
    }

    /// Polynomial degree `k`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The covered domain.
    pub fn domain(&self) -> Rect {
        self.spec.bounds()
    }

    /// Total number of stored coefficients across all tiles — the
    /// paper's storage unit `g²(k+1)(k+2)/2` per timestamp.
    pub fn coefficient_count(&self) -> usize {
        self.cells
            .iter()
            .map(ChebyshevApprox::coefficient_count)
            .sum()
    }

    /// Adds `weight · 1_box` to the field; only tiles overlapping the
    /// box are touched. Returns the number of tiles updated (the CPU
    /// cost driver of per-update maintenance, Figure 9(b)).
    pub fn add_box(&mut self, bx: &Rect, weight: f64) -> usize {
        let mut touched = 0;
        // Collect first: cells_intersecting borrows spec immutably.
        let cells: Vec<CellId> = self.spec.cells_intersecting(bx).collect();
        for cell in cells {
            let idx = self.spec.linear_index(cell);
            let before = touched;
            if self.cells[idx].domain().intersection_area(bx) > 0.0 {
                self.cells[idx].add_box(bx, weight);
                touched = before + 1;
            }
        }
        touched
    }

    /// Field value at a domain point (0 outside the domain).
    pub fn eval(&self, p: Point) -> f64 {
        match self.spec.locate(p) {
            Some(cell) => self.cells[self.spec.linear_index(cell)].eval(p),
            None => 0.0,
        }
    }

    /// The approximation tile containing `p`, if inside the domain.
    pub fn tile_at(&self, p: Point) -> Option<&ChebyshevApprox> {
        self.spec
            .locate(p)
            .map(|c| &self.cells[self.spec.linear_index(c)])
    }

    /// Tiles whose domain intersects `r`.
    pub fn tiles_intersecting(&self, r: &Rect) -> impl Iterator<Item = &ChebyshevApprox> + '_ {
        self.spec
            .cells_intersecting(r)
            .map(move |c| &self.cells[self.spec.linear_index(c)])
    }

    /// All tiles with their cell ids, row-major.
    pub fn tiles(&self) -> impl Iterator<Item = (CellId, &ChebyshevApprox)> + '_ {
        self.spec
            .all_cells()
            .map(move |c| (c, &self.cells[self.spec.linear_index(c)]))
    }

    /// The region where the field is at least `tau`: per-tile
    /// branch-and-bound, unioned. Returns the region and the summed
    /// [`crate::BnbStats`] node accounting across every tile.
    pub fn superlevel_set(&self, tau: f64, cfg: &BnbConfig) -> (RegionSet, crate::BnbStats) {
        let mut out = RegionSet::new();
        let mut stats = crate::BnbStats::default();
        for cell in self.cells.iter() {
            let (r, s) = crate::superlevel_set(cell, tau, cfg);
            stats += s;
            out.extend_from(&r);
        }
        out.canonicalize();
        (out, stats)
    }

    /// Closed-form integral of the field over `r` (clipped to the
    /// domain), summed across overlapping tiles.
    pub fn integral(&self, r: &Rect) -> f64 {
        self.spec
            .cells_intersecting(r)
            .map(|cell| self.cells[self.spec.linear_index(cell)].integral(r))
            .sum()
    }

    /// The `k` highest-density spots of the field (best-first
    /// branch-and-bound, see [`crate::top_k_peaks`]), each at least
    /// `min_separation` apart (L∞ between rectangle centers).
    pub fn top_k_peaks(
        &self,
        k: usize,
        cfg: &crate::BnbConfig,
        min_separation: f64,
    ) -> Vec<(Rect, f64)> {
        crate::top_k_peaks(self, k, cfg, min_separation)
    }

    /// Serializes the grid's coefficients into a versioned checkpoint.
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = pdr_storage::ByteWriter::with_capacity(32 + 8 * self.coefficient_count());
        w.put_bytes(b"PDRG");
        w.put_u16(1);
        w.put_f64(self.spec.bounds().width());
        w.put_u32(self.g());
        w.put_u32(self.degree as u32);
        for cell in &self.cells {
            for &c in cell.coeffs().raw() {
                w.put_f64(c);
            }
        }
        w.into_bytes()
    }

    /// Restores a grid from [`serialize`](Self::serialize) output.
    pub fn deserialize(bytes: &[u8]) -> Result<Self, pdr_storage::CodecError> {
        use pdr_storage::CodecError;
        let mut r = pdr_storage::ByteReader::new(bytes);
        r.expect_magic(b"PDRG")?;
        let version = r.get_u16()?;
        if version != 1 {
            return Err(CodecError::BadVersion(version));
        }
        let extent = r.get_f64()?;
        if !(extent.is_finite() && extent > 0.0) {
            return Err(CodecError::Corrupt("extent"));
        }
        let g = r.get_u32()?;
        if g == 0 {
            return Err(CodecError::Corrupt("grid size"));
        }
        let degree = r.get_u32()? as usize;
        let mut out = PolyGrid::new(extent, g, degree);
        let per_cell = crate::CoeffTriangle::len_for(degree);
        for idx in 0..out.cells.len() {
            let mut raw = Vec::with_capacity(per_cell);
            for _ in 0..per_cell {
                raw.push(r.get_f64()?);
            }
            let domain = out.cells[idx].domain();
            out.cells[idx] =
                ChebyshevApprox::from_parts(domain, crate::CoeffTriangle::from_raw(degree, raw));
        }
        Ok(out)
    }

    /// Resets every coefficient to zero.
    pub fn clear(&mut self) {
        let spec = self.spec;
        for (i, cell) in self.cells.iter_mut().enumerate() {
            *cell = ChebyshevApprox::zero(spec.cell_rect(spec.cell_of_index(i)), self.degree);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_touches_only_overlapping_tiles() {
        let mut g = PolyGrid::new(100.0, 4, 4); // 25-unit tiles
        let touched = g.add_box(&Rect::new(10.0, 10.0, 20.0, 20.0), 1.0);
        assert_eq!(touched, 1);
        let touched = g.add_box(&Rect::new(20.0, 20.0, 30.0, 30.0), 1.0);
        assert_eq!(touched, 4, "box straddling a tile corner touches 4 tiles");
    }

    #[test]
    fn eval_approximates_box_mass() {
        let mut g = PolyGrid::new(100.0, 4, 8);
        let bx = Rect::new(30.0, 30.0, 45.0, 45.0);
        g.add_box(&bx, 2.0);
        // Deep inside the box the field should be near 2; far away near 0.
        assert!((g.eval(Point::new(37.5, 37.5)) - 2.0).abs() < 0.5);
        assert!(g.eval(Point::new(90.0, 90.0)).abs() < 0.2);
        assert_eq!(g.eval(Point::new(200.0, 0.0)), 0.0, "outside domain is 0");
    }

    #[test]
    fn coefficient_count_formula() {
        let g = PolyGrid::new(1000.0, 20, 5);
        assert_eq!(g.coefficient_count(), 400 * 21);
    }

    #[test]
    fn superlevel_set_finds_the_box() {
        let mut g = PolyGrid::new(100.0, 4, 8);
        let bx = Rect::new(26.0, 26.0, 49.0, 49.0); // inside tile (1,1)
        g.add_box(&bx, 1.0);
        let (region, _) = g.superlevel_set(0.5, &BnbConfig { min_edge: 0.5 });
        let truth = RegionSet::from_rects([bx]);
        // Chebyshev ringing blurs the edges; demand rough agreement.
        let err = region.symmetric_difference_area(&truth);
        assert!(
            err < 0.35 * truth.area(),
            "symmetric difference {err} vs truth area {}",
            truth.area()
        );
    }

    #[test]
    fn checkpoint_round_trip() {
        let mut g = PolyGrid::new(100.0, 4, 5);
        g.add_box(&Rect::new(20.0, 20.0, 45.0, 45.0), 1.5);
        g.add_box(&Rect::new(60.0, 10.0, 90.0, 30.0), -0.3);
        let bytes = g.serialize();
        let restored = PolyGrid::deserialize(&bytes).unwrap();
        assert_eq!(restored.g(), 4);
        assert_eq!(restored.degree(), 5);
        for ix in 0..10 {
            for iy in 0..10 {
                let p = Point::new(ix as f64 * 10.0 + 5.0, iy as f64 * 10.0 + 5.0);
                assert!((g.eval(p) - restored.eval(p)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn checkpoint_rejects_truncation() {
        let g = PolyGrid::new(50.0, 2, 3);
        let bytes = g.serialize();
        assert!(PolyGrid::deserialize(&bytes[..bytes.len() - 4]).is_err());
        assert!(PolyGrid::deserialize(b"XXXX").is_err());
    }

    #[test]
    fn clear_zeroes_field() {
        let mut g = PolyGrid::new(100.0, 2, 3);
        g.add_box(&Rect::new(0.0, 0.0, 100.0, 100.0), 5.0);
        assert!(g.eval(Point::new(50.0, 50.0)) > 4.0);
        g.clear();
        assert_eq!(g.eval(Point::new(50.0, 50.0)), 0.0);
    }

    #[test]
    fn cross_tile_continuity_is_approximate() {
        // A box spanning two tiles: both tiles should see roughly the
        // same field value at the shared edge.
        let mut g = PolyGrid::new(100.0, 2, 8);
        g.add_box(&Rect::new(40.0, 40.0, 60.0, 60.0), 1.0);
        let left = g.eval(Point::new(49.99, 50.0));
        let right = g.eval(Point::new(50.01, 50.0));
        assert!((left - right).abs() < 0.3, "jump {left} vs {right}");
    }
}
