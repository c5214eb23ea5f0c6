//! The ring-buffered per-timestamp density histogram.

use crate::PrefixSum2d;
use pdr_geometry::{CellId, GridSpec, Point};
use pdr_mobject::{TimeHorizon, Timestamp, Update};

/// Per-timestamp object counts over an `m × m` grid, covering the
/// rolling horizon `[t_base, t_base + H]`.
///
/// Slots are ring-buffered by `t mod (H + 1)`. Advancing time recycles
/// expired slots by zeroing them, which is correct because a motion
/// reported at `t_ref` only ever contributes to timestamps
/// `≤ t_ref + H`: a slot reborn as timestamp `t_base' + H` can only
/// receive contributions from motions reported at `t_base'` or later,
/// none of which existed when the slot was zeroed.
///
/// Counters are `i32` (4 bytes), matching the paper's storage figure of
/// `H · m²` counters.
///
/// ```
/// use pdr_histogram::DensityHistogram;
/// use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Update};
/// use pdr_geometry::{CellId, Point};
///
/// let mut dh = DensityHistogram::new(100.0, 10, TimeHorizon::new(3, 3), 0);
/// // An object crossing cells at 10 units per tick.
/// dh.apply(&Update::insert(
///     ObjectId(1),
///     0,
///     MotionState::new(Point::new(5.0, 5.0), Point::new(10.0, 0.0), 0),
/// ));
/// assert_eq!(dh.count_at(0, CellId::new(0, 0)), 1);
/// assert_eq!(dh.count_at(3, CellId::new(3, 0)), 1);
///
/// // O(1) neighborhood sums via prefix sums (the filter step).
/// let sums = dh.prefix_sums_at(3);
/// assert_eq!(sums.square_sum(CellId::new(3, 0), 1), 1);
/// ```
#[derive(Debug)]
pub struct DensityHistogram {
    grid: GridSpec,
    horizon: TimeHorizon,
    t_base: Timestamp,
    /// `slots × m²` counters, slot-major.
    counts: Vec<i32>,
    /// Monotone mutation counter: bumped whenever the counters can have
    /// changed ([`apply`](Self::apply), [`advance_to`](Self::advance_to)).
    /// Derived state cached under an epoch (prefix sums,
    /// classifications, standing-group answers) stays valid exactly
    /// while the epoch is unchanged.
    epoch: u64,
}

impl DensityHistogram {
    /// Creates an empty histogram over `[0, extent]²` with `m × m`
    /// cells, starting its horizon at `t_start`.
    pub fn new(extent: f64, m: u32, horizon: TimeHorizon, t_start: Timestamp) -> Self {
        let grid = GridSpec::unit_origin(extent, m);
        let counts = vec![0i32; horizon.slot_count() * grid.cell_count()];
        DensityHistogram {
            grid,
            horizon,
            t_base: t_start,
            counts,
            epoch: 0,
        }
    }

    /// The histogram's mutation epoch. Any two calls returning the same
    /// value bracket a span in which no counter changed, so snapshots
    /// derived from the planes (prefix sums, cell classifications) can
    /// be cached keyed on `(t, epoch)`. The epoch identifies states
    /// *within* one instance's lifetime: a histogram rebuilt by a
    /// restore starts its own count.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The grid specification (cell geometry).
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// The configured time horizon.
    pub fn horizon(&self) -> TimeHorizon {
        self.horizon
    }

    /// Current base timestamp `t_now`; slots cover
    /// `[t_base, t_base + H]`.
    pub fn t_base(&self) -> Timestamp {
        self.t_base
    }

    /// `true` when timestamp `t` currently has a slot.
    pub fn covers(&self, t: Timestamp) -> bool {
        self.horizon.covers(self.t_base, t)
    }

    /// Memory footprint of the counters in bytes — the quantity traded
    /// against accuracy in Figure 8(c)/(d).
    pub fn memory_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<i32>()
    }

    #[inline]
    fn slot_of(&self, t: Timestamp) -> usize {
        (t % self.horizon.slot_count() as u64) as usize
    }

    #[inline]
    fn idx(&self, t: Timestamp, cell: CellId) -> usize {
        self.slot_of(t) * self.grid.cell_count() + self.grid.linear_index(cell)
    }

    /// Count of objects in `cell` at timestamp `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is outside the current horizon window.
    pub fn count_at(&self, t: Timestamp, cell: CellId) -> i64 {
        assert!(
            self.covers(t),
            "timestamp {t} outside horizon [{}, {}]",
            self.t_base,
            self.t_base + self.horizon.h()
        );
        self.counts[self.idx(t, cell)] as i64
    }

    /// The whole `m²` counter plane for timestamp `t`, row-major.
    pub fn plane_at(&self, t: Timestamp) -> &[i32] {
        assert!(self.covers(t), "timestamp {t} outside horizon");
        let cells = self.grid.cell_count();
        let start = self.slot_of(t) * cells;
        &self.counts[start..start + cells]
    }

    /// Builds the 2-D prefix sums of timestamp `t`'s plane, enabling
    /// O(1) neighborhood counts in the filter step.
    pub fn prefix_sums_at(&self, t: Timestamp) -> PrefixSum2d {
        PrefixSum2d::build(self.grid.cells_per_side(), self.plane_at(t))
    }

    /// Applies one protocol update: rasterizes the affected trajectory
    /// over the intersection of the update's affected range with the
    /// current horizon window. Positions that extrapolate outside the
    /// grid are skipped (the object has left the monitored region).
    pub fn apply(&mut self, update: &Update) {
        let Some((from, to)) = update.affected_range(self.horizon.h()) else {
            return;
        };
        let from = from.max(self.t_base);
        let to = to.min(self.t_base + self.horizon.h());
        if from > to {
            return;
        }
        let motion = update.motion();
        let sign = update.sign() as i32;
        self.epoch += 1;
        for t in from..=to {
            let pos = motion.position_at(t);
            if let Some(cell) = self.grid.locate(pos) {
                let i = self.idx(t, cell);
                self.counts[i] += sign;
            }
        }
    }

    /// Advances the horizon base to `t_new`, recycling (zeroing) the
    /// slots of expired timestamps so they can represent
    /// `(t_old_end, t_new + H]`.
    ///
    /// # Panics
    ///
    /// Panics when time moves backwards.
    pub fn advance_to(&mut self, t_new: Timestamp) {
        assert!(t_new >= self.t_base, "time cannot move backwards");
        let slots = self.horizon.slot_count() as u64;
        let steps = t_new - self.t_base;
        if steps > 0 {
            self.epoch += 1;
        }
        if steps >= slots {
            // The entire window expired.
            self.counts.fill(0);
        } else {
            let cells = self.grid.cell_count();
            for t in self.t_base..t_new {
                let start = self.slot_of(t) * cells;
                self.counts[start..start + cells].fill(0);
            }
        }
        self.t_base = t_new;
    }

    /// Total object count recorded for timestamp `t` (diagnostics: for
    /// a closed system it must equal the number of live objects inside
    /// the region).
    pub fn total_at(&self, t: Timestamp) -> i64 {
        self.plane_at(t).iter().map(|&c| c as i64).sum()
    }

    /// Asserts that no counter is negative — a violated invariant means
    /// a deletion did not mirror its insertion. Intended for tests.
    pub fn validate_non_negative(&self) {
        for (i, &c) in self.counts.iter().enumerate() {
            assert!(c >= 0, "negative counter {c} at flat index {i}");
        }
    }

    /// Brute-force reference count for tests: how many of `points` fall
    /// in `cell`.
    pub fn reference_count(grid: &GridSpec, points: &[Point], cell: CellId) -> i64 {
        points
            .iter()
            .filter(|&&p| grid.locate(p) == Some(cell))
            .count() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_mobject::{MotionState, ObjectId, ObjectTable};

    fn horizon() -> TimeHorizon {
        TimeHorizon::new(2, 3) // H = 5, 6 slots
    }

    fn dh() -> DensityHistogram {
        DensityHistogram::new(100.0, 10, horizon(), 0)
    }

    fn motion(x: f64, y: f64, vx: f64, vy: f64, t: Timestamp) -> MotionState {
        MotionState::new(Point::new(x, y), Point::new(vx, vy), t)
    }

    #[test]
    fn insertion_rasterizes_trajectory() {
        let mut h = dh();
        // Moves right 10 units per tick: occupies a new column each tick.
        let u = Update::insert(ObjectId(1), 0, motion(5.0, 5.0, 10.0, 0.0, 0));
        h.apply(&u);
        for t in 0..=5u64 {
            let cell = CellId::new(t as u32, 0);
            assert_eq!(h.count_at(t, cell), 1, "t={t}");
        }
        assert_eq!(h.total_at(3), 1);
    }

    #[test]
    fn deletion_cancels_insertion() {
        let mut h = dh();
        let m = motion(5.0, 5.0, 10.0, 0.0, 0);
        h.apply(&Update::insert(ObjectId(1), 0, m));
        h.apply(&Update::delete(ObjectId(1), 0, m));
        for t in 0..=5u64 {
            assert_eq!(h.total_at(t), 0, "t={t}");
        }
        h.validate_non_negative();
    }

    #[test]
    fn movement_report_updates_future_only() {
        let mut h = dh();
        let mut tab = ObjectTable::new();
        for u in tab.report(ObjectId(1), 0, motion(5.0, 5.0, 10.0, 0.0, 0)) {
            h.apply(&u);
        }
        h.advance_to(2);
        // Re-report at t=2 from a different place.
        for u in tab.report(ObjectId(1), 2, motion(95.0, 95.0, 0.0, 0.0, 2)) {
            h.apply(&u);
        }
        h.validate_non_negative();
        // At t=2..: object is at (95, 95) only.
        for t in 2..=7u64 {
            assert_eq!(h.count_at(t, CellId::new(9, 9)), 1, "t={t}");
            assert_eq!(h.total_at(t), 1, "t={t}");
        }
    }

    #[test]
    fn objects_leaving_region_are_skipped() {
        let mut h = dh();
        // Exits the 100-unit region after t=1.
        let u = Update::insert(ObjectId(1), 0, motion(95.0, 50.0, 10.0, 0.0, 0));
        h.apply(&u);
        assert_eq!(h.total_at(0), 1);
        assert_eq!(h.total_at(1), 0, "object left the region");
    }

    #[test]
    fn advance_recycles_slots_zeroed() {
        let mut h = dh();
        h.apply(&Update::insert(
            ObjectId(1),
            0,
            motion(50.0, 50.0, 0.0, 0.0, 0),
        ));
        assert_eq!(h.total_at(5), 1);
        h.advance_to(3);
        // Old slots 0..2 recycled as 6..8; they must be empty.
        for t in 6..=8u64 {
            assert_eq!(h.total_at(t), 0, "recycled slot t={t}");
        }
        // Still-live slots keep their counts.
        for t in 3..=5u64 {
            assert_eq!(h.total_at(t), 1, "live slot t={t}");
        }
    }

    #[test]
    fn advance_past_entire_window_clears_all() {
        let mut h = dh();
        h.apply(&Update::insert(
            ObjectId(1),
            0,
            motion(50.0, 50.0, 0.0, 0.0, 0),
        ));
        h.advance_to(100);
        for t in 100..=105u64 {
            assert_eq!(h.total_at(t), 0);
        }
    }

    #[test]
    #[should_panic(expected = "outside horizon")]
    fn query_outside_window_panics() {
        let h = dh();
        let _ = h.count_at(6, CellId::new(0, 0));
    }

    #[test]
    fn matches_brute_force_counts() {
        // A deterministic swarm of 50 objects with varied velocities.
        let mut h = DensityHistogram::new(1000.0, 25, TimeHorizon::new(5, 5), 0);
        let mut tab = ObjectTable::new();
        let mut seed = 7u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for i in 0..50 {
            let m = motion(
                rng() * 1000.0,
                rng() * 1000.0,
                rng() * 10.0 - 5.0,
                rng() * 10.0 - 5.0,
                0,
            );
            for u in tab.report(ObjectId(i), 0, m) {
                h.apply(&u);
            }
        }
        for t in [0u64, 4, 10] {
            let pts = tab.positions_at(t);
            let grid = h.grid();
            for cell in grid.all_cells() {
                // Brute force counts only in-region points, like apply().
                let expect: i64 = pts
                    .iter()
                    .filter(|p| grid.locate(**p) == Some(cell))
                    .count() as i64;
                assert_eq!(h.count_at(t, cell), expect, "t={t} cell={cell:?}");
            }
        }
    }

    /// The epoch is the only staleness signal derived state (prefix
    /// sums, classifications, standing-group answers) is keyed on: it
    /// moves on every counter-changing `apply` and on every advance,
    /// and stands still otherwise.
    #[test]
    fn epoch_moves_exactly_when_counters_can_change() {
        let mut h = dh();
        let e0 = h.epoch();
        h.apply(&Update::insert(
            ObjectId(1),
            0,
            motion(5.0, 5.0, 0.0, 0.0, 0),
        ));
        let e1 = h.epoch();
        assert!(e1 > e0, "an in-window apply moves the epoch");
        h.advance_to(1);
        let e2 = h.epoch();
        assert!(e2 > e1, "an advance moves the epoch");
        h.advance_to(1);
        assert_eq!(h.epoch(), e2, "a zero-step advance is not a mutation");
        let _ = (h.plane_at(3), h.prefix_sums_at(3), h.total_at(1));
        assert_eq!(h.epoch(), e2, "reads never move the epoch");
        // A report whose whole trajectory lies before the window touches
        // no counter.
        h.advance_to(20);
        let e3 = h.epoch();
        h.apply(&Update::insert(
            ObjectId(2),
            0,
            motion(50.0, 50.0, 0.0, 0.0, 0),
        ));
        assert_eq!(h.epoch(), e3, "an out-of-window apply is not a mutation");
    }

    #[test]
    fn memory_accounting() {
        let h = DensityHistogram::new(1000.0, 100, TimeHorizon::new(60, 60), 0);
        // 121 slots x 10000 cells x 4 bytes
        assert_eq!(h.memory_bytes(), 121 * 10_000 * 4);
    }
}
