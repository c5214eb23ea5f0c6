//! The approximate polynomial-approximation engine (Section 6).

use crate::obs::{Counter, Histogram, ObsReport};
use pdr_chebyshev::{BnbConfig, PolyGrid};
use pdr_geometry::{Point, Rect, RegionSet};
use pdr_mobject::{TimeHorizon, Timestamp, Update};
use std::time::{Duration, Instant};

/// PA-side instrumentation: where branch-and-bound spends its nodes and
/// where wall-clock goes. Counters record through `&self` (queries are
/// shared); recording never changes any answer.
#[derive(Debug, Default)]
struct PaObs {
    enabled: bool,
    queries: Counter,
    bnb_expanded: Counter,
    bnb_accepted: Counter,
    bnb_pruned: Counter,
    bnb_leaf_evals: Counter,
    query_time: Histogram,
    apply_time: Histogram,
}

impl PaObs {
    fn on() -> Self {
        PaObs {
            enabled: true,
            ..PaObs::default()
        }
    }

    fn report(&self) -> ObsReport {
        ObsReport {
            counters: vec![
                ("queries", self.queries.get()),
                ("bnb_expanded", self.bnb_expanded.get()),
                ("bnb_accepted", self.bnb_accepted.get()),
                ("bnb_pruned", self.bnb_pruned.get()),
                ("bnb_leaf_evals", self.bnb_leaf_evals.get()),
            ],
            stages: vec![
                ("query", self.query_time.snapshot()),
                ("apply", self.apply_time.snapshot()),
            ],
        }
    }
}

/// Configuration of a [`PaEngine`].
///
/// Unlike FR, the approximate method fixes the neighborhood edge `l` at
/// construction time: the maintained surface *is* the density for that
/// `l` (the paper justifies this with PA's much lower query cost).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaConfig {
    /// Side length `L` of the monitored square region.
    pub extent: f64,
    /// Polynomial tiles per side (`g`; paper default g² = 400).
    pub g: u32,
    /// Polynomial degree (`k`; paper default 5).
    pub degree: usize,
    /// The fixed neighborhood edge length `l`.
    pub l: f64,
    /// Time horizon `U / W / H`.
    pub horizon: TimeHorizon,
    /// Resolution of the final subdivision: equivalent to an
    /// `m_d × m_d` evaluation grid over the whole plane.
    pub m_d: u32,
}

impl PaConfig {
    /// The paper's default setup: g = 20 (400 polynomials), degree 5,
    /// l = 30, on the 1000-mile plane.
    pub fn paper_default() -> Self {
        PaConfig {
            extent: 1000.0,
            g: 20,
            degree: 5,
            l: 30.0,
            horizon: TimeHorizon::PAPER_DEFAULT,
            m_d: 1024,
        }
    }
}

/// Answer and cost breakdown of one PA query.
#[derive(Clone, Debug)]
pub struct PaAnswer {
    /// The approximate dense region.
    pub regions: RegionSet,
    /// Polynomial bound evaluations performed by branch-and-bound —
    /// the threshold-sensitive CPU driver of Figure 9(a).
    pub bound_evals: u64,
    /// Wall-clock CPU time of the query. PA performs no I/O at all:
    /// all coefficients are memory resident (Section 7.3).
    pub cpu: Duration,
}

/// The approximate PDR engine: one `g × g` grid of degree-`k` Chebyshev
/// polynomials per horizon timestamp, ring-buffered like the density
/// histogram.
///
/// ```
/// use pdr_core::{PaConfig, PaEngine};
/// use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Update};
/// use pdr_geometry::Point;
///
/// let mut pa = PaEngine::new(
///     PaConfig {
///         extent: 100.0,
///         g: 4,
///         degree: 6,
///         l: 10.0,
///         horizon: TimeHorizon::new(3, 3),
///         m_d: 200,
///     },
///     0,
/// );
/// // A tight cluster of 8 stationary objects.
/// for i in 0..8 {
///     pa.apply(&Update::insert(
///         ObjectId(i),
///         0,
///         MotionState::stationary(Point::new(50.0, 50.0), 0),
///     ));
/// }
/// // All points with >= 5 objects per 10x10 neighborhood at t = 2.
/// let answer = pa.query(5.0 / 100.0, 2);
/// assert!(answer.regions.contains(Point::new(50.0, 50.0)));
/// // The surface also answers aggregates and hot-spot questions.
/// assert!(pa.estimate_count(&pdr_geometry::Rect::new(30.0, 30.0, 70.0, 70.0), 2) > 4.0);
/// let peaks = pa.top_k_dense(1, 2, 10.0);
/// assert!(peaks[0].0.center().linf_distance(Point::new(50.0, 50.0)) < 10.0);
/// ```
#[derive(Debug)]
pub struct PaEngine {
    cfg: PaConfig,
    t_base: Timestamp,
    grids: Vec<PolyGrid>,
    updates_applied: u64,
    rejected_updates: u64,
    live: i64,
    obs: PaObs,
    /// Standing subscriptions (engine-plane state: never serialized,
    /// carried across checkpoint restores by the trait impl).
    pub(crate) subs: crate::sub::SubscriptionTable,
}

impl PaEngine {
    /// Creates an empty engine whose horizon starts at `t_start`.
    pub fn new(cfg: PaConfig, t_start: Timestamp) -> Self {
        assert!(cfg.l > 0.0, "neighborhood edge must be positive");
        let grids = (0..cfg.horizon.slot_count())
            .map(|_| PolyGrid::new(cfg.extent, cfg.g, cfg.degree))
            .collect();
        PaEngine {
            cfg,
            t_base: t_start,
            grids,
            updates_applied: 0,
            rejected_updates: 0,
            live: 0,
            obs: PaObs::on(),
            subs: crate::sub::SubscriptionTable::new(),
        }
    }

    /// Snapshot of the engine's instrumentation (bnb node accounting,
    /// query/apply latency). The `queries` counter always runs; every
    /// other value stays zero while observability is disabled.
    pub fn obs_report(&self) -> ObsReport {
        self.obs.report()
    }

    /// Snapshot queries answered over the engine's lifetime (not
    /// counting the [`query_grid_scan`](Self::query_grid_scan) ablation
    /// path).
    pub fn queries_served(&self) -> u64 {
        self.obs.queries.get()
    }

    /// Turns instrumentation on or off (on by default). Disabling skips
    /// even the clock reads; answers are identical either way.
    pub fn set_obs_enabled(&mut self, on: bool) {
        self.obs.enabled = on;
    }

    /// The engine configuration.
    pub fn config(&self) -> &PaConfig {
        &self.cfg
    }

    /// Current base timestamp.
    pub fn t_base(&self) -> Timestamp {
        self.t_base
    }

    /// `true` when timestamp `t` has a slot.
    pub fn covers(&self, t: Timestamp) -> bool {
        self.cfg.horizon.covers(self.t_base, t)
    }

    /// Coefficient memory in bytes:
    /// `(H+1) · g² · (k+1)(k+2)/2` coefficients of 8 bytes (Section 6.4).
    pub fn memory_bytes(&self) -> usize {
        self.grids
            .iter()
            .map(|g| g.coefficient_count() * std::mem::size_of::<f64>())
            .sum()
    }

    #[inline]
    fn slot_of(&self, t: Timestamp) -> usize {
        (t % self.cfg.horizon.slot_count() as u64) as usize
    }

    /// Applies one protocol update (Algorithms 4–5): for each affected
    /// timestamp, deposit `±1/l²` over the object's `l`-square onto that
    /// timestamp's polynomial grid.
    pub fn apply(&mut self, update: &Update) {
        let _t = self.obs.apply_time.timer(self.obs.enabled);
        self.updates_applied += 1;
        self.live += update.sign();
        let h = self.cfg.horizon.h();
        let Some((from, to)) = update.affected_range(h) else {
            return;
        };
        let from = from.max(self.t_base);
        let to = to.min(self.t_base + h);
        if from > to {
            return;
        }
        let motion = update.motion();
        let weight = update.sign() as f64 / (self.cfg.l * self.cfg.l);
        for t in from..=to {
            let pos = motion.position_at(t);
            let bx = Rect::centered_square(pos, self.cfg.l);
            let slot = self.slot_of(t);
            self.grids[slot].add_box(&bx, weight);
        }
    }

    /// Advances the horizon base, clearing recycled slots (same
    /// correctness argument as the density histogram ring buffer).
    pub fn advance_to(&mut self, t_new: Timestamp) {
        assert!(t_new >= self.t_base, "time cannot move backwards");
        let slots = self.cfg.horizon.slot_count() as u64;
        if t_new - self.t_base >= slots {
            for g in &mut self.grids {
                g.clear();
            }
        } else {
            for t in self.t_base..t_new {
                let slot = self.slot_of(t);
                self.grids[slot].clear();
            }
        }
        self.t_base = t_new;
    }

    /// The approximated point density at `p` for timestamp `t`.
    pub fn density_at(&self, p: Point, t: Timestamp) -> f64 {
        assert!(self.covers(t), "timestamp {t} outside horizon");
        self.grids[self.slot_of(t)].eval(p)
    }

    /// Evaluates a snapshot PDR query approximately: branch-and-bound
    /// super-level-set extraction at threshold `ρ` (Section 6.3).
    ///
    /// # Panics
    ///
    /// Panics when `q_t` is outside the horizon window. The query's
    /// `l` is fixed by the engine configuration.
    pub fn query(&self, rho: f64, q_t: Timestamp) -> PaAnswer {
        assert!(self.covers(q_t), "timestamp {q_t} outside horizon");
        let _t = self.obs.query_time.timer(self.obs.enabled);
        let start = Instant::now();
        let cfg = BnbConfig::for_grid(self.cfg.extent, self.cfg.m_d);
        let (regions, bnb) = self.grids[self.slot_of(q_t)].superlevel_set(rho, &cfg);
        self.obs.queries.inc();
        if self.obs.enabled {
            self.obs.bnb_expanded.add(bnb.expanded);
            self.obs.bnb_accepted.add(bnb.accepted);
            self.obs.bnb_pruned.add(bnb.pruned);
            self.obs.bnb_leaf_evals.add(bnb.leaf_evals);
        }
        PaAnswer {
            regions,
            bound_evals: bnb.expanded,
            cpu: start.elapsed(),
        }
    }

    /// The trivial evaluation strategy the paper rejects (Section 6.3):
    /// classify every cell of an `m_d × m_d` grid by its center value.
    /// Kept as the ablation baseline for the branch-and-bound method.
    pub fn query_grid_scan(&self, rho: f64, q_t: Timestamp) -> PaAnswer {
        assert!(self.covers(q_t), "timestamp {q_t} outside horizon");
        let start = Instant::now();
        let grid = &self.grids[self.slot_of(q_t)];
        let m_d = self.cfg.m_d;
        let step = self.cfg.extent / m_d as f64;
        let mut regions = RegionSet::new();
        let mut evals = 0u64;
        for row in 0..m_d {
            for col in 0..m_d {
                let x = (col as f64 + 0.5) * step;
                let y = (row as f64 + 0.5) * step;
                evals += 1;
                if grid.eval(Point::new(x, y)) >= rho {
                    regions.push(Rect::new(
                        col as f64 * step,
                        row as f64 * step,
                        (col + 1) as f64 * step,
                        (row + 1) as f64 * step,
                    ));
                }
            }
        }
        regions.canonicalize();
        PaAnswer {
            regions,
            bound_evals: evals,
            cpu: start.elapsed(),
        }
    }

    /// Serializes the engine (configuration, horizon base, every
    /// timestamp slot's coefficients) into a versioned checkpoint, so a
    /// restarting server resumes approximate querying immediately
    /// instead of waiting up to `U + W` timestamps for re-reports.
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = pdr_storage::ByteWriter::with_capacity(64 + 9 * self.memory_bytes() / 8);
        w.put_bytes(b"PDRP");
        w.put_u16(1);
        w.put_f64(self.cfg.extent);
        w.put_u32(self.cfg.g);
        w.put_u32(self.cfg.degree as u32);
        w.put_f64(self.cfg.l);
        w.put_u64(self.cfg.horizon.max_update_time());
        w.put_u64(self.cfg.horizon.prediction_window());
        w.put_u32(self.cfg.m_d);
        w.put_u64(self.t_base);
        w.put_u64(self.grids.len() as u64);
        for g in &self.grids {
            let bytes = g.serialize();
            w.put_u64(bytes.len() as u64);
            w.put_bytes(&bytes);
        }
        w.into_bytes()
    }

    /// Restores an engine from [`serialize`](Self::serialize) output.
    pub fn deserialize(bytes: &[u8]) -> Result<Self, pdr_storage::CodecError> {
        use pdr_storage::CodecError;
        let mut r = pdr_storage::ByteReader::new(bytes);
        r.expect_magic(b"PDRP")?;
        let version = r.get_u16()?;
        if version != 1 {
            return Err(CodecError::BadVersion(version));
        }
        let extent = r.get_f64()?;
        let g = r.get_u32()?;
        let degree = r.get_u32()? as usize;
        let l = r.get_f64()?;
        if !(l.is_finite() && l > 0.0) {
            return Err(CodecError::Corrupt("edge length"));
        }
        let u = r.get_u64()?;
        let wnd = r.get_u64()?;
        if u + wnd == 0 {
            return Err(CodecError::Corrupt("horizon"));
        }
        let m_d = r.get_u32()?;
        let cfg = PaConfig {
            extent,
            g,
            degree,
            l,
            horizon: TimeHorizon::new(u, wnd),
            m_d,
        };
        let t_base = r.get_u64()?;
        let n_grids = r.get_u64()? as usize;
        if n_grids != cfg.horizon.slot_count() {
            return Err(CodecError::Corrupt("slot count"));
        }
        let mut grids = Vec::with_capacity(n_grids);
        for _ in 0..n_grids {
            let len = r.get_u64()? as usize;
            let mut chunk = Vec::with_capacity(len);
            for _ in 0..len {
                chunk.push(r.get_u8()?);
            }
            let grid = PolyGrid::deserialize(&chunk)?;
            if grid.g() != cfg.g || grid.degree() != cfg.degree {
                return Err(CodecError::Corrupt("grid shape"));
            }
            grids.push(grid);
        }
        Ok(PaEngine {
            cfg,
            t_base,
            grids,
            updates_applied: 0,
            rejected_updates: 0,
            live: 0,
            obs: PaObs::on(),
            subs: crate::sub::SubscriptionTable::new(),
        })
    }

    /// Protocol updates applied since construction (or restore —
    /// counters, like the histogram epoch, are not checkpointed).
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Reports rejected by input screening (see
    /// [`pdr_mobject::screen_batch`]), counted by the batch ingest path.
    pub fn rejected_updates(&self) -> u64 {
        self.rejected_updates
    }

    /// Adds `n` to the rejected-reports counter.
    pub fn note_rejected(&mut self, n: u64) {
        self.rejected_updates += n;
    }

    /// Net live objects implied by the update stream (inserts minus
    /// deletes); the surface itself stores no per-object state.
    pub fn live_objects(&self) -> i64 {
        self.live
    }

    /// The `k` highest-density spots at timestamp `t`, at least
    /// `min_separation` apart — "where are the worst hot-spots?"
    /// answered directly from the surface by best-first branch-and-
    /// bound, without choosing a threshold first. Returns
    /// `(spot, density)` pairs in decreasing density order.
    ///
    /// # Panics
    ///
    /// Panics when `t` is outside the horizon window.
    pub fn top_k_dense(&self, k: usize, t: Timestamp, min_separation: f64) -> Vec<(Rect, f64)> {
        assert!(self.covers(t), "timestamp {t} outside horizon");
        let cfg = BnbConfig::for_grid(self.cfg.extent, self.cfg.m_d);
        self.grids[self.slot_of(t)].top_k_peaks(k, &cfg, min_separation)
    }

    /// Estimates the number of objects inside `rect` at timestamp `t`
    /// by integrating the density surface in closed form:
    /// `∫_R d_t(p) dA = Σ_o area(S_o ∩ R)/l² ≈ |{o ∈ R}|` (each object
    /// contributes its `l`-square's overlap with `R`, so the estimate
    /// blurs by ±l/2 at the boundary). This turns the PA structure into
    /// the spatio-temporal *aggregate/selectivity* estimator the
    /// paper's related-work section connects dense-region queries to —
    /// with zero I/O and cost independent of the object count.
    ///
    /// # Panics
    ///
    /// Panics when `t` is outside the horizon window.
    pub fn estimate_count(&self, rect: &Rect, t: Timestamp) -> f64 {
        assert!(self.covers(t), "timestamp {t} outside horizon");
        self.grids[self.slot_of(t)].integral(rect)
    }

    /// Iso-density contour lines of the approximated surface at
    /// timestamp `q_t` (Section 6's "contour lines … in explicit
    /// form"): marching squares over an `n × n` sampling of the
    /// polynomial surface. Useful for visualizing how object density is
    /// distributed, beyond the binary dense/sparse answer.
    ///
    /// # Panics
    ///
    /// Panics when `q_t` is outside the horizon window or `n < 2`.
    pub fn contours(&self, level: f64, q_t: Timestamp, n: usize) -> Vec<pdr_chebyshev::Contour> {
        assert!(self.covers(q_t), "timestamp {q_t} outside horizon");
        let grid = &self.grids[self.slot_of(q_t)];
        let domain = grid.domain();
        pdr_chebyshev::contour_lines(|x, y| grid.eval(Point::new(x, y)), domain, level, n)
    }

    /// Interval PDR query: union of snapshot answers.
    pub fn interval_query(&self, rho: f64, from: Timestamp, to: Timestamp) -> RegionSet {
        assert!(from <= to, "empty interval");
        let mut out = RegionSet::new();
        for t in from..=to {
            out.extend_from(&self.query(rho, t).regions);
        }
        out.canonicalize();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Lcg;
    use crate::{accuracy, ExactOracle, PdrQuery};
    use pdr_mobject::{MotionState, ObjectId};

    fn cfg() -> PaConfig {
        PaConfig {
            extent: 200.0,
            g: 4,
            degree: 6,
            l: 20.0,
            horizon: TimeHorizon::new(3, 3),
            m_d: 256,
        }
    }

    fn population(n: usize, seed: u64) -> Vec<(ObjectId, MotionState)> {
        let mut rng = Lcg(seed);
        (0..n)
            .map(|i| {
                let p = if i % 2 == 0 {
                    Point::new(60.0 + rng.f64() * 40.0, 60.0 + rng.f64() * 40.0)
                } else {
                    Point::new(rng.f64() * 200.0, rng.f64() * 200.0)
                };
                let v = Point::new(rng.f64() * 2.0 - 1.0, rng.f64() * 2.0 - 1.0);
                (ObjectId(i as u64), MotionState::new(p, v, 0))
            })
            .collect()
    }

    fn loaded_engine(pop: &[(ObjectId, MotionState)]) -> PaEngine {
        let mut pa = PaEngine::new(cfg(), 0);
        for (id, m) in pop {
            pa.apply(&Update::insert(*id, 0, *m));
        }
        pa
    }

    #[test]
    fn density_surface_tracks_point_density() {
        let pop = population(400, 3);
        let pa = loaded_engine(&pop);
        let oracle = ExactOracle::new(
            Rect::new(0.0, 0.0, 200.0, 200.0),
            pop.iter().map(|(_, m)| m.position_at(2)).collect(),
        );
        // Compare approximate vs exact density at interior probes.
        let mut total_err = 0.0;
        let mut probes = 0;
        for ix in 1..10 {
            for iy in 1..10 {
                let p = Point::new(ix as f64 * 20.0, iy as f64 * 20.0);
                let exact = oracle.density_at(p, 20.0);
                let approx = pa.density_at(p, 2);
                total_err += (exact - approx).abs();
                probes += 1;
            }
        }
        let mean_err = total_err / probes as f64;
        // Peak densities here are ~0.15 objects/unit^2; mean absolute
        // error should be a small fraction of that.
        assert!(mean_err < 0.02, "mean density error {mean_err}");
    }

    #[test]
    fn query_approximates_truth() {
        let pop = population(500, 7);
        let pa = loaded_engine(&pop);
        let q = PdrQuery::new(0.05, 20.0, 1);
        let oracle = ExactOracle::new(
            Rect::new(0.0, 0.0, 200.0, 200.0),
            pop.iter().map(|(_, m)| m.position_at(1)).collect(),
        );
        let truth = oracle.dense_regions(&q);
        let ans = pa.query(q.rho, 1);
        let acc = accuracy(&truth, &ans.regions);
        assert!(
            acc.r_fp < 0.5 && acc.r_fn < 0.5,
            "PA too inaccurate: {acc:?} (truth area {})",
            truth.area()
        );
    }

    #[test]
    fn bnb_agrees_with_grid_scan() {
        let pop = population(400, 13);
        let pa = loaded_engine(&pop);
        let bnb = pa.query(0.05, 0);
        let scan = pa.query_grid_scan(0.05, 0);
        // Same surface, same threshold: answers must nearly coincide
        // (they differ only in sub-cell boundary placement).
        let sym = bnb.regions.symmetric_difference_area(&scan.regions);
        let union = bnb.regions.union_area(&scan.regions);
        assert!(
            sym <= 0.1 * union.max(1.0),
            "bnb vs scan symmetric difference {sym} of union {union}"
        );
        // And branch-and-bound must touch far fewer evaluation points.
        assert!(bnb.bound_evals < scan.bound_evals / 2);
    }

    #[test]
    fn deletion_reverts_surface() {
        let pop = population(100, 5);
        let mut pa = PaEngine::new(cfg(), 0);
        for (id, m) in &pop {
            pa.apply(&Update::insert(*id, 0, *m));
        }
        for (id, m) in &pop {
            pa.apply(&Update::delete(*id, 0, *m));
        }
        for ix in 0..10 {
            for iy in 0..10 {
                let p = Point::new(ix as f64 * 20.0 + 5.0, iy as f64 * 20.0 + 5.0);
                assert!(
                    pa.density_at(p, 2).abs() < 1e-9,
                    "residual density at {p:?}"
                );
            }
        }
    }

    #[test]
    fn higher_threshold_prunes_more() {
        let pop = population(500, 17);
        let pa = loaded_engine(&pop);
        let low = pa.query(0.02, 0);
        let high = pa.query(0.2, 0);
        assert!(high.bound_evals <= low.bound_evals);
    }

    #[test]
    fn advance_clears_recycled_slots() {
        let pop = population(200, 19);
        let mut pa = loaded_engine(&pop);
        assert!(pa.covers(6));
        pa.advance_to(2);
        // Slots 7, 8 are recycled from old 0, 1 and must be empty.
        assert!(pa.covers(8));
        assert_eq!(pa.density_at(Point::new(80.0, 80.0), 8), 0.0);
        // Live slots keep their surface.
        assert!(pa.density_at(Point::new(80.0, 80.0), 4) > 0.0);
    }

    #[test]
    fn checkpoint_round_trip_preserves_answers() {
        let pop = population(300, 61);
        let mut pa = loaded_engine(&pop);
        pa.advance_to(1);
        let bytes = pa.serialize();
        let restored = PaEngine::deserialize(&bytes).unwrap();
        assert_eq!(restored.t_base(), 1);
        for t in 1..=7u64 {
            let a = pa.query(0.05, t).regions;
            let b = restored.query(0.05, t).regions;
            assert!(
                a.symmetric_difference_area(&b) < 1e-9,
                "restored engine answers differ at t={t}"
            );
        }
        // The restored engine keeps accepting updates.
        let mut restored = restored;
        restored.apply(&Update::insert(
            pdr_mobject::ObjectId(9999),
            1,
            MotionState::stationary(Point::new(10.0, 10.0), 1),
        ));
        assert!(restored.density_at(Point::new(10.0, 10.0), 3) > 0.0);
    }

    /// Satellite of the engine-plane refactor: the checkpoint must be
    /// faithful not just for a freshly bulk-loaded engine, but after a
    /// realistic served life — movement reports (delete+insert pairs)
    /// across several ticks, each preceded by a horizon advance.
    #[test]
    fn checkpoint_round_trip_after_update_stream_and_advance() {
        use pdr_mobject::ObjectTable;
        let pop = population(250, 71);
        let mut table = ObjectTable::new();
        let mut pa = PaEngine::new(cfg(), 0);
        for (id, m) in &pop {
            for u in table.report(*id, 0, *m) {
                pa.apply(&u);
            }
        }
        // Three ticks: advance the horizon, then half the objects
        // re-report with perturbed motions (a delete+insert pair each).
        let mut rng = Lcg(123);
        for t in 1..=3u64 {
            pa.advance_to(t);
            for (id, m) in pop.iter().filter(|(id, _)| id.0 % 2 == 0) {
                let moved = MotionState::new(
                    m.position_at(t),
                    Point::new(rng.f64() * 2.0 - 1.0, rng.f64() * 2.0 - 1.0),
                    t,
                );
                for u in table.report(*id, t, moved) {
                    pa.apply(&u);
                }
            }
        }
        assert!(pa.updates_applied() > pop.len() as u64);

        let restored = PaEngine::deserialize(&pa.serialize()).unwrap();
        assert_eq!(restored.t_base(), 3);
        // Coefficients are checkpointed bit-exactly, so the restored
        // surface — and every answer derived from it — is identical
        // across the whole covered window.
        for t in 3..=9u64 {
            for &rho in &[0.02, 0.05, 0.1] {
                let a = pa.query(rho, t).regions;
                let b = restored.query(rho, t).regions;
                assert_eq!(a.rects(), b.rects(), "answers differ at t={t}, rho={rho}");
            }
            let probe = Point::new(80.0, 80.0);
            assert_eq!(
                pa.density_at(probe, t).to_bits(),
                restored.density_at(probe, t).to_bits(),
                "surface differs at t={t}"
            );
        }
        // Counters are engine-lifetime accounting, not surface state:
        // a restored engine restarts them (like the histogram epoch).
        assert_eq!(restored.updates_applied(), 0);
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        use pdr_storage::CodecError;
        assert!(matches!(
            PaEngine::deserialize(b"junk").unwrap_err(),
            CodecError::BadMagic
        ));
        let pa = PaEngine::new(cfg(), 0);
        let bytes = pa.serialize();
        assert!(matches!(
            PaEngine::deserialize(&bytes[..bytes.len() / 2]).unwrap_err(),
            CodecError::UnexpectedEof
        ));
    }

    #[test]
    fn top_k_dense_finds_the_cluster() {
        let pop = population(500, 53);
        let pa = loaded_engine(&pop);
        // The generator puts half the objects in [60, 100]^2.
        let peaks = pa.top_k_dense(3, 1, 30.0);
        assert!(!peaks.is_empty());
        let best = peaks[0].0.center();
        assert!(
            (40.0..=120.0).contains(&best.x) && (40.0..=120.0).contains(&best.y),
            "hottest spot {best:?} not in the cluster region"
        );
        // Densities are reported in decreasing order and are positive.
        for w in peaks.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(peaks[0].1 > 0.0);
        // Separation holds.
        for (i, a) in peaks.iter().enumerate() {
            for b in peaks.iter().skip(i + 1) {
                assert!(a.0.center().linf_distance(b.0.center()) >= 30.0);
            }
        }
    }

    #[test]
    fn estimate_count_tracks_true_counts() {
        let pop = population(600, 41);
        let pa = loaded_engine(&pop);
        for rect in [
            Rect::new(40.0, 40.0, 120.0, 120.0),   // hot cluster area
            Rect::new(0.0, 0.0, 200.0, 200.0),     // whole plane
            Rect::new(150.0, 150.0, 200.0, 200.0), // sparse corner
        ] {
            // Blur-corrected truth: count objects in the rect expanded
            // by nothing (the estimator itself blurs by +-l/2, so allow
            // a generous tolerance scaled by the perimeter).
            let t = 2u64;
            let truth = pop
                .iter()
                .filter(|(_, m)| rect.contains(m.position_at(t)))
                .count() as f64;
            let est = pa.estimate_count(&rect, t);
            let slack = 0.15 * truth + (rect.margin() * 2.0 * cfg().l) / (cfg().l * cfg().l) + 5.0;
            assert!(
                (est - truth).abs() <= slack,
                "rect {rect:?}: estimated {est}, true {truth} (slack {slack})"
            );
        }
    }

    #[test]
    fn contours_trace_the_dense_boundary() {
        let pop = population(500, 29);
        let pa = loaded_engine(&pop);
        let rho = 0.05;
        let contours = pa.contours(rho, 1, 128);
        assert!(!contours.is_empty(), "a clustered scene must have contours");
        // Every contour vertex sits (approximately) on the iso-level.
        for c in &contours {
            for p in c.points.iter().step_by(5) {
                let v = pa.density_at(*p, 1);
                assert!(
                    (v - rho).abs() < 0.02,
                    "contour vertex {p:?} has density {v}, level {rho}"
                );
            }
        }
    }

    #[test]
    fn memory_accounting_formula() {
        let pa = PaEngine::new(cfg(), 0);
        // 7 slots x 16 tiles x C(6) coeffs x 8 bytes, C(6) = 28.
        assert_eq!(pa.memory_bytes(), 7 * 16 * 28 * 8);
    }

    #[test]
    fn interval_query_contains_snapshots() {
        let pop = population(300, 23);
        let pa = loaded_engine(&pop);
        let union = pa.interval_query(0.05, 0, 2);
        for t in 0..=2u64 {
            let snap = pa.query(0.05, t).regions;
            assert!(snap.difference_area(&union) < 1e-6);
        }
    }
}
