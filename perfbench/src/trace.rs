//! The traced run's view of the FR query path.
//!
//! Spans are recorded from this crate, around calls into each layer's
//! public functions; nothing inside the engine is instrumented. Each
//! traced query re-executes `FrEngine::query` stage by stage:
//!
//! 1. `DensityHistogram::prefix_sums_at`
//! 2. `classify_cells`
//! 3. for each candidate cell: `RangeIndex::try_range_at_into`, then
//!    `refine_region`
//! 4. `RegionSet::canonicalize`
//!
//! and must reproduce the engine's answer rect for rect, or its stage
//! numbers are void. Spans stay in memory and are summarised once, at
//! the end of the run.

use crate::stats::{Report, Samples};
use pdr_core::{
    classify_cells, refine_region, CellClass, DenseThreshold, DensityEngine, FrAnswer, FrEngine,
    PdrQuery,
};
use pdr_geometry::{Point, RegionSet};
use pdr_histogram::DensityHistogram;
use pdr_mobject::{MotionState, ObjectId, Timestamp, Update};
use pdr_storage::IoStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval; `parent` indexes the span that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// In-memory span log.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

/// Per span name: how many spans, their total time and their self time
/// (total minus the time of their child spans).
#[derive(Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

impl Tracer {
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    pub fn duration(&self, id: usize) -> Duration {
        self.spans[id].end - self.spans[id].start
    }

    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            let t = out.entry(s.name).or_default();
            let d = s.end - s.start;
            t.count += 1;
            t.total += d;
            t.self_time += d.saturating_sub(child);
        }
        out
    }
}

/// Per-layer accounting of the FR path (and of FR ingest) over one run.
#[derive(Default)]
pub struct FrLayers {
    tracer: Tracer,
    /// Wall time of `FrEngine::query`, µs, one per traced query.
    query_us: Samples,
    /// Wall time of the stage-by-stage mirror, µs; the stage spans
    /// partition it.
    mirror_us: Samples,
    cells: u64,
    candidates: u64,
    yielding: u64,
    hits: u64,
    reads: u64,
    misses: u64,
    sweep_rects: u64,
    rects_in: u64,
    rects_out: u64,
    fr_apply: Duration,
    hist_apply: Duration,
    updates: u64,
    mismatches: u64,
}

impl FrLayers {
    /// Runs `FrEngine::query` timed, then the traced mirror of the same
    /// query; returns the engine's answer and its wall time.
    pub fn query(
        &mut self,
        fr: &mut FrEngine,
        q: &PdrQuery,
        report: &mut Report,
    ) -> (FrAnswer, Duration) {
        let start = Instant::now();
        let answer = fr.query(q);
        let wall = start.elapsed();
        self.query_us.push(wall.as_secs_f64() * 1e6);
        self.misses += answer.io.misses;
        let mirrored = self.mirror(fr, q);
        let same = mirrored.rects() == answer.regions.rects();
        if !same {
            self.mismatches += 1;
        }
        report.check(same, || {
            format!("traced mirror differs from FrEngine::query at {q:?}")
        });
        (answer, wall)
    }

    fn mirror(&mut self, fr: &mut FrEngine, q: &PdrQuery) -> RegionSet {
        let tr = &mut self.tracer;
        let root = tr.begin("fr.mirror", None);
        let grid = fr.histogram().grid();

        let s = tr.begin("histogram.prefix_sums", Some(root));
        let sums = fr.histogram().prefix_sums_at(q.q_t);
        tr.end(s);

        let s = tr.begin("filter.classify", Some(root));
        let cls = classify_cells(grid, &sums, q);
        tr.end(s);

        let threshold = DenseThreshold::of(q);
        let mut regions = RegionSet::new();
        for cell in cls.cells_of(CellClass::Accept) {
            regions.push(grid.cell_rect(cell));
        }
        let tree = &*fr.tree();
        let mut io = IoStats::default();
        let mut hits: Vec<(ObjectId, Point)> = Vec::new();
        let mut positions: Vec<Point> = Vec::new();
        let refine = tr.begin("refine", Some(root));
        for cell in cls.cells_of(CellClass::Candidate) {
            let target = grid.cell_rect(cell);
            let s = tr.begin("tprtree.range", Some(refine));
            let ok = tree
                .try_range_at_into(&target.inflate(q.l / 2.0), q.q_t, &mut io, &mut hits)
                .is_ok();
            tr.end(s);
            assert!(ok, "the benchmark installs no storage faults");
            positions.clear();
            positions.extend(hits.iter().map(|&(_, p)| p));
            let s = tr.begin("sweep.refine", Some(refine));
            let rects = refine_region(&target, &mut positions, threshold, q.l);
            tr.end(s);
            self.candidates += 1;
            self.hits += hits.len() as u64;
            self.yielding += u64::from(!rects.is_empty());
            self.sweep_rects += rects.len() as u64;
            for r in rects {
                regions.push(r);
            }
        }
        tr.end(refine);
        self.reads += io.logical_reads;
        self.cells += grid.cell_count() as u64;
        self.rects_in += regions.len() as u64;

        let s = tr.begin("geometry.canonicalize", Some(root));
        regions.canonicalize();
        tr.end(s);
        self.rects_out += regions.len() as u64;
        tr.end(root);
        self.mirror_us.push(tr.duration(root).as_secs_f64() * 1e6);
        regions
    }

    /// Applies one tick to `fr` (timed) and to the mirror histogram
    /// `hist` fed the same updates (timed separately), so the index
    /// share of FR ingest is the difference.
    pub fn apply(
        &mut self,
        fr: &mut FrEngine,
        hist: &mut DensityHistogram,
        t_next: Timestamp,
        batch: &[Update],
    ) {
        let start = Instant::now();
        fr.advance_to(t_next);
        DensityEngine::apply_batch(fr, batch);
        self.fr_apply += start.elapsed();
        let start = Instant::now();
        hist.advance_to(t_next);
        for u in batch {
            hist.apply(u);
        }
        self.hist_apply += start.elapsed();
        self.updates += batch.len() as u64;
    }

    /// Reports every FR-path layer metric.
    pub fn report(&self, r: &mut Report) {
        let spans = self.tracer.summary();
        let get = |name: &str| spans.get(name).copied().unwrap_or_default();
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let n = self.query_us.len();
        let per_query = |d: Duration| us(d) / n.max(1) as f64;
        let ranges = get("tprtree.range").count.max(1) as f64;
        let cands = self.candidates.max(1) as f64;
        let q = n.max(1) as f64;

        r.mean(
            "histogram.prefix_sums_us",
            per_query(get("histogram.prefix_sums").total),
            "us",
            n,
        );
        let upd = self.updates.max(1) as f64;
        r.mean(
            "histogram.apply_us",
            us(self.hist_apply) / upd,
            "us",
            self.updates as usize,
        );
        r.mean(
            "tprtree.update_us",
            us(self.fr_apply.saturating_sub(self.hist_apply)) / upd,
            "us",
            self.updates as usize,
        );
        r.mean(
            "filter.classify_us",
            per_query(get("filter.classify").total),
            "us",
            n,
        );
        r.mean(
            "filter.candidate_cells",
            self.candidates as f64 / q,
            "count",
            n,
        );
        r.mean(
            "filter.candidate_ratio",
            self.candidates as f64 / self.cells.max(1) as f64,
            "ratio",
            n,
        );
        r.mean(
            "filter.refine_yield",
            self.yielding as f64 / cands,
            "ratio",
            n,
        );
        let range = get("tprtree.range");
        r.mean(
            "tprtree.range_us",
            us(range.total) / ranges,
            "us",
            range.count as usize,
        );
        r.mean(
            "tprtree.hits_per_range",
            self.hits as f64 / ranges,
            "count",
            range.count as usize,
        );
        r.mean(
            "tprtree.reads_per_range",
            self.reads as f64 / ranges,
            "count",
            range.count as usize,
        );
        r.mean(
            "storage.misses_per_query",
            self.misses as f64 / q,
            "count",
            n,
        );
        let sweep = get("sweep.refine");
        r.mean(
            "sweep.refine_us",
            us(sweep.total) / cands,
            "us",
            sweep.count as usize,
        );
        r.mean(
            "sweep.rects_per_cell",
            self.sweep_rects as f64 / cands,
            "count",
            sweep.count as usize,
        );
        let canon = per_query(get("geometry.canonicalize").total);
        r.mean("geometry.canonicalize_us", canon, "us", n);
        r.mean("geometry.rects_in", self.rects_in as f64 / q, "count", n);
        r.mean("geometry.rects_out", self.rects_out as f64 / q, "count", n);
        r.mean("fr.query_us", self.query_us.mean(), "us", n);
        // The stages are attributed against the mirror's own wall time:
        // the mirror refines serially, while `FrEngine::query` refines
        // on the executor, so its wall time is not a sum of these spans.
        let mirror_us = self.mirror_us.mean();
        r.mean("fr.mirror_us", mirror_us, "us", n);
        let staged = [
            "histogram.prefix_sums",
            "filter.classify",
            "refine",
            "geometry.canonicalize",
        ]
        .iter()
        .map(|s| per_query(get(s).total))
        .sum::<f64>();
        r.mean("fr.unattributed_us", mirror_us - staged, "us", n);
        r.mean(
            "fr.canonicalize_share",
            canon / mirror_us.max(f64::MIN_POSITIVE),
            "ratio",
            n,
        );
        r.mean(
            "fr.refine_self_us",
            per_query(get("refine").self_time),
            "us",
            n,
        );
        r.metric("trace.mirror_mismatches", self.mismatches as f64, "count");
    }
}

/// Builds the mirror histogram for [`FrLayers::apply`]: same geometry
/// and horizon as `fr`, loaded with the same population.
pub fn mirror_histogram(
    fr: &FrEngine,
    population: &[(ObjectId, MotionState)],
    t_now: Timestamp,
) -> DensityHistogram {
    let cfg = fr.config();
    let mut h = DensityHistogram::new(cfg.extent, cfg.m, cfg.horizon, fr.histogram().t_base());
    for (id, m) in population {
        h.apply(&Update::insert(*id, t_now, *m));
    }
    h
}
