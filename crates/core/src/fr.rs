//! The exact filtering–refinement engine (Section 5).

use crate::exec::Executor;
use crate::obs::{Counter, Histogram, ObsReport};
use crate::sub::{AnswerDelta, GroupMemo, SubscriptionTable};
use crate::wal::{open_checkpoint, seal_checkpoint, RecoverError};
use crate::{
    classify_cells, dh_optimistic, refine_region, CellClass, Classification, DenseThreshold,
    DensityEngine, PdrQuery, RangeIndex,
};
use pdr_geometry::{CellId, GridSpec, Point, Rect, RegionSet};
use pdr_histogram::{DensityHistogram, PrefixSum2d};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Timestamp, Update, UpdateKind};
use pdr_storage::{
    ByteReader, ByteWriter, CodecError, CostModel, FaultPlan, FaultStats, IoStats, StorageError,
};
use pdr_tprtree::{TprConfig, TprTree};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Configuration of an [`FrEngine`].
#[derive(Clone, Copy, Debug)]
pub struct FrConfig {
    /// Side length `L` of the monitored square region.
    pub extent: f64,
    /// Histogram cells per side (`m`; paper default m² = 10 000).
    pub m: u32,
    /// Time horizon `U / W / H`.
    pub horizon: TimeHorizon,
    /// TPR-tree buffer pool size in pages (paper: 10 % of the data).
    pub buffer_pages: usize,
    /// Refinement parallelism width; `0` means one chunk per available
    /// core. Candidate cells are split into this many chunks and run as
    /// one task group on the shared [`Executor`] (chunks execute on the
    /// pool's workers plus the querying thread — no threads are spawned
    /// per query); the answer is bit-identical for every width and
    /// every pool size.
    pub threads: usize,
}

impl FrConfig {
    /// The paper's default setup on the 1000-mile plane.
    pub fn paper_default() -> Self {
        FrConfig {
            extent: 1000.0,
            m: 100,
            horizon: TimeHorizon::PAPER_DEFAULT,
            buffer_pages: 1024,
            threads: 0,
        }
    }
}

/// Answer and cost breakdown of one FR query.
#[derive(Clone, Debug)]
pub struct FrAnswer {
    /// The exact dense region.
    pub regions: RegionSet,
    /// Cells proven dense by the filter (no refinement needed).
    pub accepts: usize,
    /// Cells proven sparse by the filter.
    pub rejects: usize,
    /// Cells refined by range query + plane sweep.
    pub candidates: usize,
    /// Objects retrieved from the TPR-tree across all candidate cells.
    pub objects_retrieved: usize,
    /// Buffer-pool I/O incurred by the refinement range queries.
    pub io: IoStats,
    /// Wall-clock CPU time of the whole query.
    pub cpu: Duration,
}

impl FrAnswer {
    /// Total query cost in milliseconds under `model`:
    /// `CPU + random-I/O charge` (the paper's Figure 10 metric).
    pub fn total_ms(&self, model: &CostModel) -> f64 {
        self.cpu.as_secs_f64() * 1e3 + model.io_ms(&self.io)
    }
}

/// Counters for the per-timestamp classification cache: how many times
/// the engine actually rebuilt derived state (as opposed to serving it
/// from cache). Exposed so tests can assert cache behavior — e.g. an
/// interval query over `n` distinct timestamps performs exactly `n`
/// prefix-sum builds, not one per snapshot re-visit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrCacheCounters {
    /// `prefix_sums_at` invocations that hit the histogram.
    pub sums_recomputes: u64,
    /// `classify_cells` invocations that walked all `m²` cells.
    pub classify_recomputes: u64,
}

/// Derived per-timestamp state, valid for exactly one histogram epoch:
/// any [`DensityHistogram::apply`] or advance bumps the epoch and the
/// next lookup drops everything. Prefix sums depend only on `q_t`;
/// classifications additionally depend on the query's `(ρ, l)` (keyed
/// by their bit patterns, so `0.05` and `0.05000…1` are distinct).
struct ClassificationCache {
    epoch: u64,
    sums: HashMap<Timestamp, Arc<PrefixSum2d>>,
    classes: HashMap<(Timestamp, u64, u64), Arc<Classification>>,
    counters: FrCacheCounters,
}

/// Bound on distinct `(q_t, ρ, l)` classification entries kept; beyond
/// this the map is cleared (ad-hoc query mixes should not grow memory
/// without bound, while any realistic monitoring loop stays far below).
const MAX_CLASS_ENTRIES: usize = 256;

impl ClassificationCache {
    fn new() -> Self {
        ClassificationCache {
            epoch: 0,
            sums: HashMap::new(),
            classes: HashMap::new(),
            counters: FrCacheCounters::default(),
        }
    }

    /// Drops every cached entry when the histogram has mutated since
    /// the entries were built. Counters survive invalidation.
    fn sync_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.sums.clear();
            self.classes.clear();
            self.epoch = epoch;
        }
    }
}

/// FR-side instrumentation: per-stage latency (filter classification,
/// per-cell range queries, plane sweeps, final canonical merge) and cell
/// accounting. Histograms record through `&self` with atomics, so the
/// refinement workers — which share the engine across scoped threads —
/// feed the same histograms without synchronization beyond the atomic
/// adds. Recording never changes any answer.
#[derive(Debug, Default)]
struct FrObs {
    enabled: AtomicBool,
    queries: Counter,
    candidate_cells: Counter,
    accepted_cells: Counter,
    rejected_cells: Counter,
    objects_retrieved: Counter,
    /// Capacity-growth events of the reused refinement buffers (hit and
    /// position scratch). The hot loop allocates only when a cell yields
    /// more objects than any earlier cell in the chunk, so this stays
    /// logarithmic in the largest cell population — not linear in the
    /// number of candidate cells (the old code paid two fresh vectors
    /// per cell).
    refine_allocs: Counter,
    /// Candidate cells refined by standing-group evaluations — the
    /// maintenance work the group memo could not serve (a group whose
    /// answer is stored at the current epoch refines none). Ad-hoc
    /// queries count theirs under `candidate_cells` instead.
    dirty_cells: Counter,
    classify_time: Histogram,
    range_time: Histogram,
    sweep_time: Histogram,
    merge_time: Histogram,
    query_time: Histogram,
}

impl FrObs {
    fn on() -> Self {
        FrObs {
            enabled: AtomicBool::new(true),
            ..FrObs::default()
        }
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The report, with the subscription table's pass accounting
    /// (`deltas_emitted`, `sub_latency`) alongside the engine's own.
    fn report(&self, subs: &SubscriptionTable) -> ObsReport {
        ObsReport {
            counters: vec![
                ("queries", self.queries.get()),
                ("candidate_cells", self.candidate_cells.get()),
                ("accepted_cells", self.accepted_cells.get()),
                ("rejected_cells", self.rejected_cells.get()),
                ("objects_retrieved", self.objects_retrieved.get()),
                ("refine_allocs", self.refine_allocs.get()),
                ("dirty_cells", self.dirty_cells.get()),
                ("deltas_emitted", subs.deltas_emitted()),
            ],
            stages: vec![
                ("classify", self.classify_time.snapshot()),
                ("range", self.range_time.snapshot()),
                ("sweep", self.sweep_time.snapshot()),
                ("merge", self.merge_time.snapshot()),
                ("query", self.query_time.snapshot()),
                ("sub_latency", subs.pass_latency()),
            ],
        }
    }
}

/// How many missed deletes are reported on stderr before the engine
/// goes quiet and only counts (the counter in
/// [`missed_deletes`](FrEngine::missed_deletes) never stops).
const MISSED_DELETE_LOG_LIMIT: u64 = 8;

/// Layout version of an `FRCK` checkpoint (the grid and horizon it was
/// taken under, anchors, counters and the columnar motion table, no
/// histogram); a container of any other
/// version is refused as [`RecoverError::Unsupported`].
const FRCK_VERSION: u16 = 3;

/// The exact PDR query engine: density histogram for filtering, a
/// pluggable [`RangeIndex`] (TPR-tree by default) plus plane sweep for
/// refinement.
///
/// Queries take `&self`: the per-timestamp classification cache lives
/// behind an `RwLock`, so any number of threads can query one shared
/// engine concurrently (cache hits take the read lock only; the first
/// visit of a timestamp computes under the write lock, exactly once).
/// Updates still take `&mut self`, which statically excludes them from
/// overlapping with in-flight queries.
pub struct FrEngine<I: RangeIndex = TprTree> {
    cfg: FrConfig,
    histogram: DensityHistogram,
    /// The refinement index, shared with the executor's `'static` task
    /// closures during a query's refinement fan-out. Outside a query
    /// the engine holds the only strong reference ([`Executor::scope`]
    /// drops every task clone before returning), so `&mut self` paths
    /// mutate it through [`Arc::get_mut`].
    tree: Arc<I>,
    /// Shadow of the refinement index's contents (the ObjectTable view
    /// of this engine) — what a checkpoint serializes, and what a
    /// restore bulk-loads the rebuilt index from.
    motions: HashMap<ObjectId, MotionState>,
    /// The timestamp the refinement index was anchored at; restores
    /// re-anchor the rebuilt index here so extrapolation arithmetic —
    /// and therefore every query answer — is bit-identical.
    t_start: Timestamp,
    cache: RwLock<ClassificationCache>,
    updates_applied: u64,
    missed_deletes: u64,
    rejected_updates: u64,
    obs: Arc<FrObs>,
    /// Standing subscriptions (engine-plane state: never checkpointed,
    /// preserved across restores so maintenance emits catch-up deltas).
    subs: SubscriptionTable,
    /// Last whole answer per standing-query group and histogram epoch.
    memo: GroupMemo,
}

impl FrEngine<TprTree> {
    /// Creates an empty engine whose horizon starts at `t_start`,
    /// refining through the paper's TPR-tree.
    pub fn new(cfg: FrConfig, t_start: Timestamp) -> Self {
        let tree = TprTree::new(
            TprConfig {
                buffer_pages: cfg.buffer_pages,
                min_fill_ratio: 0.4,
                horizon: cfg.horizon.h() as f64,
                integral_metrics: true,
            },
            t_start,
        );
        FrEngine::with_index(cfg, tree, t_start)
    }
}

impl<I: RangeIndex> FrEngine<I> {
    /// Creates an engine refining through any [`RangeIndex`] — the
    /// paper's "we can adopt [other indexes] in our framework".
    ///
    /// # Panics
    ///
    /// Panics when `index` is not empty.
    pub fn with_index(cfg: FrConfig, index: I, t_start: Timestamp) -> Self {
        assert!(index.is_empty(), "refinement index must start empty");
        let histogram = DensityHistogram::new(cfg.extent, cfg.m, cfg.horizon, t_start);
        FrEngine {
            cfg,
            histogram,
            tree: Arc::new(index),
            motions: HashMap::new(),
            t_start,
            cache: RwLock::new(ClassificationCache::new()),
            updates_applied: 0,
            missed_deletes: 0,
            rejected_updates: 0,
            obs: Arc::new(FrObs::on()),
            subs: SubscriptionTable::new(),
            memo: GroupMemo::default(),
        }
    }

    /// Snapshot of the engine's instrumentation (stage latencies, cell
    /// accounting). The `queries` counter always runs; every other
    /// value stays zero while observability is disabled.
    pub fn obs_report(&self) -> ObsReport {
        self.obs.report(&self.subs)
    }

    /// Snapshot queries answered over the engine's lifetime.
    pub fn queries_served(&self) -> u64 {
        self.obs.queries.get()
    }

    /// Turns instrumentation on or off (on by default). Disabling skips
    /// even the clock reads; answers are identical either way.
    pub fn set_obs_enabled(&mut self, on: bool) {
        self.obs.enabled.store(on, Ordering::Relaxed);
        self.subs.set_obs_enabled(on);
    }

    /// The engine configuration.
    pub fn config(&self) -> &FrConfig {
        &self.cfg
    }

    /// The underlying density histogram (for DH-only baselines and
    /// memory accounting).
    pub fn histogram(&self) -> &DensityHistogram {
        &self.histogram
    }

    /// The underlying refinement index.
    pub fn tree(&mut self) -> &mut I {
        self.tree_mut()
    }

    /// Exclusive access to the shared refinement index. Sound because
    /// every query's [`Executor::scope`] reclaims its task closures —
    /// and their `Arc` clones — before returning, and `&mut self`
    /// excludes in-flight queries; a failure here would mean the
    /// executor leaked a task.
    fn tree_mut(&mut self) -> &mut I {
        Arc::get_mut(&mut self.tree).expect("refinement index aliased outside a query")
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Loads live reports into an empty engine, keeping the
    /// [`DensityEngine::bulk_load`] contract: the histogram advances to
    /// `t_now` and takes each report as a literal insert at its own
    /// `t_ref`, which [`DensityHistogram::apply`] clips to
    /// `[max(t_ref, t_now), t_ref + H]`; the index is STR-packed from
    /// the same unrebased motions. Restores rebuild through this path.
    ///
    /// # Panics
    ///
    /// Panics when the engine is not empty, `t_now` precedes the
    /// histogram's base, or a report's `t_ref` is after `t_now`.
    pub fn bulk_load(&mut self, objects: &[(ObjectId, MotionState)], t_now: Timestamp) {
        assert!(self.is_empty(), "bulk_load requires an empty engine");
        assert!(
            objects.iter().all(|(_, m)| m.t_ref <= t_now),
            "bulk_load contract: every report's t_ref must be at or before t_now {t_now}"
        );
        self.histogram.advance_to(t_now);
        for &(id, motion) in objects {
            self.histogram.apply(&Update {
                id,
                t_now: motion.t_ref,
                kind: UpdateKind::Insert { motion },
            });
            // Store exactly what the index receives (the *unrebased*
            // motion), so a restore rebuilds bit-identical leaf entries.
            self.motions.insert(id, motion);
        }
        self.tree_mut().load(objects, t_now);
        self.updates_applied += objects.len() as u64;
    }

    /// Applies one protocol update to both structures, unscreened: the
    /// [`DensityEngine::apply_batch`] path first refuses what
    /// [`pdr_mobject::screen_batch`] rejects (an update not stamped
    /// with the histogram's base, an insertion whose report is not
    /// from its arrival), which is what keeps the histogram the
    /// function of the motion table that a restore rebuilds.
    ///
    /// A deletion whose object is missing from the refinement index is
    /// an update-protocol anomaly (say, the retraction of a report that
    /// screening rejected). It is *counted* (see
    /// [`missed_deletes`](Self::missed_deletes) and `EngineStats`) and
    /// logged for the first few occurrences, and it touches neither
    /// structure: subtracting a trajectory the histogram never held
    /// would leave negative counters that no live report explains.
    pub fn apply(&mut self, update: &Update) {
        self.updates_applied += 1;
        match update.kind {
            UpdateKind::Insert { motion } => {
                self.histogram.apply(update);
                self.motions.insert(update.id, motion);
                self.tree_mut().insert(update.id, &motion, update.t_now)
            }
            UpdateKind::Delete { .. } => {
                if !self.tree_mut().remove(update.id) {
                    self.missed_deletes += 1;
                    if self.missed_deletes <= MISSED_DELETE_LOG_LIMIT {
                        eprintln!(
                            "pdr-core[fr]: anomaly #{}: delete of unindexed object {:?} at t={} \
                             (ignored)",
                            self.missed_deletes, update.id, update.t_now
                        );
                    }
                    return;
                }
                self.histogram.apply(update);
                self.motions.remove(&update.id);
            }
        }
    }

    /// Advances current time, recycling expired histogram slots.
    pub fn advance_to(&mut self, t_now: Timestamp) {
        self.histogram.advance_to(t_now);
    }

    /// Deletions that did not find their object in the refinement index
    /// (cumulative; a restore keeps the count). Nonzero values indicate
    /// an update-protocol violation upstream; such deletes are not
    /// applied (see [`apply`](Self::apply)).
    pub fn missed_deletes(&self) -> u64 {
        self.missed_deletes
    }

    /// Protocol updates applied so far (inserts + deletes, including
    /// the bulk-load inserts).
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Reports rejected by input screening (non-finite motions,
    /// duplicate ids in one batch, timestamps outside the horizon),
    /// counted by the batch ingest path instead of asserting.
    pub fn rejected_updates(&self) -> u64 {
        self.rejected_updates
    }

    /// Adds `n` to the rejected-reports counter (called by the batch
    /// ingest path after screening).
    pub fn note_rejected(&mut self, n: u64) {
        self.rejected_updates += n;
    }

    /// Cumulative cache-miss counters of the classification cache.
    pub fn cache_counters(&self) -> FrCacheCounters {
        self.cache.read().expect("cache lock poisoned").counters
    }

    /// Filter-step classification for `q`, cached per histogram epoch
    /// and `(q_t, ρ, l)`; prefix sums are cached per `(epoch, q_t)`.
    ///
    /// Double-checked locking: the fast path takes the read lock only,
    /// so concurrent cache hits never serialize. On a miss the write
    /// lock is taken and the cache re-checked before computing, which
    /// guarantees **at most one** prefix-sum build and one
    /// classification walk per distinct key, no matter how many threads
    /// race on the first visit. Updates go through `&mut self`, so the
    /// histogram cannot mutate (and the epoch cannot move) while any
    /// query holds `&self`.
    fn cached_classification(&self, q: &PdrQuery) -> Arc<Classification> {
        let epoch = self.histogram.epoch();
        let key = (q.q_t, q.rho.to_bits(), q.l.to_bits());
        {
            let cache = self.cache.read().expect("cache lock poisoned");
            if cache.epoch == epoch {
                if let Some(c) = cache.classes.get(&key) {
                    return Arc::clone(c);
                }
            }
        }
        let mut cache = self.cache.write().expect("cache lock poisoned");
        cache.sync_epoch(epoch);
        if let Some(c) = cache.classes.get(&key) {
            return Arc::clone(c);
        }
        let sums = match cache.sums.get(&q.q_t) {
            Some(s) => Arc::clone(s),
            None => {
                cache.counters.sums_recomputes += 1;
                let s = Arc::new(self.histogram.prefix_sums_at(q.q_t));
                cache.sums.insert(q.q_t, Arc::clone(&s));
                s
            }
        };
        cache.counters.classify_recomputes += 1;
        let cls = Arc::new(classify_cells(self.histogram.grid(), &sums, q));
        if cache.classes.len() >= MAX_CLASS_ENTRIES {
            cache.classes.clear();
        }
        cache.classes.insert(key, Arc::clone(&cls));
        cls
    }

    /// Number of refinement workers for a query with `candidates`
    /// candidate cells.
    fn worker_count(&self, candidates: usize) -> usize {
        let configured = if self.cfg.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.cfg.threads
        };
        configured.min(candidates).max(1)
    }

    /// Refines `cells` (see [`refine_cells`]) across up to
    /// [`worker_count`](Self::worker_count) executor tasks. Chunking is
    /// a pure function of (workers, cells), and the executor returns
    /// chunk results in index order, so the merged rectangle sequence
    /// is identical at every pool size — including zero workers, where
    /// the scope runs inline.
    fn refine(&self, cells: Vec<CellId>, q: &PdrQuery, threshold: DenseThreshold) -> RefineResult {
        let grid = self.histogram.grid();
        let workers = self.worker_count(cells.len());
        if workers <= 1 {
            let obs = self.obs.enabled().then_some(&*self.obs);
            return refine_cells(&*self.tree, grid, &cells, q, threshold, obs);
        }
        let chunk_len = cells.len().div_ceil(workers);
        let chunks = cells.len().div_ceil(chunk_len);
        let mut merged = (Vec::new(), 0, IoStats::default());
        let tree = Arc::clone(&self.tree);
        let obs = Arc::clone(&self.obs);
        let cells = Arc::new(cells);
        let q = *q;
        let per_chunk = Executor::global().scope(chunks, move |k| {
            let lo = k * chunk_len;
            let hi = (lo + chunk_len).min(cells.len());
            let chunk_obs = obs.enabled().then_some(&*obs);
            refine_cells(&*tree, grid, &cells[lo..hi], &q, threshold, chunk_obs)
        });
        for chunk in per_chunk {
            let (rects, retrieved, io) = chunk?;
            merged.0.extend(rects);
            merged.1 += retrieved;
            merged.2 += io;
        }
        Ok(merged)
    }

    /// Evaluates a snapshot PDR query exactly (Algorithms 1–3).
    ///
    /// The filter step is served from the per-timestamp classification
    /// cache when the histogram has not mutated since it was built; the
    /// refinement step fans candidate cells out across
    /// [`FrConfig::threads`] workers. Chunks are contiguous runs of the
    /// row-major candidate list and are merged back in chunk order, so
    /// the rectangle sequence — and therefore the canonical answer — is
    /// identical for every worker count.
    ///
    /// Takes `&self`: any number of threads may query one shared
    /// engine concurrently, and every answer is bit-identical to the
    /// single-threaded result (the cache serves clones of immutable
    /// `Arc`ed state; refinement chunking is deterministic).
    ///
    /// # Panics
    ///
    /// Panics when `q.q_t` is outside the current horizon window or the
    /// histogram grid is too coarse for `q.l` (cell edge must be ≤ l/2),
    /// and on storage faults — callers that want to handle faults use
    /// [`try_query`](FrEngine::try_query).
    pub fn query(&self, q: &PdrQuery) -> FrAnswer {
        self.try_query(q)
            .unwrap_or_else(|e| panic!("unhandled storage fault: {e}"))
    }

    /// Fallible [`query`](FrEngine::query): refinement range queries go
    /// through the index's fallible read path, so an injected or real
    /// storage fault surfaces as a typed [`StorageError`] instead of a
    /// panic. The filter step never touches the disk (the histogram is
    /// in memory), so errors can only originate in refinement.
    pub fn try_query(&self, q: &PdrQuery) -> Result<FrAnswer, StorageError> {
        let enabled = self.obs.enabled();
        let _qt = self.obs.query_time.timer(enabled);
        let start = Instant::now();
        let cls = {
            let _t = self.obs.classify_time.timer(enabled);
            self.cached_classification(q)
        };
        self.tree.reset_io_stats();
        let ev = self.evaluate(q, &cls)?;
        self.obs.queries.inc();
        if enabled {
            self.obs.accepted_cells.add(cls.accept_count() as u64);
            self.obs.rejected_cells.add(cls.reject_count() as u64);
            self.obs.candidate_cells.add(cls.candidate_count() as u64);
            self.obs.objects_retrieved.add(ev.retrieved as u64);
        }
        Ok(FrAnswer {
            regions: ev.regions,
            accepts: cls.accept_count(),
            rejects: cls.reject_count(),
            candidates: cls.candidate_count(),
            objects_retrieved: ev.retrieved,
            io: ev.io,
            cpu: start.elapsed(),
        })
    }

    /// The one evaluation pipeline behind ad-hoc queries and standing
    /// groups (Algorithms 1–3 after the filter step): accept cells are
    /// taken whole, candidate cells are refined by range query + plane
    /// sweep, and everything merges into the canonical answer.
    fn evaluate(&self, q: &PdrQuery, cls: &Classification) -> Result<Evaluation, StorageError> {
        let grid = self.histogram.grid();
        let candidates = cls.cells_of(CellClass::Candidate).collect();
        let (rects, retrieved, io) = self.refine(candidates, q, DenseThreshold::of(q))?;
        let _t = self.obs.merge_time.timer(self.obs.enabled());
        let mut regions = RegionSet::new();
        for cell in cls.cells_of(CellClass::Accept) {
            regions.push(grid.cell_rect(cell));
        }
        for r in rects {
            regions.push(r);
        }
        // Canonical (exact) compaction: the exact answer must be a pure
        // function of the dense point set so that a sharded plane
        // reproduces it rect-for-rect.
        regions.canonicalize();
        Ok(Evaluation {
            regions,
            retrieved,
            io,
        })
    }

    /// Filter-only degraded answer for `q`: the optimistic DH answer
    /// (accept ∪ candidate cells, canonicalized) computed purely from the
    /// in-memory histogram. Never touches the index, so it succeeds even
    /// when the storage plane is persistently failing. The answer is a
    /// superset of the exact one (no false negatives) but may include
    /// candidate cells that refinement would have trimmed.
    pub fn degraded_query(&self, q: &PdrQuery) -> FrAnswer {
        let start = Instant::now();
        let cls = self.cached_classification(q);
        let regions = dh_optimistic(&cls);
        FrAnswer {
            regions,
            accepts: cls.accept_count(),
            rejects: cls.reject_count(),
            candidates: cls.candidate_count(),
            objects_retrieved: 0,
            io: IoStats::default(),
            cpu: start.elapsed(),
        }
    }

    /// Serializes the engine's durable state into a sealed, checksummed
    /// checkpoint: the grid (`L`, `m`) and horizon (`U`, `W`) it was
    /// taken under, the index anchor `t_start`, the horizon base
    /// `t_base`, the update counters, and the motion table *exactly as
    /// the index received it* (unrebased reports). No histogram: for
    /// every update that screening accepts it is a function of the
    /// live reports, and
    /// [`restore_from_bytes`](FrEngine::restore_from_bytes) rebuilds it
    /// from them, so the checkpoint grows with the population, not with
    /// `m²·H`.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"FRCK");
        w.put_u16(FRCK_VERSION);
        w.put_f64(self.cfg.extent);
        w.put_u32(self.cfg.m);
        w.put_u64(self.cfg.horizon.max_update_time());
        w.put_u64(self.cfg.horizon.prediction_window());
        w.put_u64(self.t_start);
        w.put_u64(self.histogram.t_base());
        w.put_u64(self.updates_applied);
        w.put_u64(self.missed_deletes);
        w.put_u64(self.rejected_updates);
        let mut motions: Vec<(u64, MotionState)> =
            self.motions.iter().map(|(id, m)| (id.0, *m)).collect();
        motions.sort_unstable_by_key(|(id, _)| *id);
        crate::colcodec::put_motion_table(&mut w, &motions);
        seal_checkpoint(&w.into_bytes())
    }

    /// Restores the engine in place from
    /// [`checkpoint_bytes`](FrEngine::checkpoint_bytes) output through
    /// the bulk-load path: the histogram restarts empty at `t_start`,
    /// the refinement index is reset onto a *fresh* simulated device
    /// (discarding any fault plan along with the failed one), and
    /// [`bulk_load`](FrEngine::bulk_load) re-deposits the checkpointed
    /// motions at `t_base`. A checkpoint taken under another grid or
    /// horizon is refused as [`RecoverError::Mismatch`]. The counters
    /// are taken from the checkpoint, `missed_deletes` included, and
    /// the classification cache is dropped. Every query answer is then
    /// bit-identical to the pre-crash engine's. The histogram is rebuilt, not copied, so a
    /// drift from the motion table (a delete whose old motion differs
    /// from the stored report) does not survive a restore.
    pub fn restore_from_bytes(&mut self, bytes: &[u8]) -> Result<(), RecoverError> {
        let payload = open_checkpoint(bytes)?;
        let mut r = ByteReader::new(payload);
        r.expect_magic(b"FRCK")?;
        if r.get_u16()? != FRCK_VERSION {
            return Err(RecoverError::Unsupported);
        }
        // The histogram is rebuilt on this engine's grid and horizon,
        // so a checkpoint taken under any other would answer differently.
        if r.get_f64()?.to_bits() != self.cfg.extent.to_bits() || r.get_u32()? != self.cfg.m {
            return Err(RecoverError::Mismatch(
                "checkpoint grid disagrees with config",
            ));
        }
        let horizon = self.cfg.horizon;
        if r.get_u64()? != horizon.max_update_time() || r.get_u64()? != horizon.prediction_window()
        {
            return Err(RecoverError::Mismatch(
                "checkpoint horizon disagrees with config",
            ));
        }
        let t_start = r.get_u64()?;
        let t_base = r.get_u64()?;
        if t_base < t_start {
            return Err(CodecError::Corrupt("horizon base precedes the index anchor").into());
        }
        let updates_applied = r.get_u64()?;
        let missed_deletes = r.get_u64()?;
        let rejected_updates = r.get_u64()?;
        // Raw rows come back bit-exact; re-validate finiteness here
        // since the codec does not.
        let motions = crate::colcodec::get_motion_table(&mut r)?
            .into_iter()
            .map(|(id, m)| {
                let id = ObjectId(id);
                MotionState::try_new(id, m.origin, m.velocity, m.t_ref)
                    .map(|m| (id, m))
                    .map_err(|_| RecoverError::Mismatch("non-finite motion in checkpoint"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after the motion table").into());
        }
        if motions.iter().any(|(_, m)| m.t_ref > t_base) {
            return Err(CodecError::Corrupt("report from after the checkpoint's base").into());
        }
        self.histogram =
            DensityHistogram::new(self.cfg.extent, self.cfg.m, self.cfg.horizon, t_start);
        self.tree_mut().reset(t_start);
        self.motions.clear();
        self.t_start = t_start;
        self.bulk_load(&motions, t_base);
        self.updates_applied = updates_applied;
        self.missed_deletes = missed_deletes;
        self.rejected_updates = rejected_updates;
        self.cache = RwLock::new(ClassificationCache::new());
        // The rebuilt histogram restarts its epoch, so stored group
        // answers are meaningless; subscriptions themselves survive
        // (the next maintenance recomputes and emits exact catch-up
        // deltas against their preserved answers).
        self.memo.clear();
        Ok(())
    }

    /// Installs a fault-injection plan beneath the refinement index's
    /// storage (filter-step answers are in-memory and never fault).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.tree.set_fault_plan(plan);
    }

    /// Injected-fault / checksum-failure counters of the refinement
    /// index's storage plane.
    pub fn fault_stats(&self) -> FaultStats {
        self.tree.fault_stats()
    }

    /// The standing-subscription registry.
    pub fn subs(&self) -> &SubscriptionTable {
        &self.subs
    }

    /// Mutable access to the standing-subscription registry.
    pub fn subs_mut(&mut self) -> &mut SubscriptionTable {
        &mut self.subs
    }

    /// Brings every standing subscription up to date at clock `now`
    /// (see [`DensityEngine::maintain_subscriptions`]) and returns the
    /// patches.
    pub fn maintain_subs(&mut self, now: Timestamp) -> Vec<AnswerDelta> {
        DensityEngine::maintain_subscriptions(self, now)
    }

    /// Evaluates standing-query groups through the group memo (the FR
    /// [`DensityEngine::eval_groups`]): a group whose answer is stored
    /// at the current histogram epoch is served as is, every other group
    /// runs the full [`evaluate`](Self::evaluate) pipeline, and its
    /// refined candidate cells count under `dirty_cells`. A storage
    /// fault fails the group and leaves its previous entry in place.
    pub fn eval_groups(&mut self, groups: &[PdrQuery]) -> Vec<Result<RegionSet, StorageError>> {
        let mut memo = std::mem::take(&mut self.memo);
        let answers = memo.answer(groups, self.histogram.epoch(), |q| {
            let cls = self.cached_classification(q);
            if self.obs.enabled() {
                self.obs.dirty_cells.add(cls.candidate_count() as u64);
            }
            self.evaluate(q, &cls).map(|ev| ev.regions)
        });
        self.memo = memo;
        answers
    }
}

/// What one pass of the evaluation pipeline produced: the canonical
/// answer and the refinement's retrieved-object count and I/O.
struct Evaluation {
    regions: RegionSet,
    retrieved: usize,
    io: IoStats,
}

/// One refinement's yield: the cells' dense rectangles, in cell order,
/// the objects retrieved and the I/O — or the storage fault that
/// aborted it.
type RefineResult = Result<(Vec<Rect>, usize, IoStats), StorageError>;

/// Refines candidate cells one by one: a range query over the
/// `l/2`-inflated cell followed by the plane sweep. Self-contained (own
/// I/O collector, own output) so chunks of cells can run on separate
/// threads and still merge deterministically. When `obs` is set, each
/// cell's range query and plane sweep record into the shared (atomic)
/// stage histograms.
fn refine_cells<I: RangeIndex>(
    tree: &I,
    grid: GridSpec,
    cells: &[CellId],
    q: &PdrQuery,
    threshold: DenseThreshold,
    obs: Option<&FrObs>,
) -> RefineResult {
    let mut out = Vec::new();
    let mut retrieved = 0usize;
    let mut io = IoStats::default();
    // Scratch reused across every cell: the range query refills `hits`,
    // the sweep sorts `positions` in place. Neither is reallocated
    // unless a cell yields more objects than any earlier one; growth
    // events feed the `refine_allocs` counter, which tests pin to a
    // logarithmic bound.
    let mut hits: Vec<(ObjectId, Point)> = Vec::new();
    let mut positions: Vec<Point> = Vec::new();
    for &cell in cells {
        let target = grid.cell_rect(cell);
        let s = target.inflate(q.l / 2.0);
        let caps = (hits.capacity(), positions.capacity());
        {
            let _t = obs.map(|o| o.range_time.timer(true));
            tree.try_range_at_into(&s, q.q_t, &mut io, &mut hits)?;
        }
        retrieved += hits.len();
        let _t = obs.map(|o| o.sweep_time.timer(true));
        positions.clear();
        positions.extend(hits.iter().map(|&(_, p)| p));
        if let Some(o) = obs {
            o.refine_allocs.add(
                u64::from(hits.capacity() != caps.0) + u64::from(positions.capacity() != caps.1),
            );
        }
        out.extend(refine_region(&target, &mut positions, threshold, q.l));
    }
    Ok((out, retrieved, io))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Lcg;
    use crate::{accuracy, DensityEngine, ExactOracle, QtPolicy};
    use pdr_geometry::Rect;

    fn cfg() -> FrConfig {
        FrConfig {
            extent: 200.0,
            m: 20, // l_c = 10
            horizon: TimeHorizon::new(3, 3),
            buffer_pages: 64,
            threads: 1,
        }
    }

    fn clustered_population(n: usize, seed: u64) -> Vec<(ObjectId, MotionState)> {
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

    #[test]
    fn fr_matches_exact_oracle() {
        let pop = clustered_population(400, 3);
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&pop, 0);
        for q_t in [0u64, 2, 5] {
            let q = PdrQuery::new(0.05, 20.0, q_t); // threshold = 20 objects
            let ans = fr.query(&q);
            let oracle = ExactOracle::new(
                Rect::new(0.0, 0.0, 200.0, 200.0),
                pop.iter().map(|(_, m)| m.position_at(q_t)).collect(),
            );
            let truth = oracle.dense_regions(&q);
            let acc = accuracy(&truth, &ans.regions);
            assert!(
                acc.r_fp < 1e-9 && acc.r_fn < 1e-9,
                "FR not exact at t={q_t}: {acc:?} (accepts {} candidates {})",
                ans.accepts,
                ans.candidates
            );
        }
    }

    #[test]
    fn fr_exact_after_updates() {
        let pop = clustered_population(300, 11);
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&pop, 0);
        // Re-report a third of the objects at t=2 with fresh motions.
        let mut rng = Lcg(77);
        // `pop` is not needed again after bulk_load — move it.
        let mut table: Vec<(ObjectId, MotionState)> = pop;
        fr.advance_to(2);
        for (id, m) in table.iter_mut().take(100) {
            let new_m = MotionState::new(
                Point::new(rng.f64() * 200.0, rng.f64() * 200.0),
                Point::new(rng.f64() * 2.0 - 1.0, 0.0),
                2,
            );
            fr.apply(&Update::delete(*id, 2, *m));
            fr.apply(&Update::insert(*id, 2, new_m));
            *m = new_m;
        }
        let q = PdrQuery::new(0.05, 20.0, 4);
        let ans = fr.query(&q);
        let oracle = ExactOracle::new(
            Rect::new(0.0, 0.0, 200.0, 200.0),
            table.iter().map(|(_, m)| m.position_at(4)).collect(),
        );
        let truth = oracle.dense_regions(&q);
        let acc = accuracy(&truth, &ans.regions);
        assert!(
            acc.r_fp < 1e-9 && acc.r_fn < 1e-9,
            "FR not exact after updates: {acc:?}"
        );
    }

    /// The refinement loop must not allocate per candidate cell: with a
    /// wide candidate front, the reused scratch buffers may only grow a
    /// logarithmic number of times (amortized doubling), never once per
    /// cell as the old hits/positions vectors did.
    #[test]
    fn refinement_reuses_buffers_across_cells() {
        let pop = clustered_population(900, 27);
        let mut fr = FrEngine::new(cfg(), 0); // threads: 1 — one chunk
        fr.bulk_load(&pop, 0);
        let q = PdrQuery::new(0.02, 20.0, 1); // threshold = 8 objects
        let ans = fr.query(&q);
        assert!(
            ans.candidates >= 50,
            "test needs a wide candidate front, got {}",
            ans.candidates
        );
        let report = fr.obs_report();
        let allocs = report
            .counters
            .iter()
            .find(|(name, _)| *name == "refine_allocs")
            .map(|(_, v)| *v)
            .expect("refine_allocs counter reported");
        assert!(
            (allocs as usize) < ans.candidates && allocs <= 24,
            "{allocs} buffer growths across {} candidate cells — the \
             scratch is being reallocated per cell",
            ans.candidates
        );
    }

    #[test]
    fn filter_prunes_most_cells() {
        let pop = clustered_population(400, 5);
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&pop, 0);
        let ans = fr.query(&PdrQuery::new(0.05, 20.0, 0));
        let total = 400; // 20x20 cells
        assert_eq!(ans.accepts + ans.rejects + ans.candidates, total);
        assert!(
            ans.rejects > total / 2,
            "expected most cells rejected, got {} rejects",
            ans.rejects
        );
    }

    #[test]
    fn io_counted_only_for_candidates() {
        let pop = clustered_population(400, 9);
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&pop, 0);
        // Impossible threshold: everything rejected, no refinement I/O.
        let ans = fr.query(&PdrQuery::new(10.0, 20.0, 0));
        assert_eq!(ans.candidates, 0);
        assert_eq!(ans.io.logical_reads, 0);
        assert!(ans.regions.is_empty());
    }

    #[test]
    fn interval_query_unions_snapshots() {
        let pop = clustered_population(300, 21);
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&pop, 0);
        let union = fr.interval_query(0.05, 20.0, 0, 3);
        for t in 0..=3u64 {
            let snap = fr.query(&PdrQuery::new(0.05, 20.0, t)).regions;
            assert!(
                snap.difference_area(&union) < 1e-9,
                "snapshot t={t} not contained in interval union"
            );
        }
    }

    #[test]
    fn checkpoint_restore_preserves_answers() {
        let pop = clustered_population(300, 41);
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&pop, 0);
        fr.advance_to(2);
        let mut table = pop;
        for (id, m) in table.iter_mut().take(60) {
            let moved = MotionState::new(m.position_at(2), Point::new(-m.velocity.y, 0.5), 2);
            fr.apply(&Update::delete(*id, 2, *m));
            fr.apply(&Update::insert(*id, 2, moved));
            *m = moved;
        }
        fr.advance_to(3);
        let q = PdrQuery::new(0.05, 20.0, 5);
        let before = fr.query(&q).regions;

        // Simulated restart: a fresh engine rebuilds the histogram from
        // the checkpointed motions, slot for slot.
        let mut restored = FrEngine::new(cfg(), 0);
        restored.restore_from_bytes(&fr.checkpoint_bytes()).unwrap();
        assert_eq!(restored.histogram().t_base(), 3);
        for t in 3..=9u64 {
            assert_eq!(
                restored.histogram().plane_at(t),
                fr.histogram().plane_at(t),
                "t={t}"
            );
        }
        assert_eq!(restored.updates_applied(), fr.updates_applied());
        assert_eq!(restored.query(&q).regions.rects(), before.rects());
    }

    /// Only the motions-only layout restores: a container stamped with
    /// the retired histogram-carrying version 2 is refused, never
    /// misread.
    #[test]
    fn v2_checkpoint_is_refused_unsupported() {
        let pop = clustered_population(250, 43);
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&pop, 0);
        let mut payload = open_checkpoint(&fr.checkpoint_bytes())
            .expect("verifies")
            .to_vec();
        payload[4..6].copy_from_slice(&2u16.to_le_bytes());
        let v2 = seal_checkpoint(&payload);

        let mut restored = FrEngine::new(cfg(), 0);
        assert_eq!(
            restored.restore_from_bytes(&v2).unwrap_err(),
            RecoverError::Unsupported
        );
    }

    /// The histogram is rebuilt on the restoring engine's grid and
    /// horizon, so a checkpoint taken under another one is refused
    /// rather than answered from differently shaped counts.
    #[test]
    fn checkpoint_from_another_grid_or_horizon_is_refused() {
        let with = |m: u32, horizon: TimeHorizon| FrConfig {
            m,
            horizon,
            ..cfg()
        };
        let mut fr = FrEngine::new(with(10, cfg().horizon), 0);
        fr.bulk_load(&clustered_population(100, 53), 0);
        let bytes = fr.checkpoint_bytes();

        let mut finer = FrEngine::new(with(12, cfg().horizon), 0);
        assert_eq!(
            finer.restore_from_bytes(&bytes).unwrap_err(),
            RecoverError::Mismatch("checkpoint grid disagrees with config")
        );
        assert!(finer.is_empty(), "a refused restore left state behind");
        let mut longer = FrEngine::new(with(10, TimeHorizon::new(3, 4)), 0);
        assert_eq!(
            longer.restore_from_bytes(&bytes).unwrap_err(),
            RecoverError::Mismatch("checkpoint horizon disagrees with config")
        );
        let mut wider = FrEngine::new(
            FrConfig {
                extent: 210.0,
                ..with(10, cfg().horizon)
            },
            0,
        );
        assert_eq!(
            wider.restore_from_bytes(&bytes).unwrap_err(),
            RecoverError::Mismatch("checkpoint grid disagrees with config")
        );
        let mut same = FrEngine::new(with(10, cfg().horizon), 0);
        same.restore_from_bytes(&bytes)
            .expect("same config restores");
        assert_eq!(same.len(), 100);
    }

    /// A missed delete touches neither structure, so the histogram
    /// stays the function of the motion table that a restore rebuilds;
    /// the anomaly count survives the restore.
    #[test]
    fn missed_delete_leaves_no_drift_and_its_count_survives_restore() {
        let pop = clustered_population(200, 47);
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&pop, 0);
        let planes = |e: &FrEngine| {
            (0..=6u64)
                .map(|t| e.histogram().plane_at(t).to_vec())
                .collect::<Vec<_>>()
        };
        let before = planes(&fr);
        let ghost = MotionState::stationary(Point::new(150.0, 150.0), 0);
        fr.apply(&Update::delete(ObjectId(999_999), 0, ghost));
        assert_eq!(fr.missed_deletes(), 1);
        assert_eq!(planes(&fr), before, "a missed delete changed the histogram");

        let mut restored = FrEngine::new(cfg(), 0);
        restored.restore_from_bytes(&fr.checkpoint_bytes()).unwrap();
        assert_eq!(restored.missed_deletes(), 1);
        assert_eq!(planes(&restored), before);
    }

    #[test]
    fn empty_engine_returns_empty() {
        let fr = FrEngine::new(cfg(), 0);
        let ans = fr.query(&PdrQuery::new(0.5, 20.0, 0));
        assert!(ans.regions.is_empty());
        assert_eq!(ans.accepts, 0);
    }

    /// The tentpole determinism guarantee: the parallel pipeline must be
    /// rectangle-for-rectangle identical to the serial oracle, for any
    /// worker count, including the merged I/O attribution.
    #[test]
    fn parallel_answer_identical_to_serial_oracle() {
        let pop = clustered_population(2000, 13);
        let mut serial = FrEngine::new(
            FrConfig {
                threads: 1,
                ..cfg()
            },
            0,
        );
        serial.bulk_load(&pop, 0);
        let q = PdrQuery::new(0.05, 20.0, 2);
        let base = serial.query(&q);
        assert!(
            base.candidates >= 2,
            "need several candidate cells to exercise the fan-out, got {}",
            base.candidates
        );
        for threads in [2usize, 8] {
            let mut fr = FrEngine::new(FrConfig { threads, ..cfg() }, 0);
            fr.bulk_load(&pop, 0);
            let ans = fr.query(&q);
            assert_eq!(
                ans.regions.rects(),
                base.regions.rects(),
                "answer diverged at threads = {threads}"
            );
            assert_eq!(ans.objects_retrieved, base.objects_retrieved);
            assert_eq!(ans.candidates, base.candidates);
            assert_eq!(
                ans.io, base.io,
                "merged per-thread I/O diverged at threads = {threads}"
            );
        }
    }

    /// Standing groups are answered from the group memo while the
    /// histogram epoch stands: a second pass at an unchanged epoch
    /// refines no cell and retrieves no object, and an `apply` or an
    /// `advance_to` forces a fresh evaluation.
    #[test]
    fn group_memo_serves_passes_at_an_unchanged_epoch() {
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&clustered_population(600, 17), 0);
        // Two subscriptions of one group: a pinned q_t keeps its key.
        for region in [
            Rect::new(0.0, 0.0, 200.0, 200.0),
            Rect::new(50.0, 50.0, 120.0, 120.0),
        ] {
            fr.register_subscription(0.05, 20.0, region, QtPolicy::Fixed(3))
                .unwrap();
        }
        let work = |fr: &FrEngine| {
            let r = fr.obs_report();
            (
                r.counter("dirty_cells").unwrap(),
                r.counter("objects_retrieved").unwrap(),
                r.stage("range").unwrap().count,
            )
        };
        fr.maintain_subs(0);
        let first = work(&fr);
        assert!(first.0 > 0, "the first pass refines the group's candidates");
        assert!(fr.maintain_subs(0).is_empty());
        assert_eq!(work(&fr), first, "a pass at an unchanged epoch did work");

        fr.apply(&Update::insert(
            ObjectId(1_000_000),
            0,
            MotionState::stationary(Point::new(80.0, 80.0), 0),
        ));
        fr.maintain_subs(0);
        let after_apply = work(&fr);
        assert!(after_apply.0 > first.0, "an apply must force an evaluation");
        assert!(after_apply.2 > first.2);

        fr.advance_to(1);
        fr.maintain_subs(1);
        assert!(work(&fr).0 > after_apply.0, "an advance must force one too");
    }

    /// An update between two queries at the same `q_t` must invalidate
    /// the classification cache: the second answer reflects the update.
    #[test]
    fn cache_invalidated_by_updates() {
        let pop = clustered_population(300, 55);
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&pop, 0);
        let q = PdrQuery::new(0.05, 20.0, 1); // threshold = 20 objects
        let before = fr.query(&q);

        // A repeat of the same query is served from cache...
        let counters = fr.cache_counters();
        let repeat = fr.query(&q);
        assert_eq!(fr.cache_counters(), counters, "repeat query recomputed");
        assert_eq!(repeat.regions.rects(), before.regions.rects());

        // ...but a burst of inserts at one spot invalidates it and the
        // new mass shows up in the answer at the same q_t.
        let spot = Point::new(170.0, 30.0);
        assert!(!before.regions.contains(spot), "spot dense too early");
        for i in 0..40u64 {
            fr.apply(&Update::insert(
                ObjectId(1_000_000 + i),
                0,
                MotionState::stationary(spot, 0),
            ));
        }
        let after = fr.query(&q);
        assert!(
            fr.cache_counters().sums_recomputes > counters.sums_recomputes,
            "update did not invalidate the cache"
        );
        assert!(
            after.regions.contains(spot),
            "post-update query missed the new cluster"
        );
    }

    /// An interval query over 16 distinct timestamps builds prefix sums
    /// and classifications exactly once per timestamp, and a repeat of
    /// the same interval recomputes nothing at all.
    #[test]
    fn interval_query_computes_each_timestamp_once() {
        let pop = clustered_population(400, 7);
        let cfg16 = FrConfig {
            horizon: TimeHorizon::new(8, 8), // covers q_t in [0, 16]
            ..cfg()
        };
        let mut fr = FrEngine::new(cfg16, 0);
        fr.bulk_load(&pop, 0);
        let c0 = fr.cache_counters();
        let first = fr.interval_query(0.05, 20.0, 0, 15);
        let c1 = fr.cache_counters();
        assert_eq!(c1.sums_recomputes - c0.sums_recomputes, 16);
        assert_eq!(c1.classify_recomputes - c0.classify_recomputes, 16);

        let second = fr.interval_query(0.05, 20.0, 0, 15);
        assert_eq!(fr.cache_counters(), c1, "repeat interval recomputed");
        assert!(first.symmetric_difference_area(&second) < 1e-9);
    }
}
