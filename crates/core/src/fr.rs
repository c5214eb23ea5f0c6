//! The exact filtering–refinement engine (Section 5).

use crate::exec::Executor;
use crate::obs::{Counter, Histogram, ObsReport};
use crate::sub::{AnswerDelta, SubId, Subscription, SubscriptionTable};
use crate::wal::{open_checkpoint, seal_checkpoint, RecoverError};
use crate::{
    classify_cells, dh_optimistic, refine_region, CellClass, Classification, DenseThreshold,
    PdrQuery, RangeIndex,
};
use pdr_geometry::{CellId, GridSpec, Point, Rect, RegionSet};
use pdr_histogram::{DensityHistogram, PrefixSum2d};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Timestamp, Update, UpdateKind};
use pdr_storage::{
    ByteReader, ByteWriter, CostModel, FaultPlan, FaultStats, IoStats, StorageError,
};
use pdr_tprtree::{TprConfig, TprTree};
use std::collections::{BTreeMap, HashMap};
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
/// per-cell range queries, plane sweeps, final merge/coalesce) and cell
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
    /// Candidate cells actually re-refined by subscription maintenance
    /// (the dirty set after dilation — the work the incremental path
    /// could not reuse from its group cache).
    dirty_cells: Counter,
    /// Subscription patches emitted by maintenance passes.
    deltas_emitted: Counter,
    classify_time: Histogram,
    range_time: Histogram,
    sweep_time: Histogram,
    merge_time: Histogram,
    query_time: Histogram,
    /// Wall-clock latency of whole subscription-maintenance passes.
    sub_latency: Histogram,
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

    fn report(&self) -> ObsReport {
        ObsReport {
            counters: vec![
                ("queries", self.queries.get()),
                ("candidate_cells", self.candidate_cells.get()),
                ("accepted_cells", self.accepted_cells.get()),
                ("rejected_cells", self.rejected_cells.get()),
                ("objects_retrieved", self.objects_retrieved.get()),
                ("refine_allocs", self.refine_allocs.get()),
                ("dirty_cells", self.dirty_cells.get()),
                ("deltas_emitted", self.deltas_emitted.get()),
            ],
            stages: vec![
                ("classify", self.classify_time.snapshot()),
                ("range", self.range_time.snapshot()),
                ("sweep", self.sweep_time.snapshot()),
                ("merge", self.merge_time.snapshot()),
                ("query", self.query_time.snapshot()),
                ("sub_latency", self.sub_latency.snapshot()),
            ],
        }
    }
}

/// How many missed deletes are reported on stderr before the engine
/// goes quiet and only counts (the counter in
/// [`missed_deletes`](FrEngine::missed_deletes) never stops).
const MISSED_DELETE_LOG_LIMIT: u64 = 8;

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
    /// Incremental-maintenance cache, one entry per distinct
    /// `(ρ, l, q_t)` group of standing queries (see [`GroupCache`]).
    sub_cache: HashMap<(u64, u64, Timestamp), GroupCache>,
}

/// Cached incremental-maintenance state of one standing-query group:
/// the histogram epoch it was computed at, every candidate cell's
/// refined rectangles (keyed by linear cell index), and the assembled
/// canonical full-domain answer. A maintenance pass at an unchanged
/// epoch reuses `full` outright; otherwise only candidate cells inside
/// the dilated dirty set are re-refined and the rest reuse their cached
/// rectangles bit-for-bit.
struct GroupCache {
    epoch: u64,
    cell_rects: HashMap<usize, Vec<Rect>>,
    full: RegionSet,
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
            sub_cache: HashMap::new(),
        }
    }

    /// Restores an engine from a checkpointed histogram plus the
    /// current motion table: the histogram (which would otherwise take
    /// up to `U + W` timestamps to refill) comes from
    /// [`DensityHistogram::serialize`], while the refinement index is
    /// rebuilt from the live motions — the standard restart recipe,
    /// since indexes rebuild in one bulk load but horizon counters
    /// cannot be reconstructed without replaying history.
    ///
    /// # Panics
    ///
    /// Panics when the histogram's geometry or horizon disagrees with
    /// `cfg`, or when `index` is not empty.
    pub fn restore(
        cfg: FrConfig,
        histogram: DensityHistogram,
        mut index: I,
        objects: &[(ObjectId, MotionState)],
    ) -> Self {
        assert!(index.is_empty(), "refinement index must start empty");
        assert_eq!(
            histogram.grid().cells_per_side(),
            cfg.m,
            "histogram grid disagrees with config"
        );
        assert_eq!(
            histogram.horizon(),
            cfg.horizon,
            "histogram horizon disagrees with config"
        );
        let t_now = histogram.t_base();
        index.load(objects, t_now);
        FrEngine {
            cfg,
            histogram,
            tree: Arc::new(index),
            motions: objects.iter().copied().collect(),
            t_start: t_now,
            cache: RwLock::new(ClassificationCache::new()),
            updates_applied: 0,
            missed_deletes: 0,
            rejected_updates: 0,
            obs: Arc::new(FrObs::on()),
            subs: SubscriptionTable::new(),
            sub_cache: HashMap::new(),
        }
    }

    /// Snapshot of the engine's instrumentation (stage latencies, cell
    /// accounting). The `queries` counter always runs; every other
    /// value stays zero while observability is disabled.
    pub fn obs_report(&self) -> ObsReport {
        self.obs.report()
    }

    /// Snapshot queries answered over the engine's lifetime.
    pub fn queries_served(&self) -> u64 {
        self.obs.queries.get()
    }

    /// Turns instrumentation on or off (on by default). Disabling skips
    /// even the clock reads; answers are identical either way.
    pub fn set_obs_enabled(&mut self, on: bool) {
        self.obs.enabled.store(on, Ordering::Relaxed);
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

    /// Loads an initial population in bulk (histogram via protocol
    /// inserts, tree via STR packing). The engine must be empty.
    pub fn bulk_load(&mut self, objects: &[(ObjectId, MotionState)], t_now: Timestamp) {
        assert!(self.is_empty(), "bulk_load requires an empty engine");
        for (id, m) in objects {
            self.histogram.apply(&Update::insert(*id, t_now, *m));
            // Store exactly what the index receives (the *unrebased*
            // motion), so a restore rebuilds bit-identical leaf entries.
            self.motions.insert(*id, *m);
        }
        self.tree_mut().load(objects, t_now);
        self.updates_applied += objects.len() as u64;
    }

    /// Applies one protocol update to both structures.
    ///
    /// A deletion whose object is missing from the refinement index is
    /// a tree-vs-histogram desync anomaly. It is *counted* (see
    /// [`missed_deletes`](Self::missed_deletes) and `EngineStats`) and
    /// logged for the first few occurrences, never silently dropped —
    /// release builds previously lost the signal entirely behind a
    /// `debug_assert!`.
    pub fn apply(&mut self, update: &Update) {
        self.updates_applied += 1;
        self.histogram.apply(update);
        match update.kind {
            UpdateKind::Insert { motion } => {
                self.motions.insert(update.id, motion);
                self.tree_mut().insert(update.id, &motion, update.t_now)
            }
            UpdateKind::Delete { .. } => {
                self.motions.remove(&update.id);
                let removed = self.tree_mut().remove(update.id);
                if !removed {
                    self.missed_deletes += 1;
                    if self.missed_deletes <= MISSED_DELETE_LOG_LIMIT {
                        eprintln!(
                            "pdr-core[fr]: anomaly #{}: delete of unindexed object {:?} at t={} \
                             (histogram and refinement index may now disagree)",
                            self.missed_deletes, update.id, update.t_now
                        );
                    }
                }
            }
        }
    }

    /// Advances current time, recycling expired histogram slots.
    pub fn advance_to(&mut self, t_now: Timestamp) {
        self.histogram.advance_to(t_now);
    }

    /// Deletions that did not find their object in the refinement index
    /// (cumulative). Nonzero values indicate an update-protocol
    /// violation upstream; the histogram side of such a delete was
    /// still applied, so answers may under-count until the motion ages
    /// out of the horizon.
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
    /// chunk results in index order, so the merged per-cell sequence is
    /// identical at every pool size — including zero workers, where the
    /// scope runs inline.
    fn refine(&self, cells: Vec<CellId>, q: &PdrQuery, threshold: DenseThreshold) -> RefineResult {
        let grid = self.histogram.grid();
        let workers = self.worker_count(cells.len());
        if workers <= 1 {
            let obs = self.obs.enabled().then_some(&*self.obs);
            return refine_cells(&*self.tree, grid, &cells, q, threshold, obs);
        }
        let chunk_len = cells.len().div_ceil(workers);
        let chunks = cells.len().div_ceil(chunk_len);
        let mut merged = (Vec::with_capacity(cells.len()), 0, IoStats::default());
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
        let grid = self.histogram.grid();
        let cls = {
            let _t = self.obs.classify_time.timer(enabled);
            self.cached_classification(q)
        };
        let threshold = DenseThreshold::of(q);

        let mut regions = RegionSet::new();
        for cell in cls.cells_of(CellClass::Accept) {
            regions.push(grid.cell_rect(cell));
        }

        self.tree.reset_io_stats();
        let candidates: Vec<CellId> = cls.cells_of(CellClass::Candidate).collect();
        let (cell_rects, objects_retrieved, io) = self.refine(candidates, q, threshold)?;
        {
            let _t = self.obs.merge_time.timer(enabled);
            for (_, rects) in cell_rects {
                for r in rects {
                    regions.push(r);
                }
            }
            // Canonical (exact) compaction, not the ε-tolerant coalesce:
            // the exact answer must be a pure function of the dense point
            // set so that a sharded plane reproduces it rect-for-rect.
            regions.canonicalize();
        }
        self.obs.queries.inc();
        if enabled {
            self.obs.accepted_cells.add(cls.accept_count() as u64);
            self.obs.rejected_cells.add(cls.reject_count() as u64);
            self.obs.candidate_cells.add(cls.candidate_count() as u64);
            self.obs.objects_retrieved.add(objects_retrieved as u64);
        }
        Ok(FrAnswer {
            regions,
            accepts: cls.accept_count(),
            rejects: cls.reject_count(),
            candidates: cls.candidate_count(),
            objects_retrieved,
            io,
            cpu: start.elapsed(),
        })
    }

    /// Filter-only degraded answer for `q`: the optimistic DH answer
    /// (accept ∪ candidate cells, coalesced) computed purely from the
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

    /// Interval PDR query (Definition 5): the union of snapshot answers
    /// over `q_t ∈ [from, to]`.
    ///
    /// Snapshot rectangles accumulate in one reused scratch buffer and
    /// are folded into the result with an incremental coalesce every
    /// [`INTERVAL_COALESCE_EVERY`] timestamps, keeping the working set
    /// proportional to a few snapshots instead of the whole interval.
    /// The per-timestamp classification cache makes the repeated filter
    /// passes O(1) after the first visit of each timestamp.
    pub fn interval_query(&self, rho: f64, l: f64, from: Timestamp, to: Timestamp) -> RegionSet {
        assert!(from <= to, "empty interval");
        let mut out = RegionSet::new();
        let mut scratch: Vec<Rect> = Vec::new();
        let mut pending = 0u32;
        for t in from..=to {
            let ans = self.query(&PdrQuery::new(rho, l, t));
            scratch.extend_from_slice(ans.regions.rects());
            pending += 1;
            if pending == INTERVAL_COALESCE_EVERY {
                for r in scratch.drain(..) {
                    out.push(r);
                }
                out.canonicalize();
                pending = 0;
            }
        }
        for r in scratch.drain(..) {
            out.push(r);
        }
        out.canonicalize();
        out
    }

    /// Serializes the engine's durable state into a sealed, checksummed
    /// checkpoint: the density histogram, the horizon anchor, the
    /// update counters, and the motion table *exactly as the index
    /// received it* (unrebased reports), so
    /// [`restore_from_bytes`](FrEngine::restore_from_bytes) rebuilds
    /// bit-identical leaf entries and therefore bit-identical answers.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"FRCK");
        w.put_u16(2);
        w.put_u64(self.t_start);
        w.put_u64(self.updates_applied);
        w.put_u64(self.missed_deletes);
        w.put_u64(self.rejected_updates);
        let mut motions: Vec<(u64, MotionState)> =
            self.motions.iter().map(|(id, m)| (id.0, *m)).collect();
        motions.sort_unstable_by_key(|(id, _)| *id);
        crate::colcodec::put_motion_table(&mut w, &motions);
        // Histogram bytes go last: they are self-delimiting via their
        // own header, so the reader just hands over the remainder.
        w.put_bytes(&self.histogram.serialize());
        seal_checkpoint(&w.into_bytes())
    }

    /// Restores the engine in place from [`checkpoint_bytes`]
    /// (FrEngine::checkpoint_bytes) output: the histogram is swapped
    /// in, the refinement index is reset onto a *fresh* simulated
    /// device (discarding any fault plan along with the failed one) and
    /// re-loaded from the checkpointed motion table, and the
    /// classification cache is dropped. Afterwards every query answer
    /// is bit-identical to the pre-crash engine's.
    pub fn restore_from_bytes(&mut self, bytes: &[u8]) -> Result<(), RecoverError> {
        let payload = open_checkpoint(bytes)?;
        let mut r = ByteReader::new(payload);
        r.expect_magic(b"FRCK")?;
        let version = r.get_u16()?;
        if version != 1 && version != 2 {
            return Err(RecoverError::Unsupported);
        }
        let t_start = r.get_u64()?;
        let updates_applied = r.get_u64()?;
        let missed_deletes = r.get_u64()?;
        let rejected_updates = r.get_u64()?;
        let mut motions: Vec<(ObjectId, MotionState)>;
        if version == 1 {
            // Row-major legacy layout: one fixed-width record per motion.
            let count = r.get_u64()? as usize;
            motions = Vec::with_capacity(count);
            for _ in 0..count {
                let id = ObjectId(r.get_u64()?);
                let origin = Point::new(r.get_f64()?, r.get_f64()?);
                let velocity = Point::new(r.get_f64()?, r.get_f64()?);
                let t_ref = r.get_u64()?;
                let m = MotionState::try_new(id, origin, velocity, t_ref)
                    .map_err(|_| RecoverError::Mismatch("non-finite motion in checkpoint"))?;
                motions.push((id, m));
            }
        } else {
            // Columnar layout: raw rows come back bit-exact; re-validate
            // finiteness here since the codec does not.
            let rows = crate::colcodec::get_motion_table(&mut r)?;
            motions = Vec::with_capacity(rows.len());
            for (id, m) in rows {
                let id = ObjectId(id);
                let m = MotionState::try_new(id, m.origin, m.velocity, m.t_ref)
                    .map_err(|_| RecoverError::Mismatch("non-finite motion in checkpoint"))?;
                motions.push((id, m));
            }
        }
        let hist_bytes = &payload[payload.len() - r.remaining()..];
        let histogram = DensityHistogram::deserialize(hist_bytes)?;
        if histogram.grid().cells_per_side() != self.cfg.m {
            return Err(RecoverError::Mismatch(
                "histogram grid disagrees with config",
            ));
        }
        if histogram.horizon() != self.cfg.horizon {
            return Err(RecoverError::Mismatch(
                "histogram horizon disagrees with config",
            ));
        }
        let tree = self.tree_mut();
        tree.reset(t_start);
        tree.load(&motions, histogram.t_base());
        self.histogram = histogram;
        self.motions = motions.into_iter().collect();
        self.t_start = t_start;
        self.updates_applied = updates_applied;
        self.missed_deletes = missed_deletes;
        self.rejected_updates = rejected_updates;
        self.cache = RwLock::new(ClassificationCache::new());
        // The restored histogram restarts its epoch at zero, so cached
        // group evaluations are meaningless; subscriptions themselves
        // survive (the next maintenance recomputes and emits exact
        // catch-up deltas against their preserved answers).
        self.sub_cache.clear();
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

    /// Incremental subscription maintenance (the tentpole path).
    ///
    /// Standing queries are grouped by `(ρ, l, resolved q_t)` and each
    /// group is evaluated once. Per group, the histogram's dirty-cell
    /// marks ([`DensityHistogram::dirty_cells_since`]) identify exactly
    /// the cells whose classification or refinement can differ from the
    /// group's cached evaluation; only candidate cells inside the dirty
    /// set (dilated by the query's cell reach) are re-refined — through
    /// the same scratch/refinement machinery and executor fan-out as a
    /// from-scratch query — while every clean candidate reuses its
    /// cached rectangles bit-for-bit. The assembled answer is
    /// canonicalized, so each subscription's committed answer — and
    /// therefore every emitted [`AnswerDelta`] — is bit-identical to
    /// clipping a from-scratch [`query`](Self::query).
    ///
    /// On a storage fault the affected group's subscriptions are marked
    /// degraded (their previous answers stay authoritative but stale)
    /// and the cache entry is kept so the next pass retries.
    pub fn maintain_subs(&mut self, now: Timestamp) -> Vec<AnswerDelta> {
        if self.subs.is_empty() {
            self.sub_cache.clear();
            return Vec::new();
        }
        let enabled = self.obs.enabled();
        let obs = Arc::clone(&self.obs);
        let _t = obs.sub_latency.timer(enabled);
        let mut groups: BTreeMap<(u64, u64, Timestamp), Vec<SubId>> = BTreeMap::new();
        let specs: Vec<Subscription> = self.subs.subs().copied().collect();
        for s in &specs {
            let q_t = s.policy.resolve(now);
            groups
                .entry((s.rho.to_bits(), s.l.to_bits(), q_t))
                .or_default()
                .push(s.id);
        }
        // Drop cache entries of groups no subscription targets anymore
        // (unregistered, or a sliding q_t moved on).
        self.sub_cache.retain(|k, _| groups.contains_key(k));
        let mut deltas = Vec::new();
        for (key, ids) in groups {
            let q = PdrQuery::new(f64::from_bits(key.0), f64::from_bits(key.1), key.2);
            match self.eval_sub_group(&q) {
                Ok(full) => {
                    for id in ids {
                        let region = self.subs.get(id).expect("grouped sub vanished").region;
                        let clipped = SubscriptionTable::clip(&full, region);
                        if let Some(d) = self.subs.commit(id, clipped, now, key.2) {
                            deltas.push(d);
                        }
                    }
                }
                Err(_) => {
                    for id in ids {
                        if let Some(d) = self.subs.mark_degraded(id, now, key.2) {
                            deltas.push(d);
                        }
                    }
                }
            }
        }
        if enabled {
            obs.deltas_emitted.add(deltas.len() as u64);
        }
        deltas
    }

    /// Evaluates one standing-query group's full-domain canonical
    /// answer through the epoch-tagged incremental cache.
    fn eval_sub_group(&mut self, q: &PdrQuery) -> Result<RegionSet, StorageError> {
        let key = (q.rho.to_bits(), q.l.to_bits(), q.q_t);
        let epoch = self.histogram.epoch();
        if let Some(c) = self.sub_cache.get(&key) {
            if c.epoch == epoch {
                return Ok(c.full.clone());
            }
        }
        let enabled = self.obs.enabled();
        let grid = self.histogram.grid();
        let cls = self.cached_classification(q);
        let threshold = DenseThreshold::of(q);
        let old = self.sub_cache.remove(&key);
        // Cells whose classification or refinement may differ from the
        // cached evaluation: everything within Chebyshev distance
        // η_h + 1 of a cell some update dirtied since the cache epoch
        // (η_h = ⌈l / 2l_c⌉ covers both the classification windows and
        // the l/2 range-query reach; +1 absorbs the clamped marking of
        // out-of-grid trajectory segments).
        let dirty_mask: Option<Vec<bool>> = old.as_ref().map(|c| {
            let m = grid.cells_per_side() as i64;
            let mut mask = vec![false; grid.cell_count()];
            let eta = (q.l / (2.0 * grid.cell_edge())).ceil() as i64 + 1;
            for cell in self.histogram.dirty_cells_since(c.epoch) {
                let (col, row) = (cell.col as i64, cell.row as i64);
                for r in (row - eta).max(0)..=(row + eta).min(m - 1) {
                    for c_ in (col - eta).max(0)..=(col + eta).min(m - 1) {
                        mask[(r * m + c_) as usize] = true;
                    }
                }
            }
            mask
        });
        let mut regions = RegionSet::new();
        for cell in cls.cells_of(CellClass::Accept) {
            regions.push(grid.cell_rect(cell));
        }
        let candidates: Vec<CellId> = cls.cells_of(CellClass::Candidate).collect();
        let mut cell_rects: HashMap<usize, Vec<Rect>> = HashMap::with_capacity(candidates.len());
        let mut to_refine: Vec<CellId> = Vec::new();
        for &cell in &candidates {
            let li = grid.linear_index(cell);
            let cached = match (&old, &dirty_mask) {
                (Some(c), Some(mask)) if !mask[li] => c.cell_rects.get(&li),
                _ => None,
            };
            match cached {
                Some(r) => {
                    cell_rects.insert(li, r.clone());
                }
                None => to_refine.push(cell),
            }
        }
        if enabled {
            self.obs.dirty_cells.add(to_refine.len() as u64);
        }
        let refined = match self.refine(to_refine, q, threshold) {
            Ok((r, _, _)) => r,
            Err(e) => {
                // Keep the previous cache entry so the next (post-
                // recovery) maintenance pass retries from it instead of
                // falling back to a full recompute.
                if let Some(c) = old {
                    self.sub_cache.insert(key, c);
                }
                return Err(e);
            }
        };
        for (li, rects) in refined {
            cell_rects.insert(li, rects);
        }
        for &cell in &candidates {
            if let Some(rs) = cell_rects.get(&grid.linear_index(cell)) {
                for r in rs {
                    regions.push(*r);
                }
            }
        }
        regions.canonicalize();
        self.sub_cache.insert(
            key,
            GroupCache {
                epoch,
                cell_rects,
                full: regions.clone(),
            },
        );
        Ok(regions)
    }
}

/// How many snapshots an interval query buffers before folding them
/// into the running union: large enough to amortize the coalesce, small
/// enough that the scratch buffer never holds more than a handful of
/// snapshots' rectangles.
pub const INTERVAL_COALESCE_EVERY: u32 = 4;

/// One refinement's yield: each cell's dense rectangles, keyed by
/// linear cell index and in cell order (the subscription group cache
/// reuses them per cell while the cell stays clean), the objects
/// retrieved and the I/O — or the storage fault that aborted it.
type RefineResult = Result<(Vec<(usize, Vec<Rect>)>, usize, IoStats), StorageError>;

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
    let mut out = Vec::with_capacity(cells.len());
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
        let rects = refine_region(&target, &mut positions, threshold, q.l);
        out.push((grid.linear_index(cell), rects));
    }
    Ok((out, retrieved, io))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Lcg;
    use crate::{accuracy, ExactOracle};
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
        let q = PdrQuery::new(0.05, 20.0, 4);
        let before = fr.query(&q).regions;

        // Simulated restart: checkpoint the histogram, rebuild the
        // index from the motion table.
        let bytes = fr.histogram().serialize();
        let restored_hist = DensityHistogram::deserialize(&bytes).unwrap();
        let fresh_tree = TprTree::new(
            TprConfig {
                buffer_pages: 64,
                min_fill_ratio: 0.4,
                horizon: cfg().horizon.h() as f64,
                integral_metrics: true,
            },
            0,
        );
        let restored = FrEngine::restore(cfg(), restored_hist, fresh_tree, &pop);
        let after = restored.query(&q).regions;
        assert!(
            before.symmetric_difference_area(&after) < 1e-9,
            "restored engine answers differ"
        );
    }

    /// Version-1 checkpoints (row-major motion table) written before the
    /// columnar codec must keep restoring bit-identically.
    #[test]
    fn v1_checkpoint_still_restores() {
        let pop = clustered_population(250, 43);
        let mut fr = FrEngine::new(cfg(), 0);
        fr.bulk_load(&pop, 0);
        fr.advance_to(1);
        let q = PdrQuery::new(0.05, 20.0, 3);
        let want = fr.query(&q).regions;

        // Hand-roll the legacy layout from live state.
        let mut w = ByteWriter::new();
        w.put_bytes(b"FRCK");
        w.put_u16(1);
        w.put_u64(fr.t_start);
        w.put_u64(fr.updates_applied);
        w.put_u64(fr.missed_deletes);
        w.put_u64(fr.rejected_updates);
        let mut motions: Vec<(ObjectId, MotionState)> =
            fr.motions.iter().map(|(id, m)| (*id, *m)).collect();
        motions.sort_unstable_by_key(|(id, _)| *id);
        w.put_u64(motions.len() as u64);
        for (id, m) in &motions {
            w.put_u64(id.0);
            w.put_f64(m.origin.x);
            w.put_f64(m.origin.y);
            w.put_f64(m.velocity.x);
            w.put_f64(m.velocity.y);
            w.put_u64(m.t_ref);
        }
        w.put_bytes(&fr.histogram.serialize());
        let v1 = seal_checkpoint(&w.into_bytes());

        let mut restored = FrEngine::new(cfg(), 0);
        restored.restore_from_bytes(&v1).expect("v1 restores");
        let got = restored.query(&q).regions;
        assert_eq!(want.rects(), got.rects(), "v1 restore diverged");

        // The columnar v2 container is strictly smaller on the same state.
        let v2 = fr.checkpoint_bytes();
        assert!(
            v2.len() < v1.len(),
            "v2 checkpoint ({}) not smaller than v1 ({})",
            v2.len(),
            v1.len()
        );
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
