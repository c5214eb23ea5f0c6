//! The shared ingest/serve driver: one loop that pumps simulator
//! ticks into any set of [`DensityEngine`]s and runs a query mix
//! against them.
//!
//! Before this module every consumer — `pdrcli`, the benches, the
//! experiment binaries — hand-wired its own advance/apply/query loop
//! per engine. [`ServeDriver`] is that loop, written once:
//!
//! ```text
//!   TrafficSimulator ──tick()──► Vec<Update> ──apply_batch──► engine 1
//!            │                                      ├────────► engine 2
//!            │                                      └────────► …
//!            └──positions_at(q_t)──► ground truth ──accuracy──┘
//! ```
//!
//! Per tick the driver advances every engine's horizon *first*, then
//! applies the tick's updates (which are stamped with the new
//! timestamp), then executes the next slice of the query mix against
//! every engine through `&self` — the engines' shared-read contract.
//! Optionally each answer is scored against the brute-force ground
//! truth computed from the simulator's own object table.

use crate::simulator::TrafficSimulator;
use crate::QuerySpec;
use pdr_core::obs::{json_f64, Histogram, HistogramSnapshot, ObsReport};
use pdr_core::{
    accuracy, exact_dense_regions, replay, AnswerDelta, DensityEngine, EngineAnswer, EngineStats,
    Executor, PdrQuery, QtPolicy, Scoreboard, StorageError, SubError, SubId, Subscription,
    SubscriptionTable, Wal, WalCodec, WalRecord,
};
use pdr_geometry::{Rect, RegionSet};
use pdr_mobject::Timestamp;
use pdr_storage::seeded::{backoff_delay, SeededRng};
use pdr_storage::{CostModel, FaultPlan, FaultStats, IoStats};
use std::time::{Duration, Instant};

/// The query side of a serve run: which queries to execute, how many
/// per tick, and whether to score answers against ground truth.
#[derive(Clone, Debug)]
pub struct QueryMix {
    specs: Vec<QuerySpec>,
    anchor: Timestamp,
    per_tick: usize,
    measure_accuracy: bool,
    clients: usize,
    subs: Option<SubMix>,
}

/// The standing-subscription side of a serve run: how many
/// subscriptions each engine carries, how often they churn, and whether
/// the maintained answers are verified against from-scratch queries.
#[derive(Clone, Copy, Debug)]
pub struct SubMix {
    /// Standing subscriptions registered on every engine.
    pub count: usize,
    /// Every this many ticks the oldest subscription is unregistered
    /// and a fresh one registered (0 = no churn).
    pub churn_every: u64,
    /// Check every maintained answer each tick against a from-scratch
    /// query clipped to the region — exact rect equality. Leave off
    /// when benchmarking maintenance cost (the checks recompute what
    /// the incremental path is there to avoid).
    pub verify: bool,
}

impl QueryMix {
    /// Creates a mix from generated query specs. `anchor` is the
    /// `t_now` the specs were generated for: at serve time each spec's
    /// timestamp is re-anchored to the current tick, so its horizon
    /// offset (`q_t - anchor`) is preserved as the clock advances.
    ///
    /// Mid-stream, a report may be up to `U` ticks old, so its horizon
    /// coverage `[t_report, t_report + H]` only guarantees
    /// `[now, now + W]`. Keep offsets within the prediction window `W`
    /// — offsets in `(W, H]` are answerable right after a bulk load but
    /// degrade into false negatives once the update stream ages.
    pub fn new(specs: Vec<QuerySpec>, anchor: Timestamp, per_tick: usize) -> Self {
        assert!(!specs.is_empty(), "empty query mix");
        QueryMix {
            specs,
            anchor,
            per_tick,
            measure_accuracy: false,
            clients: 1,
            subs: None,
        }
    }

    /// Also score every answer against the brute-force ground truth
    /// (adds an exact sweep per query — fine for experiment scales).
    pub fn with_accuracy(mut self) -> Self {
        self.measure_accuracy = true;
        self
    }

    /// Serves the per-tick query slice from `n` concurrent clients
    /// instead of one. Each client issues its own `per_tick` queries
    /// (total load scales with `n`) against the shared engines through
    /// the read-only [`DensityEngine::try_query`] contract, so client
    /// concurrency composes with the intra-query parallelism running on
    /// the shared [`Executor`]. Query assignment stays a pure function
    /// of the mix cursor, and fault handling runs on the exclusive
    /// serial path after the concurrent phase joins — answers are
    /// bit-identical to a single-client run over the same assignments.
    ///
    /// `n == 1` (the default) keeps the original single-threaded slice.
    pub fn with_clients(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one client");
        self.clients = n;
        self
    }

    /// Also carry `count` standing subscriptions per engine, drawn from
    /// the mix's specs (region of interest and `q_t` policy derived
    /// deterministically), churned every `churn_every` ticks (0 = no
    /// churn). With `verify`, each maintained answer is checked against
    /// a from-scratch query every tick — exact rect equality.
    pub fn with_subscriptions(mut self, count: usize, churn_every: u64, verify: bool) -> Self {
        assert!(count > 0, "at least one subscription");
        self.subs = Some(SubMix {
            count,
            churn_every,
            verify,
        });
        self
    }

    /// The subscription side of the mix, if enabled.
    pub fn subscriptions(&self) -> Option<SubMix> {
        self.subs
    }

    /// The underlying specs.
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// Concurrent clients serving the per-tick slice.
    pub fn clients(&self) -> usize {
        self.clients
    }
}

/// How the serve loop reacts to storage faults: bounded retry with
/// seeded jittered backoff for transient faults, checkpoint+WAL
/// recovery for detected corruption, graceful degradation otherwise,
/// all under an optional per-query deadline.
#[derive(Clone, Copy, Debug)]
pub struct FaultPolicy {
    /// Query attempts before giving up on transient faults (counting
    /// the first try).
    pub max_attempts: u32,
    /// Base backoff before the first retry, in microseconds; doubles
    /// per attempt.
    pub backoff_base_us: u64,
    /// Backoff ceiling in microseconds.
    pub backoff_cap_us: u64,
    /// Seed of the jitter generator — runs with the same seed, plan
    /// and workload retry at identical points.
    pub seed: u64,
    /// Per-query deadline: when retries/recovery would exceed it, the
    /// query degrades immediately and the miss is counted.
    pub deadline: Option<Duration>,
}

/// The default per-query deadline, scaled to the host: the 250 ms
/// budget assumes at least 8 cores' worth of refinement parallelism.
/// Below that, concurrent clients queue on the smaller shared executor
/// and wall-clock latency grows roughly inversely with the core count,
/// so the budget is scaled by `8 / n_cpu` — with a 5 s floor at 1 CPU,
/// where queueing dominates outright. Without the scaling, a 1-CPU host
/// reports 100% deadline misses in `BENCH_serve_concurrency` that are a
/// policy artifact, not a serving regression.
pub fn default_deadline() -> Duration {
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
    if ncpu >= 8 {
        Duration::from_millis(250)
    } else if ncpu == 1 {
        Duration::from_secs(5)
    } else {
        Duration::from_millis(250 * 8 / ncpu as u64)
    }
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_attempts: 4,
            backoff_base_us: 50,
            backoff_cap_us: 2_000,
            seed: 0x5EED,
            deadline: Some(default_deadline()),
        }
    }
}

/// Per-engine accumulated load over a serve run.
#[derive(Clone, Debug)]
pub struct EngineLoad {
    /// Engine label (unique within the driver).
    pub label: String,
    /// Engine-reported name (`"fr"`, `"pa"`, …).
    pub engine: &'static str,
    /// Per-query cost and accuracy rollup (executed/scored counts,
    /// summed cost, bounded/unbounded `r_fp` bookkeeping) — the shared
    /// [`Scoreboard`] used by the bench scorecards too.
    pub score: Scoreboard,
    /// Milliseconds spent applying update batches.
    pub ingest_ms: f64,
    /// Query attempts repeated after a transient storage fault.
    pub retries: u64,
    /// Checkpoint+WAL recoveries performed after detected corruption.
    pub recoveries: u64,
    /// Queries answered by the filter-only degraded path after
    /// retries/recovery could not produce an exact answer.
    pub degraded_queries: u64,
    /// Queries that produced no answer at all (fault persisted and the
    /// engine has no degraded mode).
    pub failed_queries: u64,
    /// Queries whose deadline expired during retries/recovery.
    pub deadline_misses: u64,
    /// Injected-fault / checksum-failure counters from the engine's
    /// storage plane.
    pub faults: FaultStats,
    /// Recovery-time distribution (restore + WAL tail replay).
    pub recovery_us: HistogramSnapshot,
    /// Final engine stats snapshot.
    pub stats: EngineStats,
    /// Per-query CPU latency distribution over the run.
    pub latency: HistogramSnapshot,
    /// Final engine instrumentation snapshot (stage latencies, internal
    /// counters); empty for engines without instrumentation.
    pub obs: ObsReport,
    /// Per-shard metrics block (raw JSON array) for sharded engines;
    /// `None` for unsharded ones. See
    /// `pdr_core::DensityEngine::shard_metrics_json`.
    pub shards: Option<String>,
    /// Standing subscriptions registered on the engine at report time.
    pub subs: u64,
    /// Answer deltas consumed from the engine's maintenance path.
    pub sub_deltas: u64,
    /// Delta-replay / from-scratch oracle checks performed.
    pub sub_checks: u64,
    /// Checks where a delta-maintained answer diverged from the
    /// from-scratch one (an exactness bug — must stay 0).
    pub sub_divergence: u64,
}

impl EngineLoad {
    fn new(label: String, engine: &'static str) -> Self {
        EngineLoad {
            label,
            engine,
            score: Scoreboard::default(),
            ingest_ms: 0.0,
            retries: 0,
            recoveries: 0,
            degraded_queries: 0,
            failed_queries: 0,
            deadline_misses: 0,
            faults: FaultStats::default(),
            recovery_us: HistogramSnapshot::default(),
            stats: EngineStats::default(),
            latency: HistogramSnapshot::default(),
            obs: ObsReport::default(),
            shards: None,
            subs: 0,
            sub_deltas: 0,
            sub_checks: 0,
            sub_divergence: 0,
        }
    }

    /// Mean total query cost in milliseconds.
    pub fn mean_total_ms(&self) -> f64 {
        self.score.mean_total_ms()
    }

    /// Mean false-positive ratio over the scored queries with a
    /// *bounded* ratio — always finite (0 when nothing qualified).
    /// Queries whose truth was empty while the engine reported
    /// something are excluded from the mean and counted in
    /// [`Scoreboard::unbounded_r_fp`]; report that count alongside the
    /// mean when it is nonzero.
    pub fn mean_r_fp(&self) -> f64 {
        self.score.mean_r_fp().unwrap_or(0.0)
    }

    /// Mean false-negative ratio over scored queries (0 when none).
    pub fn mean_r_fn(&self) -> f64 {
        self.score.mean_r_fn().unwrap_or(0.0)
    }
}

/// Per-client accumulated load over a concurrent serve run (empty for
/// single-client runs, which keep the original serial slice).
#[derive(Clone, Debug)]
pub struct ClientLoad {
    /// Client index, `0..clients`.
    pub client: usize,
    /// Requests this client issued (one per engine per query).
    pub queries: u64,
    /// Requests whose wall-clock latency exceeded the policy deadline
    /// as observed by the client (includes queueing on the shared
    /// executor, unlike the engine-side CPU latency).
    pub deadline_misses: u64,
    /// Client-observed wall-clock latency distribution.
    pub latency: HistogramSnapshot,
}

impl ClientLoad {
    fn to_json(&self) -> String {
        format!(
            "{{\"client\":{},\"queries\":{},\"deadline_misses\":{},\"latency_us\":{}}}",
            self.client,
            self.queries,
            self.deadline_misses,
            self.latency.to_json()
        )
    }
}

/// Result of a serve run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Ticks driven.
    pub ticks: u64,
    /// Protocol updates the simulator emitted (and every engine
    /// applied).
    pub updates: u64,
    /// Per-tick ingest time (horizon advance + batch apply across all
    /// engines) distribution.
    pub tick_ingest: HistogramSnapshot,
    /// Per-tick query-slice time (the whole mix slice across all
    /// engines, including ground-truth computation when scoring).
    pub tick_query: HistogramSnapshot,
    /// Per-engine accumulated load, in registration order.
    pub engines: Vec<EngineLoad>,
    /// Per-client load for concurrent-client runs (empty otherwise).
    pub clients: Vec<ClientLoad>,
    /// Worker threads in the shared process-wide executor.
    pub pool_workers: usize,
    /// Executor counters (queue depth, steals, parked time, …) sampled
    /// when the report was built.
    pub exec: ObsReport,
}

/// Escapes a string for embedding in a JSON document.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn faults_json(f: &FaultStats) -> String {
    format!(
        "{{\"read_faults\":{},\"write_faults\":{},\"torn_writes\":{},\"crc_failures\":{},\"injected\":{}}}",
        f.read_faults,
        f.write_faults,
        f.torn_writes,
        f.crc_failures,
        f.injected()
    )
}

fn io_json(io: &IoStats) -> String {
    format!(
        "{{\"logical_reads\":{},\"misses\":{},\"evictions\":{},\"writebacks\":{},\"physical_ios\":{}}}",
        io.logical_reads,
        io.misses,
        io.evictions,
        io.writebacks,
        io.physical_ios()
    )
}

impl ServeReport {
    /// Serializes the whole report as a JSON document (no external
    /// dependencies — see `pdr_core::obs`). The schema is documented in
    /// `EXPERIMENTS.md`; `pdrcli serve --metrics <path>` writes exactly
    /// this string, and the benches and experiment binaries reuse it.
    pub fn to_json(&self) -> String {
        let engines = self
            .engines
            .iter()
            .map(|e| {
                let shards = e
                    .shards
                    .as_ref()
                    .map(|s| format!(",\"shards\":{s}"))
                    .unwrap_or_default();
                format!(
                    "{{\"label\":{},\"engine\":{},\"queries\":{},\"cpu_ms\":{},\"total_ms\":{},\
                     \"ingest_ms\":{},\"scored\":{},\"unbounded_r_fp\":{},\"mean_r_fp\":{},\
                     \"mean_r_fn\":{},\"io\":{},\"latency_us\":{},\
                     \"retries\":{},\"recoveries\":{},\"degraded_queries\":{},\
                     \"failed_queries\":{},\"deadline_misses\":{},\
                     \"subs\":{},\"sub_deltas\":{},\"sub_checks\":{},\
                     \"sub_divergence\":{},\"faults\":{},\
                     \"recovery_us\":{},\"stats\":{{\
                     \"updates_applied\":{},\"missed_deletes\":{},\"rejected_updates\":{},\
                     \"memory_bytes\":{},\"objects\":{},\"queries_served\":{}}},\"obs\":{}{}}}",
                    json_str(&e.label),
                    json_str(e.engine),
                    e.score.queries,
                    json_f64(e.score.cpu_ms),
                    json_f64(e.score.total_ms),
                    json_f64(e.ingest_ms),
                    e.score.scored,
                    e.score.unbounded_r_fp,
                    json_f64(e.mean_r_fp()),
                    json_f64(e.mean_r_fn()),
                    io_json(&e.score.io),
                    e.latency.to_json(),
                    e.retries,
                    e.recoveries,
                    e.degraded_queries,
                    e.failed_queries,
                    e.deadline_misses,
                    e.subs,
                    e.sub_deltas,
                    e.sub_checks,
                    e.sub_divergence,
                    faults_json(&e.faults),
                    e.recovery_us.to_json(),
                    e.stats.updates_applied,
                    e.stats.missed_deletes,
                    e.stats.rejected_updates,
                    e.stats.memory_bytes,
                    e.stats.objects,
                    e.stats.queries_served,
                    e.obs.to_json(),
                    shards,
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let faults_injected: u64 = self.engines.iter().map(|e| e.faults.injected()).sum();
        let clients = self
            .clients
            .iter()
            .map(ClientLoad::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"ticks\":{},\"updates\":{},\"faults_injected\":{},\"tick_ingest_us\":{},\
             \"tick_query_us\":{},\"pool_workers\":{},\"exec\":{},\"clients\":[{}],\
             \"engines\":[{}]}}",
            self.ticks,
            self.updates,
            faults_injected,
            self.tick_ingest.to_json(),
            self.tick_query.to_json(),
            self.pool_workers,
            self.exec.to_json(),
            clients,
            engines
        )
    }
}

struct Served {
    label: String,
    engine: Box<dyn DensityEngine>,
    load: EngineLoad,
    latency: Histogram,
    recovery: Histogram,
    /// Latest sealed checkpoint and the WAL offset it replays from.
    checkpoint: Option<(usize, Vec<u8>)>,
    /// Set when the engine's device failed persistently and could not
    /// be recovered: ingest stops (the device is unusable) and every
    /// query is answered by the filter-only degraded path from the
    /// last consistent in-memory density surface.
    degraded_mode: bool,
    /// One delta-replayed answer mirror per standing subscription, in
    /// registration order — reconstructed *only* from consumed
    /// [`pdr_core::AnswerDelta`]s, so comparing it against the engine's
    /// table (and, under `SubMix::verify`, a from-scratch query) proves
    /// the incremental path end to end.
    sub_mirrors: Vec<(SubId, Vec<Rect>)>,
}

impl Served {
    /// Re-seeds every mirror from the engine's committed answers —
    /// after a crash recovery the tick's deltas are lost mid-flight, so
    /// the consumer resynchronizes exactly like a reconnecting client.
    fn resync_mirrors(&mut self) {
        if let Some(table) = self.engine.subscriptions() {
            for (id, mirror) in &mut self.sub_mirrors {
                *mirror = table.answer(*id).map(<[Rect]>::to_vec).unwrap_or_default();
            }
        }
    }
}

/// The journal a fault-tolerant serve run keeps: protocol records are
/// appended *before* each engine mutation, engine checkpoints are taken
/// every `every` ticks.
struct Journal {
    wal: Wal,
    every: u64,
    ticks_since_checkpoint: u64,
}

/// Owns a [`TrafficSimulator`] and any number of boxed engines; drives
/// ingest and queries through the [`DensityEngine`] contract only.
pub struct ServeDriver {
    sim: TrafficSimulator,
    engines: Vec<Served>,
    model: CostModel,
    cursor: usize,
    tick_ingest: Histogram,
    tick_query: Histogram,
    policy: FaultPolicy,
    journal: Option<Journal>,
    rng: SeededRng,
    clients: Vec<ClientStats>,
    /// Deterministic generator for subscription regions (xorshift64*,
    /// seeded from the fault-policy seed so runs replay identically).
    sub_rng: SeededRng,
    /// Subscriptions created so far — cycles the mix specs so every
    /// engine registers the identical sequence.
    sub_seq: u64,
    /// Deltas emitted since the last [`drain_pending_deltas`]
    /// (ServeDriver::drain_pending_deltas) call, labelled with the
    /// emitting engine — the feed the TCP front-end routes to
    /// subscriber connections. Only collected once
    /// [`enable_delta_feed`](ServeDriver::enable_delta_feed) is on, so
    /// drain-less library runs don't accumulate unboundedly.
    pending_deltas: Vec<(String, AnswerDelta)>,
    delta_feed: bool,
}

/// Mutable per-client accumulators (snapshotted into [`ClientLoad`]).
struct ClientStats {
    queries: u64,
    deadline_misses: u64,
    latency: Histogram,
}

impl ServeDriver {
    /// Creates a driver around a simulator; costs are charged under
    /// `model`.
    pub fn new(sim: TrafficSimulator, model: CostModel) -> Self {
        let policy = FaultPolicy::default();
        ServeDriver {
            sim,
            engines: Vec::new(),
            model,
            cursor: 0,
            tick_ingest: Histogram::new(),
            tick_query: Histogram::new(),
            policy,
            journal: None,
            rng: SeededRng::new(policy.seed),
            clients: Vec::new(),
            sub_rng: SeededRng::new(policy.seed ^ 0x5B5C_9A71),
            sub_seq: 0,
            pending_deltas: Vec::new(),
            delta_feed: false,
        }
    }

    /// Turns on the labelled delta feed consumed through
    /// [`drain_pending_deltas`](ServeDriver::drain_pending_deltas).
    /// Off by default so drivers nobody drains don't buffer forever.
    pub fn enable_delta_feed(&mut self) {
        self.delta_feed = true;
    }

    /// Sets the fault-handling policy (builder style).
    pub fn with_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self.rng = SeededRng::new(policy.seed);
        self
    }

    /// Turns on write-ahead journaling with an engine checkpoint every
    /// `every` ticks. Checkpoint-capable engines become recoverable:
    /// when a query hits detected corruption, the driver restores the
    /// latest checkpoint, replays the WAL tail and retries. Engines
    /// without checkpoint support keep degrading instead.
    ///
    /// New journals use the columnar codec2 record format; recovery
    /// replays either codec, so logs written by older drivers remain
    /// readable.
    pub fn enable_journal(&mut self, every: u64) {
        assert!(every > 0, "checkpoint cadence must be positive");
        self.journal = Some(Journal {
            wal: Wal::with_codec(WalCodec::V2),
            every,
            ticks_since_checkpoint: 0,
        });
        self.checkpoint_engines();
    }

    /// Installs a fault-injection plan beneath the storage plane of the
    /// engine registered under `label`. `false` when no such engine.
    pub fn install_fault_plan(&self, label: &str, plan: FaultPlan) -> bool {
        match self.engines.iter().find(|s| s.label == label) {
            Some(s) => {
                s.engine.set_fault_plan(plan);
                true
            }
            None => false,
        }
    }

    /// Takes a fresh checkpoint of every checkpoint-capable engine,
    /// anchored at the current WAL offset. No-op without a journal.
    fn checkpoint_engines(&mut self) {
        let Some(j) = self.journal.as_ref() else {
            return;
        };
        let offset = j.wal.offset();
        for s in &mut self.engines {
            if let Some(bytes) = s.engine.checkpoint() {
                s.checkpoint = Some((offset, bytes));
            }
        }
    }

    /// Registers an engine under `label` (builder style).
    pub fn with_engine(mut self, label: &str, engine: Box<dyn DensityEngine>) -> Self {
        self.add_engine(label, engine);
        self
    }

    /// Registers an engine under `label`.
    pub fn add_engine(&mut self, label: &str, engine: Box<dyn DensityEngine>) {
        assert!(
            self.engines.iter().all(|s| s.label != label),
            "duplicate engine label {label:?}"
        );
        let name = engine.name();
        self.engines.push(Served {
            label: label.to_string(),
            engine,
            load: EngineLoad::new(label.to_string(), name),
            latency: Histogram::new(),
            recovery: Histogram::new(),
            checkpoint: None,
            degraded_mode: false,
            sub_mirrors: Vec::new(),
        });
    }

    /// The simulator (read access: population, positions, time).
    pub fn simulator(&self) -> &TrafficSimulator {
        &self.sim
    }

    /// Labels of the registered engines, in registration order.
    pub fn labels(&self) -> Vec<String> {
        self.engines.iter().map(|s| s.label.clone()).collect()
    }

    /// The engine registered under `label`, if any.
    pub fn engine(&self, label: &str) -> Option<&dyn DensityEngine> {
        self.engines
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.engine.as_ref())
    }

    /// Mutable access to the engine registered under `label` (the
    /// replica sync path ingests shipments through this).
    pub fn engine_mut(&mut self, label: &str) -> Option<&mut dyn DensityEngine> {
        let s = self.engines.iter_mut().find(|s| s.label == label)?;
        Some(s.engine.as_mut())
    }

    /// The monitored region (the simulator network's square extent).
    pub fn bounds(&self) -> Rect {
        let extent = self.sim.network().extent();
        Rect::new(0.0, 0.0, extent, extent)
    }

    /// Bulk-loads the simulator's current population into every engine.
    /// Call once, before ticking.
    pub fn bootstrap(&mut self) {
        let pop = self.sim.population();
        let t = self.sim.t_now();
        for s in &mut self.engines {
            let start = Instant::now();
            s.engine.bulk_load(&pop, t);
            s.load.ingest_ms += start.elapsed().as_secs_f64() * 1e3;
        }
        // The bulk load is not WAL-recorded (it would dwarf the log);
        // a post-bootstrap checkpoint makes it recoverable instead.
        self.checkpoint_engines();
    }

    /// Promotes the replica registered under `label` into a writable
    /// primary and returns its new replication epoch plus the applied
    /// protocol time it was sealed at.
    ///
    /// The driver's local simulator never ticked while the engine was
    /// a replica (the replicated stream was the clock), so after the
    /// engine flips to primary the simulator is fast-forwarded to the
    /// applied timestamp. Both sides of a failover pair are launched
    /// from the same `--objects/--seed/--extent`, and the simulator is
    /// deterministic, so the fast-forwarded population is exactly the
    /// one the replicated updates described — ground truth and `q_t`
    /// resolution stay exact across the promotion.
    pub fn promote_replica(&mut self, label: &str) -> Result<(u64, Timestamp), String> {
        let s = self
            .engines
            .iter_mut()
            .find(|s| s.label == label)
            .ok_or_else(|| format!("no such engine {label:?}"))?;
        let (epoch, applied_t) = if let Some(rep) = s.engine.as_replica_mut() {
            let t = rep.applied_t();
            (rep.promote(), t)
        } else if let Some(plane) = s.engine.as_sharded() {
            // Already promoted (or a born primary): idempotent
            // re-answer; the simulator is already current.
            (plane.repl_epoch(), self.sim.t_now())
        } else {
            return Err(format!("engine {label:?} is neither replica nor primary"));
        };
        while self.sim.t_now() < applied_t {
            let _ = self.sim.tick();
        }
        Ok((epoch, applied_t))
    }

    /// Drives one simulator tick through every engine: advances each
    /// horizon to the new timestamp, then applies the tick's updates.
    /// Returns the number of protocol updates applied.
    pub fn tick(&mut self) -> usize {
        let t_next = self.sim.t_now() + 1;
        if let Some(j) = self.journal.as_mut() {
            j.wal.append_advance(t_next);
        }
        let wal = self.journal.as_ref().map(|j| &j.wal);
        for s in &mut self.engines {
            let start = Instant::now();
            ingest_or_recover(s, wal, |e| e.advance_to(t_next));
            s.load.ingest_ms += start.elapsed().as_secs_f64() * 1e3;
        }
        let updates = self.sim.tick();
        if let Some(j) = self.journal.as_mut() {
            j.wal.append_batch(&updates);
        }
        let wal = self.journal.as_ref().map(|j| &j.wal);
        let mut emitted: Vec<(String, AnswerDelta)> = Vec::new();
        for s in &mut self.engines {
            let start = Instant::now();
            let recoveries_before = s.load.recoveries;
            let mut deltas = Vec::new();
            ingest_or_recover(s, wal, |e| {
                deltas = e.apply_batch_with_deltas(&updates, t_next);
            });
            s.load.ingest_ms += start.elapsed().as_secs_f64() * 1e3;
            let has_subs = !s.sub_mirrors.is_empty()
                || s.engine.subscriptions().is_some_and(|t| !t.is_empty());
            if !has_subs {
                continue;
            }
            if s.load.recoveries != recoveries_before || s.degraded_mode {
                // The tick's deltas were lost mid-crash (or the engine
                // went offline). After a successful recovery the engine
                // is consistent again but unmaintained for this tick:
                // run one maintenance pass, then resynchronize the
                // mirrors from the committed answers. External
                // consumers cannot resync, so they get a degraded
                // marker per subscription instead — their replayed
                // answer can no longer be trusted until re-seeded.
                if !s.degraded_mode {
                    let _ = s.engine.maintain_subscriptions(t_next);
                }
                s.resync_mirrors();
                deltas = s
                    .engine
                    .subscriptions()
                    .map(|t| {
                        t.subs()
                            .map(|sub| AnswerDelta {
                                id: sub.id,
                                now: t_next,
                                q_t: sub.policy.resolve(t_next),
                                added: Vec::new(),
                                removed: Vec::new(),
                                degraded: true,
                                resync: false,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
            } else {
                s.load.sub_deltas += deltas.len() as u64;
                for d in &deltas {
                    if let Some((_, mirror)) = s.sub_mirrors.iter_mut().find(|(id, _)| *id == d.id)
                    {
                        d.apply_to(mirror);
                    }
                }
            }
            if self.delta_feed {
                emitted.extend(deltas.into_iter().map(|d| (s.label.clone(), d)));
            }
        }
        self.pending_deltas.append(&mut emitted);
        let checkpoint_due = match self.journal.as_mut() {
            Some(j) => {
                j.ticks_since_checkpoint += 1;
                if j.ticks_since_checkpoint >= j.every {
                    j.ticks_since_checkpoint = 0;
                    true
                } else {
                    false
                }
            }
            None => false,
        };
        if checkpoint_due {
            self.checkpoint_engines();
        }
        updates.len()
    }

    /// Brute-force ground truth for `q` from the simulator's own table.
    pub fn ground_truth(&self, q: &PdrQuery) -> RegionSet {
        exact_dense_regions(&self.sim.positions_at(q.q_t), &self.bounds(), q)
    }

    /// Registers a standing subscription on the engine under `label`
    /// (region defaults to the monitored bounds) and immediately brings
    /// it up to date: the initial answer is emitted as the
    /// subscription's first pending delta (everything `added`), so a
    /// consumer draining [`drain_pending_deltas`]
    /// (ServeDriver::drain_pending_deltas) reconstructs the answer from
    /// the delta stream alone.
    pub fn subscribe_on(
        &mut self,
        label: &str,
        rho: f64,
        l: f64,
        region: Option<Rect>,
        policy: QtPolicy,
    ) -> Result<SubId, SubError> {
        let bounds = self.bounds();
        let now = self.sim.t_now();
        let Some(s) = self.engines.iter_mut().find(|s| s.label == label) else {
            return Err(SubError::Unsupported);
        };
        let id = s
            .engine
            .register_subscription(rho, l, region.unwrap_or(bounds), policy)?;
        s.load.subs += 1;
        let deltas = s.engine.maintain_subscriptions(now);
        s.load.sub_deltas += deltas.len() as u64;
        for d in &deltas {
            if let Some((_, m)) = s.sub_mirrors.iter_mut().find(|(i, _)| *i == d.id) {
                d.apply_to(m);
            }
        }
        if self.delta_feed {
            let label = s.label.clone();
            self.pending_deltas
                .extend(deltas.into_iter().map(|d| (label.clone(), d)));
        }
        Ok(id)
    }

    /// Unregisters a subscription created by [`subscribe_on`]
    /// (ServeDriver::subscribe_on) (or the subscription mix). `false`
    /// when no such engine or subscription.
    pub fn unsubscribe_on(&mut self, label: &str, id: SubId) -> bool {
        let Some(s) = self.engines.iter_mut().find(|s| s.label == label) else {
            return false;
        };
        let removed = s.engine.unregister_subscription(id);
        if removed {
            s.load.subs -= 1;
            s.sub_mirrors.retain(|(i, _)| *i != id);
        }
        removed
    }

    /// Takes the deltas emitted since the last drain, labelled with the
    /// emitting engine. The TCP front-end calls this after every tick
    /// and routes each delta to the connection that owns the
    /// subscription.
    pub fn drain_pending_deltas(&mut self) -> Vec<(String, AnswerDelta)> {
        std::mem::take(&mut self.pending_deltas)
    }

    /// The next deterministic subscription spec: `(ρ, l)` cycle the
    /// mix's query specs, the horizon offset becomes a sliding
    /// [`QtPolicy::NowPlus`], and the region of interest is a seeded
    /// random sub-rectangle of the monitored domain (every third one
    /// covers the whole domain).
    fn next_sub_spec(&mut self, mix: &QueryMix) -> (f64, f64, Rect, QtPolicy) {
        let spec = mix.specs[self.sub_seq as usize % mix.specs.len()];
        let offset = spec.q_t.saturating_sub(mix.anchor);
        self.sub_seq += 1;
        let bounds = self.bounds();
        let mut draw = || (self.sub_rng.next_u64() >> 33) as f64 / (1u64 << 31) as f64;
        let region = if self.sub_seq.is_multiple_of(3) {
            bounds
        } else {
            let w = bounds.width() * (0.25 + 0.6 * draw());
            let h = bounds.height() * (0.25 + 0.6 * draw());
            let x_lo = bounds.x_lo + (bounds.width() - w) * draw();
            let y_lo = bounds.y_lo + (bounds.height() - h) * draw();
            Rect::new(x_lo, y_lo, x_lo + w, y_lo + h)
        };
        (spec.rho, spec.l, region, QtPolicy::NowPlus(offset))
    }

    /// Registers one identical subscription on every engine and brings
    /// its committed answer up to date (so the first tick's check does
    /// not compare an unmaintained empty answer).
    fn register_subscription_everywhere(&mut self, mix: &QueryMix) {
        let (rho, l, region, policy) = self.next_sub_spec(mix);
        let now = self.sim.t_now();
        for s in &mut self.engines {
            if s.degraded_mode {
                continue;
            }
            let id = s
                .engine
                .register_subscription(rho, l, region, policy)
                .unwrap_or_else(|e| panic!("{}: subscription rejected: {e}", s.label));
            s.load.subs += 1;
            let deltas = s.engine.maintain_subscriptions(now);
            s.load.sub_deltas += deltas.len() as u64;
            let mut mirror = Vec::new();
            for d in deltas {
                if d.id == id {
                    d.apply_to(&mut mirror);
                } else if let Some((_, m)) = s.sub_mirrors.iter_mut().find(|(i, _)| *i == d.id) {
                    d.apply_to(m);
                }
            }
            s.sub_mirrors.push((id, mirror));
        }
    }

    /// Unregisters the oldest subscription and registers a fresh one —
    /// the churn half of the subscription mix.
    fn churn_subscriptions(&mut self, mix: &QueryMix) {
        for s in &mut self.engines {
            if s.degraded_mode || s.sub_mirrors.is_empty() {
                continue;
            }
            let (id, _) = s.sub_mirrors.remove(0);
            assert!(
                s.engine.unregister_subscription(id),
                "{}: churned subscription {id:?} was not registered",
                s.label
            );
            s.load.subs -= 1;
        }
        self.register_subscription_everywhere(mix);
    }

    /// Per-tick subscription checks: every mirror (rebuilt purely from
    /// deltas) must equal the engine's committed answer bit-for-bit;
    /// with `verify`, both must equal a from-scratch query clipped to
    /// the region. Degraded subscriptions are skipped — their stored
    /// answer is stale by contract until the first clean commit.
    fn check_subscriptions(&mut self, verify: bool, now: Timestamp) {
        for s in &mut self.engines {
            if s.degraded_mode {
                continue;
            }
            let Some(table) = s.engine.subscriptions() else {
                continue;
            };
            let specs: Vec<Subscription> = table.subs().copied().collect();
            for sub in specs {
                let table = s.engine.subscriptions().expect("table just read");
                if table.is_degraded(sub.id) == Some(true) {
                    continue;
                }
                let committed = table.answer(sub.id).expect("registered").to_vec();
                s.load.sub_checks += 1;
                let mirrored = s
                    .sub_mirrors
                    .iter()
                    .find(|(id, _)| *id == sub.id)
                    .map(|(_, m)| m.as_slice());
                if mirrored != Some(committed.as_slice()) {
                    s.load.sub_divergence += 1;
                    continue;
                }
                if !verify {
                    continue;
                }
                let q = PdrQuery::new(sub.rho, sub.l, sub.policy.resolve(now));
                let Ok(answer) = s.engine.try_query(&q) else {
                    // A faulting verification query proves nothing
                    // either way; the fault path has its own counters.
                    s.load.sub_checks -= 1;
                    continue;
                };
                let reference = SubscriptionTable::clip(&answer.regions, sub.region);
                if reference.rects() != committed.as_slice() {
                    s.load.sub_divergence += 1;
                }
            }
        }
    }

    /// Executes one query against every engine, accumulating load (and
    /// accuracy when `truth` is given). Returns the answers in engine
    /// registration order.
    pub fn query_all(&mut self, q: &PdrQuery, truth: Option<&RegionSet>) -> Vec<RegionSet> {
        let model = self.model;
        let policy = self.policy;
        let wal = self.journal.as_ref().map(|j| &j.wal);
        let rng = &mut self.rng;
        let mut answers = Vec::with_capacity(self.engines.len());
        for s in &mut self.engines {
            let a = serve_with_faults(s, q, &policy, wal, rng);
            s.load
                .score
                .record_cost(a.cpu.as_secs_f64() * 1e3, a.total_ms(&model), a.io);
            s.latency.record(a.cpu);
            if let Some(truth) = truth {
                s.load.score.record_accuracy(accuracy(truth, &a.regions));
            }
            answers.push(a.regions);
        }
        answers
    }

    /// The serve loop: `ticks` simulator ticks, executing
    /// `mix.per_tick` queries from the mix after each tick (cycling
    /// through the mix, re-anchored to the current clock; with
    /// [`QueryMix::with_clients`], every client issues its own
    /// `per_tick` queries concurrently). Returns the accumulated
    /// report; the driver can keep running afterwards.
    pub fn run(&mut self, ticks: u64, mix: &QueryMix) -> ServeReport {
        if mix.clients > 1 {
            while self.clients.len() < mix.clients {
                self.clients.push(ClientStats {
                    queries: 0,
                    deadline_misses: 0,
                    latency: Histogram::new(),
                });
            }
        }
        if let Some(sm) = mix.subscriptions() {
            let missing = sm.count.saturating_sub(
                self.engines
                    .iter()
                    .map(|s| s.sub_mirrors.len())
                    .max()
                    .unwrap_or(0),
            );
            for _ in 0..missing {
                self.register_subscription_everywhere(mix);
            }
        }
        let mut updates = 0u64;
        for tick_no in 0..ticks {
            let ingest_start = Instant::now();
            updates += self.tick() as u64;
            self.tick_ingest.record(ingest_start.elapsed());
            let now = self.sim.t_now();
            if let Some(sm) = mix.subscriptions() {
                self.check_subscriptions(sm.verify, now);
                if sm.churn_every > 0 && (tick_no + 1) % sm.churn_every == 0 {
                    self.churn_subscriptions(mix);
                }
            }
            let query_start = Instant::now();
            if mix.clients > 1 {
                self.concurrent_query_slice(mix, now);
            } else {
                for _ in 0..mix.per_tick {
                    let (q, truth) = self.next_query(mix, now);
                    self.query_all(&q, truth.as_ref());
                }
            }
            self.tick_query.record(query_start.elapsed());
        }
        self.report(ticks, updates)
    }

    /// Pulls the next query off the mix cursor, re-anchored to `now`.
    fn next_query(&mut self, mix: &QueryMix, now: Timestamp) -> (PdrQuery, Option<RegionSet>) {
        let spec = mix.specs[self.cursor % mix.specs.len()];
        self.cursor += 1;
        let q_t = now + spec.q_t.saturating_sub(mix.anchor);
        let q = PdrQuery::new(spec.rho, spec.l, q_t);
        let truth = mix.measure_accuracy.then(|| self.ground_truth(&q));
        (q, truth)
    }

    /// One tick's query slice under `mix.clients` concurrent clients.
    ///
    /// Assignment is deterministic: client `c` takes the next
    /// `per_tick` queries off the shared mix cursor (ground truths are
    /// precomputed serially). The concurrent phase then runs one OS
    /// thread per client, each issuing its queries against the shared
    /// engine through `try_query(&self)` — the engines' shared-read
    /// contract — so nested intra-query parallelism lands on the same
    /// process-wide [`Executor`]. All bookkeeping, and the full fault
    /// policy for any request that errored concurrently, runs serially
    /// after the join; since retry/recovery mutates the engine it needs
    /// the exclusive path, and replaying in client order keeps counters
    /// and fault schedules deterministic.
    fn concurrent_query_slice(&mut self, mix: &QueryMix, now: Timestamp) {
        let mut assignments: Vec<Vec<(PdrQuery, Option<RegionSet>)>> =
            Vec::with_capacity(mix.clients);
        for _ in 0..mix.clients {
            let mut qs = Vec::with_capacity(mix.per_tick);
            for _ in 0..mix.per_tick {
                qs.push(self.next_query(mix, now));
            }
            assignments.push(qs);
        }
        let deadline = self.policy.deadline;
        let model = self.model;
        for ei in 0..self.engines.len() {
            type ClientRow = Vec<(Result<EngineAnswer, StorageError>, Duration)>;
            let rows: Vec<ClientRow> = {
                let engine = &*self.engines[ei].engine;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = assignments
                        .iter()
                        .map(|qs| {
                            scope.spawn(move || {
                                qs.iter()
                                    .map(|(q, _)| {
                                        let start = Instant::now();
                                        let r = engine.try_query(q);
                                        (r, start.elapsed())
                                    })
                                    .collect::<ClientRow>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread panicked"))
                        .collect()
                })
            };
            for (ci, row) in rows.into_iter().enumerate() {
                for (qi, (r, lat)) in row.into_iter().enumerate() {
                    let (q, truth) = &assignments[ci][qi];
                    let stats = &mut self.clients[ci];
                    stats.queries += 1;
                    stats.latency.record(lat);
                    if deadline.is_some_and(|d| lat > d) {
                        stats.deadline_misses += 1;
                    }
                    let a = match r {
                        Ok(a) => a,
                        Err(_) => {
                            let policy = self.policy;
                            let wal = self.journal.as_ref().map(|j| &j.wal);
                            serve_with_faults(&mut self.engines[ei], q, &policy, wal, &mut self.rng)
                        }
                    };
                    let s = &mut self.engines[ei];
                    s.load
                        .score
                        .record_cost(a.cpu.as_secs_f64() * 1e3, a.total_ms(&model), a.io);
                    s.latency.record(a.cpu);
                    if let Some(truth) = truth {
                        s.load.score.record_accuracy(accuracy(truth, &a.regions));
                    }
                }
            }
        }
    }

    fn report(&self, ticks: u64, updates: u64) -> ServeReport {
        let exec = Executor::global().obs_report();
        ServeReport {
            ticks,
            updates,
            tick_ingest: self.tick_ingest.snapshot(),
            tick_query: self.tick_query.snapshot(),
            clients: self
                .clients
                .iter()
                .enumerate()
                .map(|(i, c)| ClientLoad {
                    client: i,
                    queries: c.queries,
                    deadline_misses: c.deadline_misses,
                    latency: c.latency.snapshot(),
                })
                .collect(),
            pool_workers: Executor::global().workers(),
            exec,
            engines: self
                .engines
                .iter()
                .map(|s| {
                    let mut load = s.load.clone();
                    load.stats = s.engine.stats();
                    load.latency = s.latency.snapshot();
                    load.recovery_us = s.recovery.snapshot();
                    // `load.faults` already holds counters banked from
                    // devices replaced by recovery; add the live one.
                    load.faults += s.engine.fault_stats();
                    load.obs = s.engine.obs();
                    load.shards = s.engine.shard_metrics_json();
                    load
                })
                .collect(),
        }
    }
}

/// Sleeps the policy's seeded jittered exponential backoff before
/// retry `attempt`.
pub(crate) fn backoff(policy: &FaultPolicy, attempt: u32, rng: &mut SeededRng) {
    let d = backoff_delay(policy.backoff_base_us, policy.backoff_cap_us, attempt, rng);
    std::thread::sleep(d);
}

/// Restores `s` from its latest checkpoint and replays the WAL tail,
/// banking the failed device's fault counters first (the restore
/// replaces the device, and its counters with it). Returns `false`
/// when the engine has no checkpoint or the checkpoint fails to
/// verify; the recovery counter and time histogram record successes.
fn recover_engine(s: &mut Served, wal: &Wal) -> bool {
    let Some((offset, bytes)) = s.checkpoint.clone() else {
        return false;
    };
    let rec_start = Instant::now();
    s.load.faults += s.engine.fault_stats();
    if s.engine.restore_from(&bytes).is_err() {
        return false;
    }
    let tail = replay(&wal.bytes()[offset..]).expect("in-memory WAL cannot tear");
    for r in &tail.records {
        match r {
            WalRecord::Advance(t) => s.engine.advance_to(*t),
            WalRecord::Batch(b) => s.engine.apply_batch(b),
        }
    }
    s.load.recoveries += 1;
    s.recovery.record(rec_start.elapsed());
    true
}

/// Runs one ingest mutation, treating an engine panic as a simulated
/// crash. The ingest path reads through the infallible pool API, so an
/// injected fault surfaces as a panic mid-mutation; the WAL record for
/// the mutation was appended *before* it ran, so restoring the
/// checkpoint and replaying the tail lands the engine exactly where a
/// clean apply would have. Without a journal (or without a checkpoint)
/// the panic propagates unchanged. The caught engine may hold broken
/// invariants, but recovery discards its entire state, so none can be
/// observed — which is what makes the `AssertUnwindSafe` sound.
fn ingest_or_recover(
    s: &mut Served,
    wal: Option<&Wal>,
    apply: impl FnOnce(&mut dyn DensityEngine),
) {
    if s.degraded_mode {
        return;
    }
    let before = s.engine.fault_stats();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        apply(s.engine.as_mut());
    }));
    if let Err(payload) = outcome {
        if s.engine.fault_stats() == before {
            // Not our injection: a genuine bug must stay loud.
            std::panic::resume_unwind(payload);
        }
        if !wal.is_some_and(|w| recover_engine(s, w)) {
            // Fault-caused but unrecoverable (no journal, or the
            // checkpoint failed to verify): take the engine offline and
            // keep serving degraded instead of dropping the tick.
            s.degraded_mode = true;
        }
    }
}

/// Answers the query by the degraded path, or fails it: a filter-only
/// superset answer when the engine has one, an empty region otherwise.
fn degrade(s: &mut Served, q: &PdrQuery) -> EngineAnswer {
    match s.engine.degraded_query(q) {
        Some(a) => {
            s.load.degraded_queries += 1;
            a
        }
        None => {
            s.load.failed_queries += 1;
            EngineAnswer {
                regions: RegionSet::new(),
                cpu: Duration::ZERO,
                io: IoStats::default(),
                exact: false,
            }
        }
    }
}

/// One query under the fault policy: retry transient faults with
/// backoff, recover from detected corruption via checkpoint + WAL tail
/// (once per query), degrade otherwise — all bounded by the deadline.
fn serve_with_faults(
    s: &mut Served,
    q: &PdrQuery,
    policy: &FaultPolicy,
    wal: Option<&Wal>,
    rng: &mut SeededRng,
) -> EngineAnswer {
    if s.degraded_mode {
        return degrade(s, q);
    }
    let start = Instant::now();
    let mut attempts = 1u32;
    let mut recovered = false;
    loop {
        let err = match s.engine.try_query(q) {
            Ok(a) => return a,
            Err(e) => e,
        };
        if policy.deadline.is_some_and(|d| start.elapsed() >= d) {
            s.load.deadline_misses += 1;
            return degrade(s, q);
        }
        if err.is_transient() && attempts < policy.max_attempts {
            attempts += 1;
            s.load.retries += 1;
            backoff(policy, attempts, rng);
            continue;
        }
        if err.is_corruption() && !recovered {
            // Corruption is repairable by rewriting the data; a device
            // refusing reads is not — those degrade below. The restored
            // index lives on a fresh simulated device, so the fault
            // plan (a schedule for the *failed* device) is gone.
            if wal.is_some_and(|w| recover_engine(s, w)) {
                recovered = true;
                continue;
            }
        }
        if !err.is_transient() {
            // A device refusing service permanently (or corruption
            // with no checkpoint to restore) won't heal between
            // queries: go offline-degraded instead of re-probing it.
            s.degraded_mode = true;
        }
        return degrade(s, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkConfig, RoadNetwork};
    use pdr_core::{EngineAnswer, EngineSpec, FrConfig, PaConfig};
    use pdr_mobject::{TimeHorizon, Update};
    use std::time::Duration;

    fn driver(n: usize) -> ServeDriver {
        let net = RoadNetwork::generate(
            &NetworkConfig {
                extent: 200.0,
                nodes: 150,
                hotspots: 3,
                spread: 0.05,
                background: 0.2,
                degree: 3,
            },
            13,
        );
        let sim = TrafficSimulator::new(net, n, 17, 4, 0);
        let horizon = TimeHorizon::new(4, 4);
        let fr = FrConfig {
            extent: 200.0,
            m: 40,
            horizon,
            buffer_pages: 64,
            threads: 1,
        };
        let pa = PaConfig {
            extent: 200.0,
            g: 5,
            degree: 4,
            l: 20.0,
            horizon,
            m_d: 100,
        };
        ServeDriver::new(sim, CostModel::PAPER_DEFAULT)
            .with_engine("fr", EngineSpec::Fr(fr).build(0))
            .with_engine("pa", EngineSpec::Pa(pa).build(0))
    }

    fn mix() -> QueryMix {
        let specs: Vec<QuerySpec> = (0..4)
            .map(|i| QuerySpec {
                rho: 6.0 / 400.0,
                varrho: 1.0,
                l: 20.0,
                q_t: i % 4,
            })
            .collect();
        QueryMix::new(specs, 0, 2)
    }

    #[test]
    fn serve_loop_feeds_every_engine_identically() {
        let mut d = driver(300);
        d.bootstrap();
        let report = d.run(5, &mix());
        assert_eq!(report.ticks, 5);
        assert!(report.updates > 0, "5 ticks with U=4 must emit reports");
        assert_eq!(report.engines.len(), 2);
        let expected_updates = 300 + report.updates;
        for load in &report.engines {
            assert_eq!(
                load.stats.updates_applied, expected_updates,
                "{}: every engine must see bootstrap + all tick updates",
                load.label
            );
            assert_eq!(load.stats.missed_deletes, 0, "{}", load.label);
            assert_eq!(load.score.queries, 10, "{}", load.label);
            assert!(load.ingest_ms >= 0.0 && load.score.total_ms >= 0.0);
        }
        assert_eq!(report.engines[0].engine, "fr");
        assert_eq!(report.engines[1].engine, "pa");
    }

    /// `clients = n` with `per_tick = p` issues exactly the queries a
    /// single client with `per_tick = n*p` would, in cursor order, and
    /// the accuracy rollups must come out bit-identical — the
    /// concurrent phase only moves `try_query` onto client threads.
    #[test]
    fn concurrent_clients_score_identically_to_one_client() {
        let run = |clients: usize, per_tick: usize| {
            let mut d = driver(300);
            d.bootstrap();
            let m = QueryMix::new(mix().specs().to_vec(), 0, per_tick)
                .with_accuracy()
                .with_clients(clients);
            d.run(3, &m)
        };
        let conc = run(3, 2);
        let serial = run(1, 6);
        assert_eq!(conc.clients.len(), 3);
        for (i, c) in conc.clients.iter().enumerate() {
            assert_eq!(c.client, i);
            // ticks * per_tick * engines requests per client.
            assert_eq!(c.queries, 3 * 2 * 2, "client {i}");
            assert_eq!(c.latency.count, c.queries);
        }
        assert!(
            serial.clients.is_empty(),
            "single-client runs keep the serial slice and report no per-client load"
        );
        for (a, b) in conc.engines.iter().zip(&serial.engines) {
            assert_eq!(a.score.queries, b.score.queries, "{}", a.label);
            assert_eq!(a.score.scored, b.score.scored, "{}", a.label);
            assert_eq!(
                a.score.unbounded_r_fp, b.score.unbounded_r_fp,
                "{}",
                a.label
            );
            assert_eq!(
                a.mean_r_fp().to_bits(),
                b.mean_r_fp().to_bits(),
                "{}: concurrent clients must not change any answer",
                a.label
            );
            assert_eq!(
                a.mean_r_fn().to_bits(),
                b.mean_r_fn().to_bits(),
                "{}",
                a.label
            );
            assert_eq!(a.failed_queries, 0, "{}", a.label);
        }
        let json = conc.to_json();
        for key in [
            "\"clients\":[",
            "\"pool_workers\":",
            "\"exec\":{",
            "\"deadline_misses\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn accuracy_scoring_favors_the_exact_engine() {
        let mut d = driver(400);
        d.bootstrap();
        let report = d.run(3, &mix().with_accuracy());
        let fr = &report.engines[0];
        let pa = &report.engines[1];
        assert_eq!(fr.score.scored, 6);
        assert_eq!(pa.score.scored, 6);
        // FR is exact: both error ratios are (numerically) zero.
        assert!(
            fr.mean_r_fp() < 1e-9 && fr.mean_r_fn() < 1e-9,
            "FR must match ground truth exactly (r_fp {}, r_fn {})",
            fr.mean_r_fp(),
            fr.mean_r_fn()
        );
        // PA is approximate: finite, typically nonzero error.
        assert!(pa.mean_r_fp().is_finite() && pa.mean_r_fn().is_finite());
    }

    #[test]
    fn query_all_preserves_registration_order_and_truth_is_exact() {
        let mut d = driver(200);
        d.bootstrap();
        d.tick();
        let q = PdrQuery::new(6.0 / 400.0, 20.0, d.simulator().t_now());
        let truth = d.ground_truth(&q);
        let answers = d.query_all(&q, Some(&truth));
        assert_eq!(answers.len(), 2);
        // FR (registered first) equals the ground truth region.
        assert!(answers[0].symmetric_difference_area(&truth) < 1e-9);
    }

    /// A deterministic engine that always reports one fixed rectangle,
    /// so the empty-truth / nonempty-report case is exercised without
    /// depending on an approximate engine's numerical wiggle.
    struct StubEngine {
        rect: Rect,
        updates: u64,
    }

    impl DensityEngine for StubEngine {
        fn name(&self) -> &'static str {
            "stub"
        }
        fn apply_batch(&mut self, updates: &[Update]) {
            self.updates += updates.len() as u64;
        }
        fn advance_to(&mut self, _t_now: Timestamp) {}
        fn query(&self, _q: &PdrQuery) -> EngineAnswer {
            EngineAnswer {
                regions: RegionSet::from_rects([self.rect]),
                cpu: Duration::from_micros(1),
                io: IoStats::default(),
                exact: false,
            }
        }
        fn stats(&self) -> EngineStats {
            EngineStats {
                updates_applied: self.updates,
                ..EngineStats::default()
            }
        }
    }

    /// Regression: a scored query with empty ground truth and a
    /// nonempty report has `r_fp = +∞`. The serve loop used to add it
    /// straight into `r_fp_sum`, turning every subsequent `mean_r_fp`
    /// into +∞ for the rest of the run. It must instead be counted in
    /// `unbounded_r_fp` and excluded from the (finite) mean.
    #[test]
    fn empty_truth_queries_do_not_poison_mean_r_fp() {
        let net = RoadNetwork::generate(&NetworkConfig::metro(200.0), 5);
        let sim = TrafficSimulator::new(net, 50, 23, 4, 0);
        let mut d = ServeDriver::new(sim, CostModel::PAPER_DEFAULT)
            .with_engine(
                "stub",
                Box::new(StubEngine {
                    rect: Rect::new(10.0, 10.0, 30.0, 30.0),
                    updates: 0,
                }),
            )
            .with_engine(
                "fr",
                EngineSpec::Fr(FrConfig {
                    extent: 200.0,
                    m: 40,
                    horizon: TimeHorizon::new(4, 4),
                    buffer_pages: 64,
                    threads: 1,
                })
                .build(0),
            );
        d.bootstrap();
        // ρ = 10 objects per unit² is unreachable with 50 objects on a
        // 200×200 plane: ground truth is empty at every query.
        let specs = vec![QuerySpec {
            rho: 10.0,
            varrho: 1.0,
            l: 20.0,
            q_t: 0,
        }];
        let report = d.run(4, &QueryMix::new(specs, 0, 2).with_accuracy());
        let stub = &report.engines[0];
        assert_eq!(stub.score.scored, 8);
        assert_eq!(
            stub.score.unbounded_r_fp, 8,
            "every scored stub query has empty truth + nonempty report"
        );
        assert_eq!(
            stub.score.r_fp_sum, 0.0,
            "unbounded ratios must not be summed"
        );
        assert!(
            stub.mean_r_fp().is_finite(),
            "mean_r_fp poisoned: {}",
            stub.mean_r_fp()
        );
        // FR reports empty for an empty truth: bounded, exact, zero.
        let fr = &report.engines[1];
        assert_eq!(fr.score.unbounded_r_fp, 0);
        assert!(fr.mean_r_fp().is_finite() && fr.mean_r_fp() < 1e-9);
        // The JSON report carries the unbounded count per engine.
        let json = report.to_json();
        assert!(json.contains("\"unbounded_r_fp\":8"));
        assert!(!json.contains("inf"), "JSON must stay parseable: {json}");
    }

    #[test]
    fn report_json_exposes_stage_timings_and_quantiles() {
        let mut d = driver(300);
        d.bootstrap();
        let report = d.run(4, &mix().with_accuracy());
        // Engine-level instrumentation made it into the report...
        let fr = &report.engines[0];
        assert_eq!(fr.latency.count, 8, "one latency sample per query");
        assert!(fr.obs.counter("queries") == Some(8));
        assert!(fr.obs.stage("classify").is_some());
        assert_eq!(fr.stats.queries_served, 8);
        let pa = &report.engines[1];
        assert!(
            pa.obs.counter("bnb_expanded").unwrap() > 0,
            "PA must report branch-and-bound node counts"
        );
        assert_eq!(report.tick_ingest.count, 4, "one ingest sample per tick");
        assert_eq!(report.tick_query.count, 4);
        // ...and the JSON schema carries every required key.
        let json = report.to_json();
        for key in [
            "\"ticks\":4",
            "\"engines\":[",
            "\"tick_ingest_us\":",
            "\"tick_query_us\":",
            "\"latency_us\":",
            "\"p99_us\":",
            "\"unbounded_r_fp\":",
            "\"classify\":",
            "\"bnb_expanded\":",
            "\"queries_served\":",
            "\"physical_ios\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("inf") && !json.contains("NaN"));
    }

    #[test]
    fn default_deadline_scales_with_available_parallelism() {
        let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
        let expected = if ncpu >= 8 {
            Duration::from_millis(250)
        } else if ncpu == 1 {
            Duration::from_secs(5)
        } else {
            Duration::from_millis(250 * 8 / ncpu as u64)
        };
        assert_eq!(default_deadline(), expected);
        assert_eq!(FaultPolicy::default().deadline, Some(expected));
        assert!(
            default_deadline() >= Duration::from_millis(250),
            "scaling must never tighten the 8-core budget"
        );
    }

    /// The subscription mix end to end: standing queries registered on
    /// every engine, maintained incrementally through
    /// `apply_batch_with_deltas`, churned, delta-replayed into mirrors,
    /// and verified against from-scratch queries every tick — with zero
    /// divergence.
    #[test]
    fn subscription_mix_maintains_exact_answers_through_churn() {
        let mut d = driver(300);
        d.bootstrap();
        let m = QueryMix::new(mix().specs().to_vec(), 0, 1).with_subscriptions(3, 2, true);
        let report = d.run(6, &m);
        for load in &report.engines {
            assert_eq!(load.subs, 3, "{}: churn must keep the count", load.label);
            assert!(
                load.sub_checks > 0,
                "{}: every tick checks every live subscription",
                load.label
            );
            assert_eq!(
                load.sub_divergence, 0,
                "{}: delta-maintained answers must be bit-identical to \
                 from-scratch queries",
                load.label
            );
            assert!(
                load.sub_deltas > 0,
                "{}: a churning mix over live traffic must emit deltas",
                load.label
            );
        }
        // FR's incremental path reports its dirty-cell counters.
        let fr = &report.engines[0];
        assert!(
            fr.obs.counter("deltas_emitted").unwrap_or(0) > 0,
            "FR must count emitted deltas"
        );
        let json = report.to_json();
        for key in [
            "\"subs\":3",
            "\"sub_deltas\":",
            "\"sub_checks\":",
            "\"sub_divergence\":0",
            "\"dirty_cells\":",
            "\"sub_latency\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate engine label")]
    fn duplicate_labels_are_rejected() {
        let net = RoadNetwork::generate(&NetworkConfig::metro(100.0), 1);
        let sim = TrafficSimulator::new(net, 10, 1, 4, 0);
        let horizon = TimeHorizon::new(2, 2);
        let cfg = FrConfig {
            extent: 100.0,
            m: 20,
            horizon,
            buffer_pages: 16,
            threads: 1,
        };
        let _ = ServeDriver::new(sim, CostModel::PAPER_DEFAULT)
            .with_engine("fr", EngineSpec::Fr(cfg).build(0))
            .with_engine("fr", EngineSpec::Fr(cfg).build(0));
    }

    /// FR-only driver on a tiny 4-page buffer pool, so queries do real
    /// physical I/O. Fault plans only fire on physical reads and
    /// write-backs; a pool that fits the working set never faults.
    fn faulty_driver(n: usize) -> ServeDriver {
        let net = RoadNetwork::generate(&NetworkConfig::metro(200.0), 29);
        let sim = TrafficSimulator::new(net, n, 31, 4, 0);
        let fr = FrConfig {
            extent: 200.0,
            m: 40,
            horizon: TimeHorizon::new(4, 4),
            buffer_pages: 4,
            threads: 1,
        };
        ServeDriver::new(sim, CostModel::PAPER_DEFAULT)
            .with_engine("fr", EngineSpec::Fr(fr).build(0))
    }

    #[test]
    fn transient_read_faults_are_retried_to_an_exact_answer() {
        let mut d = faulty_driver(800);
        d.bootstrap();
        d.tick();
        d.tick();
        assert!(d.install_fault_plan("fr", FaultPlan::new(7).with_read_fault(1, 2)));
        let q = PdrQuery::new(6.0 / 400.0, 20.0, d.simulator().t_now());
        let truth = d.ground_truth(&q);
        let answers = d.query_all(&q, None);
        let load = &d.engines[0].load;
        assert!(load.retries >= 1, "transient faults must be retried");
        assert_eq!(load.degraded_queries, 0);
        assert_eq!(load.failed_queries, 0);
        assert!(d.engines[0].engine.fault_stats().read_faults >= 1);
        assert!(
            answers[0].symmetric_difference_area(&truth) < 1e-9,
            "a retried query must still be exact"
        );
    }

    #[test]
    fn persistent_read_faults_degrade_to_a_filter_only_answer() {
        let mut d = faulty_driver(800);
        d.bootstrap();
        d.tick();
        assert!(d.install_fault_plan("fr", FaultPlan::new(7).with_permanent_read_fault(1)));
        let q = PdrQuery::new(6.0 / 400.0, 20.0, d.simulator().t_now());
        let answers = d.query_all(&q, None);
        let load = &d.engines[0].load;
        assert!(
            load.degraded_queries >= 1,
            "a persistent fault must degrade, not panic or hang"
        );
        assert_eq!(load.failed_queries, 0, "FR has a DH filter-only fallback");
        // The degraded answer is the DH optimistic superset — possibly
        // empty, never a crash.
        assert_eq!(answers.len(), 1);
        // Every fault-plane key makes it into the metrics JSON.
        let json = d.run(0, &mix()).to_json();
        for key in [
            "\"retries\":",
            "\"recoveries\":",
            "\"degraded_queries\":",
            "\"failed_queries\":",
            "\"deadline_misses\":",
            "\"faults\":",
            "\"read_faults\":",
            "\"faults_injected\":",
            "\"recovery_us\":",
            "\"rejected_updates\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn torn_write_corruption_triggers_checkpoint_recovery() {
        let mut d = faulty_driver(800);
        d.bootstrap();
        d.enable_journal(1);
        d.tick();
        d.tick();
        assert!(d.install_fault_plan("fr", FaultPlan::new(7).with_torn_write(1, None)));
        // Queries page the tree through the tiny pool: a dirty eviction
        // writes back, the write is torn, and a later read of that page
        // fails its checksum. The serve loop must restore the latest
        // checkpoint, replay the WAL tail, and still answer exactly.
        let q = PdrQuery::new(6.0 / 400.0, 20.0, d.simulator().t_now());
        let mut recovered = false;
        for _ in 0..50 {
            let truth = d.ground_truth(&q);
            let answers = d.query_all(&q, None);
            assert!(
                answers[0].symmetric_difference_area(&truth) < 1e-9,
                "answers must stay exact through the recovery"
            );
            if d.engines[0].load.recoveries > 0 {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "the torn write never surfaced as a recovery");
        let load = &d.engines[0].load;
        assert_eq!(load.degraded_queries, 0, "recovery must beat degradation");
        assert_eq!(load.failed_queries, 0);
        assert!(d.engines[0].recovery.snapshot().count >= 1);
        // The failed device's counters were banked before recovery
        // replaced it, so the report still shows what went wrong.
        let mut faults = d.engines[0].load.faults;
        faults += d.engines[0].engine.fault_stats();
        assert!(faults.crc_failures >= 1);
        assert!(faults.torn_writes >= 1);
    }

    #[test]
    fn ingest_crash_under_permanent_faults_recovers_from_the_journal() {
        let mut d = faulty_driver(800);
        d.bootstrap();
        d.enable_journal(1);
        d.tick();
        assert!(d.install_fault_plan("fr", FaultPlan::new(7).with_permanent_read_fault(1)));
        // Ingest reads through the infallible pool API, so the fault
        // surfaces as a panic mid-mutation — a simulated crash. The WAL
        // record was appended before the mutation ran, so the driver
        // must recover to exactly the state a clean apply would reach.
        let n = d.tick();
        assert!(n > 0, "the tick itself must still make progress");
        assert!(
            d.engines[0].load.recoveries >= 1,
            "the crashed ingest must recover from checkpoint + WAL"
        );
        // The restored engine is on a fresh device (no fault plan):
        // serving continues exactly.
        let q = PdrQuery::new(6.0 / 400.0, 20.0, d.simulator().t_now());
        let truth = d.ground_truth(&q);
        let answers = d.query_all(&q, None);
        assert!(answers[0].symmetric_difference_area(&truth) < 1e-9);
        assert_eq!(d.engines[0].load.degraded_queries, 0);
    }
}
