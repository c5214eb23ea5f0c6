//! Pointwise-dense region (PDR) queries over moving objects.
//!
//! This crate implements the primary contribution of Ni & Ravishankar,
//! *"Pointwise-Dense Region Queries in Spatio-temporal Databases"*
//! (ICDE 2007): given moving objects, a neighborhood edge length `l`, a
//! density threshold `ρ` and a timestamp `q_t`, return **all** points
//! whose `l`-square neighborhood contains at least `ρ·l²` objects at
//! `q_t` — as a union of rectangles of arbitrary shape and size.
//!
//! Two query engines are provided:
//!
//! * [`FrEngine`] — the exact *filtering–refinement* method (Section 5):
//!   a per-timestamp [density histogram](pdr_histogram::DensityHistogram)
//!   classifies grid cells into accepts / rejects / candidates using
//!   conservative and expansive neighborhoods ([`classify_cells`]); each
//!   candidate cell is refined with a TPR-tree range query and the
//!   two-level plane sweep of Algorithms 2–3 ([`refine_region`]).
//! * [`PaEngine`] — the approximate method (Section 6): the density
//!   surface is maintained as per-timestamp grids of 2-D Chebyshev
//!   polynomials, updated in closed form per object update, and queried
//!   by branch-and-bound on polynomial bounds.
//!
//! Supporting APIs reproduce everything the paper's evaluation needs:
//! stand-alone optimistic/pessimistic DH answers ([`dh_optimistic`] /
//! [`dh_pessimistic`]), the
//! prior-work baselines the introduction criticizes ([`baselines`]),
//! the `r_fp` / `r_fn` accuracy metrics ([`accuracy`]), and an exact
//! brute-force reference ([`ExactOracle`]).
//!
//! # Architecture: the engine plane
//!
//! All methods sit behind one trait, [`DensityEngine`], which fixes the
//! ingest/query contract for the whole system:
//!
//! ```text
//!              reports                 protocol updates
//!   clients ───────────► ObjectTable ─────────────────► ServeDriver
//!                                                            │ apply_batch(&mut) / advance_to(&mut)
//!                        ┌───────────────┬─────────────┬─────┴────────┬──────────────┐
//!                        ▼               ▼             ▼              ▼              ▼
//!                    FrEngine        PaEngine     ExactOracle    DhEngine     baselines
//!                        ▲               ▲             ▲              ▲              ▲
//!                        └───────────────┴─────────────┴──────────────┴──────────────┘
//!                                       query(&self) → EngineAnswer
//! ```
//!
//! * **Writes are exclusive.** [`DensityEngine::apply_batch`] and
//!   [`DensityEngine::advance_to`] take `&mut self`; a batch is fully
//!   applied before any query can run.
//! * **Reads are shared.** [`DensityEngine::query`] takes `&self` and
//!   every engine is `Sync`, so one engine instance serves any number
//!   of concurrent query threads between batches. The FR engine keeps
//!   its per-timestamp classification cache behind a `RwLock` keyed by
//!   the histogram epoch (double-checked locking), so concurrent
//!   readers get bit-identical answers and each distinct
//!   `(timestamp, ρ, l)` is classified at most once.
//! * **Construction is declarative.** [`EngineSpec`] builds any engine
//!   as a `Box<dyn DensityEngine>`; the serve driver in `pdr-workload`
//!   owns a traffic simulator and pumps each tick's updates into every
//!   boxed engine, then runs a query mix — the CLI, benches and
//!   experiments all ride that one driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod colcodec;
mod dh_answers;
mod engine;
mod exact;
pub mod exec;
mod filter;
mod fr;
mod index;
mod metrics;
pub mod obs;
mod pa;
mod query;
mod replica;
mod shard;
pub mod sub;
mod sweep;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_rng;
mod wal;

pub use dh_answers::{dh_optimistic, dh_pessimistic};
pub use engine::{
    DenseCellEngine, DensityEngine, DhEngine, DhMode, EdqEngine, EngineAnswer, EngineSpec,
    EngineSpecError, EngineStats,
};
pub use exact::{exact_dense_regions, point_density, ExactOracle};
pub use exec::Executor;
pub use filter::{classify_cells, CellClass, Classification};
pub use fr::{FrAnswer, FrCacheCounters, FrConfig, FrEngine, INTERVAL_COALESCE_EVERY};
pub use index::RangeIndex;
pub use metrics::{accuracy, Accuracy, Scoreboard};
pub use obs::{Counter, Histogram, HistogramSnapshot, ObsReport, StageTimer};
pub use pa::{PaAnswer, PaConfig, PaEngine};
pub use query::{DenseThreshold, PdrQuery};
pub use replica::{IngestReport, Replica};
pub use shard::{
    LogShipment, PartLeaf, Partition, RebalanceReport, ShardMap, ShardedEngine, ShippedSegment,
    SplitPolicy, TailSummary, TopologyError,
};
pub use sub::{
    diff_canonical, AnswerDelta, QtPolicy, SubError, SubId, Subscription, SubscriptionTable,
};
pub use sweep::{refine_region, refine_region_set};
pub use wal::{
    encode_segment_header, open_checkpoint, record_boundaries, replay, replay_any, seal_checkpoint,
    segment_name, RecoverError, SegmentHeader, SegmentInfo, Wal, WalCodec, WalRecord, WalReplay,
    LEGACY_JOURNAL_NAME, SEGMENT_HEADER_LEN,
};

// Fault-injection surface of the storage plane, re-exported so engine
// users need not depend on `pdr-storage` directly.
pub use pdr_storage::{FaultPlan, FaultStats, PlanError, StorageError};
