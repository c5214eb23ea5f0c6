//! The shared-nothing sharded engine plane.
//!
//! The PDR machinery is embarrassingly partitionable in space: a point
//! `p` is ρ-dense from objects within `l/2` of `p` (plus one structure
//! cell of classification slack), so a shard that *owns* a sub-rectangle
//! of the domain can answer exactly for every owned point as long as it
//! also sees the **ghost objects** within a halo of its cut lines.
//!
//! * [`ShardMap`] — a regular `Sx × Sy` partition of the domain. Each
//!   shard owns one sub-rectangle (edge shards own out to infinity, so
//!   the owned rectangles tile the whole plane) and ingests everything
//!   whose trajectory passes within `halo` of it.
//! * [`ShardedEngine`] — implements [`DensityEngine`] over a vector of
//!   inner engines, one per shard, each with its own buffer pool, WAL
//!   segment, checkpoint, and fault scope:
//!   - `apply_batch` screens once at the router, then routes each
//!     update by [`Update::routing_bbox`] to its owner shard **and**
//!     every shard whose halo the trajectory crosses (one routing pass
//!     computes the complete target set, so an object crossing a cut is
//!     delivered at most once per shard);
//!   - `query`/`interval_query` fan out across a scoped worker pool,
//!     clip every per-shard answer to the shard's owned rectangle, and
//!     merge through [`RegionSet::union_disjoint_clipped`] — because
//!     the merge canonicalizes, the answer is a **bit-identical**
//!     rectangle list to `canonicalize(unsharded answer)` at any shard
//!     count (boundary-sweep tested for FR and PA);
//!   - crash recovery is *shard-local*: a corrupted shard restores its
//!     own checkpoint and replays its own WAL segment; a shard that
//!     stays broken is stickily degraded and serves its sub-domain with
//!     the inner engine's filter-only answer while every other shard
//!     keeps serving exactly.
//!
//! # Exactness invariant
//!
//! With halo `≥ l/2 + 2 · pitch` (pitch = the inner engine's structure
//! cell edge), any structure cell intersecting the owned rectangle has
//! bit-identical contents on the shard and on an unsharded engine:
//! objects that can contribute to such a cell lie within
//! `l/2 + pitch` of the owned rectangle plus one cell of overhang, all
//! inside the ingest region. FR classification is integer counting and
//! PA tile sums add the identical contribution subsequence in the
//! identical order (unrouted updates touch no relevant tile at all), so
//! the per-shard answer restricted to the owned rectangle equals the
//! unsharded answer restricted to it *as a point set* — and the
//! canonicalizing merge turns point-set equality into rectangle-list
//! equality.

use crate::engine::{DensityEngine, EngineAnswer, EngineStats};
use crate::exec::Executor;
use crate::obs::ObsReport;
use crate::sub::{AnswerDelta, QtPolicy, SubError, SubId, Subscription, SubscriptionTable};
use crate::wal::{
    open_checkpoint, replay, seal_checkpoint, segment_name, RecoverError, SegmentHeader, Wal,
    WalCodec, WalRecord, SEGMENT_HEADER_LEN,
};
use crate::PdrQuery;
use pdr_geometry::{Rect, RegionSet};
use pdr_mobject::{screen_batch, MotionState, ObjectId, TimeHorizon, Timestamp, Update};
use pdr_storage::{crc32, ByteReader, ByteWriter, FaultPlan, FaultStats, IoStats, StorageError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Tag at the head of a composed plane checkpoint: distinguishes the
/// adaptive container (partition + router table + per-leaf payloads)
/// from anything else `open_checkpoint` might hand back.
const ADAPTIVE_CHECKPOINT_MAGIC: u32 = 0xADA7_71C5;

/// A regular `Sx × Sy` spatial partition of the monitored domain with a
/// halo of ghost coverage around every cut line.
///
/// Interior cuts replicate the grid arithmetic of the engine structures
/// (`lo + k * (extent / s)`), though exactness does not depend on cut
/// alignment — the merge canonicalizes. Edge shards own out to
/// ±infinity so that engine answers slightly overhanging the nominal
/// domain (grid arithmetic may round the last cell past `extent`) are
/// never lost to clipping.
#[derive(Clone, Copy, Debug)]
pub struct ShardMap {
    bounds: Rect,
    sx: u32,
    sy: u32,
    halo: f64,
}

impl ShardMap {
    /// Creates a map of `sx × sy` shards over `bounds` with ghost
    /// coverage `halo` around every cut.
    ///
    /// # Panics
    ///
    /// Panics when a shard axis is zero or the halo is not a finite
    /// non-negative width.
    pub fn new(bounds: Rect, sx: u32, sy: u32, halo: f64) -> Self {
        assert!(sx >= 1 && sy >= 1, "shard grid must be at least 1x1");
        assert!(
            halo.is_finite() && halo >= 0.0,
            "halo must be finite and non-negative, got {halo}"
        );
        ShardMap {
            bounds,
            sx,
            sy,
            halo,
        }
    }

    /// Total number of shards.
    pub fn shards(&self) -> usize {
        (self.sx as usize) * (self.sy as usize)
    }

    /// Shards per side, `(sx, sy)`.
    pub fn grid(&self) -> (u32, u32) {
        (self.sx, self.sy)
    }

    /// The halo width around every cut line.
    pub fn halo(&self) -> f64 {
        self.halo
    }

    /// The nominal (finite) domain the map partitions.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    fn cut_x(&self, k: u32) -> f64 {
        self.bounds.x_lo + k as f64 * (self.bounds.width() / self.sx as f64)
    }

    fn cut_y(&self, k: u32) -> f64 {
        self.bounds.y_lo + k as f64 * (self.bounds.height() / self.sy as f64)
    }

    /// The finite tile of shard `i` (row-major: `i = row * sx + col`),
    /// for display and metrics.
    pub fn tile(&self, i: usize) -> Rect {
        let (col, row) = (i as u32 % self.sx, i as u32 / self.sx);
        Rect::new(
            self.cut_x(col),
            self.cut_y(row),
            if col + 1 == self.sx {
                self.bounds.x_hi
            } else {
                self.cut_x(col + 1)
            },
            if row + 1 == self.sy {
                self.bounds.y_hi
            } else {
                self.cut_y(row + 1)
            },
        )
    }

    /// The rectangle shard `i` *owns* — its tile with outer edges
    /// extended to ±infinity, so the owned rectangles of all shards
    /// tile the entire plane. Per-shard answers are clipped to this.
    pub fn owned(&self, i: usize) -> Rect {
        let (col, row) = (i as u32 % self.sx, i as u32 / self.sx);
        Rect::new(
            if col == 0 {
                f64::NEG_INFINITY
            } else {
                self.cut_x(col)
            },
            if row == 0 {
                f64::NEG_INFINITY
            } else {
                self.cut_y(row)
            },
            if col + 1 == self.sx {
                f64::INFINITY
            } else {
                self.cut_x(col + 1)
            },
            if row + 1 == self.sy {
                f64::INFINITY
            } else {
                self.cut_y(row + 1)
            },
        )
    }

    /// The region shard `i` ingests: its owned rectangle inflated by
    /// the halo. An update is routed to shard `i` iff its
    /// [`Update::routing_bbox`] intersects this (closed semantics —
    /// touching the halo edge still routes, a superset of what
    /// exactness needs).
    pub fn ingest_region(&self, i: usize) -> Rect {
        self.owned(i).inflate(self.halo)
    }

    /// Indices of every shard whose ingest region intersects `bbox`.
    pub fn route(&self, bbox: &Rect) -> impl Iterator<Item = usize> + '_ {
        let bbox = *bbox;
        (0..self.shards()).filter(move |&i| self.ingest_region(i).intersects(&bbox))
    }
}

/// One leaf of an adaptive [`Partition`]: a finite tile with a stable
/// shard id and the ancestry of tiles it was split out of.
#[derive(Clone, Debug, PartialEq)]
pub struct PartLeaf {
    /// Stable shard id — assigned once, never reused. WAL segments and
    /// log shipments are keyed by this, so a shard's identity survives
    /// renumbering when neighbors split or merge.
    pub id: u32,
    /// The finite tile this leaf covers.
    pub tile: Rect,
    /// Ancestor tiles, root grid cell first, immediate parent last
    /// (`depth == path.len()`). Four leaves sharing the same last path
    /// entry are merge siblings; merging pops it.
    pub path: Vec<Rect>,
}

impl PartLeaf {
    /// How many splits below the root grid this leaf sits.
    pub fn depth(&self) -> u32 {
        self.path.len() as u32
    }

    /// The tile of the split this leaf came out of, if any.
    pub fn parent_tile(&self) -> Option<&Rect> {
        self.path.last()
    }
}

/// Bitwise rect identity — the sibling-grouping key (tiles are exact
/// midpoint fractions of their parent, so equality is reliable).
fn rect_bits(r: &Rect) -> (u64, u64, u64, u64) {
    (
        r.x_lo.to_bits(),
        r.y_lo.to_bits(),
        r.x_hi.to_bits(),
        r.y_hi.to_bits(),
    )
}

/// An adaptive spatial partition: a grid of root tiles, each
/// recursively splittable into quadrants and re-mergeable, behind the
/// same routing/halo/owned-rect contract as [`ShardMap`].
///
/// A partition built by [`from_grid`](Partition::from_grid) produces
/// bit-identical `tile`/`owned`/`ingest_region`/`route` results to the
/// `ShardMap` it mirrors, so a never-split adaptive plane behaves
/// exactly like the fixed grid it replaced. `epoch` increments on every
/// topology change; log shipments carry it so replicas re-bootstrap
/// instead of misapplying offsets cut under another topology.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    bounds: Rect,
    halo: f64,
    epoch: u64,
    next_id: u32,
    leaves: Vec<PartLeaf>,
}

impl Partition {
    /// Mirrors a fixed [`ShardMap`]: one root leaf per grid cell, in
    /// the map's row-major order, with stable ids `0..n`.
    pub fn from_grid(map: &ShardMap) -> Self {
        let n = map.shards();
        Partition {
            bounds: map.bounds(),
            halo: map.halo(),
            epoch: 0,
            next_id: n as u32,
            leaves: (0..n)
                .map(|i| PartLeaf {
                    id: i as u32,
                    tile: map.tile(i),
                    path: Vec::new(),
                })
                .collect(),
        }
    }

    /// Total number of leaves (shards).
    pub fn shards(&self) -> usize {
        self.leaves.len()
    }

    /// The halo width around every cut line.
    pub fn halo(&self) -> f64 {
        self.halo
    }

    /// The nominal (finite) domain the partition covers.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The topology epoch: bumped by every split and merge.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The leaves, in routing order.
    pub fn leaves(&self) -> &[PartLeaf] {
        &self.leaves
    }

    /// The finite tile of leaf `i`.
    pub fn tile(&self, i: usize) -> Rect {
        self.leaves[i].tile
    }

    /// Index of the leaf with stable id `id`, if it is still a leaf.
    pub fn index_of_id(&self, id: u32) -> Option<usize> {
        self.leaves.iter().position(|l| l.id == id)
    }

    /// The rectangle leaf `i` *owns*: its tile, with every edge that
    /// coincides with the domain boundary extended to ±infinity so the
    /// owned rectangles of all leaves tile the entire plane (engine
    /// answers overhang the nominal domain by up to a structure cell).
    pub fn owned(&self, i: usize) -> Rect {
        let t = self.leaves[i].tile;
        Rect::new(
            if t.x_lo == self.bounds.x_lo {
                f64::NEG_INFINITY
            } else {
                t.x_lo
            },
            if t.y_lo == self.bounds.y_lo {
                f64::NEG_INFINITY
            } else {
                t.y_lo
            },
            if t.x_hi == self.bounds.x_hi {
                f64::INFINITY
            } else {
                t.x_hi
            },
            if t.y_hi == self.bounds.y_hi {
                f64::INFINITY
            } else {
                t.y_hi
            },
        )
    }

    /// The region leaf `i` ingests: its owned rectangle inflated by the
    /// halo (closed intersection semantics, same as [`ShardMap`]).
    pub fn ingest_region(&self, i: usize) -> Rect {
        self.owned(i).inflate(self.halo)
    }

    /// Indices of every leaf whose ingest region intersects `bbox`.
    pub fn route(&self, bbox: &Rect) -> impl Iterator<Item = usize> + '_ {
        let bbox = *bbox;
        (0..self.shards()).filter(move |&i| self.ingest_region(i).intersects(&bbox))
    }

    /// Splits leaf `i` into four quadrant children at the tile's
    /// midpoints (SW, SE, NW, NE — routing order preserved in place)
    /// and returns the children's fresh stable ids.
    pub fn split(&mut self, i: usize) -> [u32; 4] {
        let leaf = self.leaves[i].clone();
        let t = leaf.tile;
        let mx = t.x_lo + t.width() * 0.5;
        let my = t.y_lo + t.height() * 0.5;
        let mut path = leaf.path;
        path.push(t);
        let tiles = [
            Rect::new(t.x_lo, t.y_lo, mx, my),
            Rect::new(mx, t.y_lo, t.x_hi, my),
            Rect::new(t.x_lo, my, mx, t.y_hi),
            Rect::new(mx, my, t.x_hi, t.y_hi),
        ];
        let ids = [
            self.next_id,
            self.next_id + 1,
            self.next_id + 2,
            self.next_id + 3,
        ];
        self.next_id += 4;
        let children = tiles.iter().zip(ids).map(|(&tile, id)| PartLeaf {
            id,
            tile,
            path: path.clone(),
        });
        self.leaves.splice(i..=i, children);
        self.epoch += 1;
        ids
    }

    /// Complete sibling groups: every set of four leaves that share the
    /// same parent tile (and so can merge back into it). Each group's
    /// indices are ascending and contiguous.
    pub fn sibling_groups(&self) -> Vec<[usize; 4]> {
        let mut by_parent: HashMap<(u64, u64, u64, u64), Vec<usize>> = HashMap::new();
        for (i, leaf) in self.leaves.iter().enumerate() {
            if let Some(p) = leaf.parent_tile() {
                by_parent.entry(rect_bits(p)).or_default().push(i);
            }
        }
        let mut groups: Vec<[usize; 4]> = by_parent
            .into_values()
            .filter(|g| g.len() == 4)
            .map(|g| [g[0], g[1], g[2], g[3]])
            .collect();
        groups.sort();
        groups
    }

    /// Merges a complete sibling group (ascending indices, as returned
    /// by [`sibling_groups`](Self::sibling_groups)) back into its
    /// parent tile under a fresh stable id; returns that id.
    ///
    /// # Panics
    ///
    /// Panics when the indices are not four contiguous leaves sharing
    /// one parent tile.
    pub fn merge(&mut self, group: [usize; 4]) -> u32 {
        assert!(
            group.windows(2).all(|w| w[1] == w[0] + 1),
            "merge group must be contiguous, got {group:?}"
        );
        let parent = *self.leaves[group[0]]
            .parent_tile()
            .expect("merge group has no parent tile");
        assert!(
            group
                .iter()
                .all(|&i| self.leaves[i].parent_tile().map(rect_bits) == Some(rect_bits(&parent))),
            "merge group members disagree on the parent tile"
        );
        let mut path = self.leaves[group[0]].path.clone();
        path.pop();
        let id = self.next_id;
        self.next_id += 1;
        let merged = PartLeaf {
            id,
            tile: parent,
            path,
        };
        self.leaves.splice(group[0]..=group[3], [merged]);
        self.epoch += 1;
        id
    }

    /// Serializes the partition (for composed checkpoints and replica
    /// bootstrap shipments).
    pub fn encode(&self, w: &mut ByteWriter) {
        fn put_rect(w: &mut ByteWriter, r: &Rect) {
            w.put_f64(r.x_lo);
            w.put_f64(r.y_lo);
            w.put_f64(r.x_hi);
            w.put_f64(r.y_hi);
        }
        w.put_u32(1); // partition codec version
        put_rect(w, &self.bounds);
        w.put_f64(self.halo);
        w.put_u64(self.epoch);
        w.put_u32(self.next_id);
        w.put_u32(self.leaves.len() as u32);
        for leaf in &self.leaves {
            w.put_u32(leaf.id);
            put_rect(w, &leaf.tile);
            w.put_u32(leaf.path.len() as u32);
            for p in &leaf.path {
                put_rect(w, p);
            }
        }
    }

    /// Inverse of [`encode`](Self::encode).
    pub fn decode(r: &mut ByteReader) -> Result<Partition, RecoverError> {
        fn get_rect(r: &mut ByteReader) -> Result<Rect, RecoverError> {
            let (x_lo, y_lo, x_hi, y_hi) = (r.get_f64()?, r.get_f64()?, r.get_f64()?, r.get_f64()?);
            Ok(Rect::new(x_lo, y_lo, x_hi, y_hi))
        }
        let version = r.get_u32()?;
        if version != 1 {
            return Err(RecoverError::Mismatch("unknown partition codec version"));
        }
        let bounds = get_rect(r)?;
        let halo = r.get_f64()?;
        let epoch = r.get_u64()?;
        let next_id = r.get_u32()?;
        let n = r.get_u32()? as usize;
        let mut leaves = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.get_u32()?;
            let tile = get_rect(r)?;
            let depth = r.get_u32()? as usize;
            let mut path = Vec::with_capacity(depth);
            for _ in 0..depth {
                path.push(get_rect(r)?);
            }
            leaves.push(PartLeaf { id, tile, path });
        }
        Ok(Partition {
            bounds,
            halo,
            epoch,
            next_id,
            leaves,
        })
    }
}

/// Hysteresis knobs for policy-driven topology changes on an adaptive
/// plane. Thresholds are in *owned* objects (halo ghosts excluded —
/// they would otherwise inflate apparent load on every shard bordering
/// a hotspot): a leaf owning more than `split_threshold` splits; a
/// complete sibling group owning fewer than `merge_threshold` combined
/// merges. `min_interval` ticks must pass between topology changes, and
/// `max_depth`/`max_shards` bound the tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitPolicy {
    /// Owned objects above which a leaf splits.
    pub split_threshold: u64,
    /// Combined owned objects below which four siblings merge.
    pub merge_threshold: u64,
    /// Minimum ticks between topology changes (hysteresis).
    pub min_interval: u64,
    /// Maximum splits below a root grid cell.
    pub max_depth: u32,
    /// Maximum total leaves.
    pub max_shards: usize,
}

impl Default for SplitPolicy {
    fn default() -> Self {
        SplitPolicy {
            split_threshold: 512,
            merge_threshold: 64,
            min_interval: 4,
            max_depth: 6,
            max_shards: 64,
        }
    }
}

/// Why a requested split/merge/rebalance was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologyError {
    /// The plane is fenced (a newer primary exists) — topology changes
    /// are writes and are refused like any other.
    Fenced,
    /// No leaf (or sibling group) qualifies for the requested action.
    NoCandidate,
    /// Splitting the leaf would exceed `max_depth` or `max_shards`.
    Limits,
    /// The handoff was aborted mid-replay (crash injection) — the plane
    /// is untouched.
    Aborted,
    /// Cloning the source shard's state into the children failed.
    Recover(RecoverError),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Fenced => write!(f, "plane is fenced; topology changes refused"),
            TopologyError::NoCandidate => write!(f, "no shard qualifies for the action"),
            TopologyError::Limits => write!(f, "split would exceed max_depth or max_shards"),
            TopologyError::Aborted => write!(f, "migration handoff aborted before cutover"),
            TopologyError::Recover(e) => write!(f, "migration handoff failed: {e}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// What a completed split or merge did, for the `rebalance` wire op
/// and the metrics plane.
#[derive(Clone, Debug, PartialEq)]
pub struct RebalanceReport {
    /// `"split"` or `"merge"`.
    pub action: &'static str,
    /// Stable ids of the shards retired by the cutover.
    pub retired: Vec<u32>,
    /// Stable ids of the shards created by the cutover.
    pub created: Vec<u32>,
    /// WAL records replayed during the handoff.
    pub records_replayed: u64,
    /// Leaf count after the cutover.
    pub leaves: usize,
    /// Partition epoch after the cutover.
    pub part_epoch: u64,
}

/// Everything one shard owns: its engine, its WAL segment, and its
/// latest checkpoint (with the segment offset it replays from).
struct ShardState {
    engine: Box<dyn DensityEngine>,
    wal: Wal,
    checkpoint: Option<Vec<u8>>,
    checkpoint_offset: usize,
}

/// The plane's shared state — everything the per-shard fan-out tasks
/// touch. Lives behind an `Arc` so the [`Executor`]'s `'static` task
/// closures can share it with the engine; every mutation goes through
/// the per-shard `RwLock`s, so `&mut self` ingest paths and `&self`
/// queries synchronize on the same locks whichever pool thread runs
/// the task.
struct ShardPlane {
    part: Partition,
    shards: Vec<RwLock<ShardState>>,
    degraded: Vec<AtomicBool>,
}

impl ShardPlane {
    fn read_shard(&self, i: usize) -> std::sync::RwLockReadGuard<'_, ShardState> {
        self.shards[i].read().unwrap_or_else(|p| p.into_inner())
    }

    fn write_shard(&self, i: usize) -> std::sync::RwLockWriteGuard<'_, ShardState> {
        self.shards[i].write().unwrap_or_else(|p| p.into_inner())
    }

    /// Shard-local crash recovery: restore the shard's checkpoint and
    /// replay its WAL segment tail. The rest of the plane is untouched.
    fn recover_shard(&self, i: usize) -> Result<(), ()> {
        let mut s = self.write_shard(i);
        let ShardState {
            engine,
            wal,
            checkpoint,
            checkpoint_offset,
        } = &mut *s;
        let Some(cp) = checkpoint.as_deref() else {
            return Err(());
        };
        engine.restore_from(cp).map_err(|_| ())?;
        let tail = replay(&wal.bytes()[*checkpoint_offset..]).map_err(|_| ())?;
        for rec in tail.records {
            match rec {
                WalRecord::Advance(t) => engine.advance_to(t),
                WalRecord::Batch(batch) => engine.apply_batch(&batch),
            }
        }
        Ok(())
    }

    /// The degraded answer for shard `i`, or the error that forced it.
    fn degraded_shard_answer(
        &self,
        i: usize,
        q: &PdrQuery,
        err: StorageError,
    ) -> Result<EngineAnswer, StorageError> {
        match self.read_shard(i).engine.degraded_query(q) {
            Some(a) => Ok(a),
            None => Err(err),
        }
    }

    /// One shard's (unclipped) answer: healthy shards answer exactly;
    /// corruption triggers shard-local recovery and one retry; a shard
    /// that stays broken on a non-transient fault is stickily degraded
    /// and serves filter-only from then on. Transient faults propagate
    /// so the caller can retry the whole query under its own policy.
    fn shard_query(&self, i: usize, q: &PdrQuery) -> Result<EngineAnswer, StorageError> {
        if self.degraded[i].load(Ordering::Acquire) {
            let synthetic = StorageError::ReadFailed {
                page: pdr_storage::PageId(0),
                transient: false,
            };
            return self.degraded_shard_answer(i, q, synthetic);
        }
        let err = match self.read_shard(i).engine.try_query(q) {
            Ok(a) => return Ok(a),
            Err(e) => e,
        };
        if err.is_transient() {
            return Err(err);
        }
        if err.is_corruption() && self.recover_shard(i).is_ok() {
            if let Ok(a) = self.read_shard(i).engine.try_query(q) {
                return Ok(a);
            }
        }
        self.degraded[i].store(true, Ordering::Release);
        self.degraded_shard_answer(i, q, err)
    }
}

/// A shared-nothing sharded engine plane, itself a [`DensityEngine`].
///
/// Fault scoping: [`set_fault_plan`](DensityEngine::set_fault_plan)
/// installs the plan beneath **shard 0 only**, so fault injection
/// exercises partial degradation — the faulted shard recovers or
/// degrades while every other shard keeps serving exactly. Use
/// [`set_shard_fault_plan`](ShardedEngine::set_shard_fault_plan) to
/// target a specific shard.
pub struct ShardedEngine {
    name: &'static str,
    horizon: TimeHorizon,
    t_base: Timestamp,
    threads: usize,
    /// The largest neighborhood edge the halo was sized for. Queries
    /// and subscriptions with `l > l_max` are refused — the halo cannot
    /// cover them and density would silently be lost at cut lines.
    l_max: f64,
    plane: Arc<ShardPlane>,
    /// Plane-level registry; each subscription is also registered (same
    /// id) on every owning shard's inner engine.
    subs: SubscriptionTable,
    /// Subscription id → indices of the shards whose owned rectangle
    /// intersects its region.
    sub_owners: HashMap<u64, Vec<usize>>,
    updates_applied: u64,
    rejected_updates: u64,
    queries_served: AtomicU64,
    /// Incremented whenever the segments reset (a restore): byte
    /// offsets are only comparable within one epoch, so log shipping
    /// bootstraps on any epoch change — a reset segment re-filled to
    /// the old length would otherwise be indistinguishable.
    wal_epoch: u64,
    /// The replication epoch this plane writes under. Fresh primaries
    /// start at 1; a replica promotion seals the applied state and
    /// bumps past the epoch it replicated, so any shipment cut by the
    /// deposed primary carries a smaller value and is refused.
    repl_epoch: u64,
    /// Set when this plane has observed a higher replication epoch —
    /// it is a deposed primary. Writes are dropped (and counted in
    /// `fenced_writes`), never applied, so a stale primary can never
    /// silently diverge from the promoted lineage.
    fenced: AtomicBool,
    /// Writes dropped because the plane is fenced.
    fenced_writes: AtomicU64,
    /// Builds a fresh inner engine — kept so splits, merges, and
    /// topology-reshaping restores can mint shards after construction.
    builder: Box<dyn FnMut(usize) -> Box<dyn DensityEngine> + Send + Sync>,
    /// The router's view of the live object set: id → the motion bits
    /// the shards were handed (inserts keep the newest `t_ref`; deletes
    /// remove only an exact bit-match, which makes per-shard WAL replay
    /// order-insensitive). This is what shard merges rebuild from and
    /// what the owned-load accounting below counts.
    router_table: HashMap<u64, MotionState>,
    /// Per-leaf count of *owned* live objects (the leaf whose owned
    /// rectangle contains the object's reported position). Unlike the
    /// inner engines' `objects` stat this excludes halo ghosts, so the
    /// split policy sees true load.
    owned_counts: Vec<u64>,
    /// Policy for automatic splits/merges; `None` = fixed topology.
    policy: Option<SplitPolicy>,
    /// Tick of the last topology change, for policy hysteresis.
    last_topology_at: Option<Timestamp>,
    /// Completed splits / merges, for metrics.
    splits: u64,
    merges: u64,
}

impl ShardedEngine {
    /// Builds the plane: `build(i)` constructs shard `i`'s inner engine
    /// (each one a full-domain engine that will simply see a routed
    /// subset of the traffic). `l_max` is the largest neighborhood edge
    /// the map's halo was sized for; larger queries are refused.
    ///
    /// # Panics
    ///
    /// Panics when `l_max` is non-finite or non-positive.
    pub fn new(
        name: &'static str,
        map: ShardMap,
        horizon: TimeHorizon,
        t_start: Timestamp,
        threads: usize,
        l_max: f64,
        build: impl FnMut(usize) -> Box<dyn DensityEngine> + Send + Sync + 'static,
    ) -> Self {
        Self::with_partition(
            name,
            Partition::from_grid(&map),
            horizon,
            t_start,
            threads,
            l_max,
            Box::new(build),
        )
    }

    /// Builds the plane over an explicit [`Partition`]; [`new`](Self::new)
    /// is the grid-shaped convenience wrapper.
    pub fn with_partition(
        name: &'static str,
        part: Partition,
        horizon: TimeHorizon,
        t_start: Timestamp,
        threads: usize,
        l_max: f64,
        mut builder: Box<dyn FnMut(usize) -> Box<dyn DensityEngine> + Send + Sync>,
    ) -> Self {
        assert!(
            l_max.is_finite() && l_max > 0.0,
            "l_max must be a positive finite edge length, got {l_max}"
        );
        let n = part.shards();
        let shards = (0..n)
            .map(|i| {
                let header = SegmentHeader {
                    shard: part.leaves()[i].id,
                    shards: n as u32,
                };
                // Per-shard segments write the columnar codec2 records;
                // replay auto-detects per record, so pre-upgrade
                // segments and legacy journals keep reading.
                let wal = Wal::new_segment_with(header, WalCodec::V2);
                let checkpoint_offset = wal.offset();
                RwLock::new(ShardState {
                    engine: builder(i),
                    wal,
                    checkpoint: None,
                    checkpoint_offset,
                })
            })
            .collect();
        ShardedEngine {
            name,
            horizon,
            t_base: t_start,
            threads,
            l_max,
            plane: Arc::new(ShardPlane {
                part,
                shards,
                degraded: (0..n).map(|_| AtomicBool::new(false)).collect(),
            }),
            subs: SubscriptionTable::new(),
            sub_owners: HashMap::new(),
            updates_applied: 0,
            rejected_updates: 0,
            queries_served: AtomicU64::new(0),
            wal_epoch: 0,
            repl_epoch: 1,
            fenced: AtomicBool::new(false),
            fenced_writes: AtomicU64::new(0),
            builder,
            router_table: HashMap::new(),
            owned_counts: vec![0; n],
            policy: None,
            last_topology_at: None,
            splits: 0,
            merges: 0,
        }
    }

    /// The replication epoch this plane writes under (see
    /// [`promote_to`](Self::promote_to)).
    pub fn repl_epoch(&self) -> u64 {
        self.repl_epoch
    }

    /// Seals the plane's current state under a fresh checkpoint and
    /// adopts `epoch` as its replication epoch — the replica-promotion
    /// primitive. The caller (a [`Replica`](crate::Replica) being
    /// promoted) picks an epoch strictly greater than the one it
    /// replicated, which fences the deposed primary's lineage.
    pub fn promote_to(&mut self, epoch: u64) {
        self.repl_epoch = epoch;
        self.fenced.store(false, Ordering::SeqCst);
        self.refresh_checkpoints();
    }

    /// Observes a replication epoch seen on the wire: when it is newer
    /// than this plane's, the plane fences itself (a newer primary
    /// exists — this one was deposed). Returns whether the plane is
    /// fenced afterwards. Shared-ref on purpose: the observation
    /// arrives on read paths (`ship_log`) that hold no write lock.
    pub fn fence_if_stale(&self, observed: u64) -> bool {
        if observed > self.repl_epoch {
            self.fenced.store(true, Ordering::SeqCst);
        }
        self.is_fenced()
    }

    /// `true` when the plane has been fenced off by a newer
    /// replication epoch.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::SeqCst)
    }

    /// Writes dropped because the plane was fenced. Zero silent
    /// divergence: every refused mutation is visible here.
    pub fn fenced_writes(&self) -> u64 {
        self.fenced_writes.load(Ordering::SeqCst)
    }

    /// The largest neighborhood edge this plane's halo covers.
    pub fn l_max(&self) -> f64 {
        self.l_max
    }

    fn assert_edge_covered(&self, l: f64) {
        assert!(
            l <= self.l_max,
            "query edge l = {l} exceeds the sharded plane's l_max = {}: \
             the halo cannot cover it and density would be lost at cut lines \
             (use EngineSpec::validate_query_edge to pre-check)",
            self.l_max
        );
    }

    /// The shards whose owned rectangle intersects `region` — the set a
    /// subscription over `region` is registered on. Owned rectangles
    /// tile the plane, so this is never empty.
    fn owners_of(&self, region: &Rect) -> Vec<usize> {
        (0..self.plane.shards.len())
            .filter(|&i| self.plane.part.owned(i).intersects(region))
            .collect()
    }

    /// The spatial partition this plane serves.
    pub fn map(&self) -> &Partition {
        &self.plane.part
    }

    /// `true` when shard `i` is stickily degraded.
    pub fn shard_degraded(&self, i: usize) -> bool {
        self.plane.degraded[i].load(Ordering::Acquire)
    }

    /// Installs a fault plan beneath one specific shard's storage.
    pub fn set_shard_fault_plan(&self, shard: usize, plan: FaultPlan) {
        self.plane.read_shard(shard).engine.set_fault_plan(plan);
    }

    /// Re-checkpoints every shard and marks its WAL segment position,
    /// bounding shard-local replay work. Called automatically after
    /// [`bulk_load`](DensityEngine::bulk_load).
    pub fn refresh_checkpoints(&mut self) {
        for i in 0..self.plane.shards.len() {
            let mut s = self.plane.write_shard(i);
            if let Some(cp) = s.engine.checkpoint() {
                s.checkpoint = Some(cp);
                s.checkpoint_offset = s.wal.offset();
            }
        }
    }

    /// Runs `f(i)` for every shard as one task group on the shared
    /// [`Executor`] (`threads == 1` keeps the serial inline loop);
    /// results come back in shard order and a child panic is re-raised
    /// with its original payload (so the serve loop's
    /// fault-caused-panic detection keeps working). The closure
    /// captures the plane through `Arc` clones, so inner FR refinement
    /// scopes opened by a shard task nest on the same pool instead of
    /// spawning — which is what lets the per-shard engines keep their
    /// own refinement parallelism.
    fn fan_out<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        let n = self.plane.shards.len();
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        Executor::global().scope(n, f)
    }

    /// Merges per-shard answers: clip to owned rectangles, canonical
    /// union, accumulate I/O, AND together exactness.
    fn merge(&self, parts: Vec<EngineAnswer>, started: Instant) -> EngineAnswer {
        let mut io = IoStats::default();
        let mut exact = true;
        for a in &parts {
            io += a.io;
            exact &= a.exact;
        }
        let regions = RegionSet::union_disjoint_clipped(
            parts
                .iter()
                .enumerate()
                .map(|(i, a)| (&a.regions, self.plane.part.owned(i))),
        );
        EngineAnswer {
            regions,
            cpu: started.elapsed(),
            io,
            exact,
        }
    }

    fn route_targets(&self, u: &Update) -> impl Iterator<Item = usize> + '_ {
        let bbox = u.routing_bbox(self.horizon.h());
        self.plane.part.route(&bbox)
    }

    /// The leaf owning the reported position of `m` (owned rectangles
    /// tile the plane, so this is `None` only for non-finite motions).
    fn owner_index(part: &Partition, m: &MotionState) -> Option<usize> {
        let p = m.position_at(m.t_ref);
        (0..part.shards()).find(|&i| part.owned(i).contains_half_open(p))
    }

    /// Folds one routed update into the router's live-object table and
    /// the per-leaf owned counts. Inserts keep the newest `t_ref` and
    /// deletes remove only an exact bit-match — that makes replaying
    /// the same updates from several per-shard WAL tails (duplicated,
    /// shard-ordered rather than globally ordered) converge to the same
    /// table a chronological feed produces.
    fn note_update(&mut self, u: &Update) {
        match u.kind {
            pdr_mobject::UpdateKind::Insert { motion } => {
                if let Some(prev) = self.router_table.get(&u.id.0) {
                    if prev.t_ref > motion.t_ref {
                        return; // stale copy replayed out of order
                    }
                    let prev = *prev;
                    if let Some(o) = Self::owner_index(&self.plane.part, &prev) {
                        self.owned_counts[o] -= 1;
                    }
                }
                self.router_table.insert(u.id.0, motion);
                if let Some(o) = Self::owner_index(&self.plane.part, &motion) {
                    self.owned_counts[o] += 1;
                }
            }
            pdr_mobject::UpdateKind::Delete { old_motion } => {
                if self.router_table.get(&u.id.0) == Some(&old_motion) {
                    self.router_table.remove(&u.id.0);
                    if let Some(o) = Self::owner_index(&self.plane.part, &old_motion) {
                        self.owned_counts[o] -= 1;
                    }
                }
            }
        }
    }

    /// Recomputes the per-leaf owned counts from the router table —
    /// used after a topology change re-shapes the leaf vector.
    fn recount_owned(&mut self) {
        let mut counts = vec![0u64; self.plane.part.shards()];
        for m in self.router_table.values() {
            if let Some(o) = Self::owner_index(&self.plane.part, m) {
                counts[o] += 1;
            }
        }
        self.owned_counts = counts;
    }

    /// Per-leaf count of live objects whose reported position the leaf
    /// owns (halo ghosts excluded) — the load signal [`SplitPolicy`]
    /// acts on.
    pub fn owned_objects(&self) -> &[u64] {
        &self.owned_counts
    }

    /// Composes per-shard checkpoint payloads into one sealed
    /// container: a magic tag, the partition, the router's live-object
    /// table, then per leaf `[len u64][crc u32][bytes]` in leaf order.
    /// Embedding the partition is what lets a restore (or a replica
    /// bootstrap) adopt the sender's topology instead of refusing it.
    fn compose_checkpoint(&self, parts: &[Vec<u8>]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(ADAPTIVE_CHECKPOINT_MAGIC);
        w.put_u64(self.t_base);
        self.plane.part.encode(&mut w);
        let mut ids: Vec<&u64> = self.router_table.keys().collect();
        ids.sort();
        w.put_u32(self.router_table.len() as u32);
        for id in ids {
            let m = &self.router_table[id];
            w.put_u64(*id);
            w.put_f64(m.origin.x);
            w.put_f64(m.origin.y);
            w.put_f64(m.velocity.x);
            w.put_f64(m.velocity.y);
            w.put_u64(m.t_ref);
        }
        w.put_u32(parts.len() as u32);
        for cp in parts {
            w.put_u64(cp.len() as u64);
            w.put_u32(crc32(cp));
            w.put_bytes(cp);
        }
        seal_checkpoint(w.as_slice())
    }

    // -----------------------------------------------------------------
    // Log shipping (primary side)
    // -----------------------------------------------------------------

    /// Current byte offset of every shard's WAL segment, in shard
    /// order. A replica reports these back through
    /// [`ShardedEngine::wal_since`] to receive only the delta.
    pub fn wal_offsets(&self) -> Vec<usize> {
        (0..self.plane.shards.len())
            .map(|i| self.plane.read_shard(i).wal.offset())
            .collect()
    }

    /// The current segment epoch (see [`ShardedEngine::wal_since`]).
    pub fn wal_epoch(&self) -> u64 {
        self.wal_epoch
    }

    /// Cuts a [`LogShipment`] for a replica that has applied each
    /// shard's segment through `from[i]` within segment epoch `epoch`.
    /// Pass an empty slice to bootstrap: the shipment then carries the
    /// plane's last sealed checkpoint (when one exists) plus every
    /// segment's tail from its checkpoint mark. A `(epoch, from)` that
    /// no longer matches this plane — a stale epoch (the primary
    /// restored and its segments reset), wrong shard count, an offset
    /// past the segment end, or one inside the segment header — also
    /// falls back to a bootstrap shipment, so a replica can always
    /// converge by re-ingesting.
    pub fn wal_since(&self, epoch: u64, from: &[usize]) -> LogShipment {
        let n = self.plane.shards.len();
        let incremental = epoch == self.wal_epoch
            && from.len() == n
            && (0..n).all(|i| {
                let s = self.plane.read_shard(i);
                from[i] >= SEGMENT_HEADER_LEN && from[i] <= s.wal.offset()
            });
        if incremental {
            let segments = (0..n)
                .map(|i| {
                    let s = self.plane.read_shard(i);
                    ShippedSegment {
                        shard: self.plane.part.leaves()[i].id,
                        start: from[i],
                        bytes: s.wal.bytes()[from[i]..].to_vec(),
                    }
                })
                .collect();
            return LogShipment {
                shards: n as u32,
                epoch: self.wal_epoch,
                repl_epoch: self.repl_epoch,
                part_epoch: self.plane.part.epoch(),
                t_base: self.t_base,
                checkpoint: None,
                segments,
            };
        }
        // Bootstrap: ship the stored per-shard checkpoints (sealed as
        // one container, with the partition and router table embedded)
        // and each segment's tail from its checkpoint mark. Without a
        // stored checkpoint (nothing bulk-loaded yet) the full segments
        // from just past their headers reproduce the whole history.
        let stored: Option<Vec<Vec<u8>>> = (0..n)
            .map(|i| self.plane.read_shard(i).checkpoint.clone())
            .collect();
        let (checkpoint, starts): (Option<Vec<u8>>, Vec<usize>) = match stored {
            Some(parts) => (
                Some(self.compose_checkpoint(&parts)),
                (0..n)
                    .map(|i| self.plane.read_shard(i).checkpoint_offset)
                    .collect(),
            ),
            None => (None, vec![SEGMENT_HEADER_LEN; n]),
        };
        let segments = (0..n)
            .map(|i| {
                let s = self.plane.read_shard(i);
                ShippedSegment {
                    shard: self.plane.part.leaves()[i].id,
                    start: starts[i],
                    bytes: s.wal.bytes()[starts[i]..].to_vec(),
                }
            })
            .collect();
        LogShipment {
            shards: n as u32,
            epoch: self.wal_epoch,
            repl_epoch: self.repl_epoch,
            part_epoch: self.plane.part.epoch(),
            t_base: self.t_base,
            checkpoint,
            segments,
        }
    }

    // -----------------------------------------------------------------
    // Log shipping (replica side)
    // -----------------------------------------------------------------

    /// Replays one shipped segment tail into shard `shard`: verifies
    /// the frames, appends them to the shard's local segment, and
    /// applies each record to the shard's engine. The shipped bytes
    /// were routed and screened by the primary, so they apply
    /// directly, bypassing the router. Returns a per-tail summary.
    pub fn apply_segment_tail(
        &mut self,
        shard: usize,
        bytes: &[u8],
    ) -> Result<TailSummary, RecoverError> {
        let rep = replay(bytes)?;
        if rep.torn_bytes != 0 {
            return Err(RecoverError::Codec(pdr_storage::CodecError::Corrupt(
                "shipped segment tail is torn",
            )));
        }
        let mut summary = TailSummary::default();
        let plane = Arc::clone(&self.plane);
        let mut s = plane.write_shard(shard);
        s.wal.append_framed(bytes, rep.records.len() as u64);
        for rec in &rep.records {
            summary.records += 1;
            match rec {
                WalRecord::Advance(t) => {
                    s.engine.advance_to(*t);
                    summary.last_advance = Some(*t);
                }
                WalRecord::Batch(batch) => {
                    summary.updates += batch.len() as u64;
                    s.engine.apply_batch(batch);
                    for u in batch.iter() {
                        self.note_update(u);
                    }
                }
            }
        }
        drop(s);
        if let Some(t) = summary.last_advance {
            self.t_base = self.t_base.max(t);
        }
        self.updates_applied += summary.updates;
        Ok(summary)
    }

    // -----------------------------------------------------------------
    // Adaptive topology: splits, merges, live migration
    // -----------------------------------------------------------------

    /// The current partition (topology) epoch.
    pub fn part_epoch(&self) -> u64 {
        self.plane.part.epoch()
    }

    /// Installs (or clears) the automatic split/merge policy. With a
    /// policy set, `advance_to` evaluates it once per tick on the
    /// owned-load counters; without one the topology never changes on
    /// its own (manual [`rebalance`](Self::rebalance) still works).
    pub fn set_policy(&mut self, policy: Option<SplitPolicy>) {
        self.policy = policy;
    }

    /// The installed automatic policy, if any.
    pub fn policy(&self) -> Option<SplitPolicy> {
        self.policy
    }

    /// Completed split count.
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Completed merge count.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Takes exclusive ownership of the plane for a topology flip.
    /// `&mut self` guarantees no fan-out task group is in flight (they
    /// only live inside a single engine call), so the `Arc` is unique.
    fn take_plane(&mut self) -> ShardPlane {
        let placeholder = Arc::new(ShardPlane {
            part: Partition::from_grid(&ShardMap::new(Rect::new(0.0, 0.0, 1.0, 1.0), 1, 1, 0.0)),
            shards: Vec::new(),
            degraded: Vec::new(),
        });
        match Arc::try_unwrap(std::mem::replace(&mut self.plane, placeholder)) {
            Ok(plane) => plane,
            Err(_) => unreachable!("plane Arc aliased outside an engine call"),
        }
    }

    /// Re-registers every plane-level subscription on its (possibly
    /// new) owner set and flags it for a `resync` marker. Called after
    /// every topology change: `register_with_id` resets the inner
    /// answer, so the next maintenance pass recomputes from scratch on
    /// each owner — the plane-level diff stays exact throughout because
    /// it is taken against the plane's own committed answer.
    fn reroute_subscriptions(&mut self) {
        let specs: Vec<Subscription> = self.subs.subs().copied().collect();
        self.sub_owners.clear();
        for sub in specs {
            let owners = self.owners_of(&sub.region);
            for &i in &owners {
                if let Some(t) = self.plane.write_shard(i).engine.subscriptions_mut() {
                    t.register_with_id(sub);
                }
            }
            self.sub_owners.insert(sub.id.0, owners);
            self.subs.mark_resync(sub.id);
        }
    }

    /// Splits leaf `idx` into four children by live migration: the
    /// source shard's sealed checkpoint and WAL-segment tail are
    /// "shipped" to each child, replayed (each child restores the exact
    /// byte state the source would recover to), pruned down to the
    /// child's own ingest region (so the routing invariant — an object
    /// lives only in shards its bbox intersects — survives the
    /// migration), and only then is routing flipped — atomically,
    /// under `&mut self`, with the partition and WAL epochs bumped so
    /// replicas re-bootstrap instead of misapplying offsets. No update
    /// is lost: everything the source ingested is in its checkpoint or
    /// tail, and everything after the flip routes to the children.
    pub fn split_shard(&mut self, idx: usize) -> Result<RebalanceReport, TopologyError> {
        self.split_shard_inner(idx, None)
    }

    /// [`split_shard`](Self::split_shard) with crash injection: abort
    /// the handoff after replaying `abort_after` tail records, before
    /// the cutover. The plane is untouched — exactly what a crash at
    /// that WAL-record boundary would leave behind.
    pub fn split_shard_aborting(
        &mut self,
        idx: usize,
        abort_after: usize,
    ) -> Result<RebalanceReport, TopologyError> {
        self.split_shard_inner(idx, Some(abort_after))
    }

    fn split_shard_inner(
        &mut self,
        idx: usize,
        abort_after: Option<usize>,
    ) -> Result<RebalanceReport, TopologyError> {
        if self.is_fenced() {
            return Err(TopologyError::Fenced);
        }
        let limits = self.policy.unwrap_or_default();
        if idx >= self.plane.part.shards() {
            return Err(TopologyError::NoCandidate);
        }
        if self.plane.part.leaves()[idx].depth() >= limits.max_depth
            || self.plane.part.shards() + 3 > limits.max_shards
        {
            return Err(TopologyError::Limits);
        }
        // Seal: under `&mut self` no writer can interleave; snapshot
        // the source's checkpoint and segment tail (the handoff bytes).
        let (source_id, checkpoint, tail) = {
            let s = self.plane.read_shard(idx);
            (
                self.plane.part.leaves()[idx].id,
                s.checkpoint.clone(),
                s.wal.bytes()[s.checkpoint_offset..].to_vec(),
            )
        };
        // Each child's ingest region under the post-split geometry,
        // taken from a cloned partition with the split applied — the
        // prune filter below must agree *bitwise* with how the real
        // partition will route once the cutover lands, so the geometry
        // is never re-derived by hand.
        let post = {
            let mut p = self.plane.part.clone();
            p.split(idx);
            p
        };
        let child_ingest = [
            post.ingest_region(idx),
            post.ingest_region(idx + 1),
            post.ingest_region(idx + 2),
            post.ingest_region(idx + 3),
        ];
        let source_ingest = self.plane.part.ingest_region(idx);
        let h = self.horizon.h();
        let mut prune_ids: Vec<u64> = self.router_table.keys().copied().collect();
        prune_ids.sort_unstable();
        // Replay the handoff into four fresh children. Any failure (or
        // an injected crash) before the flip leaves the plane untouched.
        let mut children: Vec<Box<dyn DensityEngine>> = Vec::with_capacity(4);
        let mut records_replayed = 0u64;
        for ingest in &child_ingest {
            let mut e = (self.builder)(idx);
            if let Some(cp) = checkpoint.as_deref() {
                e.restore_from(cp).map_err(TopologyError::Recover)?;
            }
            let rep = crate::wal::replay(&tail)
                .map_err(|e| TopologyError::Recover(RecoverError::Codec(e)))?;
            let mut replayed = 0usize;
            for rec in rep.records {
                if abort_after == Some(replayed) {
                    return Err(TopologyError::Aborted);
                }
                match rec {
                    WalRecord::Advance(t) => e.advance_to(t),
                    WalRecord::Batch(batch) => e.apply_batch(&batch),
                }
                replayed += 1;
            }
            if let Some(k) = abort_after {
                // A boundary at the very end of the tail: the handoff
                // replayed everything but crashed before the flip.
                if k == replayed {
                    return Err(TopologyError::Aborted);
                }
            }
            records_replayed += replayed as u64;
            // Complete the migration: prune from the child every object
            // whose routing bbox misses its post-split ingest region.
            // Routing only ever delivers an object to shards its bbox
            // intersects; the full-state clone would otherwise leave
            // stale copies behind that invariant — a later re-report
            // pair would route its delete elsewhere while the insert
            // collides with the stale copy here.
            let prune: Vec<Update> = prune_ids
                .iter()
                .filter_map(|&id| {
                    let m = self.router_table[&id];
                    let bbox =
                        Rect::from_corners(m.position_at(m.t_ref), m.position_at(m.t_ref + h));
                    (bbox.intersects(&source_ingest) && !bbox.intersects(ingest)).then_some(
                        Update {
                            id: ObjectId(id),
                            t_now: self.t_base,
                            kind: pdr_mobject::UpdateKind::Delete { old_motion: m },
                        },
                    )
                })
                .collect();
            if !prune.is_empty() {
                e.apply_batch(&prune);
            }
            children.push(e);
        }
        // Cutover: flip routing atomically. The source shard (engine,
        // WAL, checkpoint) retires with the old plane.
        let ShardPlane {
            mut part,
            shards,
            degraded,
        } = self.take_plane();
        let child_ids = part.split(idx);
        let n = part.shards();
        let source_degraded = degraded[idx].load(Ordering::Acquire);
        let mut new_shards: Vec<RwLock<ShardState>> = Vec::with_capacity(n);
        let mut new_degraded: Vec<AtomicBool> = Vec::with_capacity(n);
        let mut old_shards = shards.into_iter();
        let mut old_degraded = degraded.into_iter();
        for slot in 0..self.wrapping_old_count(n) {
            let state = old_shards.next().expect("old plane exhausted early");
            let was_degraded = old_degraded
                .next()
                .expect("old plane exhausted early")
                .into_inner();
            if slot == idx {
                // Retire the source; seat the four children in place.
                drop(state);
                for (k, e) in children.drain(..).enumerate() {
                    let header = SegmentHeader {
                        shard: child_ids[k],
                        shards: n as u32,
                    };
                    let wal = Wal::new_segment_with(header, WalCodec::V2);
                    let checkpoint_offset = wal.offset();
                    let checkpoint = e.checkpoint();
                    new_shards.push(RwLock::new(ShardState {
                        engine: e,
                        wal,
                        checkpoint,
                        checkpoint_offset,
                    }));
                    new_degraded.push(AtomicBool::new(source_degraded));
                }
            } else {
                new_shards.push(state);
                new_degraded.push(AtomicBool::new(was_degraded));
            }
        }
        self.plane = Arc::new(ShardPlane {
            part,
            shards: new_shards,
            degraded: new_degraded,
        });
        self.finish_topology_change();
        self.splits += 1;
        Ok(RebalanceReport {
            action: "split",
            retired: vec![source_id],
            created: child_ids.to_vec(),
            records_replayed,
            leaves: self.plane.part.shards(),
            part_epoch: self.plane.part.epoch(),
        })
    }

    /// Old-plane slot count during a split: children replace one slot,
    /// so the loop walks the *old* indices.
    fn wrapping_old_count(&self, new_count: usize) -> usize {
        new_count - 3
    }

    /// Merges a complete sibling group back into its parent tile. The
    /// parent engine is rebuilt from the router's live-object table:
    /// every live object whose routing bbox intersects the parent's
    /// ingest region is re-applied as an insertion carrying its
    /// original motion bits **at its original report time** — the seed
    /// is grouped by `t_ref` and replayed in time order, advancing the
    /// fresh engine between groups. This reproduces bit-for-bit the
    /// histogram state a long-running engine holds for those motions at
    /// `t_base` (an insert deposits over `[t_now, t_now+H]`, so
    /// re-inserting "now" would smear density onto slots past
    /// `t_ref + H` that the retired children never touched) — without
    /// inheriting any stale ghost state the children may hold.
    pub fn merge_shards(&mut self, group: [usize; 4]) -> Result<RebalanceReport, TopologyError> {
        if self.is_fenced() {
            return Err(TopologyError::Fenced);
        }
        if !self.plane.part.sibling_groups().contains(&group) {
            return Err(TopologyError::NoCandidate);
        }
        // The parent's ingest region, taken from a cloned partition
        // with the merge applied — the seed filter must agree bitwise
        // with how the post-cutover partition routes.
        let ingest = {
            let mut p = self.plane.part.clone();
            p.merge(group);
            p.ingest_region(group[0])
        };
        let h = self.horizon.h();
        let mut ids: Vec<u64> = self.router_table.keys().copied().collect();
        ids.sort_unstable();
        let mut seed: std::collections::BTreeMap<Timestamp, Vec<Update>> =
            std::collections::BTreeMap::new();
        for id in ids {
            let m = self.router_table[&id];
            let bbox = Rect::from_corners(m.position_at(m.t_ref), m.position_at(m.t_ref + h));
            if bbox.intersects(&ingest) {
                seed.entry(m.t_ref).or_default().push(Update {
                    id: ObjectId(id),
                    t_now: m.t_ref,
                    // Construct the literal (not `Update::insert`) so
                    // the motion keeps its original `t_ref` and bits —
                    // re-anchoring would recompute positions and could
                    // flip a cell assignment at an exact boundary.
                    kind: pdr_mobject::UpdateKind::Insert { motion: m },
                });
            }
        }
        let mut parent = Some((self.builder)(group[0]));
        if let Some(e) = parent.as_mut() {
            for (t, batch) in &seed {
                e.advance_to(*t);
                e.apply_batch(batch);
            }
            e.advance_to(self.t_base);
        }
        let retired: Vec<u32> = group
            .iter()
            .map(|&i| self.plane.part.leaves()[i].id)
            .collect();
        // Cutover.
        let ShardPlane {
            mut part,
            shards,
            degraded,
        } = self.take_plane();
        let parent_id = part.merge(group);
        let n = part.shards();
        let mut new_shards: Vec<RwLock<ShardState>> = Vec::with_capacity(n);
        let mut new_degraded: Vec<AtomicBool> = Vec::with_capacity(n);
        for (slot, (state, was_degraded)) in shards.into_iter().zip(degraded).enumerate() {
            if group.contains(&slot) {
                // Retire the child; seat the parent at the first slot.
                drop(state);
                if slot == group[0] {
                    let engine = parent.take().expect("parent seated once");
                    let header = SegmentHeader {
                        shard: parent_id,
                        shards: n as u32,
                    };
                    let wal = Wal::new_segment_with(header, WalCodec::V2);
                    let checkpoint_offset = wal.offset();
                    let checkpoint = engine.checkpoint();
                    new_shards.push(RwLock::new(ShardState {
                        engine,
                        wal,
                        checkpoint,
                        checkpoint_offset,
                    }));
                    // The parent is rebuilt from the router table, not
                    // the children — a degraded child's lost state is
                    // re-derived, so the merged shard starts healthy.
                    new_degraded.push(AtomicBool::new(false));
                }
            } else {
                let d = was_degraded.into_inner();
                new_shards.push(state);
                new_degraded.push(AtomicBool::new(d));
            }
        }
        self.plane = Arc::new(ShardPlane {
            part,
            shards: new_shards,
            degraded: new_degraded,
        });
        self.finish_topology_change();
        self.merges += 1;
        Ok(RebalanceReport {
            action: "merge",
            retired,
            created: vec![parent_id],
            records_replayed: seed.values().map(|b| b.len() as u64).sum(),
            leaves: self.plane.part.shards(),
            part_epoch: self.plane.part.epoch(),
        })
    }

    /// Shared post-cutover bookkeeping: recount owned load for the new
    /// leaf vector, re-route subscriptions (with resync markers), bump
    /// the WAL epoch (old shipment offsets are meaningless against the
    /// new leaf order) and re-checkpoint every shard so bootstrap
    /// shipments always carry the new topology.
    fn finish_topology_change(&mut self) {
        self.recount_owned();
        self.reroute_subscriptions();
        self.wal_epoch += 1;
        self.last_topology_at = Some(self.t_base);
        self.refresh_checkpoints();
    }

    /// The leaf with the highest owned load that the policy limits
    /// still allow to split.
    pub fn hottest_splittable(&self) -> Option<usize> {
        let limits = self.policy.unwrap_or_default();
        if self.plane.part.shards() + 3 > limits.max_shards {
            return None;
        }
        (0..self.plane.part.shards())
            .filter(|&i| self.plane.part.leaves()[i].depth() < limits.max_depth)
            .max_by_key(|&i| (self.owned_counts[i], std::cmp::Reverse(i)))
    }

    /// The complete sibling group with the lowest combined owned load.
    pub fn coldest_sibling_group(&self) -> Option<[usize; 4]> {
        self.plane
            .part
            .sibling_groups()
            .into_iter()
            .min_by_key(|g| (g.iter().map(|&i| self.owned_counts[i]).sum::<u64>(), g[0]))
    }

    /// Manual rebalance (the `rebalance` wire op): force one split of
    /// the hottest splittable leaf or one merge of the coldest complete
    /// sibling group, regardless of thresholds (limits still apply).
    pub fn rebalance_split(&mut self) -> Result<RebalanceReport, TopologyError> {
        let idx = self.hottest_splittable().ok_or(TopologyError::Limits)?;
        self.split_shard(idx)
    }

    /// See [`rebalance_split`](Self::rebalance_split).
    pub fn rebalance_merge(&mut self) -> Result<RebalanceReport, TopologyError> {
        let group = self
            .coldest_sibling_group()
            .ok_or(TopologyError::NoCandidate)?;
        self.merge_shards(group)
    }

    /// One policy evaluation: split the hottest overloaded leaf, else
    /// merge the coldest underloaded sibling group. Hysteresis: nothing
    /// happens within `min_interval` ticks of the last change.
    fn auto_rebalance(&mut self) {
        let Some(policy) = self.policy else { return };
        if self.is_fenced() {
            return;
        }
        if let Some(last) = self.last_topology_at {
            if self.t_base.saturating_sub(last) < policy.min_interval {
                return;
            }
        }
        if let Some(idx) = self.hottest_splittable() {
            if self.owned_counts[idx] > policy.split_threshold {
                let _ = self.split_shard(idx);
                return;
            }
        }
        if let Some(group) = self.coldest_sibling_group() {
            let combined: u64 = group.iter().map(|&i| self.owned_counts[i]).sum();
            if combined < policy.merge_threshold {
                let _ = self.merge_shards(group);
            }
        }
    }

    /// The partition tree with per-leaf loads, as a JSON block for the
    /// `metrics` wire op.
    pub fn partition_json(&self) -> String {
        let leaves: Vec<String> = (0..self.plane.part.shards())
            .map(|i| {
                let leaf = &self.plane.part.leaves()[i];
                let st = self.plane.read_shard(i).engine.stats();
                let owned = self.owned_counts[i];
                format!(
                    "{{\"id\":{},\"depth\":{},\"tile\":[{},{},{},{}],\
                     \"owned_objects\":{},\"ghost_objects\":{}}}",
                    leaf.id,
                    leaf.depth(),
                    crate::obs::json_f64(leaf.tile.x_lo),
                    crate::obs::json_f64(leaf.tile.y_lo),
                    crate::obs::json_f64(leaf.tile.x_hi),
                    crate::obs::json_f64(leaf.tile.y_hi),
                    owned,
                    (st.objects as u64).saturating_sub(owned),
                )
            })
            .collect();
        format!(
            "{{\"epoch\":{},\"leaves\":{},\"splits\":{},\"merges\":{},\"adaptive\":{},\"tree\":[{}]}}",
            self.plane.part.epoch(),
            self.plane.part.shards(),
            self.splits,
            self.merges,
            self.policy.is_some(),
            leaves.join(",")
        )
    }
}

/// What applying one shipped segment tail did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TailSummary {
    /// Records replayed.
    pub records: u64,
    /// Updates contained in replayed batches.
    pub updates: u64,
    /// The last `advance_to` timestamp in the tail, if any.
    pub last_advance: Option<Timestamp>,
}

/// One shard's WAL delta inside a [`LogShipment`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShippedSegment {
    /// Stable shard id the bytes belong to (a [`PartLeaf::id`], not a
    /// positional index — identity survives topology renumbering).
    pub shard: u32,
    /// Byte offset in the primary's segment where `bytes` begins.
    pub start: usize,
    /// Whole framed records (never a torn tail).
    pub bytes: Vec<u8>,
}

/// A batch of sealed-checkpoint + WAL-segment deltas cut by a primary
/// [`ShardedEngine`] for a log-shipping replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogShipment {
    /// Shard count of the plane that cut the shipment.
    pub shards: u32,
    /// Segment epoch the offsets are valid within (see
    /// [`ShardedEngine::wal_since`]).
    pub epoch: u64,
    /// Replication epoch of the plane that cut the shipment (see
    /// [`ShardedEngine::promote_to`]). A receiver on a newer epoch
    /// refuses the shipment as fenced.
    pub repl_epoch: u64,
    /// Partition (topology) epoch of the plane that cut the shipment.
    /// Incremental shipments only apply against an identical topology;
    /// a mismatch forces the replica to re-bootstrap (the bootstrap
    /// checkpoint embeds the new partition, which the replica adopts).
    pub part_epoch: u64,
    /// The primary's protocol time when the shipment was cut — the
    /// replica's staleness bound is measured against this.
    pub t_base: Timestamp,
    /// A sealed full-plane checkpoint, present on bootstrap shipments.
    pub checkpoint: Option<Vec<u8>>,
    /// Per-shard segment deltas, in shard order.
    pub segments: Vec<ShippedSegment>,
}

fn finite(m: &MotionState) -> bool {
    m.origin.x.is_finite()
        && m.origin.y.is_finite()
        && m.velocity.x.is_finite()
        && m.velocity.y.is_finite()
}

impl DensityEngine for ShardedEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn bulk_load(&mut self, objects: &[(ObjectId, MotionState)], t_now: Timestamp) {
        if self.is_fenced() {
            self.fenced_writes
                .fetch_add(objects.len() as u64, Ordering::SeqCst);
            return;
        }
        let h = self.horizon.h();
        let mut per_shard: Vec<Vec<(ObjectId, MotionState)>> =
            (0..self.plane.shards.len()).map(|_| Vec::new()).collect();
        for &(id, m) in objects {
            if !finite(&m) {
                // Route to shard 0 so the inner screening rejects (and
                // counts) the report exactly once.
                per_shard[0].push((id, m));
                continue;
            }
            let bbox = Rect::from_corners(m.position_at(m.t_ref), m.position_at(m.t_ref + h));
            for i in self.plane.part.route(&bbox) {
                per_shard[i].push((id, m));
            }
            self.router_table.insert(id.0, m);
        }
        self.recount_owned();
        self.updates_applied += objects.len() as u64;
        let plane = Arc::clone(&self.plane);
        let per_shard = Arc::new(per_shard);
        self.fan_out(move |i| {
            plane.write_shard(i).engine.bulk_load(&per_shard[i], t_now);
        });
        self.refresh_checkpoints();
    }

    fn apply_batch(&mut self, updates: &[Update]) {
        if self.is_fenced() {
            self.fenced_writes
                .fetch_add(updates.len() as u64, Ordering::SeqCst);
            return;
        }
        // Screen once at the router (the same window the inner engines
        // enforce) so rejects are counted exactly once, then route the
        // accepted traffic. One pass computes each update's complete
        // target set, so re-routing at a cut crossing never duplicates
        // a delivery within a shard.
        let rejected = screen_batch(updates, Some((self.t_base, self.horizon)));
        self.rejected_updates += rejected.len() as u64;
        let mut per_shard: Vec<Vec<Update>> =
            (0..self.plane.shards.len()).map(|_| Vec::new()).collect();
        let mut next = 0usize;
        for (idx, u) in updates.iter().enumerate() {
            if next < rejected.len() && rejected[next].0 == idx {
                next += 1;
                continue;
            }
            self.updates_applied += 1;
            let targets: Vec<usize> = self.route_targets(u).collect();
            for i in targets {
                per_shard[i].push(*u);
            }
            self.note_update(u);
        }
        // Per-shard batches apply concurrently (one task per shard):
        // each task takes only its own shard's write lock, so ingest
        // parallelism is shared-nothing like everything else here.
        let plane = Arc::clone(&self.plane);
        let per_shard = Arc::new(per_shard);
        self.fan_out(move |i| {
            if per_shard[i].is_empty() {
                return;
            }
            let mut s = plane.write_shard(i);
            s.wal.append_batch(&per_shard[i]);
            s.engine.apply_batch(&per_shard[i]);
        });
    }

    fn advance_to(&mut self, t_now: Timestamp) {
        if self.is_fenced() {
            self.fenced_writes.fetch_add(1, Ordering::SeqCst);
            return;
        }
        self.t_base = t_now;
        let plane = Arc::clone(&self.plane);
        self.fan_out(move |i| {
            let mut s = plane.write_shard(i);
            s.wal.append_advance(t_now);
            s.engine.advance_to(t_now);
        });
        if self.policy.is_some() {
            self.auto_rebalance();
        }
    }

    fn query(&self, q: &PdrQuery) -> EngineAnswer {
        self.try_query(q)
            .expect("sharded query hit a storage fault; use try_query when serving with faults")
    }

    fn try_query(&self, q: &PdrQuery) -> Result<EngineAnswer, StorageError> {
        self.assert_edge_covered(q.l);
        let started = Instant::now();
        let plane = Arc::clone(&self.plane);
        let q_owned = *q;
        let results = self.fan_out(move |i| plane.shard_query(i, &q_owned));
        let mut parts = Vec::with_capacity(results.len());
        for r in results {
            parts.push(r?);
        }
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        Ok(self.merge(parts, started))
    }

    fn degraded_query(&self, q: &PdrQuery) -> Option<EngineAnswer> {
        let started = Instant::now();
        let plane = Arc::clone(&self.plane);
        let q_owned = *q;
        let results = self.fan_out(move |i| plane.read_shard(i).engine.degraded_query(&q_owned));
        let parts: Option<Vec<EngineAnswer>> = results.into_iter().collect();
        let mut merged = self.merge(parts?, started);
        merged.exact = false;
        Some(merged)
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        let parts: Option<Vec<Vec<u8>>> = (0..self.plane.shards.len())
            .map(|i| self.plane.read_shard(i).engine.checkpoint())
            .collect();
        Some(self.compose_checkpoint(&parts?))
    }

    fn restore_from(&mut self, bytes: &[u8]) -> Result<(), RecoverError> {
        let payload = open_checkpoint(bytes)?;
        let mut r = ByteReader::new(payload);
        if r.get_u32()? != ADAPTIVE_CHECKPOINT_MAGIC {
            return Err(RecoverError::Mismatch(
                "not a sharded-plane checkpoint container",
            ));
        }
        let t_base = r.get_u64()?;
        let part = Partition::decode(&mut r)?;
        let table_len = r.get_u32()? as usize;
        let mut table = HashMap::with_capacity(table_len);
        for _ in 0..table_len {
            let id = r.get_u64()?;
            let origin = pdr_geometry::Point::new(r.get_f64()?, r.get_f64()?);
            let velocity = pdr_geometry::Point::new(r.get_f64()?, r.get_f64()?);
            let t_ref = r.get_u64()?;
            table.insert(
                id,
                MotionState {
                    origin,
                    velocity,
                    t_ref,
                },
            );
        }
        let n = r.get_u32()? as usize;
        if n != part.shards() {
            return Err(RecoverError::Mismatch(
                "checkpoint shard count disagrees with its own partition",
            ));
        }
        // Adopt the checkpoint's topology. When the leaf set differs
        // from the current plane's — a replica bootstrapping across a
        // split/merge, or a restore after a topology change — the plane
        // is re-shaped: fresh inner engines are minted by the stored
        // builder and every plane-level subscription re-routes to the
        // new owner set (with a resync marker on its next patch).
        let reshape = self.plane.part.leaves() != part.leaves();
        if reshape {
            let shards = (0..n)
                .map(|i| {
                    let header = SegmentHeader {
                        shard: part.leaves()[i].id,
                        shards: n as u32,
                    };
                    let wal = Wal::new_segment_with(header, WalCodec::V2);
                    let checkpoint_offset = wal.offset();
                    RwLock::new(ShardState {
                        engine: (self.builder)(i),
                        wal,
                        checkpoint: None,
                        checkpoint_offset,
                    })
                })
                .collect();
            self.plane = Arc::new(ShardPlane {
                part,
                shards,
                degraded: (0..n).map(|_| AtomicBool::new(false)).collect(),
            });
        } else {
            // Same leaf set; still adopt the epoch/next_id bookkeeping.
            Arc::get_mut(&mut self.plane)
                .expect("plane aliased outside a fan-out")
                .part = part;
        }
        let mut pos = payload.len() - r.remaining();
        for i in 0..n {
            let mut r = ByteReader::new(&payload[pos..]);
            let len = r.get_u64()? as usize;
            let crc = r.get_u32()?;
            let header = 12;
            let slice = payload
                .get(pos + header..pos + header + len)
                .ok_or(RecoverError::Codec(pdr_storage::CodecError::UnexpectedEof))?;
            if crc32(slice) != crc {
                return Err(RecoverError::Codec(pdr_storage::CodecError::Corrupt(
                    "per-shard checkpoint checksum mismatch",
                )));
            }
            pos += header + len;
            let mut s = self.plane.write_shard(i);
            s.engine.restore_from(slice)?;
            s.checkpoint = Some(slice.to_vec());
            s.wal = Wal::new_segment_with(
                SegmentHeader {
                    shard: self.plane.part.leaves()[i].id,
                    shards: n as u32,
                },
                WalCodec::V2,
            );
            s.checkpoint_offset = s.wal.offset();
            self.plane.degraded[i].store(false, Ordering::Release);
        }
        self.router_table = table;
        // Rewind the router clock to the checkpoint's: the screening
        // window must match the restored state, or replaying the
        // post-checkpoint log would reject its own earliest records
        // as stale.
        self.t_base = t_base;
        self.recount_owned();
        if reshape {
            self.reroute_subscriptions();
        }
        // Segments reset: start a new epoch so shipped byte offsets
        // from the old log can never be misread against the new one.
        self.wal_epoch += 1;
        Ok(())
    }

    fn set_fault_plan(&self, plan: FaultPlan) {
        // Scoped to shard 0: fault injection exercises *partial*
        // degradation — only the faulted shard's sub-domain degrades.
        self.set_shard_fault_plan(0, plan);
    }

    fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for i in 0..self.plane.shards.len() {
            total += self.plane.read_shard(i).engine.fault_stats();
        }
        total
    }

    fn interval_query(&self, rho: f64, l: f64, from: Timestamp, to: Timestamp) -> RegionSet {
        self.assert_edge_covered(l);
        let plane = Arc::clone(&self.plane);
        let parts = self.fan_out(move |i| {
            if plane.degraded[i].load(Ordering::Acquire) {
                // Filter-only union over the interval for a lost shard.
                let mut acc = RegionSet::new();
                for t in from..=to {
                    if let Some(a) = plane
                        .read_shard(i)
                        .engine
                        .degraded_query(&PdrQuery::new(rho, l, t))
                    {
                        acc.extend_from(&a.regions);
                    }
                }
                acc
            } else {
                plane.read_shard(i).engine.interval_query(rho, l, from, to)
            }
        });
        RegionSet::union_disjoint_clipped(
            parts
                .iter()
                .enumerate()
                .map(|(i, rs)| (rs, self.plane.part.owned(i))),
        )
    }

    fn subscriptions(&self) -> Option<&SubscriptionTable> {
        Some(&self.subs)
    }

    fn subscriptions_mut(&mut self) -> Option<&mut SubscriptionTable> {
        Some(&mut self.subs)
    }

    fn register_subscription(
        &mut self,
        rho: f64,
        l: f64,
        region: Rect,
        policy: QtPolicy,
    ) -> Result<SubId, SubError> {
        // The halo covers edges up to `l_max`; a wider standing query
        // would silently lose density at cut lines, so refuse it with a
        // typed error instead of maintaining a wrong answer.
        if l > self.l_max {
            return Err(SubError::EdgeExceedsHalo {
                l,
                l_max: self.l_max,
            });
        }
        let id = self.subs.register(rho, l, region, policy)?;
        let sub = *self.subs.get(id).expect("just registered");
        let owners = self.owners_of(&region);
        for &i in &owners {
            let mut s = self.plane.write_shard(i);
            match s.engine.subscriptions_mut() {
                Some(table) => table.register_with_id(sub),
                None => {
                    // Roll back: leave no half-registered subscription.
                    drop(s);
                    for &j in &owners {
                        if let Some(t) = self.plane.write_shard(j).engine.subscriptions_mut() {
                            t.unregister(id);
                        }
                    }
                    self.subs.unregister(id);
                    return Err(SubError::Unsupported);
                }
            }
        }
        self.sub_owners.insert(id.0, owners);
        Ok(id)
    }

    fn unregister_subscription(&mut self, id: SubId) -> bool {
        if !self.subs.unregister(id) {
            return false;
        }
        for i in self.sub_owners.remove(&id.0).unwrap_or_default() {
            if let Some(t) = self.plane.write_shard(i).engine.subscriptions_mut() {
                t.unregister(id);
            }
        }
        true
    }

    fn maintain_subscriptions(&mut self, now: Timestamp) -> Vec<AnswerDelta> {
        if self.subs.is_empty() {
            return Vec::new();
        }
        // Fan the inner incremental maintenance across shards — each
        // shard patches its own (full-domain) answers for the subs it
        // owns; the plane-level merge below turns those into one
        // cut-independent canonical answer per subscription.
        let plane = Arc::clone(&self.plane);
        self.fan_out(move |i| {
            plane.write_shard(i).engine.maintain_subscriptions(now);
        });
        let specs: Vec<Subscription> = self.subs.subs().copied().collect();
        let mut deltas = Vec::new();
        for sub in specs {
            let q_t = sub.policy.resolve(now);
            let owners = self.sub_owners.get(&sub.id.0).cloned().unwrap_or_default();
            // Clip each owning shard's maintained answer to its owned
            // rectangle and merge canonically: point-set equality of
            // the per-shard answers (the halo invariant) makes the
            // merged rect list bit-identical to the unsharded one. A
            // degraded owner cannot vouch for its sub-domain, so the
            // subscription is marked degraded rather than patched with
            // rects that may be wrong.
            let mut parts: Vec<(RegionSet, Rect)> = Vec::with_capacity(owners.len());
            let mut degraded = false;
            for &i in &owners {
                if self.plane.degraded[i].load(Ordering::Acquire) {
                    degraded = true;
                    break;
                }
                let s = self.plane.read_shard(i);
                let inner = s.engine.subscriptions();
                match (
                    inner.and_then(|t| t.answer(sub.id)),
                    inner.and_then(|t| t.is_degraded(sub.id)),
                ) {
                    (Some(rects), Some(false)) => parts.push((
                        RegionSet::from_rects(rects.iter().copied()),
                        self.plane.part.owned(i),
                    )),
                    _ => {
                        degraded = true;
                        break;
                    }
                }
            }
            let delta = if degraded {
                self.subs.mark_degraded(sub.id, now, q_t)
            } else {
                let merged =
                    RegionSet::union_disjoint_clipped(parts.iter().map(|(rs, r)| (rs, *r)));
                self.subs.commit(sub.id, merged, now, q_t)
            };
            deltas.extend(delta);
        }
        deltas
    }

    fn stats(&self) -> EngineStats {
        // Router-level counts for protocol totals (each input update
        // counted once, however many shards it was replicated to);
        // shard sums for capacity numbers (`objects` therefore counts
        // halo ghosts once per replica — it measures shard load, not
        // distinct objects).
        let mut memory_bytes = 0usize;
        let mut objects = 0usize;
        let mut missed_deletes = 0u64;
        let mut inner_rejected = 0u64;
        for i in 0..self.plane.shards.len() {
            let st = self.plane.read_shard(i).engine.stats();
            memory_bytes += st.memory_bytes;
            objects += st.objects;
            missed_deletes += st.missed_deletes;
            inner_rejected += st.rejected_updates;
        }
        EngineStats {
            updates_applied: self.updates_applied,
            missed_deletes,
            rejected_updates: self.rejected_updates + inner_rejected,
            memory_bytes,
            objects,
            queries_served: self.queries_served.load(Ordering::Relaxed),
        }
    }

    fn obs(&self) -> ObsReport {
        // Counters sum across shards; per-stage latency detail lives in
        // `shard_metrics_json` (histogram snapshots do not merge).
        let mut counters: Vec<(&'static str, u64)> = Vec::new();
        for i in 0..self.plane.shards.len() {
            for (name, v) in self.plane.read_shard(i).engine.obs().counters {
                match counters.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += v,
                    None => counters.push((name, v)),
                }
            }
        }
        // WAL append-path allocation accounting, mirroring the
        // `refine_allocs` pattern: records frame directly into the log
        // buffer, so this stays O(log bytes), not O(records).
        let (mut wal_allocs, mut wal_bytes) = (0u64, 0u64);
        for i in 0..self.plane.shards.len() {
            let s = self.plane.read_shard(i);
            wal_allocs += s.wal.allocs();
            wal_bytes += s.wal.offset() as u64;
        }
        counters.push(("wal_allocs", wal_allocs));
        counters.push(("wal_bytes", wal_bytes));
        counters.push(("repl_epoch", self.repl_epoch));
        counters.push(("fenced_writes", self.fenced_writes()));
        ObsReport {
            counters,
            stages: Vec::new(),
        }
    }

    fn set_obs_enabled(&mut self, on: bool) {
        for i in 0..self.plane.shards.len() {
            self.plane.write_shard(i).engine.set_obs_enabled(on);
        }
    }

    fn as_sharded(&self) -> Option<&ShardedEngine> {
        Some(self)
    }

    fn as_sharded_mut(&mut self) -> Option<&mut ShardedEngine> {
        Some(self)
    }

    fn shard_metrics_json(&self) -> Option<String> {
        let blocks: Vec<String> = (0..self.plane.shards.len())
            .map(|i| {
                let s = self.plane.read_shard(i);
                let st = s.engine.stats();
                let tile = self.plane.part.tile(i);
                format!(
                    "{{\"shard\":{i},\"segment\":\"{}\",\"tile\":[{},{},{},{}],\
                     \"degraded\":{},\"wal_records\":{},\"wal_bytes\":{},\
                     \"wal_codec\":\"{}\",\"wal_allocs\":{},\
                     \"objects\":{},\"updates_applied\":{},\"queries_served\":{},\
                     \"subs\":{},\"faults\":{},\"obs\":{}}}",
                    segment_name(i as u32),
                    crate::obs::json_f64(tile.x_lo),
                    crate::obs::json_f64(tile.y_lo),
                    crate::obs::json_f64(tile.x_hi),
                    crate::obs::json_f64(tile.y_hi),
                    self.plane.degraded[i].load(Ordering::Acquire),
                    s.wal.records(),
                    s.wal.bytes().len(),
                    s.wal.codec().label(),
                    s.wal.allocs(),
                    st.objects,
                    st.updates_applied,
                    st.queries_served,
                    s.engine.subscriptions().map_or(0, |t| t.len()),
                    s.engine.fault_stats().injected(),
                    s.engine.obs().to_json(),
                )
            })
            .collect();
        Some(format!("[{}]", blocks.join(",")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_geometry::Point;

    fn map_2x2() -> ShardMap {
        ShardMap::new(Rect::new(0.0, 0.0, 100.0, 100.0), 2, 2, 10.0)
    }

    #[test]
    fn owned_rects_tile_the_plane() {
        let map = map_2x2();
        assert_eq!(map.shards(), 4);
        // Every point belongs to exactly one owned rect (half-open).
        for &p in &[
            Point::new(0.0, 0.0),
            Point::new(50.0, 50.0),
            Point::new(49.999, 50.0),
            Point::new(-1e9, 1e9),
            Point::new(120.0, -3.0),
        ] {
            let owners: Vec<usize> = (0..4)
                .filter(|&i| map.owned(i).contains_half_open(p))
                .collect();
            assert_eq!(owners.len(), 1, "point {p:?} owned by {owners:?}");
        }
        // Tiles are finite and cover the nominal bounds.
        let mut area = 0.0;
        for i in 0..4 {
            area += map.tile(i).area();
        }
        assert!((area - 100.0 * 100.0).abs() < 1e-6);
    }

    #[test]
    fn routing_includes_halo_neighbors() {
        let map = map_2x2();
        // A box strictly inside shard 0's tile, far from cuts: one target.
        let inner = Rect::new(10.0, 10.0, 20.0, 20.0);
        assert_eq!(map.route(&inner).collect::<Vec<_>>(), vec![0]);
        // A box within halo distance of the x = 50 cut: shards 0 and 1.
        let near_cut = Rect::new(41.0, 10.0, 45.0, 20.0);
        assert_eq!(map.route(&near_cut).collect::<Vec<_>>(), vec![0, 1]);
        // A box on the cut crossing: all four.
        let center = Rect::new(49.0, 49.0, 51.0, 51.0);
        assert_eq!(map.route(&center).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // Outside the nominal bounds still routes (edge shards own the
        // plane out to infinity).
        let outside = Rect::new(150.0, 150.0, 160.0, 160.0);
        assert_eq!(map.route(&outside).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn one_by_one_map_routes_everything_to_shard_zero() {
        let map = ShardMap::new(Rect::new(0.0, 0.0, 100.0, 100.0), 1, 1, 0.0);
        let anywhere = Rect::new(-1e12, -1e12, 1e12, 1e12);
        assert_eq!(map.route(&anywhere).collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            map.route(&Rect::new(3.0, 3.0, 4.0, 4.0))
                .collect::<Vec<_>>(),
            vec![0]
        );
    }

    // -----------------------------------------------------------------
    // Adaptive partition
    // -----------------------------------------------------------------

    #[test]
    fn partition_from_grid_matches_shard_map() {
        let map = map_2x2();
        let part = Partition::from_grid(&map);
        assert_eq!(part.shards(), map.shards());
        assert_eq!(part.epoch(), 0);
        for i in 0..map.shards() {
            assert_eq!(part.tile(i), map.tile(i), "tile {i}");
            assert_eq!(part.owned(i), map.owned(i), "owned {i}");
        }
        for bbox in [
            Rect::new(10.0, 10.0, 20.0, 20.0),
            Rect::new(41.0, 10.0, 45.0, 20.0),
            Rect::new(49.0, 49.0, 51.0, 51.0),
            Rect::new(150.0, 150.0, 160.0, 160.0),
        ] {
            assert_eq!(
                part.route(&bbox).collect::<Vec<_>>(),
                map.route(&bbox).collect::<Vec<_>>(),
                "route {bbox:?}"
            );
        }
    }

    #[test]
    fn partition_split_and_merge_round_trip() {
        let map = ShardMap::new(Rect::new(0.0, 0.0, 100.0, 100.0), 1, 1, 15.0);
        let mut part = Partition::from_grid(&map);
        let before = part.clone();
        let kids = part.split(0);
        assert_eq!(part.shards(), 4);
        assert_eq!(part.epoch(), 1);
        assert_eq!(kids.len(), 4);
        // Children tile the parent exactly and own the whole plane.
        let mut area = 0.0;
        for i in 0..4 {
            area += part.tile(i).area();
            assert_eq!(part.leaves()[i].depth(), 1);
        }
        assert!((area - 100.0 * 100.0).abs() < 1e-9);
        for &p in &[
            Point::new(0.0, 0.0),
            Point::new(50.0, 50.0),
            Point::new(-1e9, 77.0),
            Point::new(25.0, 99.0),
        ] {
            let owners: Vec<usize> = (0..part.shards())
                .filter(|&i| part.owned(i).contains_half_open(p))
                .collect();
            assert_eq!(owners.len(), 1, "point {p:?} owned by {owners:?}");
        }
        // Split a child, then merge it back: the sibling group must
        // exclude the now-incomplete top-level set, include the new one.
        let sub = part.split(2);
        assert_eq!(part.shards(), 7);
        let groups = part.sibling_groups();
        assert_eq!(groups, vec![[2, 3, 4, 5]]);
        let parent = part.merge([2, 3, 4, 5]);
        assert_eq!(part.shards(), 4);
        assert!(!sub.contains(&parent), "merged leaf gets a fresh id");
        assert_eq!(part.sibling_groups(), vec![[0, 1, 2, 3]]);
        let top = part.merge([0, 1, 2, 3]);
        assert_eq!(part.shards(), 1);
        assert_eq!(part.tile(0), before.tile(0));
        assert_eq!(part.owned(0), before.owned(0));
        assert!(top != before.leaves()[0].id || part.epoch() != before.epoch());
    }

    #[test]
    fn partition_codec_round_trip() {
        let map = map_2x2();
        let mut part = Partition::from_grid(&map);
        part.split(1);
        part.split(3);
        let mut w = pdr_storage::ByteWriter::new();
        part.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = pdr_storage::ByteReader::new(&bytes);
        let back = Partition::decode(&mut r).expect("decodes");
        assert_eq!(back, part);
    }

    fn fr_cfg() -> crate::FrConfig {
        crate::FrConfig {
            extent: 100.0,
            m: 20, // pitch 5: halo = l/2 + 2·pitch = 15
            horizon: pdr_mobject::TimeHorizon::new(4, 4),
            buffer_pages: 16,
            threads: 1,
        }
    }

    fn fr_plane(sx: u32, sy: u32) -> ShardedEngine {
        let map = ShardMap::new(Rect::new(0.0, 0.0, 100.0, 100.0), sx, sy, 15.0);
        ShardedEngine::new(
            "fr",
            map,
            pdr_mobject::TimeHorizon::new(4, 4),
            0,
            1,
            10.0,
            |_| Box::new(crate::FrEngine::new(fr_cfg(), 0)),
        )
    }

    /// A hotspot cluster in the SW quadrant plus thin background — the
    /// shape that makes "split the hottest leaf" deterministic.
    fn hotspot_population() -> Vec<(ObjectId, MotionState)> {
        let mut pop = Vec::new();
        let mut id = 0u64;
        for i in 0..60 {
            let x = 10.0 + (i % 10) as f64 * 2.5;
            let y = 10.0 + (i / 10) as f64 * 3.0;
            pop.push((
                ObjectId(id),
                MotionState::new(Point::new(x, y), Point::new(0.3, 0.2), 0),
            ));
            id += 1;
        }
        for i in 0..12 {
            let x = 55.0 + (i % 4) as f64 * 10.0;
            let y = 55.0 + (i / 4) as f64 * 12.0;
            pop.push((
                ObjectId(id),
                MotionState::new(Point::new(x, y), Point::new(-0.4, 0.1), 0),
            ));
            id += 1;
        }
        pop
    }

    /// Satellite: halo ghosts must not count as load. An object inside
    /// one shard's owned rect but within halo reach of its neighbor is
    /// replicated into both engines, yet the policy-facing counters
    /// must see it exactly once.
    #[test]
    fn owned_load_counts_ghosts_once() {
        let mut plane = fr_plane(2, 2);
        // Right next to the x = 50 cut, owned by shard 0, ghosted into
        // shard 1 (49 + halo 15 crosses the cut).
        let near_cut = (
            ObjectId(7),
            MotionState::new(Point::new(49.0, 10.0), Point::new(0.0, 0.0), 0),
        );
        let deep_inside = (
            ObjectId(8),
            MotionState::new(Point::new(10.0, 10.0), Point::new(0.0, 0.0), 0),
        );
        plane.bulk_load(&[near_cut, deep_inside], 0);
        assert_eq!(plane.owned_objects(), &[2, 0, 0, 0]);
        // The raw engine population shows the replication: shard 1
        // carries the ghost.
        let ghosts: u64 = (0..4)
            .map(|i| plane.plane.read_shard(i).engine.stats().objects as u64)
            .sum::<u64>()
            - 2;
        assert!(ghosts >= 1, "expected at least one halo ghost");
        // A churn that moves the object across the cut moves ownership.
        let batch = vec![
            Update::delete(ObjectId(7), 1, near_cut.1),
            Update::insert(
                ObjectId(7),
                1,
                MotionState::new(Point::new(60.0, 10.0), Point::new(0.0, 0.0), 1),
            ),
        ];
        plane.advance_to(1);
        plane.apply_batch(&batch);
        assert_eq!(plane.owned_objects(), &[1, 1, 0, 0]);
        // Deletes drop the count entirely.
        plane.apply_batch(&[Update::delete(
            ObjectId(8),
            1,
            MotionState::new(Point::new(10.0, 10.0), Point::new(0.0, 0.0), 0),
        )]);
        assert_eq!(plane.owned_objects(), &[0, 1, 0, 0]);
    }

    /// Split (live migration to four children) and merge (rebuild from
    /// the router table) must both preserve answers bit-for-bit against
    /// the unsharded engine.
    #[test]
    fn split_then_merge_keeps_answers_bit_identical() {
        let pop = hotspot_population();
        let mut reference = crate::FrEngine::new(fr_cfg(), 0);
        reference.bulk_load(&pop, 0);
        let mut plane = fr_plane(1, 1);
        plane.bulk_load(&pop, 0);

        let check = |plane: &ShardedEngine, reference: &crate::FrEngine, t: Timestamp| {
            for q_t in t..=t + 2 {
                for (rho, l) in [(0.08, 10.0), (0.15, 10.0), (0.04, 10.0)] {
                    let q = PdrQuery::new(rho, l, q_t);
                    let mut want = reference.query(&q).regions;
                    want.canonicalize();
                    let got = plane.query(&q).regions;
                    assert_eq!(
                        got.rects(),
                        want.rects(),
                        "diverged at t={t} q_t={q_t} rho={rho} l={l} leaves={}",
                        plane.map().shards()
                    );
                }
            }
        };
        check(&plane, &reference, 0);

        let r = plane.rebalance_split().expect("first split");
        assert_eq!(r.leaves, 4);
        assert_eq!(plane.part_epoch(), 1);
        check(&plane, &reference, 0);

        // The hotspot sits in the SW child; a second split goes there.
        let r2 = plane.rebalance_split().expect("second split");
        assert_eq!(r2.leaves, 7);
        check(&plane, &reference, 0);

        // Keep churning after the migrations.
        plane.advance_to(1);
        reference.advance_to(1);
        let old = pop[3].1;
        let batch = vec![
            Update::delete(pop[3].0, 1, old),
            Update::insert(
                pop[3].0,
                1,
                MotionState::new(Point::new(80.0, 80.0), Point::new(0.5, -0.5), 1),
            ),
        ];
        plane.apply_batch(&batch);
        reference.apply_batch(&batch);
        check(&plane, &reference, 1);

        // Merge the deep group back, then the top-level one.
        let m = plane.rebalance_merge().expect("merge");
        assert_eq!(m.leaves, 4);
        check(&plane, &reference, 1);
        let m2 = plane.rebalance_merge().expect("merge to root");
        assert_eq!(m2.leaves, 1);
        check(&plane, &reference, 1);
        assert_eq!(plane.splits(), 2);
        assert_eq!(plane.merges(), 2);
    }

    /// A crash after the flip restores into the *new* topology; a fresh
    /// plane restoring the same checkpoint reshapes to match.
    #[test]
    fn checkpoint_restores_across_topology_change() {
        let pop = hotspot_population();
        let mut plane = fr_plane(1, 1);
        plane.bulk_load(&pop, 0);
        plane.rebalance_split().expect("split");
        plane.advance_to(1);
        let q = PdrQuery::new(0.08, 10.0, 1);
        let want = plane.query(&q).regions;
        let cp = plane.checkpoint().expect("composed checkpoint");

        // Restore into a fresh 1×1 plane: it must reshape to 4 leaves.
        let mut fresh = fr_plane(1, 1);
        fresh.restore_from(&cp).expect("reshaping restore");
        assert_eq!(fresh.map().shards(), 4);
        assert_eq!(fresh.part_epoch(), plane.part_epoch());
        assert_eq!(fresh.query(&q).regions.rects(), want.rects());

        // Restore into the same plane (the crash-recovery path).
        plane.restore_from(&cp).expect("self restore");
        assert_eq!(plane.query(&q).regions.rects(), want.rects());
    }
}
