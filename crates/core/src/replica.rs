//! Log-shipping read replicas of a sharded primary.
//!
//! A [`Replica`] wraps its own [`ShardedEngine`] (same grid, same
//! inner-engine configuration as the primary) and keeps it current by
//! ingesting [`LogShipment`]s — sealed checkpoints plus per-shard WAL
//! segment deltas cut by the primary's
//! [`wal_since`](ShardedEngine::wal_since). Because every engine
//! mutation is deterministic and the shipped records are exactly the
//! primary's post-routing WAL, a caught-up replica answers queries
//! **bit-identically** to the primary (the same invariant crash
//! recovery rests on — a replica is recovery running continuously on
//! another machine).
//!
//! Semantics:
//!
//! * **Read-only.** The replica serves `query`/`subscribe` traffic;
//!   direct `apply_batch`/`advance_to`/`bulk_load` calls are dropped
//!   and counted (`replica_updates_dropped`), never applied — state
//!   changes arrive only through [`Replica::ingest`].
//! * **Bounded staleness, reported.** Every shipment carries the
//!   primary's protocol time when it was cut; the replica's lag gauge
//!   is that time minus the last `advance_to` it has applied. Lag `0`
//!   means caught up *as of the last sync* — the bound is refreshed,
//!   not streamed.
//! * **Self-healing.** If the primary restored from a checkpoint (its
//!   segments reset), the replica's offsets stop matching and the next
//!   [`wal_since`](ShardedEngine::wal_since) automatically returns a
//!   bootstrap shipment; [`Replica::ingest`] restores it and replays
//!   the tail.

use crate::engine::{DensityEngine, EngineAnswer, EngineStats};
use crate::obs::ObsReport;
use crate::shard::{LogShipment, ShardedEngine};
use crate::sub::{AnswerDelta, QtPolicy, SubError, SubId, SubscriptionTable};
use crate::wal::RecoverError;
use crate::PdrQuery;
use pdr_geometry::{Rect, RegionSet};
use pdr_mobject::{MotionState, ObjectId, Timestamp, Update};
use pdr_storage::{CodecError, FaultPlan, FaultStats, StorageError};

/// A read-only, log-shipping replica of a primary [`ShardedEngine`].
pub struct Replica {
    inner: ShardedEngine,
    /// Primary segment byte offset applied through, per shard.
    applied: Vec<usize>,
    /// The primary segment epoch `applied` is valid within.
    epoch: u64,
    /// The replication epoch adopted from ingested shipments; shipments
    /// from an older epoch (a deposed primary) are refused as fenced.
    repl_epoch: u64,
    /// Set by [`promote`](Replica::promote): the replica is now a
    /// writable primary. Mutations delegate to the inner plane and
    /// further ingests are refused.
    promoted: bool,
    /// The primary's protocol time at the last ingested shipment.
    primary_t: Timestamp,
    /// The last `advance_to` timestamp this replica has applied.
    applied_t: Timestamp,
    shipments: u64,
    bootstraps: u64,
    shipped_bytes: u64,
    records_applied: u64,
    updates_dropped: u64,
    /// Shipment segments (or whole segment prefixes) skipped because the
    /// watermark showed them already applied — duplicate or out-of-order
    /// re-delivery acked without reapplying.
    duplicates: u64,
    /// Shipments refused because they were cut under a stale
    /// replication epoch.
    fenced_shipments: u64,
}

/// What one [`Replica::ingest`] call did, for logs and wire responses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// `true` when the shipment carried a checkpoint the replica
    /// restored before replaying tails.
    pub bootstrapped: bool,
    /// WAL records applied across all shards.
    pub records: u64,
    /// Updates contained in the applied batch records.
    pub updates: u64,
    /// The staleness bound after ingesting (see [`Replica::lag`]).
    pub lag: u64,
    /// Segments (or segment prefixes) skipped as already applied —
    /// duplicate re-delivery acked without reapplying.
    pub duplicates: u64,
}

impl Replica {
    /// Wraps a freshly built plane (same grid and inner configuration
    /// as the primary) as an empty replica awaiting its first
    /// bootstrap shipment. Until that bootstrap lands the replica
    /// reports **empty** offsets, so the primary's
    /// [`wal_since`](ShardedEngine::wal_since) always cuts a
    /// checkpoint-carrying shipment first — the replica's own fresh
    /// segments say nothing about the primary's log.
    pub fn new(inner: ShardedEngine) -> Self {
        Replica {
            inner,
            applied: Vec::new(),
            epoch: 0,
            repl_epoch: 0,
            promoted: false,
            primary_t: 0,
            applied_t: 0,
            shipments: 0,
            bootstraps: 0,
            shipped_bytes: 0,
            records_applied: 0,
            updates_dropped: 0,
            duplicates: 0,
            fenced_shipments: 0,
        }
    }

    /// The per-shard primary offsets this replica has applied through —
    /// what it reports to [`ShardedEngine::wal_since`] to receive only
    /// the delta.
    pub fn applied_offsets(&self) -> &[usize] {
        &self.applied
    }

    /// The primary segment epoch [`applied_offsets`](Self::applied_offsets)
    /// is valid within; reported alongside them to
    /// [`ShardedEngine::wal_since`].
    pub fn applied_epoch(&self) -> u64 {
        self.epoch
    }

    /// The replica's staleness bound: the primary's protocol time at
    /// the last sync minus the last applied `advance_to`. `0` means
    /// caught up as of that sync.
    pub fn lag(&self) -> u64 {
        self.primary_t.saturating_sub(self.applied_t)
    }

    /// The last applied `advance_to` timestamp.
    pub fn applied_t(&self) -> Timestamp {
        self.applied_t
    }

    /// Shipments ingested so far (including bootstraps).
    pub fn shipments(&self) -> u64 {
        self.shipments
    }

    /// Bootstrap (checkpoint-carrying) shipments ingested so far.
    pub fn bootstraps(&self) -> u64 {
        self.bootstraps
    }

    /// The replication epoch this replica has adopted from shipments
    /// (0 until the first ingest), or the one it promoted itself to.
    pub fn repl_epoch(&self) -> u64 {
        self.repl_epoch
    }

    /// `true` once [`promote`](Replica::promote) has turned this
    /// replica into a writable primary.
    pub fn promoted(&self) -> bool {
        self.promoted
    }

    /// Duplicate segments (or segment prefixes) skipped by the applied
    /// watermark — acked without reapplying.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Shipments refused because their replication epoch was stale.
    pub fn fenced_shipments(&self) -> u64 {
        self.fenced_shipments
    }

    /// Promotes this replica to a writable primary: seals the applied
    /// state under a fresh checkpoint and bumps the replication epoch
    /// strictly past the one it replicated, fencing the deposed
    /// primary's lineage. After promotion the wrapper delegates
    /// mutations to the inner plane (which WAL-logs them, so the new
    /// primary can ship to followers of its own) and refuses further
    /// ingests. Idempotent: promoting twice keeps the first epoch.
    /// Returns the replication epoch the node now writes under.
    pub fn promote(&mut self) -> u64 {
        if self.promoted {
            return self.repl_epoch;
        }
        // A never-synced replica still promotes past the default
        // primary epoch (1), so its lineage fences the old one.
        self.repl_epoch = self.repl_epoch.max(1) + 1;
        self.promoted = true;
        self.inner.promote_to(self.repl_epoch);
        self.repl_epoch
    }

    /// Read access to the replicated plane (the promoted node's
    /// primary plane).
    pub fn plane(&self) -> &ShardedEngine {
        &self.inner
    }

    /// Ingests one shipment: restores the checkpoint when present,
    /// then replays every shipped segment tail in shard order.
    ///
    /// Re-delivery is **idempotent**: a segment (or segment prefix)
    /// the applied watermark shows as already applied is skipped and
    /// acked — counted in [`duplicates`](Replica::duplicates) — never
    /// reapplied and never an error, so duplicate or out-of-order
    /// shipments cannot wedge the replica. A shipment that *skips*
    /// ahead of the watermark (a gap) is refused with a mismatch — the
    /// caller re-syncs from empty offsets, which makes the primary cut
    /// a bootstrap. A shipment cut under a replication epoch older
    /// than the replica's is refused with the typed
    /// [`RecoverError::Fenced`] error: it comes from a deposed primary.
    pub fn ingest(&mut self, ship: &LogShipment) -> Result<IngestReport, RecoverError> {
        if self.promoted {
            return Err(RecoverError::Mismatch(
                "promoted primary no longer ingests shipments",
            ));
        }
        if ship.repl_epoch < self.repl_epoch {
            self.fenced_shipments += 1;
            return Err(RecoverError::Fenced {
                stale: ship.repl_epoch,
                current: self.repl_epoch,
            });
        }
        if ship.segments.len() != ship.shards as usize {
            return Err(RecoverError::Mismatch("shipment is missing shards"));
        }
        // A bootstrap shipment carries the primary's full partition
        // inside the checkpoint, so the replica *reshapes* to whatever
        // topology the primary has — no shard-count pre-check. Only an
        // incremental shipment must match the replica's current
        // topology exactly (count and partition epoch): after a
        // split/merge the primary's segment identities are new, and
        // applying its deltas against the old leaves would corrupt.
        if ship.checkpoint.is_none() {
            if ship.shards as usize != self.inner.map().shards() {
                return Err(RecoverError::Mismatch(
                    "shipment cut at a different shard count",
                ));
            }
            if ship.part_epoch != self.inner.part_epoch() {
                return Err(RecoverError::Mismatch(
                    "incremental shipment from a different partition epoch",
                ));
            }
        }
        let mut report = IngestReport::default();
        if let Some(cp) = &ship.checkpoint {
            self.inner.restore_from(cp)?;
            report.bootstrapped = true;
            self.bootstraps += 1;
            // The checkpoint state corresponds to each segment's
            // `start`; tails replay forward from there. A bootstrap
            // ships everything through the cut, so after the tails
            // land the replica is caught up to the primary's clock.
            // Segment identity is the *stable leaf id*; map each onto
            // the freshly restored partition's leaf order.
            self.applied = vec![0; ship.shards as usize];
            for seg in &ship.segments {
                let Some(i) = self.inner.map().index_of_id(seg.shard) else {
                    return Err(RecoverError::Mismatch("shipment names an unknown shard"));
                };
                self.applied[i] = seg.start;
            }
            self.epoch = ship.epoch;
            self.applied_t = ship.t_base;
        } else if self.applied.is_empty() {
            // A primary that has never checkpointed legitimately ships
            // its **full history** with no checkpoint: every segment
            // starts right past its header, which this fresh plane can
            // replay from scratch. Anything else needs a checkpoint.
            if ship
                .segments
                .iter()
                .any(|s| s.start != crate::wal::SEGMENT_HEADER_LEN)
            {
                return Err(RecoverError::Mismatch(
                    "replica has no state yet; first shipment must bootstrap",
                ));
            }
            self.applied = vec![crate::wal::SEGMENT_HEADER_LEN; ship.shards as usize];
            self.epoch = ship.epoch;
        } else if ship.epoch != self.epoch {
            return Err(RecoverError::Mismatch(
                "incremental shipment from a different segment epoch",
            ));
        }
        // First pass: classify every segment against the watermark
        // before mutating anything, so a refused shipment leaves the
        // replica exactly as it was (no half-applied shipment).
        let mut tails: Vec<(usize, usize)> = Vec::with_capacity(ship.segments.len());
        for seg in &ship.segments {
            let Some(i) = self.inner.map().index_of_id(seg.shard) else {
                return Err(RecoverError::Mismatch("shipment names an unknown shard"));
            };
            if i >= self.applied.len() {
                return Err(RecoverError::Mismatch("shipment names an unknown shard"));
            }
            let a = self.applied[i];
            let skip = if seg.start > a {
                // The shipment starts past what we applied: records in
                // between were lost. Refuse; the caller re-bootstraps.
                return Err(RecoverError::Mismatch(
                    "shipment leaves a gap past the applied watermark",
                ));
            } else if seg.start + seg.bytes.len() <= a {
                // Entirely at or before the watermark: a duplicate
                // re-delivery. Ack without reapplying.
                seg.bytes.len()
            } else {
                // Overlapping re-delivery: the prefix through the
                // watermark was already applied; the suffix is new. The
                // cut must fall on a record boundary or the shipment
                // disagrees with what we applied.
                let cut = a - seg.start;
                if !crate::wal::record_boundaries(&seg.bytes).contains(&cut) {
                    return Err(RecoverError::Codec(CodecError::Corrupt(
                        "shipment overlap does not align with a record boundary",
                    )));
                }
                cut
            };
            tails.push((i, skip));
        }
        for (seg, &(i, skip)) in ship.segments.iter().zip(&tails) {
            if skip > 0 {
                self.duplicates += 1;
                report.duplicates += 1;
            }
            let tail = &seg.bytes[skip..];
            if tail.is_empty() {
                continue;
            }
            let summary = self.inner.apply_segment_tail(i, tail)?;
            self.applied[i] += tail.len();
            self.shipped_bytes += tail.len() as u64;
            report.records += summary.records;
            report.updates += summary.updates;
            if let Some(t) = summary.last_advance {
                self.applied_t = self.applied_t.max(t);
            }
        }
        self.repl_epoch = self.repl_epoch.max(ship.repl_epoch);
        self.primary_t = self.primary_t.max(ship.t_base);
        self.shipments += 1;
        self.records_applied += report.records;
        report.lag = self.lag();
        Ok(report)
    }
}

impl DensityEngine for Replica {
    fn name(&self) -> &'static str {
        "replica"
    }

    // ------------------------------------------------------------------
    // Read-only surface: mutations are dropped and counted, never
    // applied — state arrives only through `ingest` — until the node
    // is promoted, after which they delegate to the inner plane (which
    // WAL-logs them, so the new primary ships to its own followers).
    // ------------------------------------------------------------------

    fn bulk_load(&mut self, objects: &[(ObjectId, MotionState)], t_now: Timestamp) {
        if self.promoted {
            self.inner.bulk_load(objects, t_now);
        } else {
            self.updates_dropped += objects.len() as u64;
        }
    }

    fn apply_batch(&mut self, updates: &[Update]) {
        if self.promoted {
            self.inner.apply_batch(updates);
        } else {
            self.updates_dropped += updates.len() as u64;
        }
    }

    fn advance_to(&mut self, t_now: Timestamp) {
        if self.promoted {
            self.inner.advance_to(t_now);
            self.applied_t = self.applied_t.max(t_now);
        }
    }

    // ------------------------------------------------------------------
    // Query surface: served from the replicated plane.
    // ------------------------------------------------------------------

    fn query(&self, q: &PdrQuery) -> EngineAnswer {
        self.inner.query(q)
    }

    fn try_query(&self, q: &PdrQuery) -> Result<EngineAnswer, StorageError> {
        self.inner.try_query(q)
    }

    fn degraded_query(&self, q: &PdrQuery) -> Option<EngineAnswer> {
        self.inner.degraded_query(q)
    }

    fn interval_query(&self, rho: f64, l: f64, from: Timestamp, to: Timestamp) -> RegionSet {
        self.inner.interval_query(rho, l, from, to)
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        self.inner.checkpoint()
    }

    fn restore_from(&mut self, bytes: &[u8]) -> Result<(), RecoverError> {
        self.inner.restore_from(bytes)
    }

    fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner.set_fault_plan(plan);
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn subscriptions(&self) -> &SubscriptionTable {
        self.inner.subscriptions()
    }

    fn subscriptions_mut(&mut self) -> &mut SubscriptionTable {
        self.inner.subscriptions_mut()
    }

    fn register_subscription(
        &mut self,
        rho: f64,
        l: f64,
        region: Rect,
        policy: QtPolicy,
    ) -> Result<SubId, SubError> {
        self.inner.register_subscription(rho, l, region, policy)
    }

    fn maintain_subscriptions(&mut self, now: Timestamp) -> Vec<AnswerDelta> {
        // Standing queries on a replica are maintained against
        // *applied* time: a subscription never observes state the
        // replica has not replayed. A promoted node's clock is its
        // own, so `now` applies directly.
        let t = if self.promoted {
            now
        } else {
            now.min(self.applied_t)
        };
        self.inner.maintain_subscriptions(t)
    }

    fn stats(&self) -> EngineStats {
        let mut st = self.inner.stats();
        st.rejected_updates += self.updates_dropped;
        st
    }

    fn obs(&self) -> ObsReport {
        let mut report = self.inner.obs();
        report.counters.push(("replica_lag", self.lag()));
        report.counters.push(("replica_shipments", self.shipments));
        report
            .counters
            .push(("replica_bootstraps", self.bootstraps));
        report
            .counters
            .push(("replica_shipped_bytes", self.shipped_bytes));
        report
            .counters
            .push(("replica_records_applied", self.records_applied));
        report
            .counters
            .push(("replica_updates_dropped", self.updates_dropped));
        report
            .counters
            .push(("replica_duplicates", self.duplicates));
        report
            .counters
            .push(("replica_fenced_shipments", self.fenced_shipments));
        report
            .counters
            .push(("replica_promoted", self.promoted as u64));
        report
    }

    fn set_obs_enabled(&mut self, on: bool) {
        self.inner.set_obs_enabled(on);
    }

    fn shard_metrics_json(&self) -> Option<String> {
        self.inner.shard_metrics_json()
    }

    // A promoted node presents as a sharded primary (its plane cuts
    // shipments for followers) and stops presenting as a replica, so
    // front-ends resolve clocks and roles from the real state.

    fn as_sharded(&self) -> Option<&ShardedEngine> {
        self.promoted.then_some(&self.inner)
    }

    fn as_sharded_mut(&mut self) -> Option<&mut ShardedEngine> {
        self.promoted.then_some(&mut self.inner)
    }

    fn as_replica(&self) -> Option<&Replica> {
        (!self.promoted).then_some(self)
    }

    fn as_replica_mut(&mut self) -> Option<&mut Replica> {
        (!self.promoted).then_some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Partition;
    use crate::{FrConfig, FrEngine};
    use pdr_geometry::Point;
    use pdr_mobject::TimeHorizon;

    fn fr_cfg() -> FrConfig {
        FrConfig {
            extent: 100.0,
            m: 20,
            horizon: TimeHorizon::new(4, 2),
            buffer_pages: 8,
            threads: 1,
        }
    }

    fn plane(sx: u32, sy: u32) -> ShardedEngine {
        let part = Partition::grid(Rect::new(0.0, 0.0, 100.0, 100.0), sx, sy, 30.0);
        ShardedEngine::new("fr", part, TimeHorizon::new(4, 2), 0, 14.0, |_| {
            Box::new(FrEngine::new(fr_cfg(), 0))
        })
    }

    fn seed_objects() -> Vec<(ObjectId, MotionState)> {
        (0..40u64)
            .map(|i| {
                (
                    ObjectId(i),
                    MotionState::new(
                        Point::new(5.0 + (i % 10) as f64 * 9.0, 5.0 + (i / 10) as f64 * 20.0),
                        Point::new(0.5, 0.25),
                        0,
                    ),
                )
            })
            .collect()
    }

    fn probe(primary: &ShardedEngine, replica: &Replica, t: Timestamp) {
        for q in [
            PdrQuery::new(2.0, 10.0, t),
            PdrQuery::new(1.0, 12.0, t + 1),
            PdrQuery::new(3.0, 14.0, t + 2),
        ] {
            let a = primary.query(&q);
            let b = replica.query(&q);
            assert_eq!(
                a.regions.rects(),
                b.regions.rects(),
                "replica answer diverged at t={t}"
            );
        }
    }

    #[test]
    fn replica_catches_up_and_answers_bit_identically() {
        let mut primary = plane(2, 2);
        primary.bulk_load(&seed_objects(), 0);
        let mut replica = Replica::new(plane(2, 2));

        // Bootstrap: empty offsets force a checkpoint shipment.
        let ship = primary.wal_since(replica.applied_epoch(), &[]);
        assert!(ship.checkpoint.is_some());
        let rep = replica.ingest(&ship).expect("bootstrap ingests");
        assert!(rep.bootstrapped);
        probe(&primary, &replica, 0);

        // Steady state: ticks ship incrementally.
        for t in 1..=6u64 {
            primary.advance_to(t);
            let batch: Vec<Update> = (0..6u64)
                .map(|i| {
                    Update::insert(
                        ObjectId(100 + t * 10 + i),
                        t,
                        MotionState::new(
                            Point::new(10.0 + i as f64 * 12.0, 40.0 + t as f64 * 3.0),
                            Point::new(-0.3, 0.4),
                            t,
                        ),
                    )
                })
                .collect();
            primary.apply_batch(&batch);
            let ship = primary.wal_since(replica.applied_epoch(), replica.applied_offsets());
            assert!(ship.checkpoint.is_none(), "steady state ships deltas");
            let rep = replica.ingest(&ship).expect("delta ingests");
            assert_eq!(rep.lag, 0, "caught up after sync");
            assert_eq!(replica.applied_offsets(), primary.wal_offsets());
            probe(&primary, &replica, t);
        }

        // Direct writes to the replica are dropped, not applied.
        let before = replica.stats().objects;
        replica.apply_batch(&[Update::insert(
            ObjectId(9999),
            6,
            MotionState::new(Point::new(50.0, 50.0), Point::new(0.0, 0.0), 6),
        )]);
        assert_eq!(replica.stats().objects, before);
        assert_eq!(
            replica
                .obs()
                .counters
                .iter()
                .find(|(n, _)| *n == "replica_updates_dropped")
                .map(|(_, v)| *v),
            Some(1)
        );
    }

    #[test]
    fn plane_checkpoint_is_the_bootstrap_recovery_point() {
        // A plane checkpoint taken after 20 ticks becomes every shard's
        // recovery point: a later bootstrap ships it plus only the
        // segment tails from the offsets it recorded, not everything
        // since the bulk load.
        let mut primary = plane(2, 2);
        primary.bulk_load(&seed_objects(), 0);
        let tick = |primary: &mut ShardedEngine, t: Timestamp| {
            primary.advance_to(t);
            let batch: Vec<Update> = (0..6u64)
                .map(|i| {
                    Update::insert(
                        ObjectId(1000 + t * 10 + i),
                        t,
                        MotionState::new(
                            Point::new(45.0 + i as f64, 48.0 + (t % 4) as f64),
                            Point::new(0.2, -0.1),
                            t,
                        ),
                    )
                })
                .collect();
            primary.apply_batch(&batch);
        };
        for t in 1..=20 {
            tick(&mut primary, t);
        }
        primary.checkpoint().expect("plane checkpoints");
        let marks = primary.wal_offsets();
        for t in 21..=23 {
            tick(&mut primary, t);
        }

        let ship = primary.wal_since(primary.wal_epoch(), &[]);
        assert!(ship.checkpoint.is_some());
        let starts: Vec<usize> = ship.segments.iter().map(|s| s.start).collect();
        assert_eq!(starts, marks, "tails start at the checkpoint's offsets");
        let mut replica = Replica::new(plane(2, 2));
        assert!(
            replica
                .ingest(&ship)
                .expect("bootstrap ingests")
                .bootstrapped
        );
        assert_eq!(replica.applied_offsets(), primary.wal_offsets());
        probe(&primary, &replica, 23);
        let mut dense = 0;
        for q in [PdrQuery::new(0.03, 10.0, 23), PdrQuery::new(0.05, 12.0, 24)] {
            let a = primary.query(&q).regions;
            assert_eq!(a.rects(), replica.query(&q).regions.rects(), "{q:?}");
            dense += a.rects().len();
        }
        assert!(dense > 0, "the probes found no dense region to compare");
    }

    #[test]
    fn primary_restore_forces_replica_bootstrap() {
        let mut primary = plane(1, 1);
        primary.bulk_load(&seed_objects(), 0);
        let mut replica = Replica::new(plane(1, 1));
        replica
            .ingest(&primary.wal_since(replica.applied_epoch(), &[]))
            .expect("bootstrap");

        primary.advance_to(1);
        replica
            .ingest(&primary.wal_since(replica.applied_epoch(), replica.applied_offsets()))
            .expect("delta");

        // The primary crashes and restores: its segments reset, so the
        // replica's offsets overshoot and the next shipment is a
        // bootstrap again.
        let cp = primary.checkpoint().expect("plane checkpoints");
        primary.restore_from(&cp).expect("restores");
        primary.advance_to(2);
        let ship = primary.wal_since(replica.applied_epoch(), replica.applied_offsets());
        assert!(
            ship.checkpoint.is_some(),
            "offset regression must cut a bootstrap shipment"
        );
        let rep = replica.ingest(&ship).expect("re-bootstrap ingests");
        assert!(rep.bootstrapped);
        probe(&primary, &replica, 2);
    }

    #[test]
    fn mismatched_grid_reshapes_on_bootstrap_refuses_incrementals() {
        // Bootstraps are self-describing: a 1×1 replica pulling from a
        // 2×2 primary reshapes to the primary's partition and answers
        // bit-identically.
        let mut primary = plane(2, 2);
        primary.bulk_load(&seed_objects(), 0);
        let mut replica = Replica::new(plane(1, 1));
        let report = replica
            .ingest(&primary.wal_since(replica.applied_epoch(), &[]))
            .expect("bootstrap reshapes across topologies");
        assert!(report.bootstrapped);
        assert_eq!(replica.plane().map().shards(), 4);
        probe(&primary, &replica, 0);
        // An *incremental* shipment cut at a different shard count (or
        // partition epoch) is still refused — only bootstraps reshape.
        let mut other = plane(3, 3);
        other.bulk_load(&seed_objects(), 0);
        let mut ship = other.wal_since(0, &[0; 9]);
        ship.checkpoint = None;
        let err = replica.ingest(&ship).unwrap_err();
        assert!(matches!(err, RecoverError::Mismatch(_)));
    }
}
