//! Chaos fuzz of the replication plane: a primary and two log-shipping
//! replicas run under seeded random interleavings of writes, shipment
//! loss/duplication/re-delivery, primary crash-restores, replica loss,
//! and one mid-run failover (graceful promote + epoch fencing of the
//! deposed primary). An unfaulted **oracle** plane receives exactly the
//! acknowledged write stream and nothing else.
//!
//! Invariants, at 1×1 (routing degenerate) and 2×2 (cut lines + halos)
//! grids:
//!
//! * **No acknowledged update is ever lost** — after convergence every
//!   node answers bit-identically to the oracle.
//! * **Duplicated or re-delivered shipments are acked, not reapplied**
//!   — the replica's answers are unchanged and the duplicate counter
//!   advances instead.
//! * **Epoch fencing is absolute** — a deposed primary's writes are
//!   dropped and counted, and its shipments are refused with the typed
//!   `Fenced` error by any node that has seen the newer epoch.

use pdr_core::{DensityEngine, EngineSpec, FrConfig, PdrQuery, RecoverError};
use pdr_geometry::Point;
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Timestamp, Update};
use std::collections::BTreeMap;

mod common;
use common::Lcg;

const EXTENT: f64 = 100.0;
const IDS: u64 = 40;

fn fr_cfg() -> FrConfig {
    FrConfig {
        extent: EXTENT,
        m: 20, // cell edge 5 ≤ l/2 for the l ≥ 10 probes below
        horizon: TimeHorizon::new(4, 2),
        buffer_pages: 8,
        threads: 1,
    }
}

fn sharded_spec(sx: u32, sy: u32) -> EngineSpec {
    EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(fr_cfg())),
        sx,
        sy,
        l_max: 14.0,
    }
}

fn random_motion(rng: &mut Lcg, t_ref: Timestamp) -> MotionState {
    MotionState::new(
        Point::new(rng.in_range(0.0, EXTENT), rng.in_range(0.0, EXTENT)),
        Point::new(rng.in_range(-1.0, 1.0), rng.in_range(-1.0, 1.0)),
        t_ref,
    )
}

fn random_batch(
    rng: &mut Lcg,
    shadow: &mut BTreeMap<ObjectId, MotionState>,
    t: Timestamp,
) -> Vec<Update> {
    let mut batch = Vec::new();
    for _ in 0..(1 + rng.below(7)) {
        let id = ObjectId(rng.below(IDS));
        let insert = Update::insert(id, t, random_motion(rng, t));
        if let Some(old) = shadow.get(&id).copied() {
            batch.push(Update::delete(id, t, old));
        }
        shadow.insert(id, insert.motion());
        batch.push(insert);
    }
    batch
}

fn probes(t: Timestamp) -> Vec<PdrQuery> {
    vec![
        PdrQuery::new(0.02, 10.0, t),
        PdrQuery::new(0.01, 12.0, t + 1),
        PdrQuery::new(0.03, 14.0, t + 2),
    ]
}

/// Ships the current primary's log to `replica` until it is caught up,
/// self-healing a refused shipment with an empty-offsets bootstrap.
/// Panics on a `Fenced` refusal — the caller only syncs from the live
/// lineage, where fencing would be a split-brain bug.
fn sync_from(primary: &dyn DensityEngine, replica: &mut dyn DensityEngine, ctx: &str) {
    let plane = primary.as_sharded().expect("primary surface");
    let rep = replica.as_replica_mut().expect("replica surface");
    let ship = plane.wal_since(rep.applied_epoch(), rep.applied_offsets());
    if let Err(e) = rep.ingest(&ship) {
        assert!(
            !matches!(e, RecoverError::Fenced { .. }),
            "live-lineage sync must never fence ({e:?}), {ctx}"
        );
        let ship = plane.wal_since(rep.applied_epoch(), &[]);
        rep.ingest(&ship)
            .unwrap_or_else(|e| panic!("bootstrap must self-heal ({e:?}), {ctx}"));
    }
    assert_eq!(rep.lag(), 0, "caught up after sync, {ctx}");
}

/// Compares two engines over the probe set, bit-for-bit.
fn assert_identical(a: &dyn DensityEngine, b: &dyn DensityEngine, t: Timestamp, ctx: &str) {
    for q in probes(t) {
        let ra = a.query(&q);
        let rb = b.query(&q);
        assert_eq!(
            ra.regions.rects(),
            rb.regions.rects(),
            "answers diverged on {q:?}, {ctx}"
        );
    }
}

#[test]
fn chaos_cluster_converges_to_oracle_under_faults_and_failover() {
    let mut failovers = 0u32;
    for (sx, sy) in [(1, 1), (2, 2)] {
        for seed in [0x01CE_D05Eu64, 0x0FA1_10E5, 0x5EED_CAFE] {
            failovers += chaos_case(sx, sy, seed) as u32;
        }
    }
    // The schedule is seeded, so this is deterministic: the suite must
    // actually exercise the promote + fencing path, not just happen to.
    assert!(failovers >= 3, "failover path under-covered: {failovers}/6");
}

/// Runs one seeded chaos schedule; returns whether a failover fired.
fn chaos_case(sx: u32, sy: u32, seed: u64) -> bool {
    let ctx = |step: usize| format!("grid {sx}x{sy} seed {seed:#x} step {step}");
    let spec = sharded_spec(sx, sy);
    // The oracle receives exactly the acknowledged writes, unfaulted.
    let mut oracle = spec.try_build(0).expect("oracle builds");
    let mut primary = spec.try_build(0).expect("primary builds");
    let mut replicas = vec![
        spec.try_build_replica(0).expect("replica A builds"),
        spec.try_build_replica(0).expect("replica B builds"),
    ];
    // The deposed primary after the failover event, kept around to
    // prove fencing, together with its frozen clock (it receives no
    // advances after losing the crown, so probes must use its time).
    let mut deposed: Option<(Box<dyn DensityEngine>, Timestamp)> = None;

    let mut rng = Lcg(seed);
    let mut shadow = BTreeMap::new();
    let mut t: Timestamp = 0;
    // A shipment deliberately held back for later re-delivery.
    let mut delayed: Option<(usize, pdr_core::LogShipment)> = None;
    let mut dup_acks = 0u64;

    for step in 0..80 {
        match rng.below(12) {
            // Writes go to the live primary AND the oracle: once both
            // applied, the update is acknowledged and must survive.
            0..=3 => {
                let batch = random_batch(&mut rng, &mut shadow, t);
                primary.apply_batch(&batch);
                oracle.apply_batch(&batch);
            }
            4 => {
                t += 1;
                primary.advance_to(t);
                oracle.advance_to(t);
            }
            // Normal sync of a random replica, then a caught-up
            // bit-identity check against the primary.
            5..=6 => {
                let i = rng.below(replicas.len() as u64) as usize;
                sync_from(primary.as_ref(), replicas[i].as_mut(), &ctx(step));
                assert_identical(primary.as_ref(), replicas[i].as_ref(), t, &ctx(step));
            }
            // Duplicate delivery: the same shipment ingested twice.
            // The second pass must ack without reapplying.
            7 => {
                let i = rng.below(replicas.len() as u64) as usize;
                let plane = primary.as_sharded().expect("primary surface");
                let rep = replicas[i].as_replica_mut().expect("replica surface");
                let ship = plane.wal_since(rep.applied_epoch(), rep.applied_offsets());
                if rep.ingest(&ship).is_ok() {
                    let before = rep.duplicates();
                    let second = rep.ingest(&ship).unwrap_or_else(|e| {
                        panic!("duplicate delivery must ack ({e:?}), {}", ctx(step))
                    });
                    let shipped_bytes = ship.segments.iter().any(|s| !s.bytes.is_empty());
                    if shipped_bytes && !second.bootstrapped {
                        assert!(
                            rep.duplicates() > before,
                            "re-delivery must count as duplicate, {}",
                            ctx(step)
                        );
                        dup_acks += 1;
                    }
                    assert_identical(primary.as_ref(), replicas[i].as_ref(), t, &ctx(step));
                }
            }
            // Hold a shipment back now, re-deliver it (stale and
            // out-of-order) at a later step.
            8 => match delayed.take() {
                None => {
                    let i = rng.below(replicas.len() as u64) as usize;
                    let plane = primary.as_sharded().expect("primary surface");
                    let rep = replicas[i].as_replica().expect("replica surface");
                    delayed = Some((
                        i,
                        plane.wal_since(rep.applied_epoch(), rep.applied_offsets()),
                    ));
                }
                Some((i, ship)) => {
                    // By now the replica may have moved past it, the
                    // epoch may have changed, or a failover happened:
                    // every outcome except silent divergence is legal.
                    let rep = replicas.get_mut(i).and_then(|r| r.as_replica_mut());
                    if let Some(rep) = rep {
                        match rep.ingest(&ship) {
                            Ok(_) | Err(RecoverError::Mismatch(_)) => {}
                            Err(RecoverError::Fenced { stale, current }) => {
                                assert!(stale < current, "{}", ctx(step));
                            }
                            Err(e) => {
                                panic!("stale re-delivery broke ingest ({e:?}), {}", ctx(step))
                            }
                        }
                    }
                }
            },
            // Primary crash: checkpoint + restore is state-identical
            // but resets WAL segments under a fresh segment epoch, so
            // replicas must re-bootstrap transparently.
            9 => {
                if let Some(cp) = primary.checkpoint() {
                    primary
                        .restore_from(&cp)
                        .unwrap_or_else(|e| panic!("restore ({e:?}), {}", ctx(step)));
                }
            }
            // Replica loss: fresh, empty, bootstraps on next sync.
            10 => {
                let i = rng.below(replicas.len() as u64) as usize;
                replicas[i] = spec.try_build_replica(0).expect("replica rebuilds");
                if let Some((j, _)) = delayed {
                    if i == j {
                        delayed = None;
                    }
                }
            }
            // Failover (once per run): gracefully promote replica 0 —
            // final sync, promote, fence the deposed primary.
            11 if deposed.is_none() && step > 20 => {
                sync_from(primary.as_ref(), replicas[0].as_mut(), &ctx(step));
                let mut new_primary = replicas.remove(0);
                let epoch = new_primary
                    .as_replica_mut()
                    .expect("promotable replica")
                    .promote();
                assert!(epoch >= 2, "promotion bumps the epoch, {}", ctx(step));
                // Promotion preserves the replicated state exactly.
                assert_identical(oracle.as_ref(), new_primary.as_ref(), t, &ctx(step));
                let old = std::mem::replace(&mut primary, new_primary);
                // The deposed primary observes the newer epoch (as it
                // would on the next ship_log contact) and fences.
                let old_plane = old.as_sharded().expect("deposed primary surface");
                assert!(old_plane.fence_if_stale(epoch), "fence engages");
                deposed = Some((old, t));
            }
            _ => {}
        }
    }

    // Post-chaos fencing proof on the deposed primary, if a failover
    // happened this run.
    let failed_over = deposed.is_some();
    if let Some((mut old, t_dep)) = deposed {
        let new_epoch = primary.as_sharded().expect("primary surface").repl_epoch();
        let old_plane = old.as_sharded().expect("deposed surface");
        let stale_ship = old_plane.wal_since(0, &[]);
        assert!(
            stale_ship.repl_epoch < new_epoch,
            "deposed primary ships under its stale epoch"
        );
        let writes_before = old_plane.fenced_writes();
        let snapshot: Vec<_> = probes(t_dep).iter().map(|q| old.query(q)).collect();
        let batch = random_batch(&mut rng, &mut shadow.clone(), t);
        old.apply_batch(&batch);
        let old_plane = old.as_sharded().expect("deposed surface");
        assert!(
            old_plane.fenced_writes() > writes_before,
            "fenced writes are counted, grid {sx}x{sy} seed {seed:#x}"
        );
        for (q, before) in probes(t_dep).iter().zip(&snapshot) {
            let after = old.query(q);
            assert_eq!(
                before.regions.rects(),
                after.regions.rects(),
                "fenced write must not mutate state on {q:?}"
            );
        }
        // A node that follows the new lineage refuses the deposed
        // primary's shipment with the typed error.
        sync_from(
            primary.as_ref(),
            replicas[0].as_mut(),
            "post-chaos catch-up",
        );
        let rep = replicas[0].as_replica_mut().expect("replica surface");
        assert!(rep.repl_epoch() >= new_epoch, "follower learned the epoch");
        match rep.ingest(&stale_ship) {
            Err(RecoverError::Fenced { stale, current }) => {
                assert!(stale < current, "grid {sx}x{sy} seed {seed:#x}");
            }
            other => panic!(
                "stale-epoch shipment must be fenced, got {other:?}, \
                 grid {sx}x{sy} seed {seed:#x}"
            ),
        }
    }

    // Convergence: every surviving node answers bit-identically to the
    // unfaulted oracle — no acknowledged update was lost anywhere.
    assert_identical(
        oracle.as_ref(),
        primary.as_ref(),
        t,
        &format!("primary vs oracle, grid {sx}x{sy} seed {seed:#x}"),
    );
    for (i, r) in replicas.iter_mut().enumerate() {
        sync_from(primary.as_ref(), r.as_mut(), "final convergence");
        assert_identical(
            oracle.as_ref(),
            r.as_ref(),
            t,
            &format!("replica {i} vs oracle, grid {sx}x{sy} seed {seed:#x}"),
        );
    }
    assert!(
        oracle.stats().objects > 0,
        "fuzz produced no population, grid {sx}x{sy} seed {seed:#x}"
    );
    let _ = dup_acks; // coverage varies by seed; asserted per-event above
    failed_over
}

// ---------------------------------------------------------------------
// Shipment idempotence and fencing, deterministically
// ---------------------------------------------------------------------

/// Replaying the same `LogShipment` twice acks without reapplying: the
/// duplicate counter advances, zero records are re-ingested, and the
/// answers are unchanged.
#[test]
fn duplicate_shipment_is_acked_not_reapplied() {
    let spec = sharded_spec(2, 2);
    let mut primary = spec.try_build(0).expect("primary builds");
    let mut replica = spec.try_build_replica(0).expect("replica builds");
    let mut rng = Lcg(0xD0_D0);
    let mut shadow = BTreeMap::new();

    for t in 0..4u64 {
        primary.advance_to(t);
        let batch = random_batch(&mut rng, &mut shadow, t);
        primary.apply_batch(&batch);
    }
    // Bootstrap first, then cut a purely incremental shipment: a
    // checkpoint-carrying shipment legitimately re-bootstraps on
    // re-delivery, so the duplicate-skip path is the incremental one.
    sync_from(primary.as_ref(), replica.as_mut(), "bootstrap");
    for t in 4..6u64 {
        primary.advance_to(t);
        let batch = random_batch(&mut rng, &mut shadow, t);
        primary.apply_batch(&batch);
    }
    let plane = primary.as_sharded().expect("primary surface");
    let rep = replica.as_replica_mut().expect("replica surface");
    let ship = plane.wal_since(rep.applied_epoch(), rep.applied_offsets());
    assert!(ship.checkpoint.is_none(), "incremental shipment");
    let first = rep.ingest(&ship).expect("first delivery applies");
    assert!(first.records > 0, "fixture ships real records");
    assert!(!first.bootstrapped, "{first:?}");

    let answers_before: Vec<_> = probes(5).iter().map(|q| replica.query(q)).collect();
    let rep = replica.as_replica_mut().expect("replica surface");
    let second = rep.ingest(&ship).expect("duplicate delivery is acked");
    assert_eq!(second.records, 0, "nothing reapplied: {second:?}");
    assert!(!second.bootstrapped, "{second:?}");
    assert!(rep.duplicates() > 0, "duplicate counted");
    assert_eq!(rep.lag(), 0, "still caught up");
    for (q, before) in probes(5).iter().zip(&answers_before) {
        let after = replica.query(q);
        assert_eq!(
            before.regions.rects(),
            after.regions.rects(),
            "duplicate delivery changed the answer to {q:?}"
        );
    }
    assert_identical(primary.as_ref(), replica.as_ref(), 5, "after duplicate");
}

/// A shipment cut under a stale replication epoch is refused with the
/// typed `Fenced` error and leaves the replica untouched.
#[test]
fn stale_epoch_shipment_is_fenced_with_typed_error() {
    let spec = sharded_spec(2, 2);
    let mut old_primary = spec.try_build(0).expect("old primary builds");
    let mut replica = spec.try_build_replica(0).expect("replica builds");
    let mut promoted = spec.try_build_replica(0).expect("second replica builds");
    let mut rng = Lcg(0xFE_11CE);
    let mut shadow = BTreeMap::new();

    for t in 0..3u64 {
        old_primary.advance_to(t);
        let batch = random_batch(&mut rng, &mut shadow, t);
        old_primary.apply_batch(&batch);
    }
    // Both replicas catch up under epoch 1, then one is promoted.
    sync_from(old_primary.as_ref(), replica.as_mut(), "pre-promotion");
    sync_from(old_primary.as_ref(), promoted.as_mut(), "pre-promotion");
    let epoch = promoted
        .as_replica_mut()
        .expect("promotable replica")
        .promote();
    assert!(epoch >= 2);

    // A write lands on the new lineage; the follower syncs from it and
    // thereby learns the new epoch.
    promoted.advance_to(3);
    let batch = random_batch(&mut rng, &mut shadow, 3);
    promoted.apply_batch(&batch);
    assert_eq!(
        promoted.stats().rejected_updates,
        0,
        "the write was refused"
    );
    sync_from(promoted.as_ref(), replica.as_mut(), "post-promotion");
    let rep = replica.as_replica().expect("replica surface");
    assert_eq!(rep.repl_epoch(), epoch, "follower carries the new epoch");
    let fenced_before = rep.fenced_shipments();

    // The deposed primary's shipment (epoch 1) must be refused, typed,
    // with the answers unchanged.
    let stale_ship = old_primary
        .as_sharded()
        .expect("old primary surface")
        .wal_since(0, &[]);
    assert!(stale_ship.repl_epoch < epoch);
    let answers_before: Vec<_> = probes(3).iter().map(|q| replica.query(q)).collect();
    let rep = replica.as_replica_mut().expect("replica surface");
    match rep.ingest(&stale_ship) {
        Err(RecoverError::Fenced { stale, current }) => {
            assert_eq!(stale, stale_ship.repl_epoch);
            assert_eq!(current, epoch);
        }
        other => panic!("expected Fenced, got {other:?}"),
    }
    assert_eq!(rep.fenced_shipments(), fenced_before + 1);
    for (q, before) in probes(3).iter().zip(&answers_before) {
        let after = replica.query(q);
        assert_eq!(
            before.regions.rects(),
            after.regions.rects(),
            "fenced shipment changed the answer to {q:?}"
        );
    }
    // The refused error is printable and names both epochs.
    let msg = format!(
        "{}",
        RecoverError::Fenced {
            stale: stale_ship.repl_epoch,
            current: epoch
        }
    );
    assert!(msg.contains("fenced"), "{msg}");
    assert!(msg.contains("stale"), "{msg}");
}

/// A promoted replica refuses to ingest anything further — promotion is
/// a one-way door out of follower mode.
#[test]
fn promoted_replica_no_longer_ingests() {
    let spec = sharded_spec(1, 1);
    let mut primary = spec.try_build(0).expect("primary builds");
    let mut replica = spec.try_build_replica(0).expect("replica builds");
    let mut rng = Lcg(0x90_0D);
    let mut shadow = BTreeMap::new();
    primary.advance_to(1);
    primary.apply_batch(&random_batch(&mut rng, &mut shadow, 1));
    sync_from(primary.as_ref(), replica.as_mut(), "pre-promotion");

    let plane = primary.as_sharded().expect("primary surface");
    let ship = plane.wal_since(0, &[]);
    let rep = replica.as_replica_mut().expect("replica surface");
    let epoch = rep.promote();
    assert_eq!(rep.promote(), epoch, "promotion is idempotent");
    assert!(
        matches!(rep.ingest(&ship), Err(RecoverError::Mismatch(_))),
        "promoted nodes must not follow"
    );
    // The flipped engine now exposes the primary surface instead.
    assert!(replica.as_replica().is_none());
    assert!(replica.as_sharded().is_some());
    let before = replica.stats().objects;
    replica.apply_batch(&random_batch(&mut rng, &mut shadow, 1));
    assert!(
        replica.stats().objects >= before,
        "promoted node accepts writes"
    );
}
