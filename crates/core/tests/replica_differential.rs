//! Differential fuzz of the WAL record codecs and the log-shipping
//! replica plane, driven by an in-repo seeded LCG (no external fuzzing
//! or rand dependency).
//!
//! * **Codec differential.** The same logical record stream is framed
//!   through the legacy row codec (`codec1`) and the columnar varint
//!   codec (`codec2`); both logs must replay to the identical record
//!   sequence, at every prefix boundary, and the columnar log must be
//!   strictly smaller on re-report-shaped traffic.
//! * **Replica differential.** A primary plane and a replica of the
//!   same spec run under random interleavings of `apply_batch` /
//!   `advance_to` / log shipping / primary crash-restore / replica
//!   loss, at 1×1 (routing degenerate) and 2×2 (cut lines + halos)
//!   grids. At every caught-up sync the replica's answers must be
//!   **bit-identical** to the primary's — the same invariant the
//!   crash-recovery sweep proves for a single engine.

use pdr_core::{replay, EngineSpec, FrConfig, PdrQuery, Wal, WalCodec, WalRecord};
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

fn random_motion(rng: &mut Lcg, t_ref: Timestamp) -> MotionState {
    MotionState::new(
        Point::new(rng.in_range(0.0, EXTENT), rng.in_range(0.0, EXTENT)),
        Point::new(rng.in_range(-1.0, 1.0), rng.in_range(-1.0, 1.0)),
        t_ref,
    )
}

/// A random batch against a shadow population: mostly delete+insert
/// re-report pairs (the shape codec2's pair predictor targets), plus
/// first-time inserts for unseen ids.
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
        // Mirror what the engine stores: `Update::insert` rebases the
        // report to `t_now`.
        shadow.insert(id, insert.motion());
        batch.push(insert);
    }
    batch
}

// ---------------------------------------------------------------------
// Codec differential
// ---------------------------------------------------------------------

#[test]
fn codecs_replay_identically_at_every_prefix() {
    for seed in [0x11u64, 0x2222, 0x333333, 0xDEAD_BEEF] {
        codec_case(seed);
    }
}

fn codec_case(seed: u64) {
    let mut rng = Lcg(seed);
    let mut shadow = BTreeMap::new();
    let mut records: Vec<WalRecord> = Vec::new();
    let mut t = 0;
    for _ in 0..30 {
        if rng.below(3) == 0 {
            t += 1 + rng.below(3);
            records.push(WalRecord::Advance(t));
        } else {
            records.push(WalRecord::Batch(random_batch(&mut rng, &mut shadow, t)));
        }
    }

    let mut logs = Vec::new();
    for codec in WalCodec::ALL {
        let mut wal = Wal::with_codec(codec);
        for r in &records {
            match r {
                WalRecord::Advance(t) => wal.append_advance(*t),
                WalRecord::Batch(b) => wal.append_batch(b),
            };
        }
        let replayed = replay(wal.bytes()).expect("clean log");
        assert_eq!(replayed.torn_bytes, 0);
        assert_eq!(
            replayed.records,
            records,
            "{} does not round-trip seed {seed:#x}",
            codec.label()
        );
        // Every record boundary is a valid crash prefix for either
        // codec — the recovery sweep's invariant, here under fuzz.
        for k in 0..=records.len() {
            let cut = pdr_core::record_boundaries(wal.bytes())[k];
            let prefix = replay(&wal.bytes()[..cut]).expect("prefix of a clean log");
            assert_eq!(prefix.records, records[..k], "{} prefix {k}", codec.label());
        }
        logs.push((codec, wal.bytes().len()));
    }
    let (c1, c2) = (logs[0].1, logs[1].1);
    assert!(
        c2 < c1,
        "columnar log ({c2} B) must be smaller than row log ({c1} B), seed {seed:#x}"
    );
}

// ---------------------------------------------------------------------
// Replica differential
// ---------------------------------------------------------------------

fn sharded_spec(sx: u32, sy: u32) -> EngineSpec {
    EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(fr_cfg())),
        sx,
        sy,
        l_max: 14.0,
    }
}

/// Probe queries whose answers must match bit-for-bit; `l` respects
/// both the filter constraint (l ≥ 2·cell edge = 10) and the plane's
/// `l_max`, `q_t` stays inside the prediction window.
fn probes(t: Timestamp) -> Vec<PdrQuery> {
    vec![
        PdrQuery::new(0.02, 10.0, t),
        PdrQuery::new(0.01, 12.0, t + 1),
        PdrQuery::new(0.03, 14.0, t + 2),
    ]
}

#[test]
fn replica_matches_primary_under_random_interleavings() {
    for (sx, sy) in [(1, 1), (2, 2)] {
        for seed in [0xA5u64, 0xB6B6, 0xC7C7C7] {
            replica_case(sx, sy, seed);
        }
    }
}

fn replica_case(sx: u32, sy: u32, seed: u64) {
    let ctx = |step: usize| format!("grid {sx}x{sy} seed {seed:#x} step {step}");
    let spec = sharded_spec(sx, sy);
    let mut primary = spec.try_build(0).expect("primary builds");
    let mut replica = spec.try_build_replica(0).expect("replica builds");

    let mut rng = Lcg(seed);
    let mut shadow = BTreeMap::new();
    let mut t: Timestamp = 0;
    let mut compared = 0usize;

    for step in 0..60 {
        match rng.below(10) {
            // Mutations reach the replica only via shipping.
            0..=3 => {
                let batch = random_batch(&mut rng, &mut shadow, t);
                primary.apply_batch(&batch);
            }
            4..=5 => {
                t += 1;
                primary.advance_to(t);
            }
            // Ship: incremental when offsets line up, bootstrap
            // otherwise; a refused shipment must self-heal by
            // re-syncing from empty offsets.
            6..=8 => {
                let rep = replica.as_replica_mut().expect("replica surface");
                let sharded = primary.as_sharded().expect("primary surface");
                let ship = sharded.wal_since(rep.applied_epoch(), rep.applied_offsets());
                if rep.ingest(&ship).is_err() {
                    // Self-heal: empty offsets force either a sealed
                    // checkpoint or a full-history shipment.
                    let ship = sharded.wal_since(rep.applied_epoch(), &[]);
                    rep.ingest(&ship).unwrap_or_else(|e| {
                        panic!("bootstrap must self-heal ({e:?}), {}", ctx(step))
                    });
                }
                assert_eq!(rep.lag(), 0, "caught up after sync, {}", ctx(step));
                // Caught up: the two planes must answer identically
                // until the primary mutates again.
                for q in probes(t) {
                    let a = primary.query(&q);
                    let b = replica.query(&q);
                    assert_eq!(
                        a.regions.rects(),
                        b.regions.rects(),
                        "replica diverged on {q:?}, {}",
                        ctx(step)
                    );
                    compared += 1;
                }
            }
            // Primary crash: checkpoint, restore (segments reset, new
            // epoch). The replica is stale until the next ship, which
            // wal_since must turn into a bootstrap on its own.
            9 => {
                if rng.below(2) == 0 {
                    let cp = primary.checkpoint().expect("plane checkpoints");
                    primary
                        .restore_from(&cp)
                        .unwrap_or_else(|e| panic!("restore ({e:?}), {}", ctx(step)));
                } else {
                    // Replica loss: a fresh replica reports empty
                    // offsets, so its first sync is a bootstrap.
                    replica = spec.try_build_replica(0).expect("replica rebuilds");
                }
            }
            _ => unreachable!(),
        }
    }
    assert!(
        compared > 0,
        "fuzz never reached a caught-up comparison, grid {sx}x{sy} seed {seed:#x}"
    );
    assert!(
        primary.stats().objects > 0,
        "fuzz produced no population, grid {sx}x{sy} seed {seed:#x}"
    );
}
