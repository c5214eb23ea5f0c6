//! Crash-point sweep: kill the engine at **every** WAL record boundary
//! of a 20-tick workload, recover from the latest checkpoint plus the
//! surviving WAL prefix, and require the recovered engine's answers to
//! be **bit-identical** to an engine that never crashed.
//!
//! Bit-identity holds because every ingredient is deterministic: the
//! histogram keeps integer counters, batches replay in order, leaf
//! entries are anchored with the same `position_at` arithmetic on load
//! and on insert, and the refinement sweep sorts positions before
//! comparing. The sweep exercises both checkpoints (the bulk-load one
//! and a mid-run one) and a torn-tail case.

use pdr_core::{
    record_boundaries, replay, DensityEngine, FrConfig, FrEngine, PdrQuery, RangeIndex, Wal,
    WalCodec, WalRecord,
};
use pdr_geometry::Point;
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Timestamp, Update};
use std::collections::HashMap;

mod common;
use common::Lcg;

const TICKS: Timestamp = 20;
const OBJECTS: u64 = 250;
const EXTENT: f64 = 200.0;

fn cfg() -> FrConfig {
    FrConfig {
        extent: EXTENT,
        m: 40, // cell edge 5 ≤ l/2 for the l = 12 queries below
        horizon: TimeHorizon::new(6, 4),
        buffer_pages: 16, // small pool: recovery must survive real paging
        threads: 2,
    }
}

/// Half the traffic clusters in a 40×40 hot region so the probe
/// queries return non-empty regions with real candidate refinement.
fn motion(rng: &mut Lcg, t_ref: Timestamp) -> MotionState {
    let origin = if rng.f64() < 0.5 {
        Point::new(60.0 + rng.f64() * 40.0, 60.0 + rng.f64() * 40.0)
    } else {
        Point::new(rng.f64() * EXTENT, rng.f64() * EXTENT)
    };
    MotionState::new(
        origin,
        Point::new(rng.f64() * 2.0 - 1.0, rng.f64() * 2.0 - 1.0),
        t_ref,
    )
}

/// The scripted workload: a bulk population plus one delete+insert
/// re-report batch per tick, all derived from one seed.
struct Workload {
    population: Vec<(ObjectId, MotionState)>,
    /// `(t, batch)` per tick, in order.
    ticks: Vec<(Timestamp, Vec<Update>)>,
}

fn workload(seed: u64) -> Workload {
    let mut rng = Lcg(seed);
    let population: Vec<(ObjectId, MotionState)> = (0..OBJECTS)
        .map(|i| (ObjectId(i), motion(&mut rng, 0)))
        .collect();
    let mut current: HashMap<ObjectId, MotionState> = population.iter().copied().collect();
    let mut ticks = Vec::new();
    for t in 1..=TICKS {
        let mut batch = Vec::new();
        for _ in 0..12 {
            let id = ObjectId(rng.next_state() % OBJECTS);
            let old = current[&id];
            let insert = Update::insert(id, t, motion(&mut rng, t));
            // Mirror what the engine stores: `Update::insert` rebases
            // the report to `t_now`.
            current.insert(id, insert.motion());
            batch.push(Update::delete(id, t, old));
            batch.push(insert);
        }
        ticks.push((t, batch));
    }
    Workload { population, ticks }
}

/// Applies one replayed record through the same (screened) trait path
/// the serve loop uses.
fn apply_record<I: RangeIndex + Send>(engine: &mut FrEngine<I>, r: &WalRecord) {
    match r {
        WalRecord::Advance(t) => DensityEngine::advance_to(engine, *t),
        WalRecord::Batch(updates) => DensityEngine::apply_batch(engine, updates),
    }
}

/// Queries whose answers the recovered engine must reproduce exactly:
/// the current base plus points inside the prediction window.
fn probe_queries(t_base: Timestamp) -> Vec<PdrQuery> {
    vec![
        PdrQuery::new(0.04, 12.0, t_base),
        PdrQuery::new(0.04, 12.0, t_base + 4),
        PdrQuery::new(0.02, 14.0, t_base + 2),
    ]
}

#[test]
fn recovery_is_bit_identical_at_every_record_boundary() {
    for codec in WalCodec::ALL {
        boundary_sweep(codec);
    }
}

/// The full crash-point sweep for one WAL record codec. Both the legacy
/// row codec and the columnar codec2 must recover bit-identically at
/// every boundary — the record *content* replayed is codec-independent.
fn boundary_sweep(codec: WalCodec) {
    let w = workload(0xC0FFEE);

    // Live run: WAL-append before every mutation, checkpoints after the
    // bulk load and again mid-run.
    let mut wal = Wal::with_codec(codec);
    let mut live = FrEngine::new(cfg(), 0);
    live.bulk_load(&w.population, 0);
    // (checkpoint offset in records, sealed bytes)
    let mut checkpoints: Vec<(usize, Vec<u8>)> = vec![(0, live.checkpoint_bytes())];
    for (t, batch) in &w.ticks {
        wal.append_advance(*t);
        DensityEngine::advance_to(&mut live, *t);
        wal.append_batch(batch);
        DensityEngine::apply_batch(&mut live, batch);
        if *t == TICKS / 2 {
            checkpoints.push((wal.records() as usize, live.checkpoint_bytes()));
        }
    }

    let bytes = wal.bytes().to_vec();
    let boundaries = record_boundaries(&bytes);
    assert_eq!(boundaries.len(), 2 * TICKS as usize + 1);
    let all = replay(&bytes).expect("clean log").records;

    let mut nonempty_answers = 0usize;
    for (k, &cut) in boundaries.iter().enumerate() {
        // Crash: only `bytes[..cut]` (k whole records) survived.
        let surviving = replay(&bytes[..cut]).expect("prefix of a clean log");
        assert_eq!(surviving.torn_bytes, 0);
        assert_eq!(surviving.records.len(), k);

        // Recover: latest checkpoint at or before the cut, then the
        // WAL tail.
        let (ckpt_records, ckpt_bytes) = checkpoints
            .iter()
            .rev()
            .find(|(n, _)| *n <= k)
            .expect("bulk-load checkpoint always applies");
        let mut recovered = FrEngine::new(cfg(), 0);
        recovered
            .restore_from_bytes(ckpt_bytes)
            .expect("checkpoint verifies");
        for r in &surviving.records[*ckpt_records..] {
            apply_record(&mut recovered, r);
        }

        // Uncrashed oracle: same prefix, no crash, no checkpoint.
        let mut oracle = FrEngine::new(cfg(), 0);
        oracle.bulk_load(&w.population, 0);
        for r in &all[..k] {
            apply_record(&mut oracle, r);
        }

        assert_eq!(
            recovered.histogram().t_base(),
            oracle.histogram().t_base(),
            "cut at record {k}"
        );
        let stats_r = DensityEngine::stats(&recovered);
        let stats_o = DensityEngine::stats(&oracle);
        assert_eq!(stats_r.objects, stats_o.objects, "cut at record {k}");
        for q in probe_queries(oracle.histogram().t_base()) {
            let a = recovered.query(&q);
            let b = oracle.query(&q);
            assert_eq!(
                a.regions.rects(),
                b.regions.rects(),
                "recovered answer diverges at record {k}, query {q:?}, {}",
                codec.label()
            );
            if !a.regions.rects().is_empty() {
                nonempty_answers += 1;
            }
        }
    }
    assert!(
        nonempty_answers > 0,
        "probe queries never produced a region — the sweep tested nothing"
    );
}

#[test]
fn torn_wal_tail_recovers_to_the_last_complete_record() {
    for codec in WalCodec::ALL {
        torn_tail_case(codec);
    }
}

fn torn_tail_case(codec: WalCodec) {
    let w = workload(0xBEEF);
    let mut wal = Wal::with_codec(codec);
    let mut live = FrEngine::new(cfg(), 0);
    live.bulk_load(&w.population, 0);
    let ckpt = live.checkpoint_bytes();
    for (t, batch) in &w.ticks {
        wal.append_advance(*t);
        DensityEngine::advance_to(&mut live, *t);
        wal.append_batch(batch);
        DensityEngine::apply_batch(&mut live, batch);
    }

    // The final write is torn 7 bytes into the last record.
    let bytes = wal.bytes();
    let boundaries = record_boundaries(bytes);
    let torn_at = boundaries[boundaries.len() - 2] + 7;
    let surviving = replay(&bytes[..torn_at]).expect("torn tail is not a format error");
    assert_eq!(surviving.records.len(), boundaries.len() - 2);
    assert_eq!(surviving.torn_bytes, 7);

    let mut recovered = FrEngine::new(cfg(), 0);
    recovered.restore_from_bytes(&ckpt).expect("verifies");
    for r in &surviving.records {
        apply_record(&mut recovered, r);
    }

    // Oracle that saw exactly the surviving records.
    let mut oracle = FrEngine::new(cfg(), 0);
    oracle.bulk_load(&w.population, 0);
    let all = replay(bytes).expect("clean log").records;
    for r in &all[..surviving.records.len()] {
        apply_record(&mut oracle, r);
    }

    for q in probe_queries(oracle.histogram().t_base()) {
        assert_eq!(
            recovered.query(&q).regions.rects(),
            oracle.query(&q).regions.rects()
        );
    }
}

#[test]
fn checkpoints_survive_bitrot_detection() {
    let w = workload(0xABAD);
    let mut live = FrEngine::new(cfg(), 0);
    live.bulk_load(&w.population, 0);
    let mut ckpt = live.checkpoint_bytes();
    // Flip one payload byte: restore must refuse, not decode garbage.
    let n = ckpt.len();
    ckpt[n - 9] ^= 0x10;
    let mut fresh = FrEngine::new(cfg(), 0);
    assert!(fresh.restore_from_bytes(&ckpt).is_err());
}
