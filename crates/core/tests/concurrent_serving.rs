//! Concurrent-serving acceptance tests for the query/ingest contract:
//! readers holding the shared lock in read mode must see a *frozen
//! snapshot* — bit-identical to a serial twin that stopped at the same
//! batch — even while a writer thread ticks `apply_batch` between their
//! passes, and the per-epoch classification cache must never serve
//! state computed for an older histogram epoch. A second test sweeps
//! the (shard grid × refinement workers) matrix and pins every
//! combination to the unsharded single-worker answer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use pdr_core::{DensityEngine, EngineSpec, FrConfig, FrEngine, PdrQuery};
use pdr_geometry::{Point, Rect};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Timestamp, Update};

mod common;
use common::Lcg;

fn fr_cfg(threads: usize) -> FrConfig {
    FrConfig {
        extent: 200.0,
        m: 40,
        horizon: TimeHorizon::new(4, 4),
        buffer_pages: 64,
        threads,
    }
}

/// 400 objects, half clustered in a central pocket so queries straddle
/// accept/reject/refine; three ticks of delete+reinsert churn.
fn script(seed: u64) -> (Vec<(ObjectId, MotionState)>, Vec<Vec<Update>>) {
    let mut rng = Lcg(seed);
    let pop: Vec<(ObjectId, MotionState)> = (0..400)
        .map(|i| {
            let p = if i % 2 == 0 {
                Point::new(70.0 + rng.f64() * 60.0, 70.0 + rng.f64() * 60.0)
            } else {
                Point::new(rng.f64() * 200.0, rng.f64() * 200.0)
            };
            let v = Point::new(rng.f64() * 2.0 - 1.0, rng.f64() * 2.0 - 1.0);
            (ObjectId(i as u64), MotionState::new(p, v, 0))
        })
        .collect();
    let batches = (1..=3u64)
        .map(|t| {
            pop.iter()
                .filter(|(id, _)| id.0 % 3 == t % 3)
                .flat_map(|(id, m)| {
                    let moved = MotionState::new(
                        m.position_at(t),
                        Point::new(rng.f64() * 2.0 - 1.0, rng.f64() * 2.0 - 1.0),
                        t,
                    );
                    [Update::delete(*id, t, *m), Update::insert(*id, t, moved)]
                })
                .collect()
        })
        .collect();
    (pop, batches)
}

/// Timestamps 3 and 4 sit inside the horizon window of every epoch the
/// writer produces (`t_now` runs 0..=3 with a ±4 horizon), so one fixed
/// query set is valid across the whole run.
fn queries() -> Vec<PdrQuery> {
    let mut qs = Vec::new();
    for q_t in [3u64, 4] {
        for &rho in &[8.0 / 144.0, 12.0 / 144.0] {
            qs.push(PdrQuery::new(rho, 12.0, q_t));
        }
    }
    qs
}

type Oracle = HashMap<u64, Vec<(PdrQuery, Vec<Rect>)>>;

/// Replays the script on a serial twin, freezing the expected answer of
/// every query after each batch. Epochs are keyed by the engine's
/// cumulative `updates_applied` counter — the one piece of state a
/// reader can observe under its read lock to learn which batch it saw.
fn frozen_oracle(pop: &[(ObjectId, MotionState)], batches: &[Vec<Update>]) -> Oracle {
    let mut twin = FrEngine::new(fr_cfg(1), 0);
    let mut oracle = Oracle::new();
    let mut freeze = |twin: &FrEngine| {
        let key = twin.stats().updates_applied;
        let snap = queries()
            .iter()
            .map(|q| (*q, twin.query(q).regions.rects().to_vec()))
            .collect();
        oracle.insert(key, snap);
    };
    twin.bulk_load(pop, 0);
    freeze(&twin);
    for (i, batch) in batches.iter().enumerate() {
        twin.advance_to(i as Timestamp + 1);
        twin.apply_batch(batch);
        freeze(&twin);
    }
    oracle
}

/// N reader threads hammer `try_query` through a shared read lock while
/// a writer thread ticks `apply_batch`. Every reader pass pins the
/// epoch it observed (under the same read lock) and demands the frozen
/// snapshot answer for that epoch, bit for bit. The writer waits for at
/// least one full reader pass between batches so every epoch is
/// actually served concurrently, and the classification-cache counters
/// afterwards prove each (epoch, query) classification was computed
/// exactly once — a stale-epoch serve would break the bit-identity
/// assertions, a missing invalidation would break the count.
#[test]
fn hammer_readers_see_frozen_snapshots_while_writer_ticks() {
    const READERS: usize = 4;
    let (pop, batches) = script(97);
    let oracle = Arc::new(frozen_oracle(&pop, &batches));

    let mut live = FrEngine::new(fr_cfg(2), 0);
    live.bulk_load(&pop, 0);
    let live = Arc::new(RwLock::new(live));
    let passes = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let qs = queries();

    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let live = Arc::clone(&live);
            let oracle = Arc::clone(&oracle);
            let passes = Arc::clone(&passes);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let eng = live.read().expect("engine lock poisoned");
                    let epoch = eng.stats().updates_applied;
                    let frozen = &oracle[&epoch];
                    for (q, expected) in frozen {
                        let a = eng.try_query(q).expect("memory-resident query failed");
                        assert_eq!(
                            a.regions.rects(),
                            expected.as_slice(),
                            "reader at epoch {epoch} diverged from the frozen snapshot"
                        );
                    }
                    drop(eng);
                    passes.fetch_add(1, Ordering::Release);
                }
            });
        }

        // Writer: between batches, wait until the readers complete at
        // least one full pass against the current epoch.
        for (i, batch) in batches.iter().enumerate() {
            let seen = passes.load(Ordering::Acquire);
            while passes.load(Ordering::Acquire) == seen {
                std::thread::yield_now();
            }
            let mut eng = live.write().expect("engine lock poisoned");
            eng.advance_to(i as Timestamp + 1);
            eng.apply_batch(batch);
        }
        let seen = passes.load(Ordering::Acquire);
        while passes.load(Ordering::Acquire) == seen {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
    });

    assert!(passes.load(Ordering::Acquire) > batches.len() as u64);
    // Four epochs (bulk load + three batches), four queries each, and a
    // pass holds the read lock end to end — so the cache recomputed
    // each classification exactly once per epoch, never across epochs.
    let counters = live.read().unwrap().cache_counters();
    assert_eq!(
        counters.classify_recomputes,
        (batches.len() as u64 + 1) * qs.len() as u64,
        "classification cache recomputed more or less than once per (epoch, query)"
    );
}

/// Satellite sweep: shard grids {1×1, 2×2} crossed with refinement
/// worker counts {1, 2, 4} must all reproduce the unsharded
/// single-worker answer rectangle for rectangle, after identical
/// ingest. (`per_shard_spec` no longer pins `threads = 1`, so each
/// shard really does route refinement through the shared pool.)
#[test]
fn shard_grid_times_worker_count_is_bit_identical() {
    let (pop, batches) = script(4242);
    let ingest = |eng: &mut Box<dyn DensityEngine>| {
        eng.bulk_load(&pop, 0);
        for (i, batch) in batches.iter().enumerate() {
            eng.advance_to(i as Timestamp + 1);
            eng.apply_batch(batch);
        }
    };

    let mut reference: Box<dyn DensityEngine> = Box::new(FrEngine::new(fr_cfg(1), 0));
    ingest(&mut reference);
    let base: Vec<(PdrQuery, Vec<Rect>)> = queries()
        .iter()
        .map(|q| (*q, reference.query(q).regions.rects().to_vec()))
        .collect();
    assert!(
        base.iter().any(|(_, rects)| !rects.is_empty()),
        "sweep workload answered nothing — thresholds need retuning"
    );

    for (sx, sy) in [(1u32, 1u32), (2, 2)] {
        for threads in [1usize, 2, 4] {
            let spec = EngineSpec::Sharded {
                adaptive: None,
                inner: Box::new(EngineSpec::Fr(fr_cfg(threads))),
                sx,
                sy,
                l_max: 12.0,
            };
            let mut eng = spec.build(0);
            ingest(&mut eng);
            for (q, expected) in &base {
                assert_eq!(
                    eng.query(q).regions.rects(),
                    expected.as_slice(),
                    "{sx}x{sy} shards with {threads} workers diverged at t={}",
                    q.q_t
                );
            }
        }
    }
}
