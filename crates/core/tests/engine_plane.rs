//! Tests of the unified engine plane: the `&self` query contract under
//! real concurrency, and trait-object vs concrete-type identity.

use pdr_core::{
    DensityEngine, EngineSpec, FrAnswer, FrConfig, FrEngine, PaConfig, PaEngine, PdrQuery,
};
use pdr_geometry::{Point, RegionSet};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Timestamp, Update};

mod common;
use common::Lcg;

fn fr_cfg(threads: usize) -> FrConfig {
    FrConfig {
        extent: 200.0,
        m: 40, // cell edge 5 <= l/2 for l >= 10
        horizon: TimeHorizon::new(4, 4),
        buffer_pages: 64,
        threads,
    }
}

fn pa_cfg() -> PaConfig {
    PaConfig {
        extent: 200.0,
        g: 5,
        degree: 5,
        l: 12.0,
        horizon: TimeHorizon::new(4, 4),
        m_d: 200,
    }
}

fn population(n: usize, seed: u64) -> Vec<(ObjectId, MotionState)> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|i| {
            let p = if i % 2 == 0 {
                Point::new(70.0 + rng.f64() * 60.0, 70.0 + rng.f64() * 60.0)
            } else {
                Point::new(rng.f64() * 200.0, rng.f64() * 200.0)
            };
            let v = Point::new(rng.f64() * 2.0 - 1.0, rng.f64() * 2.0 - 1.0);
            (ObjectId(i as u64), MotionState::new(p, v, 0))
        })
        .collect()
}

/// The deterministic update/query script both the concrete engines and
/// the boxed trait objects replay in the identity tests below.
fn script(seed: u64) -> (Vec<(ObjectId, MotionState)>, Vec<Vec<Update>>) {
    let pop = population(400, seed);
    let mut rng = Lcg(seed ^ 0x9e3779b97f4a7c15);
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

fn queries() -> Vec<PdrQuery> {
    let mut qs = Vec::new();
    for q_t in 3..=7u64 {
        for &rho in &[8.0 / 144.0, 12.0 / 144.0] {
            qs.push(PdrQuery::new(rho, 12.0, q_t));
        }
    }
    qs
}

/// Acceptance criterion of the `&self` refactor: one shared `FrEngine`
/// queried from several threads concurrently returns answers
/// bit-identical to the single-threaded run, and the epoch-keyed cache
/// computes each distinct timestamp's derived state at most once in
/// total — no matter how the threads race.
#[test]
fn concurrent_shared_queries_are_bit_identical_and_cached_once() {
    const THREADS: usize = 6;
    let (pop, batches) = script(97);
    let qs = queries();

    // Reference: a private engine, queried sequentially.
    let mut reference = FrEngine::new(fr_cfg(1), 0);
    reference.bulk_load(&pop, 0);
    for (i, batch) in batches.iter().enumerate() {
        reference.advance_to(i as Timestamp + 1);
        for u in batch {
            reference.apply(u);
        }
    }
    let expected: Vec<RegionSet> = qs.iter().map(|q| reference.query(q).regions).collect();

    // Shared engine, same ingest, then THREADS concurrent readers each
    // running the whole query list through `&self`.
    let mut shared = FrEngine::new(fr_cfg(1), 0);
    shared.bulk_load(&pop, 0);
    for (i, batch) in batches.iter().enumerate() {
        shared.advance_to(i as Timestamp + 1);
        for u in batch {
            shared.apply(u);
        }
    }
    let shared = &shared;
    let all: Vec<Vec<FrAnswer>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|worker| {
                let qs = &qs;
                scope.spawn(move || {
                    // Stagger the order per worker so threads race on
                    // *different* cold timestamps simultaneously.
                    let mut answers: Vec<(usize, FrAnswer)> = qs
                        .iter()
                        .enumerate()
                        .cycle()
                        .skip(worker * 3)
                        .take(qs.len())
                        .map(|(i, q)| (i, shared.query(q)))
                        .collect();
                    answers.sort_by_key(|(i, _)| *i);
                    answers.into_iter().map(|(_, a)| a).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (worker, answers) in all.iter().enumerate() {
        for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.regions.rects(),
                want.rects(),
                "worker {worker}, query {i}: concurrent answer differs from single-threaded"
            );
        }
    }

    // At most one computation per distinct key: the query list spans 5
    // distinct timestamps and 10 distinct (t, rho, l) triples, and the
    // counters must show exactly that — not one per thread.
    let counters = shared.cache_counters();
    assert_eq!(
        counters.sums_recomputes, 5,
        "prefix sums must be built once per distinct timestamp"
    );
    assert_eq!(
        counters.classify_recomputes, 10,
        "classification must run once per distinct (t, rho, l)"
    );
}

/// Satellite: the same script through `Box<dyn DensityEngine>` and the
/// concrete `FrEngine` yields identical exact `RegionSet`s.
#[test]
fn boxed_fr_matches_concrete_fr() {
    let (pop, batches) = script(11);
    let mut concrete = FrEngine::new(fr_cfg(1), 0);
    let mut boxed: Box<dyn DensityEngine> = EngineSpec::Fr(fr_cfg(1)).build(0);
    concrete.bulk_load(&pop, 0);
    boxed.bulk_load(&pop, 0);
    for (i, batch) in batches.iter().enumerate() {
        let t = i as Timestamp + 1;
        concrete.advance_to(t);
        boxed.advance_to(t);
        for u in batch {
            concrete.apply(u);
        }
        boxed.apply_batch(batch);
    }
    for q in &queries() {
        let a = concrete.query(q);
        let b = boxed.query(q);
        assert!(b.exact);
        assert_eq!(
            a.regions.rects(),
            b.regions.rects(),
            "trait-object FR answer differs at t={}",
            q.q_t
        );
    }
    assert_eq!(concrete.updates_applied(), boxed.stats().updates_applied);
    // Interval queries agree through the trait too.
    let concrete_iv = concrete.interval_query(8.0 / 144.0, 12.0, 3, 7);
    let boxed_iv = boxed.interval_query(8.0 / 144.0, 12.0, 3, 7);
    assert_eq!(concrete_iv.rects(), boxed_iv.rects());
}

/// Satellite: identical approximate answers for PA through the trait.
#[test]
fn boxed_pa_matches_concrete_pa() {
    let (pop, batches) = script(23);
    let mut concrete = PaEngine::new(pa_cfg(), 0);
    let mut boxed: Box<dyn DensityEngine> = EngineSpec::Pa(pa_cfg()).build(0);
    for (id, m) in &pop {
        concrete.apply(&Update::insert(*id, 0, *m));
    }
    boxed.bulk_load(&pop, 0);
    for (i, batch) in batches.iter().enumerate() {
        let t = i as Timestamp + 1;
        concrete.advance_to(t);
        boxed.advance_to(t);
        for u in batch {
            concrete.apply(u);
        }
        boxed.apply_batch(batch);
    }
    for q_t in 3..=7u64 {
        for &rho in &[0.03, 0.08] {
            let a = concrete.query(rho, q_t);
            let b = boxed.query(&PdrQuery::new(rho, pa_cfg().l, q_t));
            assert!(!b.exact);
            assert_eq!(
                a.regions.rects(),
                b.regions.rects(),
                "trait-object PA answer differs at t={q_t}, rho={rho}"
            );
        }
    }
    let iv_a = concrete.interval_query(0.03, 3, 7);
    let iv_b = boxed.interval_query(0.03, pa_cfg().l, 3, 7);
    assert_eq!(iv_a.rects(), iv_b.rects());
}

/// A boxed engine keeps working across an ingest/query/ingest cycle —
/// the exclusive-write / shared-read contract composes over time.
#[test]
fn boxed_engine_survives_interleaved_ingest_and_queries() {
    let (pop, batches) = script(5);
    let mut eng: Box<dyn DensityEngine> = EngineSpec::Fr(fr_cfg(0)).build(0);
    eng.bulk_load(&pop, 0);
    let mut last_area = None;
    for (i, batch) in batches.iter().enumerate() {
        let t = i as Timestamp + 1;
        eng.advance_to(t);
        eng.apply_batch(batch);
        let a = eng.query(&PdrQuery::new(8.0 / 144.0, 12.0, t));
        // Identical repeated query between batches: deterministic.
        let b = eng.query(&PdrQuery::new(8.0 / 144.0, 12.0, t));
        assert_eq!(a.regions.rects(), b.regions.rects());
        last_area = Some(a.regions.area());
    }
    assert!(last_area.is_some());
    let stats = eng.stats();
    assert_eq!(stats.objects, pop.len());
    assert_eq!(stats.missed_deletes, 0);
}
