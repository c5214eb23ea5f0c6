//! The bulk-load contract: `bulk_load(objects, t_now)` leaves an engine
//! in the state at `t_now` of a protocol feed that inserted each report
//! at its own `t_ref`. A report loaded after its `t_ref` therefore
//! counts over `[t_now, t_ref + H]`, and its delete removes all of it.
//!
//! Also pins what rides on the contract: a sharded plane's checkpoint
//! carries motions, not histograms, so its size follows the population
//! and not the grid.

use pdr_core::{
    DensityEngine, DhEngine, DhMode, EngineSpec, FrConfig, FrEngine, PaConfig, PdrQuery,
};
use pdr_geometry::{Point, Rect};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Update, UpdateKind};

mod common;
use common::Lcg;

const EXTENT: f64 = 100.0;

fn fr_cfg() -> FrConfig {
    FrConfig {
        extent: EXTENT,
        m: 10,
        horizon: TimeHorizon::new(4, 4),
        buffer_pages: 16,
        threads: 1,
    }
}

/// One object reported at `t_ref = 0`, moving right one unit a tick.
fn report() -> (ObjectId, MotionState) {
    (
        ObjectId(7),
        MotionState::new(Point::new(30.0, 50.0), Point::new(1.0, 0.0), 0),
    )
}

/// Threshold ρ·l² = 1: any live object makes a dense region.
fn probe() -> PdrQuery {
    PdrQuery::new(1.0 / 400.0, 20.0, 9)
}

fn oracle_answer(advanced_first: bool) -> Vec<Rect> {
    let mut oracle = EngineSpec::Oracle {
        bounds: Rect::new(0.0, 0.0, EXTENT, EXTENT),
    }
    .build(0);
    stale_load_then_delete(oracle.as_mut(), advanced_first);
    let rects = oracle.query(&probe()).regions.rects().to_vec();
    assert!(rects.is_empty(), "the retracted report is gone");
    rects
}

/// The regression sequence: load the t_ref = 0 report at t = 3 (after
/// advancing there first when `advanced_first`), advance to 5, and
/// retract the report at 5.
fn stale_load_then_delete(engine: &mut dyn DensityEngine, advanced_first: bool) {
    let (id, m) = report();
    if advanced_first {
        engine.advance_to(3);
    }
    engine.bulk_load(&[(id, m)], 3);
    engine.advance_to(5);
    engine.apply_batch(&[Update::delete(id, 5, m)]);
}

#[test]
fn fr_stale_bulk_load_is_fully_retracted() {
    let mut fr = FrEngine::new(fr_cfg(), 0);
    stale_load_then_delete(&mut fr, true);
    for t in 5..=13 {
        assert!(
            fr.histogram().plane_at(t).iter().all(|&c| c == 0),
            "slot t={t} kept a count"
        );
    }
    assert_eq!(
        fr.query(&probe()).regions.rects(),
        oracle_answer(true).as_slice()
    );
}

#[test]
fn sharded_fr_stale_bulk_load_is_fully_retracted() {
    let mut plane = EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(fr_cfg())),
        sx: 2,
        sy: 2,
        l_max: 20.0,
    }
    .build(0);
    stale_load_then_delete(plane.as_mut(), true);
    assert_eq!(plane.stats().objects, 0);
    assert_eq!(
        plane.query(&probe()).regions.rects(),
        oracle_answer(true).as_slice()
    );
}

/// The trait default (DH here) needs the engine's base ≤ every `t_ref`,
/// so the load goes into a fresh engine. It must equal the feed that
/// inserts at 0 and advances to 3, slot for slot, and the delete must
/// then clear everything.
#[test]
fn trait_default_bulk_load_equals_the_protocol_feed() {
    let (id, m) = report();
    let mut loaded = DhEngine::new(fr_cfg(), DhMode::Optimistic, 0);
    loaded.bulk_load(&[(id, m)], 3);
    let mut fed = DhEngine::new(fr_cfg(), DhMode::Optimistic, 0);
    fed.apply_batch(&[Update::insert(id, 0, m)]);
    fed.advance_to(3);
    assert_eq!(loaded.histogram().t_base(), 3);
    for t in 3..=11 {
        assert_eq!(
            loaded.histogram().plane_at(t),
            fed.histogram().plane_at(t),
            "t={t}"
        );
    }

    let mut dh = DhEngine::new(fr_cfg(), DhMode::Optimistic, 0);
    stale_load_then_delete(&mut dh, false);
    for t in 5..=13 {
        assert!(
            dh.histogram().plane_at(t).iter().all(|&c| c == 0),
            "slot t={t} kept a count"
        );
    }
    assert_eq!(
        dh.query(&probe()).regions.rects(),
        oracle_answer(false).as_slice()
    );

    // PA through the same default: bit-identical to its own feed.
    let mut loaded = pa_spec().build(0);
    loaded.bulk_load(&[(id, m)], 3);
    let mut fed = pa_spec().build(0);
    fed.apply_batch(&[Update::insert(id, 0, m)]);
    fed.advance_to(3);
    for q_t in [3, 6, 9, 11] {
        let q = PdrQuery::new(1.0 / 800.0, 20.0, q_t);
        assert_eq!(
            loaded.query(&q).regions.rects(),
            fed.query(&q).regions.rects(),
            "q_t={q_t}"
        );
    }
}

fn pa_spec() -> EngineSpec {
    EngineSpec::Pa(PaConfig {
        extent: EXTENT,
        g: 5,
        degree: 3,
        l: 20.0,
        horizon: fr_cfg().horizon,
        m_d: 64,
    })
}

/// The trait default cannot replay a report older than the engine's
/// base; it refuses one by naming the contract.
#[test]
#[should_panic(expected = "bulk_load contract")]
fn trait_default_refuses_reports_before_the_engine_base() {
    let mut pa = pa_spec().build(0);
    pa.advance_to(5);
    pa.bulk_load(&[report()], 5);
}

/// FR's loader deposits from `t_ref`, so a report from after `t_now`
/// would be clipped at the top of the horizon; it is refused.
#[test]
#[should_panic(expected = "bulk_load contract")]
fn fr_bulk_load_refuses_reports_after_t_now() {
    let (id, m) = report();
    let mut fr = FrEngine::new(fr_cfg(), 0);
    fr.bulk_load(&[(id, m.rebased_to(4))], 3);
}

/// Screening keeps the live histogram the function of the motion table
/// that a restore rebuilds. The updates that would break it (a stale
/// insert, an insert or a delete stamped ahead of the clock) are
/// refused; after the rest, a restore matches the live engine slot for
/// slot.
#[test]
fn screened_updates_keep_the_histogram_rebuildable() {
    let (id, m) = report();
    let other = MotionState::new(Point::new(60.0, 40.0), Point::new(0.0, 1.0), 0);
    let mut fr = FrEngine::new(fr_cfg(), 0);
    fr.bulk_load(&[(id, m)], 0);
    fr.advance_to(3);
    let stale = Update {
        id: ObjectId(8),
        t_now: 3,
        kind: UpdateKind::Insert { motion: other },
    };
    let batch = [
        stale,
        Update::insert(ObjectId(9), 5, other),
        Update::delete(id, 5, m),
        Update::delete(id, 3, m),
        Update::insert(id, 3, m),
    ];
    fr.apply_batch(&batch);
    assert_eq!(fr.stats().rejected_updates, 3);
    assert_eq!(fr.len(), 1);
    fr.advance_to(5);

    let mut restored = FrEngine::new(fr_cfg(), 0);
    restored
        .restore_from_bytes(&fr.checkpoint_bytes())
        .expect("restores");
    for t in 5..=13 {
        assert_eq!(
            restored.histogram().plane_at(t),
            fr.histogram().plane_at(t),
            "t={t}"
        );
    }
}

fn population(n: u64, seed: u64) -> Vec<(ObjectId, MotionState)> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|i| {
            let p = Point::new(rng.in_range(0.0, 200.0), rng.in_range(0.0, 200.0));
            let v = Point::new(rng.in_range(-1.0, 1.0), rng.in_range(-1.0, 1.0));
            (ObjectId(i), MotionState::new(p, v, 0))
        })
        .collect()
}

fn plane_checkpoint_len(m: u32, objects: &[(ObjectId, MotionState)]) -> usize {
    let mut plane = EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(FrConfig {
            extent: 200.0,
            m,
            horizon: TimeHorizon::new(3, 3),
            buffer_pages: 64,
            threads: 1,
        })),
        sx: 2,
        sy: 2,
        l_max: 20.0,
    }
    .build(0);
    plane.bulk_load(objects, 0);
    plane.checkpoint().expect("FR planes checkpoint").len()
}

/// A plane checkpoint grows with the objects, not with `m²·H`.
#[test]
fn plane_checkpoint_grows_with_objects_not_grid() {
    let pop = population(1000, 5);
    let coarse = plane_checkpoint_len(40, &pop);
    let fine = plane_checkpoint_len(150, &pop);
    assert!(
        (fine as f64) < 1.1 * coarse as f64,
        "m 40 → 150 grew the checkpoint {coarse} → {fine} bytes"
    );
    let half = plane_checkpoint_len(40, &pop[..500]);
    let double = plane_checkpoint_len(40, &population(2000, 5));
    for (small, big) in [(half, coarse), (coarse, double)] {
        let ratio = big as f64 / small as f64;
        assert!(
            (1.7..=2.3).contains(&ratio),
            "doubling the objects scaled the checkpoint {small} → {big} bytes"
        );
    }
}
