//! Shard-boundary exactness: the sharded plane must answer
//! **bit-identically** to the unsharded engine (modulo canonical
//! rectangle form) at every shard count, with objects placed
//! adversarially on cut lines and at `cut ± l_max/2 ± ε`.

use pdr_core::{DensityEngine, EngineSpec, FrConfig, PaConfig, PdrQuery};
use pdr_geometry::{Point, RegionSet};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Update};

mod common;
use common::Lcg;

const EXTENT: f64 = 100.0;
const L: f64 = 10.0;
const EPS: f64 = 1e-9;

fn fr_cfg() -> FrConfig {
    FrConfig {
        extent: EXTENT,
        m: 20, // pitch 5 = l/2, comfortably inside the halo math
        horizon: TimeHorizon::new(4, 4),
        buffer_pages: 64,
        threads: 2,
    }
}

fn pa_cfg() -> PaConfig {
    PaConfig {
        extent: EXTENT,
        g: 5,
        degree: 4,
        l: L,
        horizon: TimeHorizon::new(4, 4),
        m_d: 100,
    }
}

/// Objects hugging every cut line a {2x1, 2x2, 4x4} grid can produce
/// over [0, 100]² (x, y ∈ {25, 50, 75}), at the exact cut, at
/// `cut ± l/2`, and at `cut ± l/2 ± ε`, plus LCG clusters for bulk
/// density and some fast movers that cross cuts within the horizon.
fn boundary_population() -> Vec<(ObjectId, MotionState)> {
    let mut rng = Lcg(0x5EED_CAFE);
    let mut pop = Vec::new();
    let mut id = 0u64;
    let mut push = |pop: &mut Vec<(ObjectId, MotionState)>, p: Point, v: Point| {
        pop.push((ObjectId(id), MotionState::new(p, v, 0)));
        id += 1;
    };
    let offsets = [
        0.0,
        L / 2.0,
        -L / 2.0,
        L / 2.0 + EPS,
        L / 2.0 - EPS,
        -L / 2.0 - EPS,
        -L / 2.0 + EPS,
    ];
    for &cut in &[25.0, 50.0, 75.0] {
        for &dx in &offsets {
            for &y in &[10.0, 50.0, 50.0 + EPS, 90.0] {
                push(&mut pop, Point::new(cut + dx, y), Point::new(0.0, 0.0));
                push(&mut pop, Point::new(y, cut + dx), Point::new(0.0, 0.0));
            }
        }
        // Movers that cross this cut within the 4-tick horizon.
        for k in 0..6 {
            let y = 15.0 * k as f64 + 5.0;
            push(
                &mut pop,
                Point::new(cut - 3.0, y),
                Point::new(2.0, if k % 2 == 0 { 1.0 } else { -0.5 }),
            );
        }
    }
    // Dense LCG clusters so accepts/candidates/rejects all occur.
    for _ in 0..4 {
        let cx = rng.in_range(10.0, 90.0);
        let cy = rng.in_range(10.0, 90.0);
        for _ in 0..25 {
            push(
                &mut pop,
                Point::new(
                    (cx + rng.in_range(-4.0, 4.0)).clamp(0.0, EXTENT),
                    (cy + rng.in_range(-4.0, 4.0)).clamp(0.0, EXTENT),
                ),
                Point::new(rng.in_range(-1.0, 1.0), rng.in_range(-1.0, 1.0)),
            );
        }
    }
    // Background noise.
    for _ in 0..120 {
        push(
            &mut pop,
            Point::new(rng.in_range(0.0, EXTENT), rng.in_range(0.0, EXTENT)),
            Point::new(rng.in_range(-1.5, 1.5), rng.in_range(-1.5, 1.5)),
        );
    }
    pop
}

/// A couple of ticks of churn: some objects re-report near cuts, some
/// retract entirely.
fn churn(pop: &[(ObjectId, MotionState)], tick: u64) -> Vec<Update> {
    let mut rng = Lcg(0xC0FFEE ^ tick);
    let mut batch = Vec::new();
    for (i, &(id, m)) in pop.iter().enumerate() {
        match i % 7 {
            0 => {
                batch.push(Update::delete(id, tick, m));
                let p = Point::new(rng.in_range(20.0, 80.0), rng.in_range(20.0, 80.0));
                batch.push(Update::insert(
                    id,
                    tick,
                    MotionState::new(p, Point::new(rng.in_range(-2.0, 2.0), 0.5), tick),
                ));
            }
            3 => batch.push(Update::delete(id, tick, m)),
            _ => {}
        }
    }
    batch
}

fn canonical(ans: &RegionSet) -> RegionSet {
    let mut c = ans.clone();
    c.canonicalize();
    c
}

fn sharded(inner: EngineSpec, sx: u32, sy: u32) -> EngineSpec {
    EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(inner),
        sx,
        sy,
        l_max: L,
    }
}

/// Drives `base` and its sharded variants through the same script and
/// asserts rect-for-rect identity of every snapshot and interval answer.
fn assert_bit_identical(base: EngineSpec, rho: f64) {
    let pop = boundary_population();
    let grids: &[(u32, u32)] = &[(1, 1), (2, 1), (2, 2), (4, 4)];
    let mut reference = base.build(0);
    reference.bulk_load(&pop, 0);
    let mut planes: Vec<Box<dyn DensityEngine>> = grids
        .iter()
        .map(|&(sx, sy)| {
            let mut e = sharded(base.clone(), sx, sy).build(0);
            e.bulk_load(&pop, 0);
            e
        })
        .collect();

    let mut live = pop.clone();
    for tick in 0..3u64 {
        if tick > 0 {
            reference.advance_to(tick);
            for p in &mut planes {
                p.advance_to(tick);
            }
            let batch = churn(&live, tick);
            reference.apply_batch(&batch);
            for p in &mut planes {
                p.apply_batch(&batch);
            }
            // Maintain the live table for the next churn round.
            for u in &batch {
                match u.kind {
                    pdr_mobject::UpdateKind::Insert { motion } => {
                        if let Some(slot) = live.iter_mut().find(|(id, _)| *id == u.id) {
                            slot.1 = motion;
                        }
                    }
                    pdr_mobject::UpdateKind::Delete { .. } => {
                        live.retain(|(id, _)| *id != u.id);
                    }
                }
            }
        }
        for q_t in tick..=tick + 2 {
            let q = PdrQuery::new(rho, L, q_t);
            let want = canonical(&reference.query(&q).regions);
            for (gi, p) in planes.iter().enumerate() {
                let got = p.query(&q).regions;
                assert_eq!(
                    got.rects(),
                    want.rects(),
                    "{} grid {:?} diverges at tick {tick} q_t {q_t}",
                    p.name(),
                    grids[gi],
                );
            }
        }
    }
    // Interval answers are canonical-identical too.
    let want = canonical(&reference.interval_query(rho, L, 2, 5));
    for (gi, p) in planes.iter().enumerate() {
        let got = p.interval_query(rho, L, 2, 5);
        assert_eq!(
            got.rects(),
            want.rects(),
            "{} grid {:?} interval diverges",
            p.name(),
            grids[gi],
        );
    }
}

#[test]
fn fr_sharded_is_bit_identical_across_shard_grids() {
    assert_bit_identical(EngineSpec::Fr(fr_cfg()), 4.0 / (L * L));
}

#[test]
fn pa_sharded_is_bit_identical_across_shard_grids() {
    assert_bit_identical(EngineSpec::Pa(pa_cfg()), 4.0 / (L * L));
}

#[test]
fn sharded_stats_track_router_level_protocol_counts() {
    let pop = boundary_population();
    let mut plane = sharded(EngineSpec::Fr(fr_cfg()), 2, 2).build(0);
    assert_eq!(plane.name(), "sharded-fr");
    plane.bulk_load(&pop, 0);
    let st = plane.stats();
    assert_eq!(st.updates_applied, pop.len() as u64);
    assert_eq!(st.rejected_updates, 0);
    // Halo replication means shard object totals meet or exceed the
    // distinct population.
    assert!(st.objects >= pop.len(), "{} < {}", st.objects, pop.len());
    let json = plane.shard_metrics_json().expect("sharded plane reports");
    assert!(json.starts_with('[') && json.contains("\"shard\":3"));
}

#[test]
fn sharded_checkpoint_restores_bit_identically() {
    let pop = boundary_population();
    let rho = 4.0 / (L * L);
    let mut plane = sharded(EngineSpec::Fr(fr_cfg()), 2, 2).build(0);
    plane.bulk_load(&pop, 0);
    plane.advance_to(1);
    plane.apply_batch(&churn(&pop, 1));
    let cp = plane.checkpoint().expect("sharded checkpoint");
    let q = PdrQuery::new(rho, L, 2);
    let want = plane.query(&q).regions;

    let mut restored = sharded(EngineSpec::Fr(fr_cfg()), 2, 2).build(0);
    restored.restore_from(&cp).expect("restores");
    assert_eq!(restored.query(&q).regions.rects(), want.rects());

    // A checkpoint is self-describing: a plane built with a different
    // shard grid reshapes itself to the checkpoint's partition and
    // still answers bit-identically.
    let mut other = sharded(EngineSpec::Fr(fr_cfg()), 2, 1).build(0);
    other.restore_from(&cp).expect("reshapes on restore");
    assert_eq!(other.query(&q).regions.rects(), want.rects());
}
