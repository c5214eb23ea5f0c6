//! The maintenance loop's fault and grouping paths: which subscriptions
//! a storage fault marks degraded, what the first clean pass after a
//! fault emits, and how many engine queries a group of identical
//! standing queries costs.

use pdr_core::{
    AnswerDelta, DensityEngine, EngineSpec, FaultPlan, FrConfig, PaConfig, PdrQuery, QtPolicy,
    SubId, SubscriptionTable,
};
use pdr_geometry::{Point, Rect};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Update};
use std::collections::BTreeMap;

mod common;
use common::Lcg;

const EXTENT: f64 = 100.0;
const L: f64 = 10.0;

fn fr_cfg() -> FrConfig {
    FrConfig {
        extent: EXTENT,
        m: 20,
        horizon: TimeHorizon::new(4, 4),
        // Tiny pool: a refinement pass reads far more pages than fit,
        // so an armed read fault always meets a physical read.
        buffer_pages: 8,
        threads: 1,
    }
}

/// Clusters on the diagonal (one per 2×2 shard quadrant and one on
/// each cut) plus uniform background traffic.
fn population(n: usize) -> Vec<(ObjectId, MotionState)> {
    let mut rng = Lcg(0x5B_0F);
    (0..n)
        .map(|i| {
            let (cx, cy) = if i % 4 == 0 {
                (rng.in_range(0.0, EXTENT), rng.in_range(0.0, EXTENT))
            } else {
                let c = 12.5 + 25.0 * ((i / 4) % 4) as f64;
                (
                    (c + rng.in_range(-5.0, 5.0)).clamp(0.0, EXTENT),
                    (c + rng.in_range(-5.0, 5.0)).clamp(0.0, EXTENT),
                )
            };
            let v = Point::new(rng.in_range(-0.5, 0.5), rng.in_range(-0.5, 0.5));
            (
                ObjectId(i as u64),
                MotionState::new(Point::new(cx, cy), v, 0),
            )
        })
        .collect()
}

/// Stationary inserts around `(85, 85)`: far enough from every cut
/// that a 2×2 plane routes them to shard 3 alone.
fn far_corner_batch(rng: &mut Lcg, next_oid: &mut u64, now: u64) -> Vec<Update> {
    (0..12)
        .map(|_| {
            let p = Point::new(rng.in_range(82.0, 88.0), rng.in_range(82.0, 88.0));
            let id = ObjectId(*next_oid);
            *next_oid += 1;
            Update::insert(id, now, MotionState::stationary(p, now))
        })
        .collect()
}

fn replay(mirrors: &mut BTreeMap<u64, Vec<Rect>>, deltas: &[AnswerDelta]) {
    for d in deltas {
        d.apply_to(mirrors.get_mut(&d.id.0).expect("known subscription"));
    }
}

/// `clip(from-scratch query, region)` on a reference engine.
fn reference(eng: &dyn DensityEngine, rho: f64, q_t: u64, region: Rect) -> Vec<Rect> {
    let full = eng.query(&PdrQuery::new(rho, L, q_t)).regions;
    SubscriptionTable::clip(&full, region).rects().to_vec()
}

/// A permanent read fault beneath shard 0 of a 2×2 FR plane degrades
/// exactly the subscriptions whose region meets shard 0's owned
/// rectangle; every other subscription keeps committing the clipped
/// from-scratch answer of a healthy unsharded twin, bit for bit.
#[test]
fn shard_fault_degrades_exactly_the_subscriptions_it_owns() {
    let spec = EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(fr_cfg())),
        sx: 2,
        sy: 2,
        l_max: L,
    };
    let mut plane = spec.build(0);
    let mut twin = EngineSpec::Fr(fr_cfg()).build(0);
    let pop = population(2000);
    plane.bulk_load(&pop, 0);
    twin.bulk_load(&pop, 0);

    // Sliding q_t: every pass evaluates a fresh group key, so no group
    // can be served from a cache without touching the faulted storage.
    let regions = [
        Rect::new(0.0, 0.0, EXTENT, EXTENT),
        Rect::new(10.0, 10.0, 40.0, 40.0),
        Rect::new(45.0, 45.0, 70.0, 70.0),
        Rect::new(60.0, 60.0, 100.0, 100.0),
        Rect::new(55.0, 0.0, 100.0, 45.0),
        Rect::new(0.0, 55.0, 45.0, 100.0),
    ];
    let rho = 0.05;
    let ids: Vec<SubId> = regions
        .iter()
        .map(|&r| {
            plane
                .register_subscription(rho, L, r, QtPolicy::NowPlus(1))
                .expect("edge within l_max")
        })
        .collect();
    let owned0 = plane.as_sharded().expect("sharded plane").map().owned(0);
    let meets_shard0: Vec<bool> = regions.iter().map(|r| r.intersects(&owned0)).collect();
    assert!(meets_shard0.iter().any(|&m| m) && meets_shard0.iter().any(|&m| !m));

    let mut mirrors: BTreeMap<u64, Vec<Rect>> = ids.iter().map(|id| (id.0, Vec::new())).collect();
    let deltas = plane.maintain_subscriptions(0);
    assert!(deltas.iter().all(|d| !d.degraded));
    replay(&mut mirrors, &deltas);

    plane.set_fault_plan(FaultPlan::new(7).with_permanent_read_fault(1));
    let mut rng = Lcg(0xFA_11);
    let mut next_oid = 1_000_000u64;
    for now in 1..=3u64 {
        plane.advance_to(now);
        twin.advance_to(now);
        let batch = far_corner_batch(&mut rng, &mut next_oid, now);
        plane.apply_batch(&batch);
        twin.apply_batch(&batch);
        let deltas = plane.maintain_subscriptions(now);
        replay(&mut mirrors, &deltas);
        let table = plane.subscriptions();
        for (k, id) in ids.iter().enumerate() {
            let degraded = table.is_degraded(*id).expect("registered");
            assert_eq!(
                degraded, meets_shard0[k],
                "t={now}: sub {k} (region {:?}) degraded = {degraded}",
                regions[k]
            );
            let emitted: Vec<&AnswerDelta> = deltas.iter().filter(|d| d.id == *id).collect();
            if degraded {
                // One rect-free marker on the transition, then silence.
                assert_eq!(emitted.len(), usize::from(now == 1), "t={now}: sub {k}");
                assert!(emitted.iter().all(|d| d.degraded && d.is_empty()));
            } else {
                let want = reference(twin.as_ref(), rho, now + 1, regions[k]);
                assert_eq!(table.answer(*id).expect("registered"), &want[..]);
                assert_eq!(mirrors[&id.0], want, "t={now}: sub {k} mirror diverged");
            }
        }
    }
}

/// A transient read fault on an unsharded FR engine degrades every
/// subscription of the group whose evaluation it aborts; the first
/// clean pass afterwards emits catch-up deltas that bring each
/// delta-replayed mirror to the clipped from-scratch answer. A failed
/// group stores no answer in the memo, so a retry at the same epoch
/// re-evaluates it.
#[test]
fn transient_fault_degrades_the_group_then_catches_up() {
    let mut eng = EngineSpec::Fr(fr_cfg()).build(0);
    eng.bulk_load(&population(2000), 0);
    let rho = 0.05;
    let regions = [
        Rect::new(0.0, 0.0, EXTENT, EXTENT),
        Rect::new(5.0, 5.0, 45.0, 45.0),
        Rect::new(30.0, 30.0, 80.0, 80.0),
        Rect::new(50.0, 0.0, 100.0, 60.0),
    ];
    let ids: Vec<SubId> = regions
        .iter()
        .map(|&r| {
            eng.register_subscription(rho, L, r, QtPolicy::NowPlus(1))
                .expect("valid subscription")
        })
        .collect();
    let mut mirrors: BTreeMap<u64, Vec<Rect>> = ids.iter().map(|id| (id.0, Vec::new())).collect();
    replay(&mut mirrors, &eng.maintain_subscriptions(0));

    let mut rng = Lcg(0x7A_45);
    let mut next_oid = 1_000_000u64;
    eng.advance_to(1);
    eng.apply_batch(&far_corner_batch(&mut rng, &mut next_oid, 1));

    // One failing physical read: the group's refinement aborts on it.
    eng.set_fault_plan(FaultPlan::new(3).with_read_fault(1, 1));
    let deltas = eng.maintain_subscriptions(1);
    assert_eq!(deltas.len(), ids.len(), "one marker per group member");
    assert!(deltas.iter().all(|d| d.degraded && d.is_empty()));
    let table = eng.subscriptions();
    assert!(ids.iter().all(|id| table.is_degraded(*id) == Some(true)));
    replay(&mut mirrors, &deltas);

    eng.advance_to(2);
    eng.apply_batch(&far_corner_batch(&mut rng, &mut next_oid, 2));
    let deltas = eng.maintain_subscriptions(2);
    assert_eq!(deltas.len(), ids.len(), "recovery clears every marker");
    assert!(deltas.iter().all(|d| !d.degraded));
    replay(&mut mirrors, &deltas);
    let table = eng.subscriptions();
    for (k, id) in ids.iter().enumerate() {
        let want = reference(eng.as_ref(), rho, 3, regions[k]);
        assert_eq!(table.is_degraded(*id), Some(false));
        assert_eq!(table.answer(*id).expect("registered"), &want[..]);
        assert_eq!(mirrors[&id.0], want, "sub {k}: catch-up mirror diverged");
    }

    // A failed evaluation stores nothing under the new epoch: a retry
    // at the same epoch evaluates the group afresh (refines cells) and
    // catches up, and only then does the memo serve it.
    let dirty = |e: &dyn DensityEngine| e.obs().counter("dirty_cells").expect("FR counts");
    eng.advance_to(3);
    eng.apply_batch(&far_corner_batch(&mut rng, &mut next_oid, 3));
    eng.set_fault_plan(FaultPlan::new(5).with_read_fault(1, 1));
    let deltas = eng.maintain_subscriptions(3);
    assert!(deltas.iter().all(|d| d.degraded && d.is_empty()));
    replay(&mut mirrors, &deltas);
    let before_retry = dirty(eng.as_ref());
    let deltas = eng.maintain_subscriptions(3);
    assert_eq!(deltas.len(), ids.len(), "the retry clears every marker");
    assert!(dirty(eng.as_ref()) > before_retry, "the retry re-evaluated");
    replay(&mut mirrors, &deltas);
    for (k, id) in ids.iter().enumerate() {
        let want = reference(eng.as_ref(), rho, 4, regions[k]);
        assert_eq!(mirrors[&id.0], want, "sub {k}: retry mirror diverged");
    }
    let after_retry = dirty(eng.as_ref());
    assert!(eng.maintain_subscriptions(3).is_empty());
    assert_eq!(dirty(eng.as_ref()), after_retry, "memo hit refined cells");
}

/// Standing queries that share `(ρ, l, resolved q_t)` are one group:
/// a maintenance pass over 8 of them on a PA engine (which has no
/// group memo of its own) costs one PA query, not eight.
#[test]
fn identical_standing_queries_cost_one_query_per_pass() {
    let mut eng = EngineSpec::Pa(PaConfig {
        extent: EXTENT,
        g: 5,
        degree: 4,
        l: L,
        horizon: TimeHorizon::new(4, 4),
        m_d: 100,
    })
    .build(0);
    eng.bulk_load(&population(400), 0);
    let queries = |e: &dyn DensityEngine| e.obs().counter("queries").expect("PA counts queries");
    let mut rng = Lcg(0x9A_11);
    for _ in 0..8 {
        let x = rng.in_range(0.0, 60.0);
        let region = Rect::new(x, x, x + 40.0, x + 40.0);
        eng.register_subscription(0.05, L, region, QtPolicy::NowPlus(2))
            .expect("valid subscription");
    }
    for now in 0..3u64 {
        eng.advance_to(now);
        let before = queries(eng.as_ref());
        eng.maintain_subscriptions(now);
        assert_eq!(
            queries(eng.as_ref()) - before,
            1,
            "t={now}: one group, one query"
        );
    }
}
