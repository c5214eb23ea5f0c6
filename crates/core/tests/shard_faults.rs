//! Shard-scoped fault handling: a permanent storage fault beneath one
//! shard must stickily degrade **that shard alone** — every other
//! shard keeps serving exactly and the plane never fails a query.
//!
//! The CLI fault smoke (`scripts/verify.sh --sharded-smoke`) can only
//! observe driver-level containment, because a fault plan armed before
//! the serve loop fires on the ingest path and is handled by the
//! driver's crash protocol before any query runs. The query-path
//! degradation invariant is pinned here instead, where the plan can be
//! installed after ingest.

use pdr_core::{DensityEngine, EngineSpec, FaultPlan, FrConfig, PdrQuery, ShardMap, ShardedEngine};
use pdr_geometry::{Point, Rect};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon};

mod common;
use common::Lcg;

const EXTENT: f64 = 100.0;
const L: f64 = 10.0;

fn fr_cfg() -> FrConfig {
    FrConfig {
        extent: EXTENT,
        m: 20,
        horizon: TimeHorizon::new(4, 4),
        // Tiny pool: every query pass touches far more pages than fit,
        // so an armed read fault always gets a physical read to fire on.
        buffer_pages: 8,
        threads: 1,
    }
}

/// A 2x2 sharded FR plane mirroring `EngineSpec::Sharded`'s halo math,
/// built directly so the test can reach `shard_degraded`.
fn plane() -> ShardedEngine {
    let cfg = fr_cfg();
    let pitch = EXTENT / cfg.m as f64;
    let map = ShardMap::new(
        Rect::new(0.0, 0.0, EXTENT, EXTENT),
        2,
        2,
        L / 2.0 + 2.0 * pitch,
    );
    ShardedEngine::new("sharded-fr", map, cfg.horizon, 0, 1, L, move |_| {
        EngineSpec::Fr(cfg).build(0)
    })
}

/// Clustered population dense enough that every shard owns a
/// multi-page subtree (so queries always read past the buffer pool).
fn population(n: usize) -> Vec<(ObjectId, MotionState)> {
    let mut rng = Lcg(0xFA_17);
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

#[test]
fn permanent_fault_degrades_only_the_faulted_shard() {
    let mut plane = plane();
    plane.bulk_load(&population(2000), 0);

    let q = PdrQuery::new(0.05, L, 2);
    let healthy = plane.try_query(&q).expect("healthy plane answers");
    assert!(healthy.exact, "healthy sharded answer must be exact");

    // Arm a permanent fault beneath shard 0 only (the trait-level hook
    // scopes to shard 0 by design): the next physical read fails, the
    // error is neither transient nor corruption, so the shard degrades
    // stickily instead of recovering.
    plane.set_fault_plan(FaultPlan::new(42).with_permanent_read_fault(1));

    let degraded = plane
        .try_query(&q)
        .expect("plane must keep serving through a single-shard fault");
    assert!(!degraded.exact, "a degraded shard taints exactness");
    assert!(plane.shard_degraded(0), "faulted shard must be degraded");
    for i in 1..4 {
        assert!(
            !plane.shard_degraded(i),
            "shard {i} must stay healthy: the fault is scoped to shard 0"
        );
    }

    // The sticky path keeps serving without re-touching broken storage.
    let again = plane.try_query(&q).expect("sticky degraded serving");
    assert!(!again.exact);

    // Per-shard metrics agree: exactly one degraded entry, on shard 0.
    let json = plane
        .shard_metrics_json()
        .expect("sharded plane emits per-shard metrics");
    assert_eq!(
        json.matches("\"degraded\":true").count(),
        1,
        "exactly one shard may be degraded: {json}"
    );
    let shard0 = &json[..json.find("\"shard\":1").expect("shard 1 entry")];
    assert!(
        shard0.contains("\"degraded\":true"),
        "the degraded entry must be shard 0's: {json}"
    );
}

#[test]
fn transient_fault_propagates_without_degrading() {
    let mut plane = plane();
    plane.bulk_load(&population(2000), 0);
    let q = PdrQuery::new(0.05, L, 2);

    // One transient read failure: surfaces to the caller's retry
    // policy rather than silently degrading a shard.
    plane.set_fault_plan(FaultPlan::new(7).with_read_fault(1, 1));
    match plane.try_query(&q) {
        Err(e) => assert!(e.is_transient(), "expected a transient error, got {e:?}"),
        Ok(_) => panic!("armed transient fault should surface as Err"),
    }

    // The retry succeeds exactly and no shard was marked degraded.
    let retried = plane.try_query(&q).expect("retry after transient fault");
    assert!(retried.exact, "retry must restore exact serving");
    for i in 0..4 {
        assert!(!plane.shard_degraded(i), "shard {i} wrongly degraded");
    }
}
