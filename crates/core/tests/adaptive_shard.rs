//! Differential fuzz of the adaptive shard plane: starting from a
//! single root leaf, random interleavings of apply / advance / query /
//! subscribe / split / merge / crash-restore must stay **bit-identical**
//! to an unsharded oracle *and* to a static 2×2 grid, with zero lost or
//! duplicated updates across every topology cutover (checked via the
//! router's owned-object conservation law: the per-leaf owned counts
//! always sum to the live population).
//!
//! Also the topology edge cases: routing bboxes straddling a freshly
//! created cut at `cut ± l_max/2 ± ε`, deletes whose old motion was
//! reported before the split that separated them from their object,
//! and a split right after churn, whose children are seeded from the
//! router's live table rather than the source's log.

use pdr_core::{
    DensityEngine, EngineSpec, FrConfig, PdrQuery, QtPolicy, SplitPolicy, SubscriptionTable,
    TopologyError,
};
use pdr_geometry::{Point, Rect, RegionSet};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Update};
use std::collections::BTreeMap;

mod common;
use common::Lcg;

const EXTENT: f64 = 100.0;
const L: f64 = 10.0;
const EPS: f64 = 1e-9;

fn fr_cfg() -> FrConfig {
    FrConfig {
        extent: EXTENT,
        m: 20,
        horizon: TimeHorizon::new(4, 4),
        buffer_pages: 16,
        threads: 1,
    }
}

fn adaptive_spec() -> EngineSpec {
    EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(fr_cfg())),
        sx: 1,
        sy: 1,
        l_max: L,
    }
}

fn static_spec(sx: u32, sy: u32) -> EngineSpec {
    EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(fr_cfg())),
        sx,
        sy,
        l_max: L,
    }
}

fn canonical(ans: &RegionSet) -> RegionSet {
    let mut c = ans.clone();
    c.canonicalize();
    c
}

/// The dense corner every deterministic split targets: splitting the
/// leaf that owns this point drives the partition ≥ 3 levels deep.
const HOT: Point = Point { x: 30.0, y: 30.0 };

fn hot_leaf(eng: &pdr_core::ShardedEngine) -> usize {
    let part = eng.map();
    (0..part.shards())
        .find(|&i| part.owned(i).contains_half_open(HOT))
        .expect("owned rects tile the plane")
}

fn random_motion(rng: &mut Lcg, t_ref: u64) -> MotionState {
    // Half the traffic clusters around the hot corner so the leaf the
    // deterministic splits chase stays genuinely loaded.
    let p = if rng.below(2) == 0 {
        Point::new(
            (HOT.x + rng.in_range(-8.0, 8.0)).clamp(0.0, EXTENT),
            (HOT.y + rng.in_range(-8.0, 8.0)).clamp(0.0, EXTENT),
        )
    } else {
        Point::new(rng.in_range(0.0, EXTENT), rng.in_range(0.0, EXTENT))
    };
    MotionState::new(
        p,
        Point::new(rng.in_range(-1.5, 1.5), rng.in_range(-1.5, 1.5)),
        t_ref,
    )
}

fn random_region(rng: &mut Lcg) -> Rect {
    if rng.below(3) == 0 {
        return Rect::new(0.0, 0.0, EXTENT, EXTENT);
    }
    let x_lo = rng.in_range(0.0, EXTENT - 25.0);
    let y_lo = rng.in_range(0.0, EXTENT - 25.0);
    Rect::new(
        x_lo,
        y_lo,
        x_lo + rng.in_range(20.0, EXTENT - x_lo),
        y_lo + rng.in_range(20.0, EXTENT - y_lo),
    )
}

enum LogRec {
    Advance(u64),
    Batch(Vec<Update>),
}

fn run_fuzz(seed: u64, steps: usize) {
    let mut rng = Lcg(seed);
    let mut oracle = EngineSpec::Fr(fr_cfg()).build(0);
    let mut fixed = static_spec(2, 2).build(0);
    let mut adaptive = adaptive_spec().build(0);

    let mut now = 0u64;
    let mut next_oid = 0u64;
    let mut live: Vec<(ObjectId, MotionState)> = Vec::new();
    let initial: Vec<(ObjectId, MotionState)> = (0..220)
        .map(|_| {
            let id = ObjectId(next_oid);
            next_oid += 1;
            (id, random_motion(&mut rng, 0))
        })
        .collect();
    live.extend(initial.iter().copied());
    oracle.bulk_load(&initial, 0);
    fixed.bulk_load(&initial, 0);
    adaptive.bulk_load(&initial, 0);

    let mut cp = adaptive.checkpoint().expect("sharded checkpoint");
    let mut log: Vec<LogRec> = Vec::new();
    let mut ticks_since_cp = 0u64;
    let mut mirrors: BTreeMap<u64, Vec<Rect>> = BTreeMap::new();
    let mut max_depth_seen = 0u32;

    for step in 0..steps {
        match rng.below(12) {
            0 => {
                if mirrors.len() < 4 {
                    let rho = rng.in_range(0.02, 0.08);
                    let region = random_region(&mut rng);
                    let policy = if rng.below(2) == 0 {
                        QtPolicy::NowPlus(rng.below(3))
                    } else {
                        QtPolicy::Fixed(now + rng.below(4))
                    };
                    let id = adaptive
                        .register_subscription(rho, L, region, policy)
                        .expect("edge within l_max");
                    mirrors.insert(id.0, Vec::new());
                }
            }
            1 => {
                if let Some(&id) = mirrors
                    .keys()
                    .nth(rng.below(mirrors.len().max(1) as u64) as usize)
                {
                    assert!(adaptive.unregister_subscription(pdr_core::SubId(id)));
                    mirrors.remove(&id);
                }
            }
            2 => {
                // Keep the log shorter than the update window `U`, or a
                // replayed batch would (correctly) be screened as stale.
                if ticks_since_cp >= 3 {
                    cp = adaptive.checkpoint().expect("checkpoint");
                    log.clear();
                    ticks_since_cp = 0;
                }
                now += 1;
                ticks_since_cp += 1;
                oracle.advance_to(now);
                fixed.advance_to(now);
                adaptive.advance_to(now);
                log.push(LogRec::Advance(now));
            }
            3 => {
                // Crash the adaptive plane: restore the last composed
                // checkpoint (which may carry an older topology — the
                // partition is part of the checkpoint, so the plane
                // reshapes) and replay the logged traffic.
                adaptive.restore_from(&cp).expect("recovery");
                for rec in &log {
                    match rec {
                        LogRec::Advance(t) => adaptive.advance_to(*t),
                        LogRec::Batch(batch) => adaptive.apply_batch(batch),
                    }
                }
            }
            4 => {
                cp = adaptive.checkpoint().expect("checkpoint");
                log.clear();
                ticks_since_cp = 0;
            }
            5 | 6 => {
                let eng = adaptive.as_sharded_mut().expect("adaptive plane");
                // Drive the hot corner at least three levels deep, then
                // split arbitrary leaves.
                let idx = if eng.splits() < 3 {
                    hot_leaf(eng)
                } else {
                    rng.below(eng.map().shards() as u64) as usize
                };
                match eng.split_shard(idx) {
                    Ok(rep) => assert_eq!(rep.created.len(), 4, "step {step}"),
                    Err(TopologyError::Limits) => {}
                    Err(e) => panic!("split failed at step {step}: {e:?}"),
                }
            }
            7 => {
                let eng = adaptive.as_sharded_mut().expect("adaptive plane");
                let groups = eng.map().sibling_groups();
                if !groups.is_empty() {
                    let g = groups[rng.below(groups.len() as u64) as usize];
                    eng.merge_shards(g).expect("sibling merge");
                }
            }
            _ => {
                let mut batch = Vec::new();
                for _ in 0..(1 + rng.below(12)) {
                    if !live.is_empty() && rng.below(3) == 0 {
                        let k = rng.below(live.len() as u64) as usize;
                        let (id, motion) = live.swap_remove(k);
                        batch.push(Update::delete(id, now, motion));
                    } else {
                        let motion = random_motion(&mut rng, now);
                        let id = ObjectId(next_oid);
                        next_oid += 1;
                        let u = Update::insert(id, now, motion);
                        live.push((id, motion.rebased_to(now)));
                        batch.push(u);
                    }
                }
                oracle.apply_batch(&batch);
                fixed.apply_batch(&batch);
                adaptive.apply_batch(&batch);
                log.push(LogRec::Batch(batch));
            }
        }

        {
            let eng = adaptive.as_sharded().expect("adaptive plane");
            max_depth_seen =
                max_depth_seen.max(eng.map().leaves().iter().map(|l| l.depth()).max().unwrap());
            // Conservation: no cutover may lose or duplicate an owned
            // object — every live object has exactly one owner leaf.
            let owned: u64 = eng.owned_objects().iter().sum();
            assert_eq!(
                owned,
                live.len() as u64,
                "owned-object conservation broke at step {step}"
            );
        }

        let deltas = adaptive.maintain_subscriptions(now);
        for d in &deltas {
            assert!(!d.degraded, "no faults armed, step {step}");
            if let Some(m) = mirrors.get_mut(&d.id.0) {
                d.apply_to(m);
            }
        }

        // Every standing subscription matches a from-scratch oracle
        // query clipped to its region — both the plane's committed
        // answer and the external mirror reconstructed from deltas
        // (across re-routes and resync markers).
        let subs: Vec<_> = adaptive.subscriptions().subs().copied().collect();
        assert_eq!(subs.len(), mirrors.len(), "step {step}");
        for sub in subs {
            let q_t = sub.policy.resolve(now);
            let reference = SubscriptionTable::clip(
                &canonical(&oracle.query(&PdrQuery::new(sub.rho, sub.l, q_t)).regions),
                sub.region,
            );
            let table = adaptive.subscriptions();
            assert_eq!(
                table.answer(sub.id).expect("registered"),
                reference.rects(),
                "committed answer diverged: step {step}, sub {:?}",
                sub.id
            );
            assert_eq!(
                mirrors[&sub.id.0].as_slice(),
                reference.rects(),
                "delta mirror diverged: step {step}, sub {:?}",
                sub.id
            );
        }

        // Snapshot queries: adaptive and the static grid are both
        // bit-identical to the canonical oracle answer.
        for q_t in [now, now + 2] {
            for &rho in &[0.03, 0.06] {
                let q = PdrQuery::new(rho, L, q_t);
                let want = canonical(&oracle.query(&q).regions);
                assert_eq!(
                    adaptive.query(&q).regions.rects(),
                    want.rects(),
                    "adaptive diverged: step {step}, q_t {q_t}, rho {rho}"
                );
                assert_eq!(
                    fixed.query(&q).regions.rects(),
                    want.rects(),
                    "static grid diverged: step {step}, q_t {q_t}, rho {rho}"
                );
            }
        }
    }

    let eng = adaptive.as_sharded().expect("adaptive plane");
    assert!(eng.splits() >= 3, "only {} splits exercised", eng.splits());
    assert!(max_depth_seen >= 3, "never got {max_depth_seen} < 3 deep");
}

#[test]
fn adaptive_fuzz_seed_1() {
    run_fuzz(0xADA7_0001, 60);
}

#[test]
fn adaptive_fuzz_seed_2() {
    run_fuzz(0xADA7_0002, 60);
}

#[test]
fn adaptive_fuzz_seed_3() {
    run_fuzz(0xADA7_0003, 60);
}

// ---------------------------------------------------------------------
// Migration edge cases
// ---------------------------------------------------------------------

/// Objects hugging the cuts a depth-2 split tree creates over [0,100]²
/// (x or y ∈ {25, 50, 75}), at the exact cut and at `cut ± l_max/2 ± ε`
/// — the bbox-straddling band that decides halo membership.
fn straddler_population() -> Vec<(ObjectId, MotionState)> {
    let mut pop = Vec::new();
    let mut id = 0u64;
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
        for &d in &offsets {
            for &y in &[12.0, 37.5, 62.5, 88.0] {
                pop.push((
                    ObjectId(id),
                    MotionState::new(Point::new(cut + d, y), Point::new(0.0, 0.0), 0),
                ));
                id += 1;
                pop.push((
                    ObjectId(id),
                    MotionState::new(Point::new(y, cut + d), Point::new(0.0, 0.0), 0),
                ));
                id += 1;
            }
        }
        // Movers whose trajectories cross the cut inside the horizon,
        // so their routing bboxes straddle it in time as well as space.
        for k in 0..8 {
            pop.push((
                ObjectId(id),
                MotionState::new(
                    Point::new(cut - 4.0, 11.0 * k as f64 + 2.0),
                    Point::new(2.5, if k % 2 == 0 { 0.75 } else { -0.75 }),
                    0,
                ),
            ));
            id += 1;
        }
    }
    pop
}

fn build_pair() -> (Box<dyn DensityEngine>, Box<dyn DensityEngine>) {
    let pop = straddler_population();
    let mut oracle = EngineSpec::Fr(fr_cfg()).build(0);
    let mut adaptive = adaptive_spec().build(0);
    oracle.bulk_load(&pop, 0);
    adaptive.bulk_load(&pop, 0);
    (oracle, adaptive)
}

fn assert_matches(oracle: &dyn DensityEngine, adaptive: &dyn DensityEngine, now: u64, ctx: &str) {
    for q_t in now..=now + 2 {
        for &rho in &[0.02, 0.05, 0.1] {
            let q = PdrQuery::new(rho, L, q_t);
            let want = canonical(&oracle.query(&q).regions);
            assert_eq!(
                adaptive.query(&q).regions.rects(),
                want.rects(),
                "{ctx}: q_t {q_t}, rho {rho}"
            );
        }
    }
}

#[test]
fn split_keeps_straddling_bboxes_exact() {
    let (oracle, mut adaptive) = build_pair();
    // Depth 1 (cut at 50), then depth 2 in every quadrant (cuts at
    // 25 / 75): every straddler band now crosses a live shard edge.
    adaptive
        .as_sharded_mut()
        .unwrap()
        .split_shard(0)
        .expect("root split");
    assert_matches(oracle.as_ref(), adaptive.as_ref(), 0, "after root split");
    for &c in &[
        Point::new(10.0, 10.0),
        Point::new(90.0, 10.0),
        Point::new(10.0, 90.0),
        Point::new(90.0, 90.0),
    ] {
        let eng = adaptive.as_sharded_mut().unwrap();
        let idx = (0..eng.map().shards())
            .find(|&i| eng.map().owned(i).contains_half_open(c))
            .expect("owned rects tile the plane");
        eng.split_shard(idx).expect("quadrant split");
    }
    let eng = adaptive.as_sharded().unwrap();
    assert_eq!(eng.map().shards(), 16);
    assert_eq!(
        eng.owned_objects().iter().sum::<u64>(),
        straddler_population().len() as u64
    );
    assert_matches(oracle.as_ref(), adaptive.as_ref(), 0, "depth-2 tree");
}

#[test]
fn old_motion_deletes_route_correctly_mid_migration() {
    let (mut oracle, mut adaptive) = build_pair();
    let pop = straddler_population();
    // Report at t=0, split at t=1: the split children inherit motions
    // whose t_ref predates the topology they live in.
    oracle.advance_to(1);
    adaptive.advance_to(1);
    adaptive
        .as_sharded_mut()
        .unwrap()
        .split_shard(0)
        .expect("split between report and retraction");
    // Retract every straddler by its *old* motion and re-report it on
    // the far side of the cut it hugged — the delete must route by the
    // old bbox (reaching the pre-split copies in both children), the
    // insert by the new one.
    let mut batch = Vec::new();
    for &(id, m) in &pop {
        if id.0 % 3 != 0 {
            continue;
        }
        batch.push(Update::delete(id, 1, m));
        let p = m.position_at(1);
        let flipped = Point::new((p.x + 30.0) % EXTENT, p.y);
        batch.push(Update::insert(
            id,
            1,
            MotionState::new(flipped, Point::new(-1.0, 0.5), 1),
        ));
    }
    oracle.apply_batch(&batch);
    adaptive.apply_batch(&batch);
    assert_matches(oracle.as_ref(), adaptive.as_ref(), 1, "post-retraction");
    assert_eq!(
        adaptive
            .as_sharded()
            .unwrap()
            .owned_objects()
            .iter()
            .sum::<u64>(),
        pop.len() as u64
    );
    // And a merge straight after heals the partition without reviving
    // any retracted trajectory.
    let eng = adaptive.as_sharded_mut().unwrap();
    let g = eng.map().sibling_groups()[0];
    eng.merge_shards(g).expect("merge back");
    assert_matches(oracle.as_ref(), adaptive.as_ref(), 1, "post-merge");
}

#[test]
fn split_after_churn_seeds_children_from_the_router() {
    let (mut oracle, mut adaptive) = build_pair();
    let pop = straddler_population();
    // Churn past the bulk-load checkpoint: two ticks and two batches of
    // re-reports, so the router's live table differs from the load.
    for t in 1..=2u64 {
        oracle.advance_to(t);
        adaptive.advance_to(t);
        let mut batch = Vec::new();
        for &(id, m) in pop.iter().filter(|(id, _)| id.0 % 5 == t % 5) {
            batch.push(Update::delete(id, t, m));
            batch.push(Update::insert(
                id,
                t,
                MotionState::new(m.position_at(t), Point::new(0.5, -0.5), t),
            ));
        }
        oracle.apply_batch(&batch);
        adaptive.apply_batch(&batch);
    }
    let live: u64 = adaptive.as_sharded().unwrap().owned_objects().iter().sum();
    let epoch_before = adaptive.as_sharded().unwrap().part_epoch();

    let rep = adaptive
        .as_sharded_mut()
        .unwrap()
        .split_shard(0)
        .expect("split after churn");
    // Every live object is re-inserted into at least the child that
    // owns it (halo ghosts may add more).
    assert!(rep.records_replayed >= live);
    let eng = adaptive.as_sharded().unwrap();
    assert_eq!(eng.map().shards(), 4);
    assert!(eng.part_epoch() > epoch_before);
    assert_eq!(eng.owned_objects().iter().sum::<u64>(), live);
    assert_matches(oracle.as_ref(), adaptive.as_ref(), 2, "after split");
}

#[test]
fn auto_rebalance_splits_hot_leaves_and_merges_cold_ones() {
    let pop = straddler_population();
    let mut oracle = EngineSpec::Fr(fr_cfg()).build(0);
    let mut adaptive = EngineSpec::Sharded {
        adaptive: Some(SplitPolicy {
            split_threshold: 60,
            merge_threshold: 25,
            min_interval: 1,
            ..Default::default()
        }),
        inner: Box::new(EngineSpec::Fr(fr_cfg())),
        sx: 1,
        sy: 1,
        l_max: L,
    }
    .build(0);
    oracle.bulk_load(&pop, 0);
    adaptive.bulk_load(&pop, 0);
    for t in 1..=4u64 {
        oracle.advance_to(t);
        adaptive.advance_to(t);
        assert_matches(oracle.as_ref(), adaptive.as_ref(), t, "hot phase");
    }
    let splits = adaptive.as_sharded().unwrap().splits();
    assert!(splits >= 1, "policy never split a hot root");
    // Retract almost everything: the survivors fit one leaf, so the
    // policy must fold cold sibling groups back together.
    let mut batch = Vec::new();
    for &(id, m) in pop.iter().filter(|(id, _)| id.0 % 10 != 0) {
        batch.push(Update::delete(id, 4, m));
    }
    oracle.apply_batch(&batch);
    adaptive.apply_batch(&batch);
    for t in 5..=8u64 {
        oracle.advance_to(t);
        adaptive.advance_to(t);
        assert_matches(oracle.as_ref(), adaptive.as_ref(), t, "cold phase");
    }
    let eng = adaptive.as_sharded().unwrap();
    assert!(eng.merges() >= 1, "policy never merged a cold group");
    assert_eq!(
        eng.owned_objects().iter().sum::<u64>(),
        pop.iter().filter(|(id, _)| id.0 % 10 == 0).count() as u64
    );
}
