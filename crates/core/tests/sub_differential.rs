//! Differential fuzz of the subscription plane: under random
//! interleavings of register / unregister / apply_batch / tick /
//! crash-recovery, every standing subscription's delta-maintained
//! answer must stay **bit-identical** to a from-scratch `query` clipped
//! to its region — both the table's committed answer and an external
//! mirror reconstructed purely from the emitted [`AnswerDelta`]s.
//!
//! Runs at three plane shapes: unsharded FR, sharded 1×1 (the routing
//! degenerate case), and sharded 2×2 (cut lines + halos + clipped
//! merge). Crash recovery restores the last checkpoint and replays the
//! logged traffic (the serve driver's protocol), so catch-up deltas
//! after a crash are exercised too.

use pdr_core::{EngineSpec, FrConfig, PdrQuery, QtPolicy, SubscriptionTable};
use pdr_geometry::{Point, Rect};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Update};
use std::collections::BTreeMap;

mod common;
use common::Lcg;

const EXTENT: f64 = 100.0;

fn fr_cfg() -> FrConfig {
    FrConfig {
        extent: EXTENT,
        m: 20,
        horizon: TimeHorizon::new(4, 4),
        buffer_pages: 64,
        threads: 1,
    }
}

enum LogRec {
    Advance(u64),
    Batch(Vec<Update>),
}

fn random_motion(rng: &mut Lcg, t_ref: u64) -> MotionState {
    MotionState::new(
        Point::new(rng.in_range(0.0, EXTENT), rng.in_range(0.0, EXTENT)),
        Point::new(rng.in_range(-1.0, 1.0), rng.in_range(-1.0, 1.0)),
        t_ref,
    )
}

fn random_region(rng: &mut Lcg) -> Rect {
    if rng.below(3) == 0 {
        return Rect::new(0.0, 0.0, EXTENT, EXTENT);
    }
    let x_lo = rng.in_range(0.0, EXTENT - 20.0);
    let y_lo = rng.in_range(0.0, EXTENT - 20.0);
    Rect::new(
        x_lo,
        y_lo,
        x_lo + rng.in_range(15.0, EXTENT - x_lo),
        y_lo + rng.in_range(15.0, EXTENT - y_lo),
    )
}

fn run_fuzz(spec: &EngineSpec, seed: u64, steps: usize) {
    let mut rng = Lcg(seed);
    let mut eng = spec.build(0);
    let mut now = 0u64;
    let mut next_oid = 0u64;
    let mut live: Vec<(ObjectId, MotionState)> = Vec::new();

    let initial: Vec<(ObjectId, MotionState)> = (0..250)
        .map(|_| {
            let id = ObjectId(next_oid);
            next_oid += 1;
            (id, random_motion(&mut rng, 0))
        })
        .collect();
    live.extend(initial.iter().copied());
    eng.bulk_load(&initial, 0);

    let mut cp = eng.checkpoint().expect("FR planes are checkpointable");
    let mut log: Vec<LogRec> = Vec::new();
    // Delta-replayed mirrors, one per live subscription, fed *only* by
    // emitted patches — they must track the table bit-for-bit.
    let mut mirrors: BTreeMap<u64, Vec<Rect>> = BTreeMap::new();

    for step in 0..steps {
        match rng.below(10) {
            0 | 1 => {
                if mirrors.len() < 6 {
                    let l = if rng.below(2) == 0 { 10.0 } else { 12.0 };
                    let rho = rng.in_range(0.02, 0.08);
                    let region = random_region(&mut rng);
                    let policy = if rng.below(2) == 0 {
                        QtPolicy::NowPlus(rng.below(3))
                    } else {
                        QtPolicy::Fixed(now + rng.below(4))
                    };
                    let id = eng
                        .register_subscription(rho, l, region, policy)
                        .expect("edge within l_max");
                    mirrors.insert(id.0, Vec::new());
                }
            }
            2 => {
                if let Some(&id) = mirrors
                    .keys()
                    .nth(rng.below(mirrors.len().max(1) as u64) as usize)
                {
                    assert!(eng.unregister_subscription(pdr_core::SubId(id)));
                    mirrors.remove(&id);
                }
            }
            3 => {
                now += 1;
                eng.advance_to(now);
                log.push(LogRec::Advance(now));
            }
            4 => {
                // Crash: restore the last checkpoint and replay the log,
                // exactly like the serve driver's recovery protocol. The
                // subscription tables are engine-plane state and survive;
                // the incremental caches do not, so the next maintenance
                // pass must emit exact catch-up patches.
                eng.restore_from(&cp).expect("recovery from own checkpoint");
                for rec in &log {
                    match rec {
                        LogRec::Advance(t) => eng.advance_to(*t),
                        LogRec::Batch(batch) => eng.apply_batch(batch),
                    }
                }
            }
            5 => {
                cp = eng.checkpoint().expect("checkpoint");
                log.clear();
            }
            _ => {
                let mut batch = Vec::new();
                for _ in 0..(1 + rng.below(15)) {
                    if !live.is_empty() && rng.below(3) == 0 {
                        let k = rng.below(live.len() as u64) as usize;
                        let (id, motion) = live.swap_remove(k);
                        batch.push(Update::delete(id, now, motion));
                    } else {
                        let motion = random_motion(&mut rng, now);
                        let id = ObjectId(next_oid);
                        next_oid += 1;
                        // `Update::insert` rebases to t_now; remember the
                        // rebased motion so a later delete retracts the
                        // exact indexed trajectory.
                        let u = Update::insert(id, now, motion);
                        live.push((id, motion.rebased_to(now)));
                        batch.push(u);
                    }
                }
                eng.apply_batch(&batch);
                log.push(LogRec::Batch(batch));
            }
        }

        let deltas = eng.maintain_subscriptions(now);
        for d in &deltas {
            assert!(!d.degraded, "no faults armed, step {step}");
            if let Some(m) = mirrors.get_mut(&d.id.0) {
                d.apply_to(m);
            }
        }

        let subs: Vec<_> = eng
            .subscriptions()
            .expect("plane has a table")
            .subs()
            .copied()
            .collect();
        assert_eq!(subs.len(), mirrors.len(), "step {step}");
        for sub in subs {
            let q_t = sub.policy.resolve(now);
            let reference = SubscriptionTable::clip(
                &eng.query(&PdrQuery::new(sub.rho, sub.l, q_t)).regions,
                sub.region,
            );
            let table = eng.subscriptions().expect("plane has a table");
            assert_eq!(
                table.answer(sub.id).expect("registered"),
                reference.rects(),
                "committed answer diverged: step {step}, sub {:?}",
                sub.id
            );
            assert_eq!(
                mirrors[&sub.id.0].as_slice(),
                reference.rects(),
                "delta-replayed mirror diverged: step {step}, sub {:?}",
                sub.id
            );
        }
    }
}

#[test]
fn unsharded_fr_deltas_match_from_scratch_queries() {
    run_fuzz(&EngineSpec::Fr(fr_cfg()), 0xDEAD_BEEF, 70);
}

#[test]
fn sharded_1x1_deltas_match_from_scratch_queries() {
    let spec = EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(fr_cfg())),
        sx: 1,
        sy: 1,
        l_max: 12.0,
    };
    run_fuzz(&spec, 0xC0FFEE, 70);
}

#[test]
fn sharded_2x2_deltas_match_from_scratch_queries() {
    let spec = EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(fr_cfg())),
        sx: 2,
        sy: 2,
        l_max: 12.0,
    };
    run_fuzz(&spec, 0x5EED, 70);
}
