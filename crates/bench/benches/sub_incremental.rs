//! Standing-subscription maintenance bench: incremental deltas vs
//! from-scratch recomputation.
//!
//! At 1 / 10 / 100 / 1000 standing PDR queries over one FR engine, each
//! tick applies an update batch and then pays the query plane twice:
//!
//! * **incremental** — one `maintain_subscriptions` pass: standing
//!   queries grouped by `(ρ, l, resolved q_t)` and evaluated once per
//!   group (a group whose answer the engine's memo holds at the current
//!   histogram epoch is not re-evaluated), then per-subscription
//!   clipped diffs;
//! * **recompute** — the pre-subscription serving model: one
//!   from-scratch `query` per standing subscription, clipped to its
//!   region.
//!
//! Both produce bit-identical answers (asserted every tick); the point
//! is the cost ratio, written to `BENCH_sub_incremental.json`. The two
//! paths take turns going first, tick by tick, because the second one
//! at an epoch is served the filter classifications the first cached.
//! The engine's `dirty_cells` counter reports the candidate cells the
//! pass's group evaluations refined.
//!
//! The workload models a production alert service, which is where the
//! two sharing levers of the subscription plane actually engage.
//! Subscribers pick a *region of their own* but draw `ρ` and the
//! horizon offset from a small menu of alert tiers (nobody subscribes
//! to `ρ = 0.04217`): same-tier subscriptions collapse into one group
//! evaluation plus cheap per-region clips, so group cost amortizes
//! across the fleet. Half the fleet pins a fixed forecast timestamp
//! ("the 5 PM picture", re-resolved as updates stream in), half slides
//! with the clock (`now + k`); every tick's churn moves the histogram
//! epoch, so each group is evaluated once per tick, and the win is the
//! grouping.
//!
//! Usage: `cargo bench --bench sub_incremental [-- <n_objects>
//! <ticks>]` (defaults: 1 500 objects, 3 ticks). Under `cargo bench`
//! every subscription count runs five times, interleaved, and the
//! artifact reports each timing's median and quartiles; a run for the
//! asserts alone (`cargo test --bench sub_incremental`) runs once.

use pdr_bench::{Lcg, Spread};
use pdr_core::{DensityEngine, EngineSpec, FrConfig, PdrQuery, QtPolicy, SubscriptionTable};
use pdr_geometry::{Point, Rect};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Update};
use std::time::Instant;

const EXTENT: f64 = 200.0;
const L: f64 = 20.0;

fn motion(rng: &mut Lcg, t_ref: u64) -> MotionState {
    MotionState::new(
        Point::new(rng.in_range(0.0, EXTENT), rng.in_range(0.0, EXTENT)),
        Point::new(rng.in_range(-1.0, 1.0), rng.in_range(-1.0, 1.0)),
        t_ref,
    )
}

fn region(rng: &mut Lcg) -> Rect {
    if rng.next_u31().is_multiple_of(4) {
        return Rect::new(0.0, 0.0, EXTENT, EXTENT);
    }
    let w = rng.in_range(0.3, 0.8) * EXTENT;
    let h = rng.in_range(0.3, 0.8) * EXTENT;
    let x_lo = rng.in_range(0.0, EXTENT - w);
    let y_lo = rng.in_range(0.0, EXTENT - h);
    Rect::new(x_lo, y_lo, x_lo + w, y_lo + h)
}

fn counter(e: &dyn DensityEngine, name: &str) -> u64 {
    e.obs()
        .counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| *v)
}

struct Row {
    incremental_us: f64,
    recompute_us: f64,
    dirty_cells: u64,
    deltas_emitted: u64,
}

fn run(subs: usize, n: usize, ticks: u64, rep: u64) -> Row {
    let mut rng = Lcg(0x5AB5 ^ subs as u64);
    let spec = EngineSpec::Fr(FrConfig {
        extent: EXTENT,
        m: 40,
        horizon: TimeHorizon::new(4, 4),
        buffer_pages: 1024,
        threads: 1,
    });
    let mut eng = spec.build(0);
    let mut next_oid = 0u64;
    let mut live: Vec<(ObjectId, MotionState)> = (0..n)
        .map(|_| {
            let id = ObjectId(next_oid);
            next_oid += 1;
            (id, motion(&mut rng, 0))
        })
        .collect();
    eng.bulk_load(&live, 0);

    // Alert tiers: discrete ρ menu, per-subscriber regions. Half the
    // fleet forecasts a pinned timestamp that stays inside the horizon
    // for the whole run; half slides with the clock at a small offset.
    const RHOS: [f64; 4] = [0.02, 0.04, 0.06, 0.08];
    for i in 0..subs {
        let rho = RHOS[(rng.next_u31() as usize) % RHOS.len()];
        let r = region(&mut rng);
        let policy = if i % 2 == 0 {
            QtPolicy::Fixed(ticks + 1)
        } else {
            QtPolicy::NowPlus(rng.next_u31() % 3)
        };
        eng.register_subscription(rho, L, r, policy)
            .expect("subscription within the filter's reach");
    }
    // Commit the initial answers outside the measured window.
    let _ = eng.maintain_subscriptions(0);

    let mut incremental_us = 0.0f64;
    let mut recompute_us = 0.0f64;
    let dirty_before = counter(eng.as_ref(), "dirty_cells");
    let deltas_before = counter(eng.as_ref(), "deltas_emitted");
    for now in 1..=ticks {
        // ~5% churn per tick: fresh inserts plus exact deletes.
        let mut batch = Vec::new();
        for _ in 0..(n / 20) {
            if !live.is_empty() && rng.next_u31().is_multiple_of(3) {
                let k = (rng.next_u31() as usize) % live.len();
                let (id, m) = live.swap_remove(k);
                batch.push(Update::delete(id, now, m));
            } else {
                let m = motion(&mut rng, now);
                let id = ObjectId(next_oid);
                next_oid += 1;
                batch.push(Update::insert(id, now, m));
                live.push((id, m.rebased_to(now)));
            }
        }
        eng.advance_to(now);
        eng.apply_batch(&batch);

        // Alternate the order (see the module docs); the repetition
        // offset evens out odd tick counts across repetitions.
        let specs: Vec<_> = eng.subscriptions().subs().copied().collect();
        let mut answers = Vec::new();
        let recompute_first = (now + rep).is_multiple_of(2);
        for recompute in [recompute_first, !recompute_first] {
            let start = Instant::now();
            if recompute {
                answers = specs
                    .iter()
                    .map(|s| {
                        let q = PdrQuery::new(s.rho, s.l, s.policy.resolve(now));
                        SubscriptionTable::clip(&eng.query(&q).regions, s.region)
                    })
                    .collect();
                recompute_us += start.elapsed().as_secs_f64() * 1e6;
            } else {
                let _ = eng.maintain_subscriptions(now);
                incremental_us += start.elapsed().as_secs_f64() * 1e6;
            }
        }

        // The measured paths must agree bit-for-bit, every tick.
        let table = eng.subscriptions();
        for (s, reference) in specs.iter().zip(&answers) {
            assert_eq!(
                table.answer(s.id).expect("registered"),
                reference.rects(),
                "incremental maintenance diverged at {subs} subs, tick {now}"
            );
        }
    }
    Row {
        incremental_us: incremental_us / ticks as f64,
        recompute_us: recompute_us / ticks as f64,
        dirty_cells: counter(eng.as_ref(), "dirty_cells") - dirty_before,
        deltas_emitted: counter(eng.as_ref(), "deltas_emitted") - deltas_before,
    }
}

fn main() {
    let mut args = std::env::args().skip(1).filter(|a| !a.starts_with("--"));
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_500);
    let ticks: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let reps = pdr_bench::bench_reps();
    println!(
        "sub_incremental: n = {n}, ticks = {ticks}, extent = {EXTENT}, l = {L}, reps = {reps}"
    );

    const SUBS: [usize; 4] = [1, 10, 100, 1000];
    let mut runs: Vec<Vec<Row>> = SUBS.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (k, &subs) in SUBS.iter().enumerate() {
            let row = run(subs, n, ticks, rep as u64);
            println!(
                "subs={subs:<5} incremental {:>10.1} us/tick  recompute {:>12.1} us/tick  \
                 speedup {:>7.2}x  dirty_cells {}  deltas {}",
                row.incremental_us,
                row.recompute_us,
                row.recompute_us / row.incremental_us.max(1e-9),
                row.dirty_cells,
                row.deltas_emitted
            );
            runs[k].push(row);
        }
    }
    let mut rows = Vec::new();
    for (&subs, runs) in SUBS.iter().zip(&runs) {
        let first = &runs[0];
        // The work is a function of the seeded workload, not the host.
        assert!(runs.iter().all(
            |r| (r.dirty_cells, r.deltas_emitted) == (first.dirty_cells, first.deltas_emitted)
        ));
        let spread = |f: fn(&Row) -> f64| Spread::of(&runs.iter().map(f).collect::<Vec<_>>());
        rows.push(format!(
            "    {{\"subs\": {subs}, \"incremental_us_per_tick\": {}, \
             \"recompute_us_per_tick\": {}, \"speedup\": {}, \
             \"dirty_cells\": {}, \"deltas_emitted\": {}}}",
            spread(|r| r.incremental_us).json(1),
            spread(|r| r.recompute_us).json(1),
            spread(|r| r.recompute_us / r.incremental_us.max(1e-9)).json(2),
            first.dirty_cells,
            first.deltas_emitted
        ));
    }

    let json = format!(
        "{{\n  \"n\": {n},\n  \"ticks\": {ticks},\n  \"extent\": {EXTENT},\n  \"l\": {L},\n  \
         \"reps\": {reps},\n  \
         \"notes\": {{\"dirty_cells\": \"candidate cells refined by group evaluations, summed over the ticks\"}},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    pdr_bench::write_artifact("sub_incremental", &json);
}
