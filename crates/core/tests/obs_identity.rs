//! Acceptance test for the observability layer: instrumentation must be
//! a pure observer. With obs enabled vs. disabled, both engines replay
//! the same deterministic script and must produce **bit-identical**
//! answers — same rectangles, same I/O, same filter counts, same bound
//! evaluations. Only the recorded telemetry may differ.

use pdr_core::{FrConfig, FrEngine, PaConfig, PaEngine, PdrQuery};
use pdr_geometry::Point;
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Timestamp, Update};

mod common;
use common::Lcg;

fn fr_cfg() -> FrConfig {
    FrConfig {
        extent: 200.0,
        m: 40,
        horizon: TimeHorizon::new(4, 4),
        buffer_pages: 64,
        threads: 2,
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

fn queries() -> Vec<PdrQuery> {
    let mut qs = Vec::new();
    for q_t in 3..=7u64 {
        for &rho in &[8.0 / 144.0, 12.0 / 144.0] {
            qs.push(PdrQuery::new(rho, 12.0, q_t));
        }
    }
    qs
}

fn ingest_fr(eng: &mut FrEngine, pop: &[(ObjectId, MotionState)], batches: &[Vec<Update>]) {
    eng.bulk_load(pop, 0);
    for (i, batch) in batches.iter().enumerate() {
        eng.advance_to(i as Timestamp + 1);
        for u in batch {
            eng.apply(u);
        }
    }
}

#[test]
fn fr_answers_are_bit_identical_with_obs_on_and_off() {
    let (pop, batches) = script(1234);

    let mut on = FrEngine::new(fr_cfg(), 0);
    let mut off = FrEngine::new(fr_cfg(), 0);
    off.set_obs_enabled(false);
    ingest_fr(&mut on, &pop, &batches);
    ingest_fr(&mut off, &pop, &batches);

    for (i, q) in queries().iter().enumerate() {
        let a = on.query(q);
        let b = off.query(q);
        assert_eq!(
            a.regions.rects(),
            b.regions.rects(),
            "query {i}: answer differs with observability toggled"
        );
        assert_eq!(a.accepts, b.accepts, "query {i}: accepts differ");
        assert_eq!(a.rejects, b.rejects, "query {i}: rejects differ");
        assert_eq!(a.candidates, b.candidates, "query {i}: candidates differ");
        assert_eq!(
            a.objects_retrieved, b.objects_retrieved,
            "query {i}: retrieved counts differ"
        );
        assert_eq!(
            a.io.logical_reads, b.io.logical_reads,
            "query {i}: io differs"
        );
        assert_eq!(a.io.misses, b.io.misses, "query {i}: io misses differ");
    }

    // Telemetry is live on the enabled engine...
    let n = queries().len() as u64;
    let rep_on = on.obs_report();
    assert_eq!(rep_on.counter("queries"), Some(n));
    for stage in ["classify", "range", "sweep", "merge", "query"] {
        let s = rep_on
            .stage(stage)
            .unwrap_or_else(|| panic!("missing stage {stage}"));
        assert!(s.count > 0, "stage {stage} recorded nothing");
        assert!(s.max_us >= s.p50_us, "stage {stage}: max below p50");
    }
    assert!(rep_on.counter("candidate_cells").unwrap() > 0);

    // ...and dark on the disabled one, except the always-on query count.
    let rep_off = off.obs_report();
    assert_eq!(rep_off.counter("queries"), Some(n));
    assert_eq!(rep_off.counter("candidate_cells"), Some(0));
    assert_eq!(rep_off.counter("objects_retrieved"), Some(0));
    for stage in ["classify", "range", "sweep", "merge", "query"] {
        assert_eq!(
            rep_off.stage(stage).unwrap().count,
            0,
            "stage {stage} leaked"
        );
    }
    assert_eq!(on.queries_served(), off.queries_served());
}

#[test]
fn pa_answers_are_bit_identical_with_obs_on_and_off() {
    let (pop, batches) = script(777);

    let mut on = PaEngine::new(pa_cfg(), 0);
    let mut off = PaEngine::new(pa_cfg(), 0);
    off.set_obs_enabled(false);
    for eng in [&mut on, &mut off] {
        for (id, m) in &pop {
            eng.apply(&Update::insert(*id, 0, *m));
        }
        for (i, batch) in batches.iter().enumerate() {
            eng.advance_to(i as Timestamp + 1);
            for u in batch {
                eng.apply(u);
            }
        }
    }

    let mut total_queries = 0u64;
    for q_t in 3..=7u64 {
        for &rho in &[0.03, 0.08] {
            let a = on.query(rho, q_t);
            let b = off.query(rho, q_t);
            assert_eq!(
                a.regions.rects(),
                b.regions.rects(),
                "PA answer differs at t={q_t}, rho={rho} with observability toggled"
            );
            assert_eq!(
                a.bound_evals, b.bound_evals,
                "bound evaluations differ at t={q_t}, rho={rho}"
            );
            total_queries += 1;
        }
    }

    let rep_on = on.obs_report();
    assert_eq!(rep_on.counter("queries"), Some(total_queries));
    assert!(rep_on.counter("bnb_expanded").unwrap() > 0);
    assert!(rep_on.stage("query").unwrap().count > 0);
    assert!(rep_on.stage("apply").unwrap().count > 0);

    let rep_off = off.obs_report();
    assert_eq!(rep_off.counter("queries"), Some(total_queries));
    assert_eq!(rep_off.counter("bnb_expanded"), Some(0));
    assert_eq!(rep_off.stage("query").unwrap().count, 0);
    assert_eq!(rep_off.stage("apply").unwrap().count, 0);
    assert_eq!(on.queries_served(), off.queries_served());
}

/// The parallel refinement path routes through the shared persistent
/// executor; its instrumentation must stay a pure observer too. With
/// `threads: 4` (chunked refinement through the pool) answers are
/// bit-identical with obs toggled either way, and the executor's own
/// report carries the pool gauges and counters whichever way the
/// engine-side toggle points.
#[test]
fn fr_pool_path_is_bit_identical_with_obs_toggled_and_exec_counters_present() {
    let (pop, batches) = script(5151);
    let pooled = FrConfig {
        threads: 4,
        ..fr_cfg()
    };

    let mut on = FrEngine::new(pooled, 0);
    let mut off = FrEngine::new(pooled, 0);
    off.set_obs_enabled(false);
    ingest_fr(&mut on, &pop, &batches);
    ingest_fr(&mut off, &pop, &batches);

    for (i, q) in queries().iter().enumerate() {
        let a = on.query(q);
        let b = off.query(q);
        assert_eq!(
            a.regions.rects(),
            b.regions.rects(),
            "query {i}: pooled answer differs with observability toggled"
        );
        assert_eq!(a.accepts, b.accepts, "query {i}: accepts differ");
        assert_eq!(a.rejects, b.rejects, "query {i}: rejects differ");
        assert_eq!(a.candidates, b.candidates, "query {i}: candidates differ");
        assert_eq!(
            a.objects_retrieved, b.objects_retrieved,
            "query {i}: retrieved counts differ"
        );
    }

    // The executor is a process-wide singleton shared with every other
    // test in this binary, so only presence and monotonicity of its
    // telemetry can be asserted here — the exact figures belong to the
    // executor's own unit tests.
    let exec = pdr_core::Executor::global().obs_report();
    for key in [
        "pool_workers",
        "queue_depth",
        "scopes",
        "tasks",
        "inline_tasks",
        "steals",
        "unparks",
        "parked_us",
    ] {
        assert!(exec.counter(key).is_some(), "executor report missing {key}");
    }
    assert!(
        exec.counter("scopes").unwrap() > 0,
        "pooled refinement recorded no executor scopes"
    );
    // On a zero-worker pool scopes run inline on the caller, so the
    // work shows up as `inline_tasks`; with workers it lands in
    // `tasks`. Either way a scope must have executed something.
    let executed = exec.counter("tasks").unwrap() + exec.counter("inline_tasks").unwrap();
    assert!(
        executed >= exec.counter("scopes").unwrap(),
        "executor scopes ran without executing any tasks"
    );
}
