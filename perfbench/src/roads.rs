//! `roads_adhoc`: the paper's setting. Road traffic feeds one unsharded
//! FR engine and one PA engine; a closed-loop in-process client sends
//! one FR and one PA query per tick, rotating `q_t` through now,
//! now + W/2 and now + W, so no query key is ever served twice at one
//! histogram epoch. A run interleaves [`STREAMS`] independent traffic
//! streams over the same road network, one tick of each in turn.

use crate::calib::HostProbe;
use crate::stats::{peak_rss_mib, Report, Samples};
use crate::trace::{mirror_histogram, FrLayers};
use crate::{record_setup, stream_seed, Args, Phase};
use pdr_core::{
    accuracy, exact_dense_regions, DensityEngine, Executor, FrConfig, FrEngine, PaConfig, PaEngine,
    PdrQuery,
};
use pdr_geometry::Rect;
use pdr_histogram::DensityHistogram;
use pdr_mobject::TimeHorizon;
use pdr_workload::{NetworkConfig, RoadNetwork, TrafficSimulator};
use std::time::{Duration, Instant};

/// The road network is fixed (one city); `--seed` drives the traffic.
const NETWORK_SEED: u64 = 21;
const EXTENT: f64 = 1000.0;
const OBJECTS: usize = 1000;
const U: u64 = 10;
const W: u64 = 10;
const M: u32 = 67;
const BUFFER_PAGES: usize = 512;
const PA_G: u32 = 20;
const PA_DEGREE: usize = 5;
const L: f64 = 30.0;
const COUNT: f64 = 10.0;
const OFFSETS: [u64; 3] = [0, W / 2, W];
/// Independent traffic streams per run, each set up afresh: query cost
/// depends on where the traffic lands, and pooling several streams
/// keeps that from dominating the run-to-run spread.
const STREAMS: usize = 24;
/// Ticks applied during set-up: every vehicle reports at t = 0, so the
/// forced re-reports at t = U arrive as one burst that takes several
/// `U` periods to spread out.
const WARMUP_TICKS: u64 = 3 * U;

struct State {
    sim: TrafficSimulator,
    fr: FrEngine,
    pa: PaEngine,
    /// Mirror histogram for the traced run's ingest split.
    hist: Option<DensityHistogram>,
}

fn setup(seed: u64, traced: bool) -> State {
    let horizon = TimeHorizon::new(U, W);
    let net = RoadNetwork::generate(&NetworkConfig::metro(EXTENT), NETWORK_SEED);
    let mut sim = TrafficSimulator::new(net, OBJECTS, seed, U, 0);
    let pop = sim.population();
    let mut fr = FrEngine::new(
        FrConfig {
            extent: EXTENT,
            m: M,
            horizon,
            buffer_pages: BUFFER_PAGES,
            threads: 0,
        },
        0,
    );
    fr.bulk_load(&pop, sim.t_now());
    let mut pa = PaEngine::new(
        PaConfig {
            extent: EXTENT,
            g: PA_G,
            degree: PA_DEGREE,
            l: L,
            horizon,
            m_d: PaConfig::paper_default().m_d,
        },
        0,
    );
    DensityEngine::bulk_load(&mut pa, &pop, sim.t_now());
    let mut hist = traced.then(|| mirror_histogram(&fr, &pop, sim.t_now()));
    for _ in 0..WARMUP_TICKS {
        let t_next = sim.t_now() + 1;
        let batch = sim.tick();
        fr.advance_to(t_next);
        DensityEngine::apply_batch(&mut fr, &batch);
        pa.advance_to(t_next);
        DensityEngine::apply_batch(&mut pa, &batch);
        if let Some(h) = hist.as_mut() {
            h.advance_to(t_next);
            for u in &batch {
                h.apply(u);
            }
        }
    }
    State { sim, fr, pa, hist }
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    r.param("objects", OBJECTS);
    r.param("extent", EXTENT);
    r.param("network", format!("metro({EXTENT}) seed {NETWORK_SEED}"));
    r.param(
        "streams",
        format!("{STREAMS}, {WARMUP_TICKS} warm-up ticks each"),
    );
    r.param("U", U);
    r.param("W", W);
    r.param("fr", format!("m={M} buffer_pages={BUFFER_PAGES}"));
    r.param("pa", format!("g={PA_G} k={PA_DEGREE} l={L}"));
    r.param(
        "query",
        format!("l={L} count={COUNT} q_t offsets {OFFSETS:?}"),
    );
    r.param(
        "load",
        "1 closed-loop in-process client: 1 FR + 1 PA query per tick",
    );

    let rho = COUNT / (L * L);
    let bounds = Rect::new(0.0, 0.0, EXTENT, EXTENT);
    let mut setups = Vec::with_capacity(STREAMS);
    let mut fr_ms = Samples::default();
    let mut pa_ms = Samples::default();
    let mut tick_ms = Samples::default();
    let (mut r_fp, mut r_fn, mut scored) = (0.0, 0.0, 0usize);
    let mut pa_apply = Duration::ZERO;
    let (mut updates, mut bnb_expanded, mut bnb_leaf_evals) = (0usize, 0u64, 0u64);
    let mut layers = FrLayers::default();
    let mut probe = HostProbe::new();
    let exec_before = Executor::global().obs_report();

    let run_start = Instant::now();
    let mut streams = Vec::with_capacity(STREAMS);
    for j in 0..STREAMS {
        let start = Instant::now();
        streams.push(setup(stream_seed(args.seed, j), args.trace));
        setups.push(start.elapsed().as_secs_f64());
    }
    let pa_before: Vec<_> = streams.iter().map(|st| st.pa.obs_report()).collect();
    let phase = Phase::part(args, 0, 1, run_start);
    let mut k = 0usize;
    while phase.running(&[&fr_ms, &tick_ms])? {
        let st = &mut streams[k % STREAMS];
        // This stream's query number.
        let i = k / STREAMS;
        k += 1;
        let t_next = st.sim.t_now() + 1;
        let batch = st.sim.tick();
        updates += batch.len();
        let start = Instant::now();
        match st.hist.as_mut() {
            Some(hist) => layers.apply(&mut st.fr, hist, t_next, &batch),
            None => {
                st.fr.advance_to(t_next);
                DensityEngine::apply_batch(&mut st.fr, &batch);
            }
        }
        let pa_start = Instant::now();
        st.pa.advance_to(t_next);
        DensityEngine::apply_batch(&mut st.pa, &batch);
        pa_apply += pa_start.elapsed();
        tick_ms.push_ms(start.elapsed());
        r.ok();

        let q = PdrQuery::new(rho, L, t_next + OFFSETS[i % OFFSETS.len()]);
        let (answer, wall) = if args.trace {
            layers.query(&mut st.fr, &q, r)
        } else {
            let start = Instant::now();
            let a = st.fr.query(&q);
            (a, start.elapsed())
        };
        fr_ms.push_ms(wall);
        let start = Instant::now();
        let pa_answer = st.pa.query(rho, q.q_t);
        pa_ms.push_ms(start.elapsed());

        // Checks, outside the timers: FR is exact against brute
        // force, and PA is scored against the exact answer.
        let truth = exact_dense_regions(&st.sim.positions_at(q.q_t), &bounds, &q);
        let acc = accuracy(&truth, &answer.regions);
        r.check(acc.r_fp <= 1e-9 && acc.r_fn <= 1e-9, || {
            format!("FR answer at {q:?} is not exact: {acc:?}")
        });
        // An empty exact answer makes any PA area an unbounded
        // r_fp; such queries are left out of the means, as in
        // `Scoreboard`.
        let pa_acc = accuracy(&answer.regions, &pa_answer.regions);
        if pa_acc.r_fp.is_finite() {
            r_fp += pa_acc.r_fp;
            r_fn += pa_acc.r_fn;
            scored += 1;
        }
        probe.probe();
    }
    for (st, before) in streams.iter().zip(&pa_before) {
        let after = st.pa.obs_report();
        let delta = |k: &str| after.counter(k).unwrap_or(0) - before.counter(k).unwrap_or(0);
        bnb_expanded += delta("bnb_expanded");
        bnb_leaf_evals += delta("bnb_leaf_evals");
    }
    let queries = fr_ms.len();

    record_setup(r, setups);
    let fr_ms = r.host_quantiles("query", &fr_ms, &probe, true)?;
    r.mean(
        "query_qps",
        queries as f64 / (fr_ms.sum() / 1e3),
        "1/s",
        queries,
    );
    r.host_quantiles("pa_query", &pa_ms, &probe, false)?;
    r.mean("pa_r_fp", r_fp / scored as f64, "ratio", scored);
    r.mean("pa_r_fn", r_fn / scored as f64, "ratio", scored);
    r.host_quantiles("tick", &tick_ms, &probe, true)?;
    r.host_probe(&probe)?;
    r.metric("peak_rss_mb", peak_rss_mib()?, "MiB");

    if args.trace {
        layers.report(r);
        let q = queries as f64;
        r.mean("pa.bnb_expanded", bnb_expanded as f64 / q, "count", queries);
        r.mean(
            "pa.bnb_leaf_evals",
            bnb_leaf_evals as f64 / q,
            "count",
            queries,
        );
        r.mean(
            "pa.apply_us",
            pa_apply.as_secs_f64() * 1e6 / updates as f64,
            "us",
            updates,
        );
        crate::exec_deltas(r, &exec_before);
    }
    Ok(())
}
