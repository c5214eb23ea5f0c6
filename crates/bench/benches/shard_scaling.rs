//! Shard-count scaling bench for the shared-nothing engine plane.
//!
//! Builds a clustered population (the same borderline-dense pockets the
//! `fr_parallel` bench uses), drives an unsharded FR engine and sharded
//! planes at 1, 2, 4 and 8 shards through identical ingest and query
//! traffic, checks every sharded answer is rectangle-for-rectangle
//! identical to the unsharded one, and writes the medians to
//! `BENCH_shard_scaling.json`.
//!
//! Both the query fan-out and the per-shard ingest apply run on the
//! shared persistent work-stealing [`Executor`](pdr_core::Executor);
//! the JSON records the pool size, the spawn-vs-pool dispatch delta,
//! and separate query/ingest speedups at ≥ 4 shards.
//!
//! Usage: `cargo bench --bench shard_scaling [-- <n_objects> <samples>]`
//! (defaults: 60 000 objects, 3 samples per shard count). Ingest medians
//! include engine construction — a fresh plane is built per sample, so
//! the number reflects the full route-and-apply path, not a warm cache.
//! On a single-core host the fan-out cannot beat one shard and the JSON
//! records `available_parallelism` so the reader can tell.

use pdr_bench::clustered_population;
use pdr_core::{EngineSpec, FrConfig, PdrQuery};
use pdr_mobject::{TimeHorizon, Update};

const EXTENT: f64 = 1000.0;
const L: f64 = 30.0;

/// The inner engine every shard runs. `threads: 0` lets the sharded
/// plane's fan-out use every core (each shard still refines serially —
/// parallelism comes from the shard fan-out, see `per_shard_spec`).
fn fr_spec() -> EngineSpec {
    EngineSpec::Fr(FrConfig {
        extent: EXTENT,
        m: 100, // l_c = 10
        horizon: TimeHorizon::new(8, 8),
        buffer_pages: 2048,
        threads: 0,
    })
}

fn sharded_spec(sx: u32, sy: u32) -> EngineSpec {
    EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(fr_spec()),
        sx,
        sy,
        l_max: L,
    }
}

fn main() {
    let mut args = std::env::args().skip(1).filter(|a| !a.starts_with("--"));
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(60_000);
    let samples: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("shard_scaling: n = {n}, samples = {samples}, cores = {cores}");

    let pop = clustered_population(n, 0xBEEF);
    let inserts: Vec<Update> = pop
        .iter()
        .map(|(id, m)| Update::insert(*id, 0, *m))
        .collect();
    // Threshold 60 objects per 30x30 neighborhood: cluster cores are
    // accepted outright, their rims are left for refinement.
    let q = PdrQuery::new(60.0 / 900.0, L, 2);

    let mut reference = fr_spec().build(0);
    reference.apply_batch(&inserts);
    let base = reference.query(&q);
    println!("reference answer: {} rects", base.regions.len());
    assert!(
        base.regions.len() >= 50,
        "workload too easy: only {} answer rects",
        base.regions.len()
    );

    // (label, sx, sy); 1 shard included so the router overhead itself
    // is visible against the unsharded reference.
    let grids: [(u32, u32); 4] = [(1, 1), (2, 1), (2, 2), (4, 2)];
    let mut results = Vec::new();
    for (sx, sy) in grids {
        let shards = sx * sy;
        let ingest =
            pdr_bench::quick_bench(&format!("build+ingest shards={shards}"), samples, || {
                let mut e = sharded_spec(sx, sy).build(0);
                e.apply_batch(&inserts);
                std::hint::black_box(e.stats().updates_applied);
            });

        let mut eng = sharded_spec(sx, sy).build(0);
        eng.apply_batch(&inserts);
        let ans = eng.query(&q);
        assert_eq!(
            ans.regions.rects(),
            base.regions.rects(),
            "sharded answer diverged at {sx}x{sy}"
        );
        let query = pdr_bench::quick_bench(&format!("query shards={shards}"), samples, || {
            std::hint::black_box(eng.query(&q).regions.len());
        });
        results.push((
            shards,
            sx,
            sy,
            ingest.as_secs_f64() * 1e3,
            query.as_secs_f64() * 1e3,
        ));
    }

    let one_shard_query = results[0].4;
    let best_multi_query = results
        .iter()
        .filter(|(s, ..)| *s >= 4)
        .map(|&(.., q_ms)| q_ms)
        .fold(f64::INFINITY, f64::min);
    let one_shard_ingest = results[0].3;
    let best_multi_ingest = results
        .iter()
        .filter(|(s, ..)| *s >= 4)
        .map(|&(_, _, _, i_ms, _)| i_ms)
        .fold(f64::INFINITY, f64::min);
    let pool_workers = pdr_core::Executor::global().workers();
    let dispatch = pdr_bench::dispatch_json(16, samples);
    let json = format!(
        "{{\n  \"n\": {n},\n  \"samples\": {samples},\n  \"available_parallelism\": {cores},\n  \
         \"pool_workers\": {pool_workers},\n  \"dispatch\": {dispatch},\n  \
         \"answer_rects\": {rects},\n  \"answers_identical\": true,\n  \"results\": [\n{rows}\n  ],\n  \
         \"query_speedup_shards_ge_4_vs_1\": {speedup:.3},\n  \
         \"ingest_speedup_shards_ge_4_vs_1\": {ingest_speedup:.3}\n}}\n",
        rects = base.regions.len(),
        ingest_speedup = one_shard_ingest / best_multi_ingest,
        rows = results
            .iter()
            .map(|(s, sx, sy, i_ms, q_ms)| format!(
                "    {{\"shards\": {s}, \"grid\": \"{sx}x{sy}\", \
                 \"build_ingest_median_ms\": {i_ms:.3}, \"query_median_ms\": {q_ms:.3}}}"
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        speedup = one_shard_query / best_multi_query,
    );
    // Cargo runs benches with the package directory as cwd; anchor the
    // artifact at the workspace root so it lands in a stable place.
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_shard_scaling.json");
    std::fs::write(&out, &json).expect("write BENCH_shard_scaling.json");
    println!("wrote {}:\n{json}", out.display());
}
