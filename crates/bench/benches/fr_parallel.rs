//! Serial-vs-parallel FR refinement scaling bench.
//!
//! Builds a clustered population (many borderline-dense pockets, so the
//! filter step leaves hundreds of candidate cells), runs the same PDR
//! query through engines configured with 1, 2, 4 and 8 refinement
//! workers, checks the answers are rectangle-for-rectangle identical,
//! and writes the medians to `BENCH_fr_parallel.json`.
//!
//! Refinement chunks run on the shared persistent work-stealing
//! [`Executor`](pdr_core::Executor) (not per-query spawned threads);
//! the JSON records the pool size and the spawn-vs-pool dispatch delta
//! alongside the medians.
//!
//! Usage: `cargo bench --bench fr_parallel [-- <n_objects> <samples>]`
//! (defaults: 100 000 objects, 5 samples per thread count). The JSON
//! records `available_parallelism` — on a single-core host the parallel
//! configurations cannot beat serial and the file says so.

use pdr_bench::clustered_population;
use pdr_core::{FrConfig, FrEngine, PdrQuery};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon};

const EXTENT: f64 = 1000.0;

fn engine(threads: usize, pop: &[(ObjectId, MotionState)]) -> FrEngine {
    let mut fr = FrEngine::new(
        FrConfig {
            extent: EXTENT,
            m: 100, // l_c = 10
            horizon: TimeHorizon::new(8, 8),
            buffer_pages: 2048,
            threads,
        },
        0,
    );
    fr.bulk_load(pop, 0);
    fr
}

fn main() {
    let mut args = std::env::args().skip(1).filter(|a| !a.starts_with("--"));
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);
    let samples: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("fr_parallel: n = {n}, samples = {samples}, cores = {cores}");

    let pop = clustered_population(n, 0xC0FFEE);
    // Threshold 60 objects per 30x30 neighborhood: cluster cores are
    // accepted outright, their rims are left for refinement.
    let q = PdrQuery::new(60.0 / 900.0, 30.0, 2);

    let serial = engine(1, &pop);
    let base = serial.query(&q);
    println!(
        "candidate cells: {} (accepts {}, rejects {})",
        base.candidates, base.accepts, base.rejects
    );
    assert!(
        base.candidates >= 200,
        "workload too easy: only {} candidate cells",
        base.candidates
    );

    let mut results = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let fr = engine(threads, &pop);
        let ans = fr.query(&q);
        assert_eq!(
            ans.regions.rects(),
            base.regions.rects(),
            "answer diverged at threads = {threads}"
        );
        let median =
            pdr_bench::quick_bench(&format!("fr_query threads={threads}"), samples, || {
                std::hint::black_box(fr.query(&q).regions.len());
            });
        results.push((threads, median.as_secs_f64() * 1e3));
    }

    let serial_ms = results[0].1;
    let best_parallel = results
        .iter()
        .filter(|(t, _)| *t >= 4)
        .map(|&(_, ms)| ms)
        .fold(f64::INFINITY, f64::min);
    let pool_workers = pdr_core::Executor::global().workers();
    let dispatch = pdr_bench::dispatch_json(16, samples);
    let json = format!(
        "{{\n  \"n\": {n},\n  \"samples\": {samples},\n  \"available_parallelism\": {cores},\n  \
         \"pool_workers\": {pool_workers},\n  \"dispatch\": {dispatch},\n  \
         \"candidate_cells\": {cands},\n  \"answers_identical\": true,\n  \"results\": [\n{rows}\n  ],\n  \
         \"speedup_threads_ge_4_vs_serial\": {speedup:.3}\n}}\n",
        cands = base.candidates,
        rows = results
            .iter()
            .map(|(t, ms)| format!("    {{\"threads\": {t}, \"median_ms\": {ms:.3}}}"))
            .collect::<Vec<_>>()
            .join(",\n"),
        speedup = serial_ms / best_parallel,
    );
    // Cargo runs benches with the package directory as cwd; anchor the
    // artifact at the workspace root so it lands in a stable place.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fr_parallel.json");
    std::fs::write(&out, &json).expect("write BENCH_fr_parallel.json");
    println!("wrote {}:\n{json}", out.display());
}
