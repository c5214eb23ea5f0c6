//! Shared experiment plumbing for the PDR reproduction.
//!
//! Each figure of the paper is regenerated by a subcommand of the
//! `experiments` binary; this library holds the pieces the binary and
//! the benches share: workload construction, engine loading,
//! scaled-down parameter sets, timing helpers and CSV emission.
//!
//! Two scales are supported:
//!
//! * [`Scale::Quick`] — the default: the same experiment *structure*
//!   with a shorter horizon, smaller datasets and fewer repetitions, so
//!   the whole suite completes in minutes on a laptop;
//! * [`Scale::Paper`] — the paper's Table 1 values (H = 120, datasets
//!   up to 500 K objects).
//!
//! Both scales preserve every comparison the paper makes; only absolute
//! numbers change. EXPERIMENTS.md records paper-vs-measured shapes.

#![forbid(unsafe_code)]

pub mod render;

use pdr_core::{
    accuracy, DensityEngine, EngineSpec, FrConfig, FrEngine, PaConfig, PaEngine, PdrQuery,
    Scoreboard,
};
use pdr_geometry::{Point, RegionSet};
use pdr_histogram::DensityHistogram;
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Timestamp, Update};
use pdr_storage::CostModel;
use pdr_workload::config::ExperimentConfig;
use pdr_workload::{NetworkConfig, RoadNetwork, TrafficSimulator};
use std::time::{Duration, Instant};

/// Deterministic data generator shared by the benches: a 64-bit linear
/// congruential generator (Knuth's MMIX constants) whose outputs are
/// the top 31 bits of the state.
pub struct Lcg(pub u64);

impl Lcg {
    /// The top 31 bits of the next state.
    pub fn next_u31(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.next_u31() as f64 / (1u64 << 31) as f64
    }

    /// A uniform draw in `[lo, hi)`.
    pub fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }
}

/// `n` objects on a 1000×1000 domain: 75 % in 250 compact 20×20
/// clusters (borderline-dense pockets whose rims become candidate
/// cells), 25 % uniform background.
pub fn clustered_population(n: usize, seed: u64) -> Vec<(ObjectId, MotionState)> {
    let mut rng = Lcg(seed);
    let clusters: Vec<(f64, f64)> = (0..250)
        .map(|_| (20.0 + rng.f64() * 960.0, 20.0 + rng.f64() * 960.0))
        .collect();
    (0..n)
        .map(|i| {
            let p = if i % 4 != 3 {
                let (cx, cy) = clusters[i % clusters.len()];
                Point::new(cx + rng.f64() * 20.0 - 10.0, cy + rng.f64() * 20.0 - 10.0)
            } else {
                Point::new(rng.f64() * 1000.0, rng.f64() * 1000.0)
            };
            let v = Point::new(rng.f64() * 2.0 - 1.0, rng.f64() * 2.0 - 1.0);
            (ObjectId(i as u64), MotionState::new(p, v, 0))
        })
        .collect()
}

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop scale: H = 30, datasets {8K, 20K, 50K}, 5 queries/point.
    Quick,
    /// The paper's Table 1 scale: H = 120, datasets {40K, 100K, 500K},
    /// 20 queries/point.
    Paper,
}

impl Scale {
    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The adjusted experiment configuration.
    pub fn config(self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::default();
        if self == Scale::Quick {
            cfg.max_update_time = 15;
            cfg.prediction_window = 15;
            cfg.object_counts = vec![8_000, 20_000, 50_000];
            cfg.evaluation_grid = 512;
        }
        cfg
    }

    /// Queries averaged per data point.
    pub fn queries_per_point(self) -> usize {
        match self {
            Scale::Quick => 5,
            Scale::Paper => 20,
        }
    }
}

/// A generated workload: the simulator plus its initial population.
pub struct Workload {
    /// The traffic simulator (network + vehicles).
    pub sim: TrafficSimulator,
    /// Snapshot of the initial motions, sorted by object id.
    pub population: Vec<(ObjectId, MotionState)>,
    /// Plane side length.
    pub extent: f64,
}

/// Builds the Chicago-substitute workload for `n` objects.
pub fn build_workload(cfg: &ExperimentConfig, n: usize, seed: u64) -> Workload {
    let net = RoadNetwork::generate(&NetworkConfig::metro(cfg.extent), seed);
    let sim = TrafficSimulator::new(net, n, seed ^ 0x9E3779B97F4A7C15, cfg.max_update_time, 0);
    let population = sim.population();
    Workload {
        sim,
        population,
        extent: cfg.extent,
    }
}

/// The FR configuration experiments use (histogram cells `m²`, `n`
/// objects sizing the buffer pool).
pub fn fr_config(cfg: &ExperimentConfig, n: usize, m: u32) -> FrConfig {
    FrConfig {
        extent: cfg.extent,
        m,
        horizon: TimeHorizon::new(cfg.max_update_time, cfg.prediction_window),
        buffer_pages: cfg.buffer_pages(n).max(8),
        threads: 1,
    }
}

/// The PA configuration for neighborhood edge `l` with `g²` polynomials
/// of degree `k`.
pub fn pa_config(cfg: &ExperimentConfig, l: f64, g: u32, k: usize) -> PaConfig {
    PaConfig {
        extent: cfg.extent,
        g,
        degree: k,
        l,
        horizon: TimeHorizon::new(cfg.max_update_time, cfg.prediction_window),
        m_d: cfg.evaluation_grid,
    }
}

/// Builds an engine from its spec and bulk-loads the workload at t = 0.
/// The one construction path the experiment binary goes through.
pub fn build_engine(spec: &EngineSpec, w: &Workload) -> Box<dyn DensityEngine> {
    let mut e = spec.build(0);
    e.bulk_load(&w.population, 0);
    e
}

/// Builds and bulk-loads an FR engine (histogram cells `m²`). Concrete
/// type: for call sites that need engine internals (histogram planes,
/// cache counters); everything else goes through [`build_engine`].
pub fn build_fr(cfg: &ExperimentConfig, w: &Workload, m: u32) -> FrEngine {
    let mut fr = FrEngine::new(fr_config(cfg, w.population.len(), m), 0);
    fr.bulk_load(&w.population, 0);
    fr
}

/// Builds and loads a PA engine for neighborhood edge `l` with `g²`
/// polynomials of degree `k`. Concrete type: for call sites that need
/// contours or checkpoints; everything else goes through
/// [`build_engine`].
pub fn build_pa(cfg: &ExperimentConfig, w: &Workload, l: f64, g: u32, k: usize) -> PaEngine {
    let mut pa = PaEngine::new(pa_config(cfg, l, g, k), 0);
    DensityEngine::bulk_load(&mut pa, &w.population, 0);
    pa
}

/// Mean accuracy and cost of an engine over `(query, exact truth)`
/// pairs. Non-finite error ratios (truth or answer empty) are skipped,
/// matching how the paper averages over query batches.
#[derive(Clone, Copy, Debug)]
pub struct Scorecard {
    /// Mean false-positive area ratio.
    pub r_fp: f64,
    /// Mean false-negative area ratio.
    pub r_fn: f64,
    /// Mean per-query CPU milliseconds.
    pub cpu_ms: f64,
    /// Mean per-query total (CPU + modeled I/O) milliseconds.
    pub total_ms: f64,
    /// Mean per-query physical I/Os (misses + writebacks).
    pub io: f64,
}

impl Scorecard {
    /// Table view of a [`Scoreboard`] rollup: unbounded/unscored means
    /// print as NaN.
    fn from_scoreboard(sb: &Scoreboard) -> Scorecard {
        Scorecard {
            r_fp: sb.mean_r_fp().unwrap_or(f64::NAN),
            r_fn: sb.mean_r_fn().unwrap_or(f64::NAN),
            cpu_ms: sb.mean_cpu_ms(),
            total_ms: sb.mean_total_ms(),
            io: sb.mean_physical_ios(),
        }
    }
}

/// Runs every query through `engine` and scores it against the paired
/// exact truth. The shared comparison loop behind the accuracy and
/// cost figures.
pub fn score_engine(
    engine: &dyn DensityEngine,
    queries: &[(PdrQuery, RegionSet)],
    model: &CostModel,
) -> Scorecard {
    let mut sb = Scoreboard::default();
    for (q, truth) in queries {
        let ans = engine.query(q);
        sb.record_accuracy(accuracy(truth, &ans.regions));
        sb.record_cost(ans.cpu.as_secs_f64() * 1e3, ans.total_ms(model), ans.io);
    }
    Scorecard::from_scoreboard(&sb)
}

/// Cost-only variant of [`score_engine`] for figures that compare
/// exact engines: no ground truth, so the error ratios come back NaN.
pub fn cost_engine(
    engine: &dyn DensityEngine,
    queries: &[PdrQuery],
    model: &CostModel,
) -> Scorecard {
    let mut sb = Scoreboard::default();
    for q in queries {
        let ans = engine.query(q);
        sb.record_cost(ans.cpu.as_secs_f64() * 1e3, ans.total_ms(model), ans.io);
    }
    Scorecard::from_scoreboard(&sb)
}

/// Pairs each query with the exact answer from a ground-truth engine
/// (FR, or the oracle).
pub fn truth_pairs(
    truth_engine: &dyn DensityEngine,
    rho: f64,
    l: f64,
    q_ts: &[Timestamp],
) -> Vec<(PdrQuery, RegionSet)> {
    q_ts.iter()
        .map(|&q_t| {
            let q = PdrQuery::new(rho, l, q_t);
            let truth = truth_engine.query(&q).regions;
            (q, truth)
        })
        .collect()
}

/// Builds a stand-alone density histogram with `m²` cells, loaded with
/// the workload population (for the DH memory sweeps of Figure 8).
pub fn build_histogram(cfg: &ExperimentConfig, w: &Workload, m: u32) -> DensityHistogram {
    let mut h = DensityHistogram::new(
        cfg.extent,
        m,
        TimeHorizon::new(cfg.max_update_time, cfg.prediction_window),
        0,
    );
    for (id, motion) in &w.population {
        h.apply(&Update::insert(*id, 0, *motion));
    }
    h
}

/// Deterministic query timestamps spread across `[0, H]`.
pub fn query_timestamps(cfg: &ExperimentConfig, count: usize) -> Vec<Timestamp> {
    let h = cfg.horizon();
    (0..count)
        .map(|i| (h * (2 * i as u64 + 1) / (2 * count as u64)).min(h))
        .collect()
}

/// Times a closure.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Runs `f` once to warm up, then `samples` timed iterations, and
/// prints + returns the median wall-clock duration. The offline
/// stand-in for an external benchmark harness: no statistics beyond
/// the median, but deterministic and dependency-free.
pub fn quick_bench(name: &str, samples: usize, mut f: impl FnMut()) -> Duration {
    f();
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    println!(
        "{name:<48} median {:>10.3} ms  ({} samples)",
        median.as_secs_f64() * 1e3,
        times.len()
    );
    median
}

/// Median cost (microseconds) of dispatching `tasks` trivial tasks by
/// spawning one OS thread each versus one scope on the shared
/// persistent [`Executor`](pdr_core::Executor) pool. The delta is what
/// the pool buys every parallel query: thread creation priced against
/// deque push + unpark. Returns `(spawn_us, pool_us)`.
pub fn dispatch_delta(tasks: usize, samples: usize) -> (f64, f64) {
    let spawn = quick_bench(&format!("dispatch spawn x{tasks}"), samples, || {
        let handles: Vec<_> = (0..tasks)
            .map(|i| std::thread::spawn(move || std::hint::black_box(i)))
            .collect();
        for h in handles {
            h.join().expect("dispatch probe thread");
        }
    });
    let pool = quick_bench(&format!("dispatch pool x{tasks}"), samples, || {
        std::hint::black_box(pdr_core::Executor::global().scope(tasks, std::hint::black_box));
    });
    (spawn.as_secs_f64() * 1e6, pool.as_secs_f64() * 1e6)
}

/// JSON fragment recording the shared pool size and the spawn-vs-pool
/// dispatch delta — every bench artifact embeds it so speedups can be
/// read against the machine they were measured on.
pub fn dispatch_json(tasks: usize, samples: usize) -> String {
    let (spawn_us, pool_us) = dispatch_delta(tasks, samples);
    format!(
        "{{\"tasks\": {tasks}, \"spawn_us\": {spawn_us:.1}, \"pool_us\": {pool_us:.1}, \
         \"pool_advantage\": {:.2}}}",
        spawn_us / pool_us.max(0.001)
    )
}

/// Simple aligned-column row printer that doubles as CSV writer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders aligned columns for the terminal.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV under `results/` (created on demand) and returns
    /// the path.
    pub fn write_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Formats a float with 3 significant decimals for table cells.
pub fn f3(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn quick_scale_shrinks_parameters() {
        let q = Scale::Quick.config();
        let p = Scale::Paper.config();
        assert!(q.horizon() < p.horizon());
        assert!(q.object_counts.iter().max() < p.object_counts.iter().max());
    }

    #[test]
    fn query_timestamps_stay_in_horizon() {
        let cfg = Scale::Quick.config();
        for t in query_timestamps(&cfg, 7) {
            assert!(t <= cfg.horizon());
        }
    }

    #[test]
    fn table_renders_and_csvs() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        assert!(t.render().contains("bb"));
        assert_eq!(t.to_csv(), "a,bb\n1,2\n");
    }

    #[test]
    fn tiny_workload_builds_end_to_end() {
        let mut cfg = Scale::Quick.config();
        cfg.max_update_time = 3;
        cfg.prediction_window = 3;
        let w = build_workload(&cfg, 500, 1);
        assert_eq!(w.population.len(), 500);
        let fr = build_fr(&cfg, &w, 100);
        let pa = build_pa(&cfg, &w, 30.0, 5, 4);
        let q = pdr_core::PdrQuery::new(cfg.rho(2.0, 500), 30.0, 2);
        let fr_ans = fr.query(&q);
        let pa_ans = pa.query(q.rho, 2);
        // Smoke: both answers exist and the PA one is comparable.
        let _ = (fr_ans.regions.area(), pa_ans.regions.area());
    }
}
