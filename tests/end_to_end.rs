//! End-to-end integration: the full update → index → query pipeline
//! across simulated time, validated against the brute-force oracle.

use pdr::geometry::{Point, Rect};
use pdr::mobject::{TimeHorizon, Update};
use pdr::workload::{gaussian_clusters, NetworkConfig, RoadNetwork, TrafficSimulator};
use pdr::{
    accuracy, classify_cells, dh_optimistic, dh_pessimistic, DensityEngine, ExactOracle, FrConfig,
    FrEngine, PaConfig, PaEngine, PdrQuery,
};

const EXTENT: f64 = 500.0;
const L: f64 = 20.0;

fn horizon() -> TimeHorizon {
    TimeHorizon::new(6, 6)
}

fn fr_engine() -> FrEngine {
    FrEngine::new(
        FrConfig {
            extent: EXTENT,
            m: 50,
            horizon: horizon(),
            buffer_pages: 64,
            threads: 1,
        },
        0,
    )
}

fn pa_engine() -> PaEngine {
    PaEngine::new(
        PaConfig {
            extent: EXTENT,
            g: 10,
            degree: 5,
            l: L,
            horizon: horizon(),
            m_d: 500,
        },
        0,
    )
}

/// Drives a road-network simulation for several ticks, applying every
/// update to both engines, and cross-checks FR against the oracle and
/// PA against FR at each step.
#[test]
fn simulated_traffic_pipeline() {
    let net = RoadNetwork::generate(
        &NetworkConfig {
            extent: EXTENT,
            nodes: 600,
            hotspots: 4,
            spread: 0.05,
            background: 0.2,
            degree: 3,
        },
        5,
    );
    let mut sim = TrafficSimulator::new(net, 3000, 17, horizon().max_update_time(), 0);
    let mut fr = fr_engine();
    let mut pa = pa_engine();
    let population = sim.population();
    fr.bulk_load(&population, 0);
    for (id, m) in &population {
        pa.apply(&Update::insert(*id, 0, *m));
    }

    let rho = 10.0 / (L * L);
    for step in 0..4u64 {
        // Advance two ticks.
        for _ in 0..2 {
            let t = sim.t_now() + 1;
            fr.advance_to(t);
            pa.advance_to(t);
            for u in sim.tick() {
                fr.apply(&u);
                pa.apply(&u);
            }
        }
        let q_t = sim.t_now() + 3; // predictive query
        let q = PdrQuery::new(rho, L, q_t);
        let fr_ans = fr.query(&q);

        // FR must be exact.
        let oracle = ExactOracle::new(Rect::new(0.0, 0.0, EXTENT, EXTENT), sim.positions_at(q_t));
        let truth = oracle.dense_regions(&q);
        let acc = accuracy(&truth, &fr_ans.regions);
        assert!(
            acc.r_fp < 1e-9 && acc.r_fn < 1e-9,
            "step {step}: FR diverged from oracle: {acc:?}"
        );

        // PA must be close (generous bound: this is an approximation).
        let pa_acc = accuracy(&truth, &pa.query(rho, q_t).regions);
        assert!(
            pa_acc.r_fn < 0.5 && (pa_acc.r_fp < 1.0 || truth.area() < 100.0),
            "step {step}: PA unreasonably far off: {pa_acc:?}"
        );
    }
}

/// The DH-only baselines keep their one-sided guarantees through a
/// full engine pipeline.
#[test]
fn dh_one_sided_guarantees_end_to_end() {
    let population = gaussian_clusters(4000, EXTENT, 4, 15.0, 0.2, 1.0, 9, 0);
    let mut fr = fr_engine();
    fr.bulk_load(&population, 0);
    for varrho in [1.0f64, 2.0, 4.0] {
        let rho = varrho * population.len() as f64 / (EXTENT * EXTENT);
        let q = PdrQuery::new(rho, L, 4);
        let truth = fr.query(&q).regions;
        let cls = classify_cells(fr.histogram().grid(), &fr.histogram().prefix_sums_at(4), &q);
        let opt = accuracy(&truth, &dh_optimistic(&cls));
        let pes = accuracy(&truth, &dh_pessimistic(&cls));
        assert!(
            opt.r_fn < 1e-9,
            "optimistic DH missed dense area at varrho={varrho}"
        );
        assert!(
            pes.r_fp < 1e-9,
            "pessimistic DH over-reported at varrho={varrho}"
        );
    }
}

/// Interval queries union snapshots for both engines.
#[test]
fn interval_queries_union_snapshots() {
    let population = gaussian_clusters(2500, EXTENT, 3, 15.0, 0.2, 1.2, 21, 0);
    let mut fr = fr_engine();
    let mut pa = pa_engine();
    fr.bulk_load(&population, 0);
    for (id, m) in &population {
        pa.apply(&Update::insert(*id, 0, *m));
    }
    let rho = 10.0 / (L * L);
    let fr_union = fr.interval_query(rho, L, 2, 5);
    let pa_union = pa.interval_query(rho, 2, 5);
    for t in 2..=5u64 {
        let snap = fr.query(&PdrQuery::new(rho, L, t)).regions;
        assert!(snap.difference_area(&fr_union) < 1e-9, "t={t}");
        let snap = pa.query(rho, t).regions;
        assert!(snap.difference_area(&pa_union) < 1e-6, "t={t}");
    }
}

/// Objects that leave and re-enter the monitored region are handled
/// consistently by the whole stack.
#[test]
fn border_crossing_objects() {
    use pdr::mobject::{MotionState, ObjectId};
    let mut fr = fr_engine();
    // 30 objects marching off the right edge, 30 standing in a cluster.
    let mut pop = Vec::new();
    for i in 0..30 {
        pop.push((
            ObjectId(i),
            MotionState::new(
                Point::new(EXTENT - 5.0, 10.0 + i as f64),
                Point::new(3.0, 0.0),
                0,
            ),
        ));
    }
    for i in 30..60 {
        pop.push((
            ObjectId(i),
            MotionState::new(Point::new(100.0, 100.0), Point::ORIGIN, 0),
        ));
    }
    fr.bulk_load(&pop, 0);
    // At t=6 the marchers are 13 miles outside; only the cluster is
    // dense.
    let q = PdrQuery::new(20.0 / (L * L), L, 6);
    let ans = fr.query(&q);
    assert!(ans.regions.contains(Point::new(100.0, 100.0)));
    assert!(!ans.regions.contains(Point::new(EXTENT - 1.0, 25.0)));
    // The histogram total reflects only in-region objects.
    assert_eq!(fr.histogram().total_at(6), 30);
}

/// The FR engine produces identical exact answers whichever refinement
/// index is plugged in (TPR-tree vs velocity-bounded grid) — the
/// paper's "adopt any linear-motion index" claim, verified end to end.
#[test]
fn fr_answers_independent_of_refinement_index() {
    use pdr::gridindex::{GridIndex, GridIndexConfig};
    let population = gaussian_clusters(3000, EXTENT, 4, 15.0, 0.2, 1.0, 33, 0);
    let cfg = FrConfig {
        extent: EXTENT,
        m: 50,
        horizon: horizon(),
        buffer_pages: 64,
        threads: 1,
    };
    let mut fr_tpr = FrEngine::new(cfg, 0);
    let grid = GridIndex::new(
        GridIndexConfig {
            extent: EXTENT,
            buckets_per_side: 25,
            buffer_pages: 64,
        },
        0,
    );
    let mut fr_grid = FrEngine::with_index(cfg, grid, 0);
    fr_tpr.bulk_load(&population, 0);
    fr_grid.bulk_load(&population, 0);
    for varrho in [1.0f64, 3.0] {
        let rho = varrho * population.len() as f64 / (EXTENT * EXTENT);
        let q = PdrQuery::new(rho, L, 5);
        let a = fr_tpr.query(&q);
        let b = fr_grid.query(&q);
        assert!(
            a.regions.symmetric_difference_area(&b.regions) < 1e-9,
            "answers differ between refinement indexes at varrho={varrho}"
        );
        assert_eq!(a.candidates, b.candidates, "filter output must match");
        // Both actually did I/O-accounted work when candidates exist.
        if a.candidates > 0 {
            assert!(a.io.logical_reads > 0 && b.io.logical_reads > 0);
        }
    }
}

/// Memory accounting matches the paper's storage formulas at engine
/// level.
#[test]
fn memory_formulas() {
    let fr = fr_engine();
    // H+1 slots x m^2 cells x 4 bytes.
    assert_eq!(
        fr.histogram().memory_bytes(),
        horizon().slot_count() * 50 * 50 * 4
    );
    let pa = pa_engine();
    // (H+1) x g^2 x (k+1)(k+2)/2 x 8 bytes.
    assert_eq!(pa.memory_bytes(), horizon().slot_count() * 100 * 21 * 8);
}
