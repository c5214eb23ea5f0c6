//! Server restart without losing the horizon: checkpoint and restore.
//!
//! A dense-region monitoring server keeps per-timestamp summaries for
//! the whole horizon `H = U + W`. If it crashes and restarts cold, it
//! cannot answer predictive queries correctly until every object has
//! re-reported — up to `U` timestamps of blindness. A checkpoint removes
//! that gap. FR's holds the live reports only: under the update
//! protocol its histogram is a function of them, so the restore rebuilds
//! the histogram and the index from the motion table in one bulk load.
//! PA's holds its Chebyshev coefficients, which come back byte for byte.
//!
//! ```text
//! cargo run --release --example checkpoint_restart
//! ```

use pdr::mobject::{TimeHorizon, Update};
use pdr::workload::{NetworkConfig, RoadNetwork, TrafficSimulator};
use pdr::{FrConfig, FrEngine, PaConfig, PaEngine, PdrQuery};

fn main() {
    let extent = 500.0;
    let horizon = TimeHorizon::new(10, 10);
    let network = RoadNetwork::generate(&NetworkConfig::metro(extent), 11);
    let mut sim = TrafficSimulator::new(network, 5000, 3, horizon.max_update_time(), 0);

    // --- The server runs for a while -------------------------------
    let cfg = FrConfig {
        extent,
        m: 50,
        horizon,
        buffer_pages: 128,
        threads: 1,
    };
    let mut fr = FrEngine::new(cfg, 0);
    let mut pa = PaEngine::new(
        PaConfig {
            extent,
            g: 10,
            degree: 5,
            l: 20.0,
            horizon,
            m_d: 512,
        },
        0,
    );
    let population = sim.population();
    fr.bulk_load(&population, 0);
    for (id, m) in &population {
        pa.apply(&Update::insert(*id, 0, *m));
    }
    for _ in 0..5 {
        let t = sim.t_now() + 1;
        fr.advance_to(t);
        pa.advance_to(t);
        for u in sim.tick() {
            fr.apply(&u);
            pa.apply(&u);
        }
    }

    let q = PdrQuery::new(12.0 / 400.0, 20.0, sim.t_now() + 8);
    let before_fr = fr.query(&q).regions;
    let before_pa = pa.query(q.rho, q.q_t).regions;

    // --- Checkpoint ---------------------------------------------------
    let fr_bytes = fr.checkpoint_bytes();
    let pa_bytes = pa.serialize();
    println!(
        "checkpoint: FR motion table {} KiB (a {} KiB histogram is not stored), \
         PA coefficients {} KiB",
        fr_bytes.len() / 1024,
        fr.histogram().memory_bytes() / 1024,
        pa_bytes.len() / 1024
    );

    // --- Crash. Restart. ----------------------------------------------
    drop(fr);
    drop(pa);

    let mut fr2 = FrEngine::new(cfg, 0);
    fr2.restore_from_bytes(&fr_bytes).expect("FR checkpoint");
    let pa2 = PaEngine::deserialize(&pa_bytes).expect("PA checkpoint");

    let after_fr = fr2.query(&q).regions;
    let after_pa = pa2.query(q.rho, q.q_t).regions;

    println!(
        "FR answer after restart: {} rectangles, symmetric difference {:.3e}",
        after_fr.len(),
        before_fr.symmetric_difference_area(&after_fr)
    );
    println!(
        "PA answer after restart: {} rectangles, symmetric difference {:.3e}",
        after_pa.len(),
        before_pa.symmetric_difference_area(&after_pa)
    );
    assert_eq!(before_fr.rects(), after_fr.rects());
    assert!(before_pa.symmetric_difference_area(&after_pa) < 1e-9);
    println!("restart preserved both engines' answers exactly");
}
