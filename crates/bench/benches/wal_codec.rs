//! WAL record codec bench: wire size and recovery cost of the columnar
//! varint codec (`codec2`).
//!
//! Feeds simulated traffic — one `advance` plus one protocol update
//! batch per tick, the serve loop's journal shape — through the WAL and
//! reports total log bytes, bytes/record, bytes/update, full-log replay
//! time, and a crash-recovery prefix sweep (replay at 32 evenly spaced
//! record boundaries, the `crash_recovery` test's access pattern). It
//! asserts that the log replays to exactly the records appended.
//! `cargo bench` writes the results to `BENCH_wal_codec.json`.
//!
//! Usage: `cargo bench --bench wal_codec [-- <n_objects> <ticks>]`
//! (defaults: 5 000 objects, 40 ticks).

use pdr_core::{record_boundaries, replay, Wal, WalRecord};
use pdr_mobject::TimeHorizon;
use pdr_workload::{NetworkConfig, RoadNetwork, TrafficSimulator};

const EXTENT: f64 = 800.0;
const REPLAYS: usize = 5;
const SWEEP_POINTS: usize = 32;

fn main() {
    let mut args = std::env::args().skip(1).filter(|a| !a.starts_with("--"));
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5_000);
    let ticks: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);
    println!("wal_codec: n = {n}, ticks = {ticks}");

    let net = RoadNetwork::generate(&NetworkConfig::metro(EXTENT), 21);
    let horizon = TimeHorizon::new(8, 8);
    let mut sim = TrafficSimulator::new(net, n, 21 ^ 0x5eed, horizon.max_update_time(), 0);
    let mut wal = Wal::new();
    let mut appended = Vec::new();
    let mut updates = 0u64;
    for _ in 0..ticks {
        let batch = sim.tick();
        updates += batch.len() as u64;
        wal.append_advance(sim.t_now());
        wal.append_batch(&batch);
        appended.push(WalRecord::Advance(sim.t_now()));
        appended.push(WalRecord::Batch(batch));
    }
    let bytes = wal.bytes().to_vec();
    let records = wal.records();
    let decoded = replay(&bytes).expect("clean log");
    assert_eq!(decoded.torn_bytes, 0);
    assert!(
        decoded.records == appended,
        "the log must replay to exactly the records appended"
    );

    // Full-log replay: the dominant cost of recovery and of a replica
    // bootstrap without a checkpoint.
    let (_, replay_wall) = pdr_bench::time_it(|| {
        for _ in 0..REPLAYS {
            replay(&bytes).expect("clean log");
        }
    });
    let replay_ms = replay_wall.as_secs_f64() * 1e3 / REPLAYS as f64;

    // Crash-recovery sweep: replay evenly spaced prefixes — the
    // boundary-sweep access pattern of the recovery test.
    let boundaries = record_boundaries(&bytes);
    let step = (boundaries.len() / SWEEP_POINTS).max(1);
    let cuts: Vec<usize> = boundaries.iter().copied().step_by(step).collect();
    let (_, sweep_wall) = pdr_bench::time_it(|| {
        for &cut in &cuts {
            replay(&bytes[..cut]).expect("prefix of a clean log");
        }
    });
    let sweep_ms = sweep_wall.as_secs_f64() * 1e3;

    let bpr = bytes.len() as f64 / records as f64;
    let bpu = bytes.len() as f64 / updates as f64;
    println!(
        "codec2: {records} records, {} B total, {bpr:.1} B/record, {bpu:.2} B/update, \
         replay {replay_ms:.2} ms, sweep({}) {sweep_ms:.2} ms",
        bytes.len(),
        cuts.len(),
    );
    let json = format!(
        "{{\n  \"n\": {n},\n  \"ticks\": {ticks},\n  \"updates\": {updates},\n  \
         \"codec\": \"codec2\",\n  \"records\": {records},\n  \"bytes\": {},\n  \
         \"bytes_per_record\": {bpr:.2},\n  \"bytes_per_update\": {bpu:.3},\n  \
         \"replay_ms\": {replay_ms:.3},\n  \"sweep_prefixes\": {},\n  \"sweep_ms\": {sweep_ms:.3}\n}}\n",
        bytes.len(),
        cuts.len(),
    );
    pdr_bench::write_artifact("wal_codec", &json);
}
