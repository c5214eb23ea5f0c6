//! Concurrent-client serving bench.
//!
//! Drives identical serve runs at 1, 2, 4 and 8 concurrent clients —
//! every client issuing its own per-tick query slice against the
//! shared FR engine through the read-only query contract, so client
//! concurrency composes with the intra-query parallelism on the shared
//! persistent [`Executor`](pdr_core::Executor) — and writes per-client
//! and per-engine latency quantiles (p50/p95/p99, from the obs
//! histograms) to `BENCH_serve_concurrency.json`. A replica axis then
//! runs a 2×2 sharded primary shipping per-tick WAL deltas to a read
//! replica and records shipping/ingest cost plus primary-vs-replica
//! query latency on bit-identical probes (see `replica_axis`).
//!
//! Usage: `cargo bench --bench serve_concurrency [-- <n_objects>
//! <ticks>]` (defaults: 2 000 objects, 2 ticks — serve queries cost
//! seconds each on a single-core host and the load is multiplied by
//! the client count, so the defaults are deliberately small). Total
//! query load
//! scales with the client count (each client serves a full slice), so
//! per-request latency under contention is the number to watch, not
//! throughput. The JSON records `available_parallelism`,
//! `pool_workers`, and the spawn-vs-pool dispatch delta; on a
//! single-core host added clients only contend and the file says so.

use pdr_core::{EngineSpec, Executor, FrConfig, PdrQuery};
use pdr_mobject::TimeHorizon;
use pdr_storage::CostModel;
use pdr_workload::{
    default_deadline, FaultPolicy, NetClient, NetFaultInjector, NetFaultPlan, NetServer,
    NetServerConfig, NetworkConfig, QueryMix, QuerySpec, RoadNetwork, ServeDriver,
    TrafficSimulator,
};
use std::sync::Arc;
use std::time::Duration;

const QUERY_ROUNDS: usize = 3;

const EXTENT: f64 = 600.0;
const L: f64 = 30.0;

fn driver(n: usize) -> ServeDriver {
    let net = RoadNetwork::generate(&NetworkConfig::metro(EXTENT), 21);
    let horizon = TimeHorizon::new(8, 8);
    let sim = TrafficSimulator::new(net, n, 21 ^ 0x5eed, horizon.max_update_time(), 0);
    let fr = EngineSpec::Fr(FrConfig {
        extent: EXTENT,
        m: 40,
        horizon,
        buffer_pages: 1024,
        threads: 0,
    });
    let mut d = ServeDriver::new(sim, CostModel::PAPER_DEFAULT).with_engine("fr", fr.build(0));
    d.bootstrap();
    d
}

fn mix(clients: usize) -> QueryMix {
    let specs: Vec<QuerySpec> = [0u64, 4, 8]
        .into_iter()
        .map(|dt| QuerySpec {
            rho: 40.0 / (L * L),
            varrho: 0.0,
            l: L,
            q_t: dt,
        })
        .collect();
    QueryMix::new(specs, 0, 2).with_clients(clients)
}

/// Log-shipping replica axis: a 2×2 sharded primary drives the same
/// simulated load while a read replica ingests one WAL shipment per
/// tick (`wal_since` → `ingest`, the `ship_log`/`sync` path without
/// the socket). Reports per-tick shipping and ingest cost, shipment
/// volume, and identical-probe query latency on both planes — the
/// probes must answer bit-for-bit the same once the replica is caught
/// up, mirroring the replica differential test's invariant.
fn replica_axis(n: usize, ticks: u64) -> String {
    let horizon = TimeHorizon::new(8, 8);
    let spec = EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(FrConfig {
            extent: EXTENT,
            m: 40,
            horizon,
            buffer_pages: 1024,
            threads: 0,
        })),
        sx: 2,
        sy: 2,
        l_max: L,
    };
    let mut primary = spec.try_build(0).expect("sharded primary builds");
    let mut replica = spec.try_build_replica(0).expect("replica builds");
    let net = RoadNetwork::generate(&NetworkConfig::metro(EXTENT), 21);
    let mut sim = TrafficSimulator::new(net, n, 21 ^ 0x5eed, horizon.max_update_time(), 0);
    primary.bulk_load(&sim.population(), sim.t_now());
    // The bulk load is not WAL-recorded; sealing a checkpoint makes it
    // shippable, exactly as the serve loop does after bootstrap.
    primary.checkpoint().expect("sharded plane checkpoints");

    let mut ship_cut_ms = 0.0;
    let mut ingest_ms = 0.0;
    let mut shipped_bytes = 0usize;
    let mut bootstrap_bytes = 0usize;
    let mut shipments = 0usize;
    let mut updates = 0usize;
    let mut ship_once = |primary: &dyn pdr_core::DensityEngine,
                         replica: &mut Box<dyn pdr_core::DensityEngine>| {
        let rep = replica.as_replica_mut().expect("replica surface");
        let sharded = primary.as_sharded().expect("sharded surface");
        let (ship, cut) =
            pdr_bench::time_it(|| sharded.wal_since(rep.applied_epoch(), rep.applied_offsets()));
        ship_cut_ms += cut.as_secs_f64() * 1e3;
        let bytes = ship.checkpoint.as_ref().map_or(0, |c| c.len())
            + ship.segments.iter().map(|s| s.bytes.len()).sum::<usize>();
        shipped_bytes += bytes;
        if ship.checkpoint.is_some() {
            bootstrap_bytes += bytes;
        }
        let (res, ing) = pdr_bench::time_it(|| rep.ingest(&ship));
        res.expect("in-order shipment ingests");
        ingest_ms += ing.as_secs_f64() * 1e3;
        shipments += 1;
        assert_eq!(rep.lag(), 0, "replica caught up after sync");
    };
    ship_once(primary.as_ref(), &mut replica);
    for _ in 0..ticks {
        let t_next = sim.t_now() + 1;
        let batch = sim.tick();
        updates += batch.len();
        primary.advance_to(t_next);
        primary.apply_batch(&batch);
        ship_once(primary.as_ref(), &mut replica);
    }

    // Identical probes against both planes: correctness (bit-identical
    // answers) plus the read-path latency comparison.
    let t = sim.t_now();
    let probes: Vec<PdrQuery> = [0u64, 4, 8]
        .into_iter()
        .map(|dt| PdrQuery::new(40.0 / (L * L), L, t + dt))
        .collect();
    let mut answers_match = true;
    let mut primary_us = 0.0;
    let mut replica_us = 0.0;
    for _ in 0..QUERY_ROUNDS {
        let (a, p_wall) =
            pdr_bench::time_it(|| probes.iter().map(|q| primary.query(q)).collect::<Vec<_>>());
        let (b, r_wall) =
            pdr_bench::time_it(|| probes.iter().map(|q| replica.query(q)).collect::<Vec<_>>());
        primary_us += p_wall.as_secs_f64() * 1e6;
        replica_us += r_wall.as_secs_f64() * 1e6;
        for (x, y) in a.iter().zip(&b) {
            if x.regions.rects() != y.regions.rects() {
                answers_match = false;
            }
        }
    }
    assert!(
        answers_match,
        "caught-up replica must answer bit-identically"
    );
    let per_query = (QUERY_ROUNDS * probes.len()) as f64;
    let lag = replica.as_replica().expect("replica surface").lag();
    println!(
        "replica 2x2: {shipments} shipments, {shipped_bytes} B shipped \
         ({bootstrap_bytes} B bootstrap), cut {ship_cut_ms:.2} ms, ingest {ingest_ms:.2} ms, \
         query us primary/replica: {:.0}/{:.0}, lag {lag}",
        primary_us / per_query,
        replica_us / per_query
    );
    format!(
        "{{\"shards\": \"2x2\", \"ticks\": {ticks}, \"updates\": {updates}, \
         \"shipments\": {shipments}, \"shipped_bytes\": {shipped_bytes}, \
         \"bootstrap_bytes\": {bootstrap_bytes}, \"ship_cut_ms\": {ship_cut_ms:.3}, \
         \"ingest_ms\": {ingest_ms:.3}, \"replica_lag\": {lag}, \
         \"answers_match\": {answers_match}, \"primary_query_us\": {:.1}, \
         \"replica_query_us\": {:.1}}}",
        primary_us / per_query,
        replica_us / per_query
    )
}

/// Faulty-network axis: the same query stream over the real TCP
/// front-end, once on a clean transport and once under a seeded 1%
/// response-frame drop. Each request is timed end to end *including*
/// the client's timeout-and-reconnect recovery, so the faulty p99
/// prices what a lossy network does to the tail while p50 shows the
/// common case is untouched. Reports per-request wall quantiles,
/// client reconnects, and the server-side injection counters.
fn netfault_axis(n: usize, requests: usize) -> String {
    // The axis prices transport faults, not engine load: cap the
    // population so a single query stays well under the drop-recovery
    // timeout even on a single-core host.
    let n = n.min(800);
    let quantile = |sorted: &[f64], q: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    };
    // One run: returns sorted per-request micros, reconnects, drops.
    let run = |plan: Option<&str>| -> (Vec<f64>, u64, u64) {
        let faults = plan.map(|p| {
            Arc::new(NetFaultInjector::new(
                NetFaultPlan::parse(p).expect("valid netfault plan"),
            ))
        });
        let cfg = NetServerConfig {
            faults: faults.clone(),
            ..NetServerConfig::default()
        };
        let server = NetServer::bind("127.0.0.1:0", driver(n), FaultPolicy::default(), cfg)
            .expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound addr").to_string();
        let handle = std::thread::spawn(move || server.serve());

        let connect = |addr: &str| -> NetClient {
            let mut c = NetClient::connect(addr).expect("connect");
            // A dropped response costs this timeout before the client
            // reconnects; it must sit above the slowest clean query
            // (seconds on a single-core host) so only real drops pay.
            c.set_io_timeouts(Some(Duration::from_secs(8)), Some(Duration::from_secs(5)))
                .expect("timeouts");
            c
        };
        let mut c = connect(&addr);
        let mut reconnects = 0u64;

        // Queries are idempotent: on a lost response, reconnect and
        // re-issue — exactly the ResilientClient recovery shape.
        let request = |c: &mut NetClient, body: &str, reconnects: &mut u64| {
            for _ in 0..20 {
                if c.send(body).is_ok() {
                    if let Ok(v) = c.recv() {
                        return v;
                    }
                }
                *c = connect(&addr);
                *reconnects += 1;
            }
            panic!("request failed 20 times under a 1% drop plan");
        };
        // A couple of ticks so queries hit a moving population.
        for _ in 0..2 {
            request(&mut c, "{\"op\":\"tick\"}", &mut reconnects);
        }
        let mut lat = Vec::with_capacity(requests);
        for k in 0..requests {
            let body = format!(
                "{{\"op\":\"query\",\"rho\":{},\"l\":{L},\"q_t\":{}}}",
                40.0 / (L * L),
                [0u64, 4, 8][k % 3]
            );
            let (_, wall) = pdr_bench::time_it(|| request(&mut c, &body, &mut reconnects));
            lat.push(wall.as_secs_f64() * 1e6);
        }
        request(&mut c, "{\"op\":\"shutdown\"}", &mut reconnects);
        drop(c);
        let summary = handle.join().expect("server thread");
        let drops = summary
            .split("\"drops\":")
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        (lat, reconnects, drops)
    };

    let (clean, clean_rc, _) = run(None);
    let plan = "seed 4242\ndrop frame prob=0.01";
    let (faulty, faulty_rc, drops) = run(Some(plan));
    assert_eq!(clean_rc, 0, "clean transport must not reconnect");
    println!(
        "netfault 1% drop: clean p50/p99 us {:.0}/{:.0}, faulty p50/p99 us {:.0}/{:.0}, \
         {drops} frames dropped, {faulty_rc} reconnects",
        quantile(&clean, 0.50),
        quantile(&clean, 0.99),
        quantile(&faulty, 0.50),
        quantile(&faulty, 0.99),
    );
    format!(
        "{{\"plan\": \"drop frame prob=0.01\", \"requests\": {requests}, \
         \"clean\": {{\"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}, \
         \"faulty\": {{\"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \
         \"frames_dropped\": {drops}, \"reconnects\": {faulty_rc}}}}}",
        quantile(&clean, 0.50),
        quantile(&clean, 0.95),
        quantile(&clean, 0.99),
        quantile(&faulty, 0.50),
        quantile(&faulty, 0.95),
        quantile(&faulty, 0.99),
    )
}

fn main() {
    let mut args = std::env::args().skip(1).filter(|a| !a.starts_with("--"));
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let ticks: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let pool_workers = Executor::global().workers();
    let deadline_ms = default_deadline().as_millis();
    println!(
        "serve_concurrency: n = {n}, ticks = {ticks}, cores = {cores}, \
         pool_workers = {pool_workers}, default_deadline_ms = {deadline_ms}"
    );

    let mut rows = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let mut d = driver(n);
        let (report, wall) = pdr_bench::time_it(|| d.run(ticks, &mix(clients)));
        let engine = &report.engines[0];
        // Engine-side CPU latency is recorded identically at every
        // client count; the per-client histograms add the wall-clock
        // view (queueing included) for the concurrent runs.
        let per_client = if report.clients.is_empty() {
            String::from("[]")
        } else {
            let items: Vec<String> = report
                .clients
                .iter()
                .map(|c| {
                    format!(
                        "{{\"client\": {}, \"queries\": {}, \"deadline_misses\": {}, \
                         \"latency_us\": {}}}",
                        c.client,
                        c.queries,
                        c.deadline_misses,
                        c.latency.to_json()
                    )
                })
                .collect();
            format!("[{}]", items.join(", "))
        };
        println!(
            "clients={clients:<2} wall {:>8.1} ms  engine p50/p95/p99 us: {:.0}/{:.0}/{:.0}",
            wall.as_secs_f64() * 1e3,
            engine.latency.p50_us,
            engine.latency.p95_us,
            engine.latency.p99_us
        );
        rows.push(format!(
            "    {{\"clients\": {clients}, \"queries\": {}, \"wall_ms\": {:.1}, \
             \"engine_latency_us\": {}, \"per_client\": {per_client}}}",
            engine.score.queries,
            wall.as_secs_f64() * 1e3,
            engine.latency.to_json()
        ));
    }

    let replica = replica_axis(n, ticks);
    let netfault = netfault_axis(n, 60);
    let dispatch = pdr_bench::dispatch_json(16, 3);
    let json = format!(
        "{{\n  \"n\": {n},\n  \"ticks\": {ticks},\n  \"available_parallelism\": {cores},\n  \
         \"pool_workers\": {pool_workers},\n  \"default_deadline_ms\": {deadline_ms},\n  \
         \"dispatch\": {dispatch},\n  \
         \"replica\": {replica},\n  \
         \"netfault\": {netfault},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    // Cargo runs benches with the package directory as cwd; anchor the
    // artifact at the workspace root so it lands in a stable place.
    pdr_bench::write_artifact("serve_concurrency", &json);
}
