//! `pdrcli` — command-line front end for pointwise-dense region queries.
//!
//! ```text
//! pdrcli generate --objects 10000 --extent 1000 --seed 7 --out objects.csv
//! pdrcli query    --data objects.csv --extent 1000 --l 30 --count 15 --at 10 [--method fr|pa] [--threads N]
//! pdrcli serve    --objects 5000 --extent 1000 --ticks 20 --l 30 --count 15 [--seed S] [--metrics FILE] [--fault-plan FILE] [--buffer-pages N]
//! pdrcli hotspots --data objects.csv --extent 1000 --l 30 --at 10 --top 5
//! ```
//!
//! Datasets are CSV with header `id,x,y,vx,vy` (positions at t = 0).
//! `query` prints the dense rectangles; `serve` runs simulated traffic
//! through every engine behind the shared [`ServeDriver`] and reports
//! per-engine load; `hotspots` prints the top-k density peaks from the
//! approximate engine.
//!
//! `serve --fault-plan FILE` installs a deterministic fault-injection
//! schedule beneath the FR engine's storage plane (see
//! [`FaultPlan::parse`] for the grammar) and turns on write-ahead
//! journaling so detected corruption and ingest crashes recover from
//! the latest checkpoint. Pair it with `--buffer-pages` small enough
//! that the index actually pages — a pool that fits the working set
//! never performs the physical I/O faults are injected into.
//!
//! All engines are constructed through [`EngineSpec`] and queried
//! through the [`DensityEngine`] trait — the CLI never touches
//! concrete engine wiring.

use pdr_core::{
    AnswerDelta, EngineSpec, FrConfig, PaConfig, PaEngine, PdrQuery, SubId, SubscriptionTable,
};
use pdr_geometry::{Point, Rect, RegionSet};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Timestamp, Update};
use pdr_storage::seeded::{backoff_delay, SeededRng};
use pdr_storage::{CostModel, FaultPlan};
use pdr_workload::{
    gaussian_clusters, net::Json, FaultPolicy, NetClient, NetFaultInjector, NetFaultPlan,
    NetServer, NetServerConfig, NetworkConfig, QueryMix, QuerySpec, RoadNetwork, ServeDriver,
    TrafficSimulator,
};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage("missing subcommand");
    };
    let opts = match Options::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "query" => cmd_query(&opts),
        "serve" => cmd_serve(&opts),
        "client" => cmd_client(&opts),
        "hotspots" => cmd_hotspots(&opts),
        other => return usage(&format!("unknown subcommand {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage:\n  pdrcli generate --objects N [--extent L] [--clusters K] [--seed S] --out FILE\n  \
         pdrcli query --data FILE --l EDGE --count MIN_OBJECTS --at T [--extent L] [--method fr|pa] [--threads N]\n  \
         pdrcli serve --objects N --ticks T --l EDGE --count MIN_OBJECTS [--extent L] [--seed S] [--threads N] [--clients N] [--subs N] [--metrics FILE] [--fault-plan FILE] [--buffer-pages N] [--journal TICKS] [--shards SxS] [--adaptive] [--split-threshold N] [--merge-threshold N]\n  \
         pdrcli serve --listen ADDR [--port-file FILE] [--capacity N] [--deadline-ms N] [--net-fault-plan FILE] [--objects N ...]\n  \
         pdrcli serve --listen ADDR --replica-of PRIMARY_ADDR --shards SxS [--objects N ...]\n  \
         pdrcli client --connect ADDR [--ticks T] [--queries M] [--subs N] [--replica REPLICA_ADDR] [--failover ADDR,...] [--keep-open] [--rebalance] [--net-fault-plan FILE] [--l EDGE] [--count MIN_OBJECTS]\n  \
         pdrcli hotspots --data FILE --l EDGE --at T [--extent L] [--top K]"
    );
    ExitCode::from(2)
}

/// Flat `--key value` option bag; all keys optional, validated per
/// subcommand.
struct Options {
    objects: usize,
    extent: f64,
    clusters: usize,
    seed: u64,
    out: Option<String>,
    data: Option<String>,
    l: f64,
    count: f64,
    at: Timestamp,
    method: String,
    top: usize,
    threads: usize,
    ticks: u64,
    metrics: Option<String>,
    fault_plan: Option<String>,
    buffer_pages: usize,
    journal: u64,
    /// Shard grid `(sx, sy)` for `serve`; `None` = unsharded engines.
    shards: Option<(u32, u32)>,
    /// `serve`: expose the driver over TCP instead of the local loop.
    listen: Option<String>,
    /// `serve --listen`: write the bound address here once listening.
    port_file: Option<String>,
    /// `serve --listen`: admission capacity (queries in flight).
    capacity: usize,
    /// `serve` (local loop): concurrent clients per tick.
    clients: usize,
    /// `serve --listen`: run as a log-shipping read replica of this
    /// primary front-end instead of simulating traffic locally.
    replica_of: Option<String>,
    /// `client`: server address to connect to.
    connect: Option<String>,
    /// `client`: replica front-end to sync and cross-check against
    /// `--connect` after every tick (bit-identical answers).
    replica: Option<String>,
    /// `client`: checked queries per tick.
    queries: usize,
    /// `serve --listen`: per-query deadline override in ms (0 = none).
    deadline_ms: Option<u64>,
    /// Standing subscriptions: `client` registers this many over the
    /// wire and replays their delta streams; local `serve` carries them
    /// in the driver's subscription mix.
    subs: usize,
    /// `serve --listen` / `client`: seeded network fault plan injected
    /// beneath the framing layer (see `NetFaultPlan::parse`).
    net_fault_plan: Option<String>,
    /// `client`: comma-separated fallback addresses walked (and
    /// promoted) when the `--connect` target dies mid-run.
    failover: Vec<String>,
    /// `client`: leave the servers running on exit (no `shutdown` op) —
    /// a later client picks up where this one stopped.
    keep_open: bool,
    /// `serve`: let the shard plane split hot leaves and merge cold
    /// sibling groups on its own (requires `--shards`).
    adaptive: bool,
    /// `serve --adaptive`: owned-object count above which a leaf splits.
    split_threshold: u64,
    /// `serve --adaptive`: combined owned count below which a sibling
    /// group merges back into its parent.
    merge_threshold: u64,
    /// `client`: force one `rebalance` split after the first tick and
    /// one merge before the last, checking answers stay exact across
    /// both cutovers.
    rebalance: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            objects: 10_000,
            extent: 1000.0,
            clusters: 5,
            seed: 7,
            out: None,
            data: None,
            l: 30.0,
            count: 10.0,
            at: 0,
            method: "fr".into(),
            top: 5,
            threads: 0, // refinement workers: 0 = one per core
            ticks: 20,
            metrics: None,
            fault_plan: None,
            buffer_pages: 512,
            journal: 5, // checkpoint cadence in ticks; 0 = no journal
            shards: None,
            listen: None,
            port_file: None,
            capacity: 32,
            clients: 1,
            replica_of: None,
            connect: None,
            replica: None,
            queries: 4,
            deadline_ms: None,
            subs: 0,
            net_fault_plan: None,
            failover: Vec::new(),
            keep_open: false,
            adaptive: false,
            split_threshold: pdr_core::SplitPolicy::default().split_threshold,
            merge_threshold: pdr_core::SplitPolicy::default().merge_threshold,
            rebalance: false,
        };
        let mut i = 0;
        while i < args.len() {
            let key = &args[i];
            // Valueless flags first — everything else is `--key value`.
            if key == "--keep-open" {
                o.keep_open = true;
                i += 1;
                continue;
            }
            if key == "--adaptive" {
                o.adaptive = true;
                i += 1;
                continue;
            }
            if key == "--rebalance" {
                o.rebalance = true;
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{key} needs a value"))?;
            let bad = |k: &str| format!("bad value for {k}: {value}");
            match key.as_str() {
                "--objects" => o.objects = value.parse().map_err(|_| bad(key))?,
                "--extent" => o.extent = value.parse().map_err(|_| bad(key))?,
                "--clusters" => o.clusters = value.parse().map_err(|_| bad(key))?,
                "--seed" => o.seed = value.parse().map_err(|_| bad(key))?,
                "--out" => o.out = Some(value.clone()),
                "--data" => o.data = Some(value.clone()),
                "--l" => o.l = value.parse().map_err(|_| bad(key))?,
                "--count" => o.count = value.parse().map_err(|_| bad(key))?,
                "--at" => o.at = value.parse().map_err(|_| bad(key))?,
                "--method" => o.method = value.clone(),
                "--top" => o.top = value.parse().map_err(|_| bad(key))?,
                "--threads" => o.threads = value.parse().map_err(|_| bad(key))?,
                "--ticks" => o.ticks = value.parse().map_err(|_| bad(key))?,
                "--metrics" => o.metrics = Some(value.clone()),
                "--fault-plan" => o.fault_plan = Some(value.clone()),
                "--buffer-pages" => o.buffer_pages = value.parse().map_err(|_| bad(key))?,
                "--journal" => o.journal = value.parse().map_err(|_| bad(key))?,
                "--listen" => o.listen = Some(value.clone()),
                "--port-file" => o.port_file = Some(value.clone()),
                "--capacity" => o.capacity = value.parse().map_err(|_| bad(key))?,
                "--clients" => {
                    o.clients = value.parse().map_err(|_| bad(key))?;
                    if o.clients == 0 {
                        return Err(bad(key));
                    }
                }
                "--replica-of" => o.replica_of = Some(value.clone()),
                "--connect" => o.connect = Some(value.clone()),
                "--replica" => o.replica = Some(value.clone()),
                "--net-fault-plan" => o.net_fault_plan = Some(value.clone()),
                "--failover" => {
                    o.failover = value
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect();
                    if o.failover.is_empty() {
                        return Err(bad(key));
                    }
                }
                "--queries" => o.queries = value.parse().map_err(|_| bad(key))?,
                "--deadline-ms" => o.deadline_ms = Some(value.parse().map_err(|_| bad(key))?),
                "--subs" => o.subs = value.parse().map_err(|_| bad(key))?,
                "--split-threshold" => o.split_threshold = value.parse().map_err(|_| bad(key))?,
                "--merge-threshold" => o.merge_threshold = value.parse().map_err(|_| bad(key))?,
                "--shards" => {
                    let (sx, sy) = value.split_once(['x', 'X']).ok_or_else(|| bad(key))?;
                    let sx: u32 = sx.parse().map_err(|_| bad(key))?;
                    let sy: u32 = sy.parse().map_err(|_| bad(key))?;
                    if sx == 0 || sy == 0 {
                        return Err(bad(key));
                    }
                    o.shards = Some((sx, sy));
                }
                other => return Err(format!("unknown flag {other}")),
            }
            i += 2;
        }
        Ok(o)
    }
}

fn cmd_generate(o: &Options) -> Result<(), String> {
    let out = o.out.as_ref().ok_or("generate requires --out")?;
    let pop = gaussian_clusters(
        o.objects,
        o.extent,
        o.clusters.max(1),
        o.extent * 0.04,
        0.2,
        1.5,
        o.seed,
        0,
    );
    let mut csv = String::from("id,x,y,vx,vy\n");
    for (id, m) in &pop {
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            id.0, m.origin.x, m.origin.y, m.velocity.x, m.velocity.y
        ));
    }
    std::fs::write(out, csv).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} objects to {out}", pop.len());
    Ok(())
}

fn load_data(o: &Options) -> Result<Vec<(ObjectId, MotionState)>, String> {
    let path = o.data.as_ref().ok_or("this command requires --data")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if lineno == 0 && line.starts_with("id,") {
            continue; // header
        }
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 {
            return Err(format!("{path}:{}: expected 5 fields", lineno + 1));
        }
        let parse = |s: &str| -> Result<f64, String> {
            s.trim()
                .parse()
                .map_err(|_| format!("{path}:{}: bad number {s}", lineno + 1))
        };
        let id: u64 = fields[0]
            .trim()
            .parse()
            .map_err(|_| format!("{path}:{}: bad id {}", lineno + 1, fields[0]))?;
        out.push((
            ObjectId(id),
            MotionState::new(
                Point::new(parse(fields[1])?, parse(fields[2])?),
                Point::new(parse(fields[3])?, parse(fields[4])?),
                0,
            ),
        ));
    }
    if out.is_empty() {
        return Err(format!("{path}: no objects"));
    }
    Ok(out)
}

fn horizon_for(at: Timestamp) -> TimeHorizon {
    // Cover the requested timestamp with a symmetric window.
    let half = at.max(10);
    TimeHorizon::new(half, half)
}

/// Resolves a method name to a declarative engine spec; every engine
/// the CLI runs is built from one of these.
fn engine_spec(method: &str, o: &Options, horizon: TimeHorizon) -> Result<EngineSpec, String> {
    match method {
        "fr" => {
            let m = ((2.0 * o.extent / o.l).ceil() as u32).clamp(10, 400);
            Ok(EngineSpec::Fr(FrConfig {
                extent: o.extent,
                m,
                horizon,
                buffer_pages: o.buffer_pages,
                threads: o.threads,
            }))
        }
        "pa" => Ok(EngineSpec::Pa(PaConfig {
            extent: o.extent,
            g: 20,
            degree: 5,
            l: o.l,
            horizon,
            m_d: 512,
        })),
        other => Err(format!("unknown method {other} (fr|pa)")),
    }
}

fn cmd_query(o: &Options) -> Result<(), String> {
    let pop = load_data(o)?;
    let q = PdrQuery::new(o.count / (o.l * o.l), o.l, o.at);
    println!(
        "# {} objects, l = {}, threshold = {} objects per neighborhood, t = {}",
        pop.len(),
        o.l,
        o.count,
        o.at
    );
    let mut engine = engine_spec(&o.method, o, horizon_for(o.at))?.build(0);
    engine.bulk_load(&pop, 0);
    let ans = engine.query(&q);
    let stats = engine.stats();
    println!(
        "# {}: exact = {}, {} buffer misses, {} bytes resident",
        engine.name(),
        ans.exact,
        ans.io.misses,
        stats.memory_bytes
    );
    // Wall-clock goes to stderr: stdout must stay byte-identical
    // across runs and thread counts.
    eprintln!("# cpu = {:.2} ms", ans.cpu.as_secs_f64() * 1e3);
    let regions = ans.regions;
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let write = (|| -> std::io::Result<()> {
        writeln!(
            out,
            "# {} rectangles, total area {:.1}",
            regions.len(),
            regions.area()
        )?;
        writeln!(out, "x_lo,y_lo,x_hi,y_hi")?;
        for r in regions.rects() {
            writeln!(out, "{},{},{},{}", r.x_lo, r.y_lo, r.x_hi, r.y_hi)?;
        }
        out.flush()
    })();
    tolerate_broken_pipe(write)
}

fn cmd_serve(o: &Options) -> Result<(), String> {
    if o.replica_of.is_some() {
        return cmd_serve_replica(o);
    }
    if o.ticks == 0 {
        return Err("serve requires --ticks >= 1".into());
    }
    let network = RoadNetwork::generate(&NetworkConfig::metro(o.extent), o.seed);
    let horizon = TimeHorizon::new(10, 10);
    let sim = TrafficSimulator::new(
        network,
        o.objects,
        o.seed ^ 0x5eed,
        horizon.max_update_time(),
        0,
    );
    let rho = o.count / (o.l * o.l);

    // Both engines, built declaratively, served by the one driver.
    // `--shards SxS` wraps each spec in the shared-nothing shard router
    // (`EngineSpec::Sharded`): same answers rect-for-rect, per-shard
    // storage/WAL, and a per-shard block in the metrics JSON.
    let spec_for = |method: &str| -> Result<EngineSpec, String> {
        let inner = engine_spec(method, o, horizon)?;
        Ok(match o.shards {
            Some((sx, sy)) => EngineSpec::Sharded {
                adaptive: o.adaptive.then(|| pdr_core::SplitPolicy {
                    split_threshold: o.split_threshold,
                    merge_threshold: o.merge_threshold,
                    ..Default::default()
                }),
                inner: Box::new(inner),
                sx,
                sy,
                l_max: o.l,
            },
            None => inner,
        })
    };
    let mut driver = ServeDriver::new(sim, CostModel::PAPER_DEFAULT)
        .with_engine("fr", spec_for("fr")?.build(0))
        .with_engine("pa", spec_for("pa")?.build(0));
    driver.bootstrap();
    if let Some((sx, sy)) = o.shards {
        if o.adaptive {
            eprintln!(
                "# engines sharded {sx}x{sy} adaptive (split>{} merge<{})",
                o.split_threshold, o.merge_threshold
            );
        } else {
            eprintln!("# engines sharded {sx}x{sy} (halo l/2, per-shard WAL segments)");
        }
    }

    if let Some(path) = &o.fault_plan {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading fault plan {path}: {e}"))?;
        let plan = FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        // Journal first: the checkpoint + WAL make detected corruption
        // and ingest crashes recoverable once faults start firing.
        // `--journal 0` turns recovery off, so persistent faults take
        // the engine offline-degraded instead.
        if o.journal > 0 {
            driver.enable_journal(o.journal);
        }
        driver.install_fault_plan("fr", plan);
        eprintln!("# fault plan {path} installed beneath the fr storage plane");
    }

    if let Some(addr) = &o.listen {
        return serve_tcp(o, driver, addr);
    }

    // Query mix: now / mid-window / full prediction window ahead.
    // Offsets stay within W: a report may be up to U old, so its
    // horizon coverage only guarantees [now, now + W].
    let w = horizon.prediction_window();
    let specs: Vec<QuerySpec> = [0, w / 2, w]
        .into_iter()
        .map(|dt| QuerySpec {
            rho,
            varrho: 0.0,
            l: o.l,
            q_t: dt,
        })
        .collect();
    let mut mix = QueryMix::new(specs, 0, 2)
        .with_accuracy()
        .with_clients(o.clients);
    if o.subs > 0 {
        // Standing queries ride the incremental maintenance path;
        // `verify` cross-checks every maintained answer against a
        // from-scratch query each tick (exact rect equality).
        mix = mix.with_subscriptions(o.subs, 5, true);
        eprintln!(
            "# {} standing subscriptions per engine (churn every 5 ticks)",
            o.subs
        );
    }
    if o.clients > 1 {
        eprintln!("# {} concurrent clients per tick", o.clients);
    }
    let report = driver.run(o.ticks, &mix);

    println!(
        "# served {} ticks, {} objects, {} protocol updates, {} queries per engine",
        report.ticks,
        o.objects,
        report.updates,
        report.engines.first().map_or(0, |e| e.score.queries)
    );
    println!("engine,queries,mean_total_ms,ingest_ms,io_misses,r_fp,r_fn,updates,missed_deletes,memory_bytes");
    for e in &report.engines {
        println!(
            "{},{},{:.3},{:.3},{},{:.4},{:.4},{},{},{}",
            e.label,
            e.score.queries,
            e.mean_total_ms(),
            e.ingest_ms,
            e.score.io.misses,
            e.mean_r_fp(),
            e.mean_r_fn(),
            e.stats.updates_applied,
            e.stats.missed_deletes,
            e.stats.memory_bytes
        );
    }
    if o.subs > 0 {
        println!("engine,subs,sub_deltas,sub_checks,sub_divergence");
        for e in &report.engines {
            println!(
                "{},{},{},{},{}",
                e.label, e.subs, e.sub_deltas, e.sub_checks, e.sub_divergence
            );
        }
        if report.engines.iter().any(|e| e.sub_divergence > 0) {
            return Err("subscription maintenance diverged from from-scratch queries".into());
        }
    }
    if o.fault_plan.is_some() {
        println!("engine,faults_injected,crc_failures,retries,recoveries,degraded_queries,failed_queries,deadline_misses");
        for e in &report.engines {
            println!(
                "{},{},{},{},{},{},{},{}",
                e.label,
                e.faults.injected(),
                e.faults.crc_failures,
                e.retries,
                e.recoveries,
                e.degraded_queries,
                e.failed_queries,
                e.deadline_misses
            );
        }
    }
    if let Some(path) = &o.metrics {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("writing metrics to {path}: {e}"))?;
        eprintln!("# metrics written to {path}");
    }
    Ok(())
}

/// `serve --listen ADDR --replica-of PRIMARY`: builds a log-shipping
/// read replica of the primary front-end's `fr` engine, bootstraps it
/// over the wire (`ship_log` with empty offsets cuts a sealed
/// checkpoint + segment tails), and serves query/subscribe traffic
/// read-only. Clients refresh the replica with the `sync` op; `tick`
/// is refused. The grid must match the primary's (`--shards SxS` plus
/// the same engine geometry flags).
fn cmd_serve_replica(o: &Options) -> Result<(), String> {
    let primary = o.replica_of.clone().expect("checked by cmd_serve");
    let addr = o
        .listen
        .as_ref()
        .ok_or("serve --replica-of requires --listen")?;
    let Some((sx, sy)) = o.shards else {
        return Err(
            "serve --replica-of requires --shards SxS (replicas ship per-shard logs)".into(),
        );
    };
    let horizon = TimeHorizon::new(10, 10);
    let spec = EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(engine_spec("fr", o, horizon)?),
        sx,
        sy,
        l_max: o.l,
    };
    let engine = spec.try_build_replica(0).map_err(|e| e.to_string())?;

    // The simulator is inert here — a replica front-end refuses `tick`
    // and resolves query times against its applied clock — but the
    // driver still owns one for the shared metrics surface.
    let network = RoadNetwork::generate(&NetworkConfig::metro(o.extent), o.seed);
    let sim = TrafficSimulator::new(
        network,
        o.objects,
        o.seed ^ 0x5eed,
        horizon.max_update_time(),
        0,
    );
    let mut driver = ServeDriver::new(sim, CostModel::PAPER_DEFAULT).with_engine("fr", engine);

    // Initial bootstrap straight from the primary, before serving:
    // empty offsets force a checkpoint-carrying shipment. The fetch
    // retries with jittered backoff; a primary that stays unreachable
    // is *not* fatal — the replica serves empty until a `sync` op
    // succeeds, which re-bootstraps it once the primary returns.
    let policy = FaultPolicy::default();
    let mut rng = SeededRng::new(policy.seed);
    let mut last_err = String::new();
    let mut bootstrapped = false;
    for attempt in 1..=policy.max_attempts {
        let fetched = NetClient::connect(&primary)
            .map_err(|e| format!("connecting to primary {primary}: {e}"))
            .and_then(|mut c| pdr_workload::net::fetch_shipment(&mut c, Some("fr"), 0, &[], 0));
        match fetched {
            Ok(ship) => {
                let report = driver
                    .engine_mut("fr")
                    .and_then(|e| e.as_replica_mut())
                    .ok_or("replica engine lost its ingest surface")?
                    .ingest(&ship)
                    .map_err(|e| format!("ingesting bootstrap shipment: {e}"))?;
                eprintln!(
                    "# bootstrapped from {primary}: {} records, {} updates, lag {}",
                    report.records, report.updates, report.lag
                );
                bootstrapped = true;
                break;
            }
            Err(e) => {
                last_err = e;
                if attempt < policy.max_attempts {
                    client_backoff(&mut rng, attempt);
                }
            }
        }
    }
    if !bootstrapped {
        eprintln!(
            "# bootstrap deferred ({last_err}); serving empty until a sync reaches {primary}"
        );
    }
    serve_tcp(o, driver, addr)
}

/// Parses a [`NetFaultPlan`] file into a ready injector.
fn load_net_fault_plan(path: &str) -> Result<NetFaultInjector, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading net fault plan {path}: {e}"))?;
    let plan = NetFaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(NetFaultInjector::new(plan))
}

/// Seeded jittered exponential backoff for client-side reconnects
/// (2 ms base doubling to a 200 ms cap, ±50% jitter).
fn client_backoff(rng: &mut SeededRng, attempt: u32) {
    std::thread::sleep(backoff_delay(2_000, 200_000, attempt, rng));
}

/// `serve --listen`: hands the bootstrapped driver to the TCP
/// front-end and blocks until a protocol `shutdown` op. The bound
/// address goes to stdout (and `--port-file` when given) so scripts
/// binding port 0 can find the server; the final line is the server's
/// drain summary (`served`, `rejected_admissions`, `leaked_workers`).
///
/// There is no signal handler (that would need a dependency or
/// `unsafe`): SIGTERM simply kills the process, while scripted clean
/// shutdown goes through the protocol op.
fn serve_tcp(o: &Options, driver: ServeDriver, addr: &str) -> Result<(), String> {
    let faults = match &o.net_fault_plan {
        Some(path) => Some(Arc::new(load_net_fault_plan(path)?)),
        None => None,
    };
    if faults.is_some() {
        eprintln!(
            "# network fault plan {} installed beneath the framing layer",
            o.net_fault_plan.as_deref().unwrap_or("")
        );
    }
    let cfg = NetServerConfig {
        capacity: o.capacity,
        shutdown_pool: true,
        replica_of: o.replica_of.clone(),
        faults,
        ..NetServerConfig::default()
    };
    let mut policy = FaultPolicy::default();
    if let Some(ms) = o.deadline_ms {
        policy.deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    let server =
        NetServer::bind(addr, driver, policy, cfg).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("reading bound address: {e}"))?;
    println!("# listening on {bound} (capacity {})", o.capacity);
    std::io::stdout().flush().ok();
    if let Some(path) = &o.port_file {
        std::fs::write(path, bound.to_string())
            .map_err(|e| format!("writing port file {path}: {e}"))?;
    }
    let summary = server.serve();
    println!("{summary}");
    Ok(())
}

/// A reconnecting client: wraps [`NetClient`] with bounded seeded
/// reconnect/backoff, a failover target list walked on connection
/// loss (the new target is promoted to writable primary), and
/// request-`id` matching so duplicated or stale response frames are
/// discarded instead of corrupting the request/response pairing.
struct ResilientClient {
    /// `--connect` first, then the `--failover` list in order.
    targets: Vec<String>,
    /// Index of the currently connected target.
    current: usize,
    conn: Option<NetClient>,
    connected_once: bool,
    next_id: u64,
    reconnects: u64,
    failovers: u64,
    /// Same-connection re-sends after a presumed-dropped frame.
    retries: u64,
    rng: SeededRng,
    faults: Option<Arc<NetFaultInjector>>,
}

/// Reconnect rounds (each walks every target) before giving up.
const RECONNECT_ROUNDS: u32 = 8;

/// Bounded per-request read patience. A response not seen within this
/// window is presumed dropped (a lossy network may eat either the
/// request or the response frame) and the request is re-sent on the
/// same connection — the `id` echo makes a duplicated server response
/// harmless, it is simply discarded by the match loop.
const READ_RETRY: Duration = Duration::from_millis(1500);

/// Same-connection re-sends per request before the connection is torn
/// down and rebuilt through the reconnect/failover path.
const READ_RETRIES_PER_CONN: u32 = 4;

/// Reads response frames until one echoes the wanted `id`; other
/// frames (duplicates injected below the framing layer, stale answers
/// from before a reconnect) are discarded.
fn recv_matching(c: &mut NetClient, want: u64) -> std::io::Result<String> {
    loop {
        let frame = c.recv_raw()?;
        if let Ok(v) = Json::parse(&frame) {
            if v.get("id").and_then(Json::as_u64) == Some(want) {
                return Ok(frame);
            }
        }
    }
}

impl ResilientClient {
    fn connect(
        targets: Vec<String>,
        seed: u64,
        faults: Option<Arc<NetFaultInjector>>,
    ) -> Result<ResilientClient, String> {
        let mut c = ResilientClient {
            targets,
            current: 0,
            conn: None,
            connected_once: false,
            next_id: 0,
            reconnects: 0,
            failovers: 0,
            retries: 0,
            rng: SeededRng::new(seed),
            faults,
        };
        c.ensure_connected()?;
        Ok(c)
    }

    /// The address of the currently (or last) connected target.
    fn target(&self) -> &str {
        &self.targets[self.current]
    }

    /// (Re)establishes a connection, walking the target list from the
    /// current position. Failing over to a *different* target promotes
    /// it — the old primary is presumed dead, so the survivor must
    /// accept writes. All-targets-down backs off and retries, bounded
    /// by [`RECONNECT_ROUNDS`].
    fn ensure_connected(&mut self) -> Result<(), String> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last = String::from("no reachable target");
        for round in 0..RECONNECT_ROUNDS {
            for k in 0..self.targets.len() {
                let idx = (self.current + k) % self.targets.len();
                let mut conn = match NetClient::connect(&self.targets[idx]) {
                    Ok(c) => c,
                    Err(e) => {
                        last = format!("connecting {}: {e}", self.targets[idx]);
                        continue;
                    }
                };
                let _ = conn.set_io_timeouts(Some(READ_RETRY), Some(Duration::from_secs(20)));
                if let Some(f) = &self.faults {
                    conn = conn.with_faults(f.clone());
                }
                // Failing over = landing anywhere but the current
                // target, or landing past the designated primary
                // (index 0) on the very first connect — the primary
                // may already be dead when the client starts.
                let failing_over = if self.connected_once {
                    idx != self.current
                } else {
                    idx != 0
                };
                if self.connected_once {
                    self.reconnects += 1;
                }
                if failing_over {
                    // Promote before reporting the connection usable:
                    // a failover target that cannot take writes is a
                    // dead target.
                    self.next_id += 1;
                    let id = self.next_id;
                    let body = format!("{{\"op\":\"promote\",\"id\":{id}}}");
                    let resp = conn.send(&body).and_then(|()| recv_matching(&mut conn, id));
                    match resp.map(|f| Json::parse(&f)) {
                        Ok(Ok(v)) if v.get("ok").and_then(Json::as_bool) == Some(true) => {
                            eprintln!(
                                "# failed over to {} (promoted, repl_epoch {})",
                                self.targets[idx],
                                v.get("repl_epoch")
                                    .and_then(Json::as_u64)
                                    .unwrap_or_default()
                            );
                        }
                        other => {
                            last = format!("promoting {}: {other:?}", self.targets[idx]);
                            continue;
                        }
                    }
                    self.failovers += 1;
                }
                self.current = idx;
                self.conn = Some(conn);
                self.connected_once = true;
                return Ok(());
            }
            client_backoff(&mut self.rng, round + 1);
        }
        Err(format!(
            "all targets unreachable after {RECONNECT_ROUNDS} rounds: {last}"
        ))
    }

    /// Sends one request (tagged with a fresh `id`) and returns the raw
    /// matching response frame, reconnecting (and failing over) on
    /// connection errors.
    fn request_raw(&mut self, body: &str) -> Result<String, String> {
        debug_assert!(body.ends_with('}'));
        self.next_id += 1;
        let id = self.next_id;
        let tagged = format!("{},\"id\":{}}}", &body[..body.len() - 1], id);
        let mut attempt = 0u32;
        let mut resends = 0u32;
        loop {
            self.ensure_connected()?;
            let conn = self.conn.as_mut().expect("ensure_connected");
            match conn.send(&tagged).and_then(|()| recv_matching(conn, id)) {
                Ok(frame) => return Ok(frame),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) && resends < READ_RETRIES_PER_CONN =>
                {
                    // Presumed frame drop: the connection is healthy,
                    // only this exchange went missing. Re-send in
                    // place, bounded; the id match discards any late
                    // or duplicated response from an earlier send.
                    resends += 1;
                    self.retries += 1;
                }
                Err(e) => {
                    self.conn = None;
                    resends = 0;
                    attempt += 1;
                    if attempt >= RECONNECT_ROUNDS {
                        return Err(format!("request failed after {attempt} attempts: {e}"));
                    }
                    client_backoff(&mut self.rng, attempt);
                }
            }
        }
    }

    /// [`request_raw`](ResilientClient::request_raw), parsed.
    fn request(&mut self, body: &str) -> Result<Json, String> {
        let frame = self.request_raw(body)?;
        Json::parse(&frame).map_err(|e| format!("bad response frame: {e}"))
    }
}

/// One wire subscription the client replays: parameters plus the
/// mirror rebuilt purely from polled deltas.
struct WireSub {
    id: u64,
    rho: f64,
    q_t: u64,
    region: Rect,
    mirror: Vec<Rect>,
}

/// Parses a `[[x_lo,y_lo,x_hi,y_hi],...]` JSON rect list.
fn parse_rects(v: &Json) -> Result<Vec<Rect>, String> {
    let Json::Arr(items) = v else {
        return Err(format!("expected a rect array, got {v:?}"));
    };
    items
        .iter()
        .map(|r| {
            let Json::Arr(c) = r else {
                return Err(format!("expected a rect, got {r:?}"));
            };
            let c: Vec<f64> = c.iter().filter_map(Json::as_f64).collect();
            if c.len() != 4 {
                return Err("rect needs four coordinates".into());
            }
            Ok(Rect::new(c[0], c[1], c[2], c[3]))
        })
        .collect()
}

/// Drains `poll_deltas` into the mirrors. Errors on a lost buffer or a
/// degraded patch — the smoke flow has no faults, so either means the
/// exactness claim can no longer be checked.
fn poll_and_replay(c: &mut ResilientClient, subs: &mut [WireSub]) -> Result<usize, String> {
    let r = c
        .request("{\"op\":\"poll_deltas\"}")
        .map_err(|e| format!("poll_deltas: {e}"))?;
    if r.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("poll_deltas failed: {r:?}"));
    }
    if r.get("lost").and_then(Json::as_bool) == Some(true) {
        return Err("delta buffer overflowed; resubscribe required".into());
    }
    let Some(Json::Arr(entries)) = r.get("deltas") else {
        return Err(format!("poll_deltas: bad deltas field: {r:?}"));
    };
    for entry in entries {
        let d = entry
            .get("delta")
            .ok_or_else(|| format!("delta entry without body: {entry:?}"))?;
        if d.get("degraded").and_then(Json::as_bool) == Some(true) {
            return Err("subscription degraded mid-stream; resubscribe required".into());
        }
        let id = d
            .get("sub")
            .and_then(Json::as_u64)
            .ok_or("delta without sub id")?;
        let patch = AnswerDelta {
            id: SubId(id),
            now: 0,
            q_t: 0,
            added: parse_rects(d.get("added").ok_or("delta without added")?)?,
            removed: parse_rects(d.get("removed").ok_or("delta without removed")?)?,
            degraded: false,
            resync: d.get("resync").is_some(),
        };
        if let Some(s) = subs.iter_mut().find(|s| s.id == id) {
            patch.apply_to(&mut s.mirror);
        }
    }
    Ok(entries.len())
}

/// Checks every replayed mirror against a from-scratch `query` (full
/// rect list over the wire) clipped to the subscribed region — exact
/// bit-for-bit rect equality. Returns the number of diverged subs.
fn check_wire_subs(c: &mut ResilientClient, o: &Options, subs: &[WireSub]) -> Result<u64, String> {
    let mut diverged = 0u64;
    for s in subs {
        let body = format!(
            "{{\"op\":\"query\",\"rho\":{},\"l\":{},\"q_t\":{},\"rects\":true}}",
            s.rho, o.l, s.q_t
        );
        let r = c.request(&body).map_err(|e| format!("query: {e}"))?;
        if r.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("verification query failed: {r:?}"));
        }
        let rects = parse_rects(r.get("rects").ok_or("query without rects")?)?;
        let reference = SubscriptionTable::clip(&RegionSet::from_rects(rects), s.region);
        if reference.rects() != s.mirror.as_slice() {
            diverged += 1;
        }
    }
    Ok(diverged)
}

/// Refreshes a replica front-end (`sync` pulls the primary's WAL delta
/// over the wire) and cross-checks `query` answers between primary and
/// replica at caught-up offsets: the resolved timestamp and the full
/// rect list must be **bit-identical**. Returns comparisons made.
fn sync_and_compare(
    p: &mut ResilientClient,
    r: &mut NetClient,
    rho: f64,
    l: f64,
) -> Result<u64, String> {
    let resp = r
        .request("{\"op\":\"sync\"}")
        .map_err(|e| format!("sync: {e}"))?;
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("replica sync failed: {resp:?}"));
    }
    let mut compared = 0u64;
    for q_t in [0u64, 5, 10] {
        let body =
            format!("{{\"op\":\"query\",\"rho\":{rho},\"l\":{l},\"q_t\":{q_t},\"rects\":true}}");
        let a = p
            .request(&body)
            .map_err(|e| format!("primary query: {e}"))?;
        let b = r
            .request(&body)
            .map_err(|e| format!("replica query: {e}"))?;
        for resp in [&a, &b] {
            if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("comparison query failed: {resp:?}"));
            }
        }
        if a.get("t") != b.get("t") {
            return Err(format!(
                "replica clock diverged at q_t {q_t}: primary {:?}, replica {:?}",
                a.get("t"),
                b.get("t")
            ));
        }
        if a.get("rects") != b.get("rects") {
            return Err(format!("replica answer diverged from primary at q_t {q_t}"));
        }
        compared += 1;
    }
    Ok(compared)
}

/// `client --connect`: drives a serving front-end through `--ticks`
/// rounds of tick + `--queries` checked queries, asserting every
/// answer is exact against the server-side ground truth. With
/// `--subs N` it also registers N standing subscriptions, replays
/// their delta streams after every tick, and asserts the replayed
/// answers match from-scratch queries bit-for-bit. Finally prints the
/// server metrics and requests a clean shutdown.
fn cmd_client(o: &Options) -> Result<(), String> {
    let addr = o.connect.as_ref().ok_or("client requires --connect")?;
    if !o.failover.is_empty() && o.subs > 0 {
        return Err("--failover does not compose with --subs (a promoted \
                    target has no subscription state to replay)"
            .into());
    }
    let faults = match &o.net_fault_plan {
        Some(path) => Some(Arc::new(load_net_fault_plan(path)?)),
        None => None,
    };
    let mut targets = vec![addr.clone()];
    targets.extend(o.failover.iter().cloned());
    let mut c = ResilientClient::connect(targets, o.seed, faults)?;
    let rho = o.count / (o.l * o.l);
    let ok = |r: &Json| r.get("ok").and_then(Json::as_bool) == Some(true);

    // `--replica ADDR`: a second connection to a log-shipping replica
    // front-end; after every tick the client drives its `sync` op and
    // cross-checks answers against the primary bit-for-bit.
    let mut rc = match &o.replica {
        Some(r) => {
            Some(NetClient::connect(r).map_err(|e| format!("connecting to replica {r}: {e}"))?)
        }
        None => None,
    };
    let mut replica_checks = 0u64;
    if let Some(rc) = rc.as_mut() {
        replica_checks += sync_and_compare(&mut c, rc, rho, o.l)?;
    }

    // Register the standing queries up front; the initial answer
    // arrives as each subscription's first delta.
    let mut subs: Vec<WireSub> = Vec::new();
    for k in 0..o.subs {
        let q_t = [0u64, 5, 10][k % 3];
        // Alternate full-domain and interior regions of interest.
        let (region, region_part) = if k % 2 == 0 {
            (Rect::new(0.0, 0.0, o.extent, o.extent), String::new())
        } else {
            let r = Rect::new(
                0.05 * o.extent,
                0.10 * o.extent,
                0.75 * o.extent,
                0.90 * o.extent,
            );
            (
                r,
                format!(",\"region\":[{},{},{},{}]", r.x_lo, r.y_lo, r.x_hi, r.y_hi),
            )
        };
        let body = format!(
            "{{\"op\":\"subscribe\",\"rho\":{rho},\"l\":{},\"q_t\":{q_t}{region_part}}}",
            o.l
        );
        let r = c.request(&body).map_err(|e| format!("subscribe: {e}"))?;
        if !ok(&r) {
            return Err(format!("subscribe {k} failed: {r:?}"));
        }
        let id = r
            .get("sub")
            .and_then(Json::as_u64)
            .ok_or("subscribe response without sub id")?;
        subs.push(WireSub {
            id,
            rho,
            q_t,
            region,
            mirror: Vec::new(),
        });
    }
    let mut sub_checks = 0u64;
    let mut sub_divergence = 0u64;
    if !subs.is_empty() {
        poll_and_replay(&mut c, &mut subs)?;
        sub_divergence += check_wire_subs(&mut c, o, &subs)?;
        sub_checks += subs.len() as u64;
    }

    let mut checked = 0u64;
    for tick in 0..o.ticks {
        let r = c
            .request("{\"op\":\"tick\"}")
            .map_err(|e| format!("tick: {e}"))?;
        if !ok(&r) {
            return Err(format!("tick {tick} failed: {r:?}"));
        }
        if !subs.is_empty() {
            poll_and_replay(&mut c, &mut subs)?;
            sub_divergence += check_wire_subs(&mut c, o, &subs)?;
            sub_checks += subs.len() as u64;
        }
        if let Some(rc) = rc.as_mut() {
            replica_checks += sync_and_compare(&mut c, rc, rho, o.l)?;
        }
        // `--rebalance`: drive one topology change at each end of the
        // run, right before the tick's checked queries — the split and
        // the merge cutover must both leave the answers exact.
        if o.rebalance && (tick == 0 || tick + 1 == o.ticks) {
            let action = if tick == 0 { "split" } else { "merge" };
            let body = format!("{{\"op\":\"rebalance\",\"action\":\"{action}\"}}");
            let r = c.request(&body).map_err(|e| format!("rebalance: {e}"))?;
            if !ok(&r) {
                return Err(format!("rebalance {action} failed: {r:?}"));
            }
            println!(
                "{{\"rebalance\":\"{action}\",\"leaves\":{},\"part_epoch\":{}}}",
                r.get("leaves").and_then(Json::as_u64).unwrap_or(0),
                r.get("part_epoch").and_then(Json::as_u64).unwrap_or(0),
            );
        }
        // Offsets span the serve horizon's prediction window (W = 10).
        for k in 0..o.queries {
            let q_t = [0u64, 5, 10][k % 3];
            let body = format!(
                "{{\"op\":\"check\",\"rho\":{rho},\"l\":{},\"q_t\":{q_t}}}",
                o.l
            );
            let r = c.request(&body).map_err(|e| format!("check: {e}"))?;
            if !ok(&r) {
                return Err(format!("check failed at tick {tick}: {r:?}"));
            }
            if r.get("exact").and_then(Json::as_bool) != Some(true) {
                return Err(format!("inexact answer at tick {tick}: {r:?}"));
            }
            checked += 1;
        }
    }
    if let Some(first) = subs.first() {
        // Exercise the unsubscribe path before shutdown.
        let r = c
            .request(&format!("{{\"op\":\"unsubscribe\",\"sub\":{}}}", first.id))
            .map_err(|e| format!("unsubscribe: {e}"))?;
        if r.get("removed").and_then(Json::as_bool) != Some(true) {
            return Err(format!("unsubscribe failed: {r:?}"));
        }
    }
    let metrics = c
        .request_raw("{\"op\":\"metrics\"}")
        .map_err(|e| format!("metrics: {e}"))?;
    println!("{metrics}");
    if !subs.is_empty() {
        println!(
            "{{\"subs\":{},\"sub_checks\":{sub_checks},\"subs_exact\":{}}}",
            subs.len(),
            sub_divergence == 0
        );
    }
    if let Some(rc) = rc.as_mut() {
        // Replica metrics (including the lag gauge) before shutdown.
        let m = rc
            .request_raw("{\"op\":\"metrics\"}")
            .map_err(|e| format!("replica metrics: {e}"))?;
        println!("{m}");
        println!("{{\"replica_checks\":{replica_checks},\"replica_exact\":true}}");
        if !o.keep_open {
            let r = rc
                .request("{\"op\":\"shutdown\"}")
                .map_err(|e| format!("replica shutdown: {e}"))?;
            if !ok(&r) {
                return Err(format!("replica shutdown refused: {r:?}"));
            }
        }
    }
    println!(
        "{{\"reconnects\":{},\"failovers\":{},\"retries\":{},\"target\":{:?}}}",
        c.reconnects,
        c.failovers,
        c.retries,
        c.target()
    );
    if !o.keep_open {
        let r = c
            .request("{\"op\":\"shutdown\"}")
            .map_err(|e| format!("shutdown: {e}"))?;
        if !ok(&r) {
            return Err(format!("shutdown refused: {r:?}"));
        }
    }
    if sub_divergence > 0 {
        return Err(format!(
            "{sub_divergence} subscription replay checks diverged from from-scratch queries"
        ));
    }
    if o.keep_open {
        println!("# {checked} checked queries, all exact; servers left open");
    } else {
        println!("# {checked} checked queries, all exact; shutdown requested");
    }
    Ok(())
}

/// Treats a closed downstream pipe (`pdrcli ... | head`) as success.
fn tolerate_broken_pipe(r: std::io::Result<()>) -> Result<(), String> {
    match r {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("writing output: {e}")),
    }
}

fn cmd_hotspots(o: &Options) -> Result<(), String> {
    let pop = load_data(o)?;
    let mut pa = PaEngine::new(
        PaConfig {
            extent: o.extent,
            g: 20,
            degree: 5,
            l: o.l,
            horizon: horizon_for(o.at),
            m_d: 512,
        },
        0,
    );
    for (id, m) in &pop {
        pa.apply(&Update::insert(*id, 0, *m));
    }
    let peaks = pa.top_k_dense(o.top, o.at, 2.0 * o.l);
    println!(
        "# top {} density peaks at t = {} (l = {})",
        peaks.len(),
        o.at,
        o.l
    );
    println!("rank,x,y,density,objects_per_neighborhood");
    for (i, (r, d)) in peaks.iter().enumerate() {
        let c = r.center();
        println!(
            "{},{:.1},{:.1},{:.6},{:.1}",
            i + 1,
            c.x,
            c.y,
            d,
            d * o.l * o.l
        );
    }
    Ok(())
}
