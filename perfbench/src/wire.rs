//! `wire_alerts`: the TCP front-end. A `NetServer` on loopback serves
//! an FR-only `ServeDriver` to two connections:
//!
//! * the writer opens standing subscriptions drawn from an alert-tier
//!   menu (3 ρ × 3 offsets, one region each), then sends `tick` +
//!   `poll_deltas` on a fixed schedule (open loop). Each tick is timed
//!   from when it was due to its response, `poll_deltas` by its round
//!   trip, and how late the generator ran is reported;
//! * the reader, in a closed loop, sends `query` with `rects:true`
//!   drawn from the same menu; every [`CHECK_EVERY`]th request is a
//!   `check`, which must report `exact:true`.
//!
//! After every tick the writer compares each subscription's answer,
//! replayed from deltas, with a clipped `query rects:true` answer.

use crate::stats::{peak_rss_mib, Report, Samples};
use crate::trace::{mirror_histogram, FrLayers};
use crate::{record_setup, stream_seed, Args, Phase, HARD_CAP, MIN_SAMPLES};
use pdr_core::sub::rect_cmp;
use pdr_core::{
    AnswerDelta, DensityEngine, EngineSpec, Executor, FrConfig, FrEngine, PdrQuery, QtPolicy,
    SubId, SubscriptionTable,
};
use pdr_geometry::{Rect, RegionSet};
use pdr_mobject::TimeHorizon;
use pdr_storage::CostModel;
use pdr_workload::net::{Json, MAX_FRAME};
use pdr_workload::{
    FaultPolicy, NetClient, NetServer, NetServerConfig, NetworkConfig, RoadNetwork, ServeDriver,
    StdRng, TrafficSimulator,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The road network is fixed (one city); `--seed` drives the traffic,
/// the subscription regions and the reader's request mix.
const NETWORK_SEED: u64 = 21;
const EXTENT: f64 = 1000.0;
const OBJECTS: usize = 1000;
const U: u64 = 10;
const W: u64 = 10;
const M: u32 = 67;
const BUFFER_PAGES: usize = 1024;
const L: f64 = 30.0;
/// The alert tiers, as counts per l².
const COUNTS: [f64; 3] = [60.0, 90.0, 120.0];
const OFFSETS: [u64; 3] = [0, W / 2, W];
/// Sized so `poll_deltas` frames stay far below `MAX_FRAME`.
const SUBSCRIPTIONS: usize = 24;
/// The writer's schedule: one tick per period; the tick and its replay
/// check take 150–300 ms on a 2-core host, depending on the seed.
const TICK_PERIOD: Duration = Duration::from_millis(350);
/// A run pools this many streams, each a fresh server with its own
/// traffic, subscription regions and request mix: tick cost depends on
/// where the subscriptions lie, and one layout per run made the
/// run-to-run spread of `tick_p50_ms` 16 %.
const STREAMS: usize = 8;
/// Every this-many reader requests is a `check`.
const CHECK_EVERY: usize = 10;
/// No socket read or write may block longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Menu entry `k`: (count per l², `q_t` offset).
fn menu(k: usize) -> (f64, u64) {
    (
        COUNTS[k % COUNTS.len()],
        OFFSETS[(k / COUNTS.len()) % OFFSETS.len()],
    )
}

fn menu_len() -> usize {
    COUNTS.len() * OFFSETS.len()
}

fn fr_config() -> FrConfig {
    FrConfig {
        extent: EXTENT,
        m: M,
        horizon: TimeHorizon::new(U, W),
        buffer_pages: BUFFER_PAGES,
        threads: 0,
    }
}

fn simulator(seed: u64) -> TrafficSimulator {
    let net = RoadNetwork::generate(&NetworkConfig::metro(EXTENT), NETWORK_SEED);
    TrafficSimulator::new(net, OBJECTS, seed, U, 0)
}

/// One standing subscription and its answer replayed from deltas.
struct Sub {
    id: u64,
    menu: usize,
    region: Rect,
    rects: Vec<Rect>,
}

/// A running front-end plus the writer's connection and subscriptions.
struct Server {
    addr: String,
    handle: Option<JoinHandle<String>>,
    writer: NetClient,
    subs: Vec<Sub>,
}

impl Server {
    fn start(seed: u64) -> Result<Server, String> {
        let mut driver = ServeDriver::new(simulator(seed), CostModel::PAPER_DEFAULT)
            .with_engine("fr", EngineSpec::Fr(fr_config()).build(0));
        driver.bootstrap();
        let server = NetServer::bind(
            "127.0.0.1:0",
            driver,
            FaultPolicy::default(),
            NetServerConfig::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = Some(std::thread::spawn(move || server.serve()));
        let writer = connect(&addr);
        let mut srv = match writer {
            Ok(writer) => Server {
                addr,
                handle,
                writer,
                subs: Vec::new(),
            },
            Err(e) => {
                // Nothing owns the server yet: stop it here.
                if let Ok(mut c) = connect(&addr) {
                    let _ = c.request("{\"op\":\"shutdown\"}");
                }
                let _ = handle.map(JoinHandle::join);
                return Err(e);
            }
        };
        // Pipelined: the responses come back in request order.
        let subs = subscriptions(seed);
        for &(k, region) in &subs {
            let (count, offset) = menu(k);
            let body = format!(
                "{{\"op\":\"subscribe\",\"rho\":{},\"l\":{L},\"q_t\":{offset},\
                 \"region\":[{},{},{},{}]}}",
                count / (L * L),
                region.x_lo,
                region.y_lo,
                region.x_hi,
                region.y_hi
            );
            srv.writer.send(&body).map_err(|e| format!("send: {e}"))?;
        }
        for (k, region) in subs {
            let frame = srv.writer.recv_raw().map_err(|e| format!("recv: {e}"))?;
            let resp = ok_response(Json::parse(&frame).map_err(std::io::Error::other))?;
            let id = resp
                .get("sub")
                .and_then(Json::as_u64)
                .ok_or("subscribe answered no sub id")?;
            srv.subs.push(Sub {
                id,
                menu: k,
                region,
                rects: Vec::new(),
            });
        }
        // The initial answers arrive as each subscription's first delta.
        let (frame, _) = request_raw(&mut srv.writer, "{\"op\":\"poll_deltas\"}")?;
        srv.apply_deltas(&frame)?;
        Ok(srv)
    }

    /// Replays one `poll_deltas` response into the subscriptions.
    fn apply_deltas(&mut self, frame: &str) -> Result<usize, String> {
        let resp = ok_response(Json::parse(frame).map_err(std::io::Error::other))?;
        if resp.get("lost").and_then(Json::as_bool) != Some(false) {
            return Err("poll_deltas reports lost deltas".into());
        }
        let Some(Json::Arr(entries)) = resp.get("deltas") else {
            return Err("poll_deltas has no deltas array".into());
        };
        for e in entries {
            let d = e.get("delta").ok_or("delta entry without delta")?;
            let id = d
                .get("sub")
                .and_then(Json::as_u64)
                .ok_or("delta without sub")?;
            if d.get("degraded").and_then(Json::as_bool) != Some(false) {
                return Err(format!("subscription {id} degraded"));
            }
            let delta = AnswerDelta {
                id: SubId(id),
                now: 0,
                q_t: 0,
                added: parse_rects(d.get("added"))?,
                removed: parse_rects(d.get("removed"))?,
                degraded: false,
                resync: false,
            };
            let sub = self
                .subs
                .iter_mut()
                .find(|s| s.id == id)
                .ok_or_else(|| format!("delta for unknown subscription {id}"))?;
            delta.apply_to(&mut sub.rects);
        }
        Ok(entries.len())
    }

    /// Compares every replayed subscription with a clipped
    /// `query rects:true` answer of its menu entry; the queries are
    /// pipelined on the writer's connection.
    fn check_subscriptions(&mut self, r: &mut Report) -> Result<usize, String> {
        let mut max_frame = 0;
        let mut groups: Vec<usize> = self.subs.iter().map(|s| s.menu).collect();
        groups.sort_unstable();
        groups.dedup();
        for &k in &groups {
            let (count, offset) = menu(k);
            self.writer
                .send(&query_body("query", count, offset, true))
                .map_err(|e| format!("send: {e}"))?;
        }
        for &k in &groups {
            let frame = self.writer.recv_raw().map_err(|e| format!("recv: {e}"))?;
            max_frame = max_frame.max(frame.len());
            let resp = ok_response(Json::parse(&frame).map_err(std::io::Error::other))?;
            let full = RegionSet::from_rects(parse_rects(resp.get("rects"))?);
            for s in self.subs.iter().filter(|s| s.menu == k) {
                let clipped = SubscriptionTable::clip(&full, s.region);
                let mut want = clipped.rects().to_vec();
                want.sort_by(rect_cmp);
                r.check(want == s.rects, || {
                    format!(
                        "subscription {} replay differs from its clipped query",
                        s.id
                    )
                });
            }
        }
        Ok(max_frame)
    }

    /// Shuts the front-end down and returns its final summary.
    fn finish(mut self) -> Result<Json, String> {
        ok_response(self.writer.request("{\"op\":\"shutdown\"}"))?;
        let summary = self
            .handle
            .take()
            .ok_or("server already stopped")?
            .join()
            .map_err(|_| "server thread panicked")?;
        Json::parse(&summary)
    }
}

impl Drop for Server {
    /// Best effort for runs that end early: a fresh connection carries
    /// the shutdown op, then the server thread is joined.
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            if let Ok(mut c) = connect(&self.addr) {
                let _ = c.request("{\"op\":\"shutdown\"}");
            }
            let _ = h.join();
        }
    }
}

fn connect(addr: &str) -> Result<NetClient, String> {
    let mut c = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_io_timeouts(Some(IO_TIMEOUT), Some(IO_TIMEOUT))
        .map_err(|e| format!("timeouts: {e}"))?;
    Ok(c)
}

fn query_body(op: &str, count: f64, offset: u64, rects: bool) -> String {
    format!(
        "{{\"op\":\"{op}\",\"rho\":{},\"l\":{L},\"q_t\":{offset},\"rects\":{rects}}}",
        count / (L * L)
    )
}

/// One request; returns the raw response frame and the round trip.
fn request_raw(c: &mut NetClient, body: &str) -> Result<(String, Duration), String> {
    let start = Instant::now();
    c.send(body).map_err(|e| format!("send: {e}"))?;
    let frame = c.recv_raw().map_err(|e| format!("recv: {e}"))?;
    Ok((frame, start.elapsed()))
}

/// A parsed response with `"ok":true`, or why not.
fn ok_response(resp: std::io::Result<Json>) -> Result<Json, String> {
    let resp = resp.map_err(|e| format!("wire: {e}"))?;
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(resp)
    } else {
        Err(format!("refused: {resp:?}"))
    }
}

fn parse_rects(v: Option<&Json>) -> Result<Vec<Rect>, String> {
    let Some(Json::Arr(items)) = v else {
        return Err("missing rect array".into());
    };
    items
        .iter()
        .map(|it| match it {
            Json::Arr(c) if c.len() == 4 => {
                let v: Vec<f64> = c.iter().filter_map(Json::as_f64).collect();
                if v.len() == 4 {
                    Ok(Rect::new(v[0], v[1], v[2], v[3]))
                } else {
                    Err("non-numeric rect".to_string())
                }
            }
            _ => Err("malformed rect".to_string()),
        })
        .collect()
}

/// The writer's measurements, pooled over the run's streams.
#[derive(Default)]
struct Writer {
    tick_ms: Samples,
    late_ms: Samples,
    poll_ms: Samples,
    delta_bytes: Samples,
    /// Deltas routed per tick, as the `tick` responses report them.
    deltas: Samples,
    max_frame: usize,
}

/// Drives one stream's ticks; returns the deltas each tick routed.
fn writer_loop(
    srv: &mut Server,
    phase: &Phase,
    r: &mut Report,
    w: &mut Writer,
) -> Result<Vec<u64>, String> {
    let mut routed_per_tick = Vec::new();
    let mut due = Instant::now();
    while phase.running(&[&w.tick_ms])? {
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        w.late_ms
            .push_ms(Instant::now().saturating_duration_since(due));
        let tick = request_raw(&mut srv.writer, "{\"op\":\"tick\"}")
            .and_then(|(f, _)| ok_response(Json::parse(&f).map_err(std::io::Error::other)));
        // Readers see the tick once its response is out (the write lock
        // is released first); delta delivery is timed separately,
        // because its round trip depends on the frame size.
        let ticked = Instant::now();
        let routed = match tick {
            Ok(resp) => resp.get("deltas").and_then(Json::as_u64).unwrap_or(0),
            Err(e) => {
                r.fail(format!("tick: {e}"));
                break;
            }
        };
        let poll = request_raw(&mut srv.writer, "{\"op\":\"poll_deltas\"}");
        let applied = poll.and_then(|(frame, rtt)| {
            w.poll_ms.push_ms(rtt);
            w.max_frame = w.max_frame.max(frame.len());
            w.delta_bytes.push(frame.len() as f64);
            srv.apply_deltas(&frame)
        });
        match applied {
            Ok(n) => {
                w.tick_ms.push_ms(ticked - due);
                w.deltas.push(routed as f64);
                routed_per_tick.push(routed);
                r.check(n as u64 == routed, || {
                    format!("tick routed {routed} deltas but poll_deltas returned {n}")
                });
            }
            Err(e) => {
                r.fail(format!("poll_deltas: {e}"));
                break;
            }
        }
        // The replay check runs in the rest of the tick's slot.
        match srv.check_subscriptions(r) {
            Ok(m) => w.max_frame = w.max_frame.max(m),
            Err(e) => {
                r.fail(format!("subscription check: {e}"));
                break;
            }
        }
        // The next tick is due one period after this one, but never
        // before this slot's work has ended: a slot that overruns (or
        // its check) is skipped, not carried into the next tick's
        // latency.
        due = (due + TICK_PERIOD).max(Instant::now());
    }
    Ok(routed_per_tick)
}

/// The reader's measurements, pooled over the run's streams.
#[derive(Default)]
struct Reader {
    query_ms: Samples,
    server_us: Samples,
    overhead_us: Samples,
    response_bytes: Samples,
    max_frame: usize,
    ok: u64,
    failures: Vec<String>,
}

fn reader_loop(addr: &str, seed: u64, writer_done: &AtomicBool, phase: &Phase, rd: &mut Reader) {
    let mut c = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            rd.failures.push(e);
            return;
        }
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4ead);
    let mut k = 0usize;
    while !writer_done.load(Ordering::SeqCst) || phase.short(&[&rd.query_ms]) {
        if phase.run_elapsed() > HARD_CAP {
            rd.failures
                .push(format!("fewer than {MIN_SAMPLES} queries by the cap"));
            break;
        }
        let (count, offset) = menu(rng.random_range(0..menu_len()));
        k += 1;
        let check = k.is_multiple_of(CHECK_EVERY);
        let body = if check {
            query_body("check", count, offset, false)
        } else {
            query_body("query", count, offset, true)
        };
        let (frame, rtt) = match request_raw(&mut c, &body) {
            Ok(x) => x,
            Err(e) => {
                rd.failures.push(e);
                break;
            }
        };
        rd.max_frame = rd.max_frame.max(frame.len());
        let resp = match ok_response(Json::parse(&frame).map_err(std::io::Error::other)) {
            Ok(resp) => resp,
            Err(e) => {
                rd.failures.push(e);
                continue;
            }
        };
        if check {
            if resp.get("exact").and_then(Json::as_bool) == Some(true) {
                rd.ok += 1;
            } else {
                rd.failures.push(format!("check not exact: {frame}"));
            }
            continue;
        }
        let micros = resp.get("micros").and_then(Json::as_f64).unwrap_or(0.0);
        let rtt_us = rtt.as_secs_f64() * 1e6;
        rd.ok += 1;
        rd.query_ms.push_ms(rtt);
        rd.server_us.push(micros);
        rd.overhead_us.push(rtt_us - micros);
        rd.response_bytes.push(frame.len() as f64);
    }
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    r.param("objects", OBJECTS);
    r.param("extent", EXTENT);
    r.param("network", format!("metro({EXTENT}) seed {NETWORK_SEED}"));
    r.param("engine", format!("FR-only ServeDriver m={M} U={U} W={W}"));
    r.param(
        "menu",
        format!("l={L} counts {COUNTS:?} x offsets {OFFSETS:?}"),
    );
    r.param("subscriptions", SUBSCRIPTIONS);
    r.param("streams", STREAMS);
    r.param("tick_period_ms", TICK_PERIOD.as_millis());
    r.param("check_every", CHECK_EVERY);
    r.param(
        "load",
        "writer: open-loop tick+poll_deltas then replay check, one per period; \
         reader: closed-loop query rects:true",
    );

    let exec_before = Executor::global().obs_report();
    let mut setups = Vec::with_capacity(STREAMS);
    let mut w = Writer::default();
    let mut rd = Reader::default();
    let mut rejected = 0;
    let mut replay = Replay::default();
    let run_start = Instant::now();
    for j in 0..STREAMS {
        let seed = stream_seed(args.seed, j);
        let start = Instant::now();
        let mut srv = Server::start(seed)?;
        setups.push(start.elapsed().as_secs_f64());
        let writer_done = AtomicBool::new(false);
        let phase = Phase::part(args, j, STREAMS, run_start);
        let addr = srv.addr.clone();
        let routed = std::thread::scope(|s| {
            let reader = s.spawn(|| reader_loop(&addr, seed, &writer_done, &phase, &mut rd));
            let routed = writer_loop(&mut srv, &phase, r, &mut w);
            writer_done.store(true, Ordering::SeqCst);
            reader.join().map_err(|_| "reader thread panicked")?;
            routed
        })?;
        let summary = srv.finish()?;
        rejected += summary
            .get("rejected_admissions")
            .and_then(Json::as_u64)
            .ok_or("server summary lacks rejected_admissions")?;
        if args.trace {
            replay.stream(seed, &routed, r)?;
        }
    }
    let queries = rd.query_ms.len();

    r.attempted += rd.ok;
    for f in rd.failures {
        r.fail(f);
    }
    r.check(rejected == 0, || {
        format!("{rejected} queries refused at admission")
    });

    record_setup(r, setups);
    r.quantiles("query", &rd.query_ms, "ms", true)?;
    r.mean(
        "query_qps",
        queries as f64 / (rd.query_ms.sum() / 1e3),
        "1/s",
        queries,
    );
    r.quantiles("tick", &w.tick_ms, "ms", true)?;
    r.quantiles("tick_late", &w.late_ms, "ms", true)?;
    r.quantiles("poll_deltas", &w.poll_ms, "ms", true)?;
    r.metric("peak_rss_mb", peak_rss_mib()?, "MiB");

    if args.trace {
        let max_frame = w.max_frame.max(rd.max_frame);
        r.mean("net.server_us", rd.server_us.mean(), "us", queries);
        r.mean("net.overhead_us", rd.overhead_us.mean(), "us", queries);
        r.mean("net.response_bytes", rd.response_bytes.mean(), "B", queries);
        r.mean(
            "net.delta_bytes_per_tick",
            w.delta_bytes.mean(),
            "B",
            w.delta_bytes.len(),
        );
        r.metric("net.max_frame_bytes", max_frame as f64, "B");
        r.metric(
            "net.max_frame_share",
            max_frame as f64 / MAX_FRAME as f64,
            "ratio",
        );
        r.metric("net.rejected_admissions", rejected as f64, "count");
        r.mean(
            "sub.deltas_per_tick",
            w.deltas.mean(),
            "count",
            w.deltas.len(),
        );
        replay.report(r);
        crate::exec_deltas(r, &exec_before);
    }
    Ok(())
}

/// The subscriptions a set-up with `seed` registers, in order: menu
/// entry and region of interest.
fn subscriptions(seed: u64) -> Vec<(usize, Rect)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ab5);
    (0..SUBSCRIPTIONS)
        .map(|k| {
            let w = EXTENT * rng.random_range(0.2..0.5);
            let h = EXTENT * rng.random_range(0.2..0.5);
            let x = rng.random_range(0.0..EXTENT - w);
            let y = rng.random_range(0.0..EXTENT - h);
            (k % menu_len(), Rect::new(x, y, x + w, y + h))
        })
        .collect()
}

/// The traced run's in-process replay of the server's engine: for each
/// stream, the same simulator, subscriptions and ticks on a local
/// `FrEngine`, timing subscription maintenance and tracing one menu
/// query per tick. Its per-tick delta counts must equal what the wire
/// reported.
#[derive(Default)]
struct Replay {
    layers: FrLayers,
    maintain_us: Samples,
    dirty_cells: u64,
}

impl Replay {
    fn stream(&mut self, seed: u64, wire_deltas: &[u64], r: &mut Report) -> Result<(), String> {
        let mut sim = simulator(seed);
        let pop = sim.population();
        let mut fr = FrEngine::new(fr_config(), 0);
        fr.bulk_load(&pop, sim.t_now());
        let mut hist = mirror_histogram(&fr, &pop, sim.t_now());
        for (k, region) in subscriptions(seed) {
            let (count, offset) = menu(k);
            fr.register_subscription(count / (L * L), L, region, QtPolicy::NowPlus(offset))
                .map_err(|e| format!("replay subscribe: {e}"))?;
        }
        fr.maintain_subs(sim.t_now());
        let dirty_before = fr.obs_report().counter("dirty_cells").unwrap_or(0);
        for (k, &routed) in wire_deltas.iter().enumerate() {
            let t_next = sim.t_now() + 1;
            let batch = sim.tick();
            self.layers.apply(&mut fr, &mut hist, t_next, &batch);
            let start = Instant::now();
            let deltas = fr.maintain_subs(t_next);
            self.maintain_us.push(start.elapsed().as_secs_f64() * 1e6);
            r.check(deltas.len() as u64 == routed, || {
                format!(
                    "replayed tick {k} emitted {} deltas, the wire {routed}",
                    deltas.len()
                )
            });
            let (count, offset) = menu(k % menu_len());
            self.layers.query(
                &mut fr,
                &PdrQuery::new(count / (L * L), L, t_next + offset),
                r,
            );
        }
        self.dirty_cells += fr.obs_report().counter("dirty_cells").unwrap_or(0) - dirty_before;
        Ok(())
    }

    fn report(&self, r: &mut Report) {
        let ticks = self.maintain_us.len();
        r.mean("sub.maintain_us", self.maintain_us.mean(), "us", ticks);
        r.mean(
            "sub.dirty_cells",
            self.dirty_cells as f64 / ticks.max(1) as f64,
            "count",
            ticks,
        );
        self.layers.report(r);
    }
}
