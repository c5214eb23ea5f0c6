//! `hotspot_ingest`: write-heavy. A skewed stream with three drifting
//! hotspots feeds a static 2×2 sharded FR plane with per-shard codec2
//! WAL segments; a log-shipping replica pulls and ingests the WAL every
//! tick, the plane checkpoints every fifth tick, and one probe query
//! per tick runs on the plane.

use crate::calib::HostProbe;
use crate::stats::{peak_rss_mib, Report, Samples};
use crate::trace::{mirror_histogram, FrLayers};
use crate::{record_setup, stream_seed, Args, Phase};
use pdr_core::{DensityEngine, EngineSpec, Executor, FrConfig, FrEngine, PdrQuery, Wal, WalCodec};
use pdr_histogram::DensityHistogram;
use pdr_mobject::{TimeHorizon, Timestamp};
use pdr_workload::net::Json;
use pdr_workload::{SkewConfig, SkewedWorkload};
use std::time::{Duration, Instant};

const OBJECTS: usize = 1000;
const EXTENT: f64 = 200.0;
const HOTSPOTS: usize = 3;
const SIGMA: f64 = 0.04 * EXTENT;
const HOTSPOT_FRACTION: f64 = 0.6;
const DRIFT: f64 = 0.3;
/// Every object re-reports every `U` ticks: ~1000 updates per tick.
const U: u64 = 2;
const W: u64 = 4;
const M: u32 = 40;
const BUFFER_PAGES: usize = 1024;
const SHARDS: u32 = 2;
const L: f64 = 10.0;
/// The two-level ρ menu of the probe query, as counts per l².
const COUNTS: [f64; 2] = [8.0, 16.0];
const OFFSETS: [u64; 3] = [0, W / 2, W];
/// Checkpoint cadence in ticks (the serve default).
const CHECKPOINT_EVERY: u64 = 5;
/// Every this-many probes is compared against the replica and the
/// unsharded reference.
const CHECK_EVERY: usize = 5;
/// A run measures many short independent streams, each set up afresh
/// and run for this many ticks (one checkpoint each): query and ingest
/// cost depend on where the three hotspots land (overlapping, astride a
/// shard cut), and pooling many layouts keeps that from dominating the
/// run-to-run spread.
const TICKS_PER_STREAM: u64 = CHECKPOINT_EVERY;
/// Streams live at once. The run ticks each in turn and replaces one
/// with a fresh stream when it has run its ticks. Odd, so that the
/// probe menu, which follows the run's probe number, reaches every
/// stream at every level.
const SLOTS: usize = 7;

struct State {
    stream: SkewedWorkload,
    t: Timestamp,
    plane: Box<dyn DensityEngine>,
    replica: Box<dyn DensityEngine>,
    reference: FrEngine,
    /// Mirror histogram and WAL for the traced run.
    hist: Option<DensityHistogram>,
    wal: Option<Wal>,
    /// The plane's per-shard query totals at set-up, in the traced run.
    shards_before: Option<Vec<(f64, f64)>>,
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

fn setup(seed: u64, traced: bool) -> Result<State, String> {
    let stream = SkewedWorkload::new(SkewConfig {
        objects: OBJECTS,
        extent: EXTENT,
        hotspots: HOTSPOTS,
        sigma: SIGMA,
        hotspot_fraction: HOTSPOT_FRACTION,
        v_max: 1.0,
        drift: DRIFT,
        update_period: U,
        seed,
    });
    let spec = EngineSpec::Sharded {
        inner: Box::new(EngineSpec::Fr(fr_config())),
        sx: SHARDS,
        sy: SHARDS,
        l_max: L,
        adaptive: None,
    };
    let pop = stream.population();
    let mut plane = spec.try_build(0).map_err(|e| e.to_string())?;
    plane.bulk_load(&pop, 0);
    // The bulk load is not WAL-recorded; a checkpoint makes it
    // shippable, as the serve loop does after bootstrap.
    plane
        .checkpoint()
        .ok_or("the sharded plane has no checkpoint")?;
    let mut replica = spec.try_build_replica(0).map_err(|e| e.to_string())?;
    sync(plane.as_ref(), replica.as_mut())?;
    let mut reference = FrEngine::new(fr_config(), 0);
    reference.bulk_load(&pop, 0);
    let hist = traced.then(|| mirror_histogram(&reference, &pop, 0));
    let wal = traced.then(|| Wal::with_codec(WalCodec::V2));
    let shards_before = if traced {
        Some(shard_query_totals(plane.as_ref())?)
    } else {
        None
    };
    Ok(State {
        stream,
        t: 0,
        plane,
        replica,
        reference,
        hist,
        wal,
        shards_before,
    })
}

/// Sets up stream `j` of the run, timing it into `setups`.
fn fresh(args: &Args, j: usize, setups: &mut Vec<f64>) -> Result<State, String> {
    let start = Instant::now();
    let st = setup(stream_seed(args.seed, j), args.trace)?;
    setups.push(start.elapsed().as_secs_f64());
    Ok(st)
}

/// Adds a finished stream's per-shard query totals and owned counts
/// (traced run only).
fn retire(st: &State, shard_time: &mut [(f64, f64)], owned_max: &mut u64) -> Result<(), String> {
    let Some(before) = &st.shards_before else {
        return Ok(());
    };
    let after = shard_query_totals(st.plane.as_ref())?;
    for (acc, (a, b)) in shard_time.iter_mut().zip(after.iter().zip(before)) {
        acc.0 += a.0 - b.0;
        acc.1 += a.1 - b.1;
    }
    let plane = st.plane.as_sharded().ok_or("plane is not sharded")?;
    *owned_max = (*owned_max).max(plane.owned_objects().iter().copied().max().unwrap_or(0));
    Ok(())
}

/// One log-shipping round: cut time, ingest time, bytes shipped.
fn sync(
    plane: &dyn DensityEngine,
    replica: &mut dyn DensityEngine,
) -> Result<(Duration, Duration, usize), String> {
    let primary = plane.as_sharded().ok_or("plane is not sharded")?;
    let rep = replica.as_replica_mut().ok_or("replica is not a replica")?;
    let start = Instant::now();
    let ship = primary.wal_since(rep.applied_epoch(), rep.applied_offsets());
    let cut = start.elapsed();
    let bytes = ship.checkpoint.as_ref().map_or(0, Vec::len)
        + ship.segments.iter().map(|s| s.bytes.len()).sum::<usize>();
    let start = Instant::now();
    let ingested = rep.ingest(&ship);
    let ingest = start.elapsed();
    ingested.map_err(|e| format!("replica ingest: {e}"))?;
    if rep.lag() != 0 {
        return Err(format!("replica lags by {} after a sync", rep.lag()));
    }
    Ok((cut, ingest, bytes))
}

/// Per shard: `(query count, total query µs)` from the plane's
/// per-shard obs blocks.
fn shard_query_totals(plane: &dyn DensityEngine) -> Result<Vec<(f64, f64)>, String> {
    let text = plane.shard_metrics_json().ok_or("no shard metrics")?;
    let Json::Arr(blocks) = Json::parse(&text)? else {
        return Err("shard metrics are not an array".into());
    };
    blocks
        .iter()
        .map(|b| {
            let q = b
                .get("obs")
                .and_then(|o| o.get("stages"))
                .and_then(|s| s.get("query"))
                .ok_or("shard block lacks obs.stages.query")?;
            let count = q.get("count").and_then(Json::as_f64).ok_or("no count")?;
            let mean = q
                .get("mean_us")
                .and_then(Json::as_f64)
                .ok_or("no mean_us")?;
            Ok((count, count * mean))
        })
        .collect()
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    r.param("objects", OBJECTS);
    r.param("extent", EXTENT);
    r.param(
        "stream",
        format!(
            "{HOTSPOTS} hotspots sigma={SIGMA} fraction={HOTSPOT_FRACTION} drift={DRIFT} U={U}"
        ),
    );
    r.param(
        "plane",
        format!("static {SHARDS}x{SHARDS} FR m={M} l_max={L}, codec2 WAL"),
    );
    r.param("checkpoint_every", CHECKPOINT_EVERY);
    r.param(
        "probe",
        format!("l={L} counts {COUNTS:?} q_t offsets {OFFSETS:?}"),
    );
    r.param("check_every", CHECK_EVERY);
    r.param("ticks_per_stream", TICKS_PER_STREAM);
    r.param(
        "load",
        "1 closed-loop in-process client: tick, replica sync, 1 probe",
    );

    let mut setups = Vec::new();
    let mut query_ms = Samples::default();
    let mut tick_ms = Samples::default();
    let mut sync_ms = Samples::default();
    let mut cut_us = Samples::default();
    let mut ingest_us = Samples::default();
    let mut ship_bytes = Samples::default();
    let mut checkpoint_ms = Samples::default();
    let (mut wal_growth, mut updates) = (0usize, 0usize);
    let mut encode = Duration::ZERO;
    let mut layers = FrLayers::default();
    // Per shard index: (queries, total query µs) over the timed phases.
    let mut shard_time = vec![(0.0, 0.0); (SHARDS * SHARDS) as usize];
    let mut owned_max = 0u64;
    let mut probe = HostProbe::new();
    let exec_before = Executor::global().obs_report();

    let run_start = Instant::now();
    let mut slots = Vec::with_capacity(SLOTS);
    for j in 0..SLOTS {
        slots.push(fresh(args, j, &mut setups)?);
    }
    let mut streams = SLOTS;
    let phase = Phase::part(args, 0, 1, run_start);
    // The run's probe number; probe `i` ticks slot `i mod SLOTS`.
    let mut i = 0usize;
    while phase.running(&[&query_ms, &tick_ms])? {
        let slot = i % SLOTS;
        if slots[slot].t == TICKS_PER_STREAM {
            let next = fresh(args, streams, &mut setups)?;
            streams += 1;
            let done = std::mem::replace(&mut slots[slot], next);
            retire(&done, &mut shard_time, &mut owned_max)?;
        }
        let st = &mut slots[slot];
        let t_next = st.t + 1;
        st.t = t_next;
        let batch = st.stream.tick(t_next);
        updates += batch.len();
        let wal_before = plane_wal(st.plane.as_ref())?;
        let start = Instant::now();
        st.plane.advance_to(t_next);
        st.plane.apply_batch(&batch);
        let mut tick = start.elapsed();
        // Read before a checkpoint can move the offsets.
        wal_growth += plane_wal(st.plane.as_ref())?
            .checked_sub(wal_before)
            .ok_or_else(|| format!("WAL offsets shrank at tick {t_next}"))?;
        if t_next % CHECKPOINT_EVERY == 0 {
            let start = Instant::now();
            st.plane
                .checkpoint()
                .ok_or("the sharded plane has no checkpoint")?;
            checkpoint_ms.push_ms(start.elapsed());
            tick += start.elapsed();
        }
        tick_ms.push_ms(tick);
        r.ok();

        match sync(st.plane.as_ref(), st.replica.as_mut()) {
            Ok((cut, ingest, bytes)) => {
                sync_ms.push_ms(cut + ingest);
                cut_us.push(cut.as_secs_f64() * 1e6);
                ingest_us.push(ingest.as_secs_f64() * 1e6);
                ship_bytes.push(bytes as f64);
                r.ok();
            }
            Err(e) => r.fail(e),
        }

        match (st.hist.as_mut(), st.wal.as_mut()) {
            (Some(hist), Some(wal)) => {
                layers.apply(&mut st.reference, hist, t_next, &batch);
                let start = Instant::now();
                wal.append_advance(t_next);
                wal.append_batch(&batch);
                encode += start.elapsed();
            }
            _ => {
                st.reference.advance_to(t_next);
                st.reference.apply_batch(&batch);
            }
        }

        let q = PdrQuery::new(
            COUNTS[i % COUNTS.len()] / (L * L),
            L,
            t_next + OFFSETS[(i / COUNTS.len()) % OFFSETS.len()],
        );
        let start = Instant::now();
        let answer = st.plane.query(&q);
        query_ms.push_ms(start.elapsed());
        r.ok();

        // Checks, outside the timers. The traced run compares every
        // probe (it queries the reference anyway).
        let reference = if args.trace {
            Some(layers.query(&mut st.reference, &q, r).0)
        } else if i.is_multiple_of(CHECK_EVERY) {
            Some(st.reference.query(&q))
        } else {
            None
        };
        if let Some(reference) = reference {
            r.check(reference.regions.rects() == answer.regions.rects(), || {
                format!("sharded plane differs from the unsharded reference at {q:?}")
            });
        }
        if i.is_multiple_of(CHECK_EVERY) {
            let replica = st.replica.query(&q);
            r.check(replica.regions.rects() == answer.regions.rects(), || {
                format!("replica differs from the plane at {q:?}")
            });
        }
        i += 1;
        probe.probe();
    }
    for st in &slots {
        retire(st, &mut shard_time, &mut owned_max)?;
    }
    let queries = query_ms.len();

    record_setup(r, setups);
    let scaled_query_ms = r.host_quantiles("query", &query_ms, &probe, true)?;
    r.mean(
        "query_qps",
        queries as f64 / (scaled_query_ms.sum() / 1e3),
        "1/s",
        queries,
    );
    r.host_quantiles("tick", &tick_ms, &probe, true)?;
    r.host_quantiles("replica_sync", &sync_ms, &probe, false)?;
    r.host_probe(&probe)?;
    r.mean(
        "wal_bytes_per_update",
        wal_growth as f64 / updates as f64,
        "B",
        updates,
    );
    r.metric("peak_rss_mb", peak_rss_mib()?, "MiB");

    if args.trace {
        layers.report(r);
        let upd = updates as f64;
        r.mean(
            "wal.encode_us",
            encode.as_secs_f64() * 1e6 / upd,
            "us",
            updates,
        );
        r.mean(
            "wal.checkpoint_ms",
            checkpoint_ms.mean(),
            "ms",
            checkpoint_ms.len(),
        );
        r.mean("replica.cut_us", cut_us.mean(), "us", cut_us.len());
        r.mean("replica.ingest_us", ingest_us.mean(), "us", ingest_us.len());
        r.mean(
            "replica.bytes_per_tick",
            ship_bytes.mean(),
            "B",
            ship_bytes.len(),
        );
        let per_shard: Vec<f64> = shard_time.iter().map(|(n, us)| us / n.max(1.0)).collect();
        let max = per_shard.iter().copied().fold(0.0, f64::max);
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        r.mean("shard.query_us_max", max, "us", queries);
        r.mean(
            "shard.skew",
            max / mean.max(f64::MIN_POSITIVE),
            "ratio",
            queries,
        );
        r.mean(
            "shard.overhead_us",
            query_ms.mean() * 1e3 - max,
            "us",
            queries,
        );
        r.metric("shard.owned_max", owned_max as f64, "count");
        crate::exec_deltas(r, &exec_before);
    }
    Ok(())
}

/// Σ of the plane's per-shard WAL offsets.
fn plane_wal(plane: &dyn DensityEngine) -> Result<usize, String> {
    Ok(plane
        .as_sharded()
        .ok_or("plane is not sharded")?
        .wal_offsets()
        .iter()
        .sum())
}
