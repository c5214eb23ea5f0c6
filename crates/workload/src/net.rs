//! Dependency-free TCP serving front-end.
//!
//! `pdrcli serve --listen` exposes a [`ServeDriver`] over a socket so
//! concurrent clients exercise the engines the way a deployment would:
//! many connections issuing pointwise-dense region queries against one
//! shared engine plane while the update stream keeps ticking. Every
//! query runs through [`DensityEngine::try_query`]'s shared-read
//! contract, so client concurrency composes with the intra-query
//! parallelism running on the process-wide
//! [`Executor`](pdr_core::Executor).
//!
//! ## Wire protocol
//!
//! Length-prefixed JSON over TCP: each frame is a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 JSON (at most
//! [`MAX_FRAME`]). Requests are objects with an `"op"` key; responses
//! always carry `"ok"`. Requests on one connection are answered in
//! order, but clients may *pipeline* — write several frames before
//! reading any response.
//!
//! Every frame leaves in **one write** (prefix and payload assembled in
//! one buffer), and every stream — [`NetClient::connect`]'s and each
//! one the server accepts — sets `TCP_NODELAY`. Both matter: Nagle's
//! algorithm holds a small segment back while an earlier small one is
//! unacknowledged, and the peer delays that ACK by ~40 ms. A length
//! prefix written on its own, or two small frames in flight at once
//! (pipelined responses), would pay that stall on every frame.
//!
//! A response that would exceed [`MAX_FRAME`] is not sent; the request
//! is answered `{"ok":false,"error":"frame_too_large","bytes":N,
//! "max":4194304}` (with its `id` echoed) and the connection stays
//! open. `poll_deltas` never gets there: an oversize backlog is
//! reported lost instead (see "Subscriptions").
//!
//! | op            | request fields                               | response                                  |
//! |---------------|----------------------------------------------|-------------------------------------------|
//! | `query`       | `rho`, `l`, `q_t`[, `engine`, `rects`]       | `regions`, `area`, `t`, `micros`, `deadline_miss`[, `rects`] |
//! | `check`       | `rho`, `l`, `q_t`[, `engine`]                | `query` fields plus `exact`, `sym_diff`   |
//! | `subscribe`   | `rho`, `l`, `q_t`[, `region`, `engine`]      | `sub`, `engine`                           |
//! | `unsubscribe` | `sub`[, `engine`]                            | `removed`                                 |
//! | `poll_deltas` | —                                            | `deltas` array, `lost`                    |
//! | `tick`        | —                                            | `updates`, `t_now`, `deltas`              |
//! | `ship_log`    | `epoch`, `offsets`[, `repl_epoch`, `engine`] | `epoch`, `repl_epoch`, `part_epoch`, `t_base`, `checkpoint` (base64 or null), `segments` |
//! | `sync`        | [`engine`]                                   | `bootstrapped`, `records`, `updates`, `lag`, `applied_t`, `attempts` |
//! | `promote`     | [`engine`]                                   | `promoted`, `repl_epoch`, `applied_t`     |
//! | `rebalance`   | [`action` (`"split"`/`"merge"`), `engine`]   | `action`, `retired`, `created`, `records_replayed` (live reports bulk-loaded into the new leaves), `leaves`, `part_epoch` |
//! | `metrics`     | —                                            | `metrics` object (counters, clients, exec[, replica])|
//! | `shutdown`    | —                                            | `draining: true`; server drains and exits |
//!
//! Any request may carry a numeric `"id"`, echoed verbatim in its
//! response — pipelining clients use it to correlate responses and to
//! discard duplicate frames an injected (or real) network fault
//! delivered twice.
//!
//! `q_t` is the *offset* from the server's current clock (how far into
//! the prediction window the query looks), not an absolute timestamp —
//! the server keeps ticking underneath the clients, so absolute times
//! would go stale in flight. The response's `t` reports the resolved
//! absolute timestamp.
//!
//! ## Subscriptions
//!
//! `subscribe` registers a standing PDR query (`q_t` becomes a sliding
//! now-plus-offset; `region` is an optional `[x_lo,y_lo,x_hi,y_hi]`
//! region of interest defaulting to the monitored bounds) and answers
//! with its id. The initial answer arrives as the subscription's first
//! delta — everything `added` — so a client reconstructs the standing
//! answer *purely* by replaying deltas. Each `tick` takes the
//! engines' incremental maintenance output and routes every delta to
//! the connection owning its subscription, bounded by [`SUB_BUF_CAP`]
//! per connection: on overflow the buffer is dropped and the next
//! `poll_deltas` reports `"lost":true`, telling the client its replayed
//! answer is stale and it must resubscribe. A backlog too large for one
//! frame is dropped the same way: that poll answers `"lost":true` with
//! no deltas. A `"degraded":true` delta
//! means the same thing (the engine crash-recovered or a shard went
//! offline mid-maintenance). Closing a connection unregisters its
//! subscriptions.
//!
//! ## Replication
//!
//! A front-end started as a replica ([`NetServerConfig::replica_of`])
//! serves a read-only [`Replica`] engine instead of a primary plane:
//! `tick` is refused, `query`/`subscribe` answer from the replicated
//! state, and `q_t` resolves against the replica's *applied* protocol
//! time (the last `advance_to` it replayed), not a local clock. A
//! `sync` op makes the replica pull one [`LogShipment`] from its
//! primary's `ship_log` op — sealed checkpoints and per-shard WAL
//! segment deltas ride the JSON frames base64-encoded — and ingest it;
//! the response reports the staleness bound (`lag`). At equal applied
//! offsets the replica's answers are bit-identical to the primary's.
//! Until its first bootstrap lands, a replica holds no state and
//! answers `query`/`check` with `{"ok":false,"error":"not_synced"}`.
//!
//! ## Backpressure
//!
//! Admission is bounded: at most `capacity` queries may be in flight
//! across all connections. A query arriving beyond that is rejected
//! immediately with `{"ok":false,"error":"overloaded",
//! "retry_after_ms":N}` and counted in `rejected_admissions` — the
//! client is expected to back off and retry, so overload degrades into
//! latency instead of memory growth.
//!
//! ## Deadlines and faults
//!
//! Each admitted query is timed against the [`FaultPolicy`] deadline;
//! a miss is reported in the response and counted per client. Transient
//! storage faults are retried in place (the read path is `&self`, so a
//! retry needs no exclusive access) up to `max_attempts` with the
//! policy's seeded backoff; queries that still fail count as
//! `failed_queries`.
//!
//! ## Failover
//!
//! The `promote` op turns a replica front-end into a writable primary:
//! the applied state is sealed under a fresh checkpoint, the
//! replication epoch bumps strictly past the one it replicated, and
//! the front-end stops pulling from its old primary. Epoch fencing
//! protects the promoted lineage: a deposed primary that observes the
//! newer epoch on a `ship_log` request fences itself — writes are
//! dropped and counted, `tick` answers a typed `fenced` error — and a
//! replica refuses shipments cut under a stale epoch with the same
//! typed error. Zero silent divergence either way.
//!
//! ## Timeouts and network faults
//!
//! Connection reads are bounded: a peer that stalls mid-frame is torn
//! down after [`NetServerConfig::frame_timeout`] and an idle
//! connection is reaped after [`NetServerConfig::idle_timeout`]
//! (counted as `reaped_connections`), so a dropped peer can never pin
//! a worker thread. A seeded [`NetFaultInjector`] can be installed
//! beneath the framing layer ([`NetServerConfig::faults`],
//! [`NetClient::with_faults`]) to drop, delay, duplicate, truncate or
//! reset frames deterministically; fired counters surface in the
//! `metrics` op as `netfaults`.
//!
//! ## Shutdown
//!
//! The `shutdown` op is the clean-exit path: the acceptor stops, every
//! connection drains, and the final summary reports
//! `"leaked_workers"` — worker threads that failed to join. (A signal
//! handler would need a dependency or `unsafe`; the CLI documents that
//! SIGTERM simply kills the process, while scripted shutdown goes
//! through the protocol.)

use crate::netfault::{FrameFault, NetFaultInjector};
use crate::serve::{backoff, FaultPolicy, ServeDriver, SubscribeError};
use pdr_core::{
    AnswerDelta, Executor, LogShipment, PdrQuery, QtPolicy, RecoverError, ShippedSegment, SubId,
};
use pdr_geometry::Rect;
use pdr_storage::seeded::SeededRng;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Largest accepted frame payload (4 MiB — bootstrap shipments carry a
/// base64 full-plane checkpoint).
pub const MAX_FRAME: usize = 1 << 22;

/// Most deltas buffered per connection between `poll_deltas` calls;
/// beyond this the buffer is dropped and the connection flagged lost.
pub const SUB_BUF_CAP: usize = 1024;

// ---------------------------------------------------------------------
// Minimal JSON value + parser (server side of the wire protocol; the
// emitting side reuses the same hand-rolled formatting as `pdr_core::obs`).
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            // Surrogates are rejected rather than paired —
                            // the protocol never emits them.
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                _ => {
                    // Consume the whole run of plain bytes in one step.
                    // (Re-validating the remaining buffer per character
                    // is quadratic — fatal on the multi-megabyte base64
                    // checkpoint strings `ship_log` responses carry.)
                    // Continuation bytes are ≥ 0x80, so scanning
                    // bytewise never splits a UTF-8 scalar.
                    let start = self.i;
                    while let Some(&c) = self.b.get(self.i) {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        if c < 0x20 {
                            return Err("raw control character in string".into());
                        }
                        self.i += 1;
                    }
                    let run =
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "invalid UTF-8")?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("bad array at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("bad object at offset {}", self.i)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Assembles one frame — the 4-byte big-endian length prefix followed
/// by the payload — into a single buffer, so it leaves in one write.
fn frame_bytes(payload: &str) -> io::Result<Vec<u8>> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Writes one length-prefixed frame with a single `write_all` (see
/// the module doc's "Wire protocol" for why it must not be split).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    w.write_all(&frame_bytes(payload)?)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary. Any
/// socket error — a read timeout included — fails the read at once
/// (see [`read_frame_within`]).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    read_frame_within(r, None, None)
}

/// Writes one frame through an optional fault injector: the injector's
/// verdict may drop the frame (reported as success — the fault is
/// silent by design), delay it, write it twice, tear it mid-payload,
/// or reset the connection instead.
pub fn write_frame_faulted(
    stream: &mut TcpStream,
    payload: &str,
    inj: Option<&NetFaultInjector>,
) -> io::Result<()> {
    let Some(inj) = inj else {
        return write_frame(stream, payload);
    };
    match inj.check_frame() {
        FrameFault::Deliver => write_frame(stream, payload),
        FrameFault::Drop => Ok(()),
        FrameFault::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            write_frame(stream, payload)
        }
        FrameFault::Duplicate => {
            write_frame(stream, payload)?;
            write_frame(stream, payload)
        }
        FrameFault::Truncate => {
            // The length prefix promises more than arrives — the reader
            // observes a torn frame, never a silently short payload.
            let frame = frame_bytes(payload)?;
            stream.write_all(&frame[..4 + payload.len() / 2])?;
            stream.flush()?;
            let _ = stream.shutdown(Shutdown::Both);
            Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected torn frame",
            ))
        }
        FrameFault::Reset => {
            let _ = stream.shutdown(Shutdown::Both);
            Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected connection reset",
            ))
        }
    }
}

/// Poll granularity for deadline-bounded reads; also how often a
/// blocked read re-checks the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// The one frame parser behind both ends of the wire: reads one frame,
/// `Ok(None)` on clean EOF at a frame boundary.
///
/// Without `patience` (the client, [`read_frame`]) any socket error — a
/// read timeout included — fails the read at once. With `patience =
/// (idle, frame)` (the server) the stream must have a read timeout of
/// [`READ_POLL`] installed, which turns blocking reads into poll steps:
/// the read fails with `TimedOut` when the peer idles past `idle`
/// without starting a frame or stalls longer than `frame` between bytes
/// once a frame has begun (a half-written length prefix must not pin
/// the worker), and a `shutdown` flag observed at a frame boundary
/// reads as a clean close, so drain never hangs on a silent peer.
pub fn read_frame_within(
    r: &mut impl Read,
    patience: Option<(Duration, Duration)>,
    shutdown: Option<&AtomicBool>,
) -> io::Result<Option<String>> {
    let started = Instant::now();
    let mut last_progress = started;
    // Fills `buf` completely; `Ok(false)` on a clean close before the
    // first byte of a frame (`boundary`: `buf` is the length prefix).
    let mut fill = |buf: &mut [u8], boundary: bool| -> io::Result<bool> {
        let mut got = 0usize;
        while got < buf.len() {
            match r.read(&mut buf[got..]) {
                Ok(0) if boundary && got == 0 => return Ok(false),
                Ok(0) => {
                    let what = if boundary { "header" } else { "payload" };
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("torn frame {what}"),
                    ));
                }
                Ok(n) => {
                    got += n;
                    last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) && patience.is_some() =>
                {
                    let (idle, frame) = patience.expect("checked by the guard");
                    if boundary && got == 0 {
                        if shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
                            return Ok(false);
                        }
                        if started.elapsed() > idle {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "idle connection reaped",
                            ));
                        }
                    } else if last_progress.elapsed() > frame {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stalled mid-frame",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    };
    let mut header = [0u8; 4];
    if !fill(&mut header, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut buf = vec![0u8; len];
    fill(&mut buf, false)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

// ---------------------------------------------------------------------
// Base64 (binary checkpoint/segment bytes inside JSON frames)
// ---------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn b64_val(c: u8) -> Option<u32> {
    match c {
        b'A'..=b'Z' => Some((c - b'A') as u32),
        b'a'..=b'z' => Some((c - b'a' + 26) as u32),
        b'0'..=b'9' => Some((c - b'0' + 52) as u32),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

/// Standard base64 with padding.
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let n = u32::from_be_bytes([
            0,
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ]);
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Inverse of [`b64_encode`]; rejects bad lengths, bytes outside the
/// alphabet, and misplaced padding.
pub fn b64_decode(text: &str) -> Result<Vec<u8>, String> {
    let b = text.as_bytes();
    if !b.len().is_multiple_of(4) {
        return Err("base64 length must be a multiple of 4".into());
    }
    let groups = b.len() / 4;
    let mut out = Vec::with_capacity(groups * 3);
    for (i, chunk) in b.chunks(4).enumerate() {
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        let misplaced = match pad {
            0 => false,
            1 => chunk[3] != b'=',
            2 => chunk[2] != b'=' || chunk[3] != b'=',
            _ => true,
        };
        if misplaced || (pad > 0 && i + 1 != groups) {
            return Err("bad base64 padding".into());
        }
        let mut n = 0u32;
        for &c in &chunk[..4 - pad] {
            n = (n << 6) | b64_val(c).ok_or("byte outside the base64 alphabet")?;
        }
        n <<= 6 * pad as u32;
        let bytes = n.to_be_bytes();
        out.extend_from_slice(&bytes[1..4 - pad]);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Log shipments on the wire
// ---------------------------------------------------------------------

/// Parses a `ship_log` response back into a [`LogShipment`].
pub fn parse_shipment(resp: &Json) -> Result<LogShipment, String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("ship_log failed: {resp:?}"));
    }
    let field = |k: &str| {
        resp.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("shipment without {k}"))
    };
    let shards = field("shards")? as u32;
    let epoch = field("epoch")?;
    let repl_epoch = field("repl_epoch")?;
    let part_epoch = resp.get("part_epoch").and_then(Json::as_u64).unwrap_or(0);
    let t_base = field("t_base")?;
    let checkpoint = match resp.get("checkpoint") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(b64_decode(s)?),
        Some(_) => return Err("checkpoint must be a base64 string".into()),
    };
    let Some(Json::Arr(items)) = resp.get("segments") else {
        return Err("shipment without segments".into());
    };
    let mut segments = Vec::with_capacity(items.len());
    for it in items {
        let shard = it
            .get("shard")
            .and_then(Json::as_u64)
            .ok_or("segment without shard")? as u32;
        let start = it
            .get("start")
            .and_then(Json::as_u64)
            .ok_or("segment without start")? as usize;
        let bytes = b64_decode(
            it.get("bytes")
                .and_then(Json::as_str)
                .ok_or("segment without bytes")?,
        )?;
        segments.push(ShippedSegment {
            shard,
            start,
            bytes,
        });
    }
    Ok(LogShipment {
        shards,
        epoch,
        repl_epoch,
        part_epoch,
        t_base,
        checkpoint,
        segments,
    })
}

/// One replica pull: asks `primary` for everything after `(epoch,
/// offsets)` via `ship_log` and returns the parsed shipment. Empty
/// offsets request a bootstrap. `repl_epoch` is the requester's
/// replication epoch — a primary that observes a newer epoch than its
/// own fences itself and refuses the pull.
pub fn fetch_shipment(
    primary: &mut NetClient,
    engine: Option<&str>,
    epoch: u64,
    offsets: &[usize],
    repl_epoch: u64,
) -> Result<LogShipment, String> {
    let resp = primary
        .request(&ship_log_body(engine, epoch, offsets, repl_epoch))
        .map_err(|e| format!("ship_log: {e}"))?;
    parse_shipment(&resp)
}

/// The `ship_log` request [`fetch_shipment`] sends.
fn ship_log_body(engine: Option<&str>, epoch: u64, offsets: &[usize], repl_epoch: u64) -> String {
    let engine_part = engine
        .map(|l| format!(",\"engine\":{l:?}"))
        .unwrap_or_default();
    let offs: Vec<String> = offsets.iter().map(|o| o.to_string()).collect();
    format!(
        "{{\"op\":\"ship_log\",\"epoch\":{epoch},\"offsets\":[{}],\
         \"repl_epoch\":{repl_epoch}{engine_part}}}",
        offs.join(",")
    )
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A blocking protocol client. [`request`](NetClient::request) is the
/// lockstep path; [`send`](NetClient::send) + [`recv`](NetClient::recv)
/// pipeline several requests down the socket before reading responses.
pub struct NetClient {
    stream: TcpStream,
    faults: Option<Arc<NetFaultInjector>>,
}

impl NetClient {
    /// Connects to a serving front-end.
    pub fn connect(addr: &str) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            faults: None,
        })
    }

    /// Installs a seeded fault injector beneath this client's frame
    /// writes (the client side of a chaos scenario).
    pub fn with_faults(mut self, inj: Arc<NetFaultInjector>) -> NetClient {
        self.faults = Some(inj);
        self
    }

    /// Bounds this client's socket reads and writes, so a dropped
    /// response (or a wedged peer) surfaces as a `TimedOut`/`WouldBlock`
    /// error instead of blocking forever.
    pub fn set_io_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        self.stream.set_read_timeout(read)?;
        self.stream.set_write_timeout(write)
    }

    /// Sends one request frame without waiting for the response.
    pub fn send(&mut self, body: &str) -> io::Result<()> {
        write_frame_faulted(&mut self.stream, body, self.faults.as_deref())
    }

    /// Reads and parses the next response frame.
    pub fn recv(&mut self) -> io::Result<Json> {
        let frame = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        Json::parse(&frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Reads the next response frame as raw text (for callers matching
    /// `"id"` echoes themselves, e.g. to discard duplicated frames).
    pub fn recv_raw(&mut self) -> io::Result<String> {
        read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, body: &str) -> io::Result<Json> {
        self.send(body)?;
        self.recv()
    }

    /// [`request`](NetClient::request) returning the raw response text
    /// (for callers that relay the JSON instead of inspecting it).
    pub fn request_raw(&mut self, body: &str) -> io::Result<String> {
        self.send(body)?;
        read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Tunables of the serving front-end.
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Maximum queries in flight across all connections; admissions
    /// beyond this are rejected with backpressure.
    pub capacity: usize,
    /// Retry hint attached to overload rejections.
    pub retry_after_ms: u64,
    /// Shut the process-wide executor down (joining its workers) after
    /// the last connection drains, and report any worker that failed to
    /// join as leaked. The CLI turns this on; library tests leave the
    /// shared pool alive for the rest of the process.
    pub shutdown_pool: bool,
    /// Primary front-end address this server replicates. `Some` makes
    /// the server a read-only replica: `tick` is refused and the `sync`
    /// op pulls `ship_log` shipments from here — until a `promote` op
    /// turns the front-end into a writable primary.
    pub replica_of: Option<String>,
    /// Reap a connection that stays idle (no frame started) this long.
    pub idle_timeout: Duration,
    /// Tear down a connection whose peer stalls this long mid-frame.
    pub frame_timeout: Duration,
    /// Seeded network fault injector applied beneath every frame this
    /// server writes (`None` injects nothing).
    pub faults: Option<Arc<NetFaultInjector>>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            capacity: 32,
            retry_after_ms: 5,
            shutdown_pool: false,
            replica_of: None,
            idle_timeout: Duration::from_secs(120),
            frame_timeout: Duration::from_secs(30),
            faults: None,
        }
    }
}

/// Per-connection counters, reported by the `metrics` op.
#[derive(Clone, Debug, Default)]
pub struct ClientNetStats {
    /// Queries admitted and answered (including failed ones).
    pub queries: u64,
    /// Admitted queries whose latency exceeded the policy deadline.
    pub deadline_misses: u64,
    /// Queries rejected at admission.
    pub rejected: u64,
}

struct NetShared {
    inflight: AtomicUsize,
    served: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    deadline_misses: AtomicU64,
    /// Connections torn down by the read deadlines (idle or stalled
    /// mid-frame) — a dropped peer never pins a worker.
    reaped: AtomicU64,
    shutdown: AtomicBool,
    /// The primary this front-end replicates, if any. Mutable shared
    /// state (not just config) because a `promote` op clears it at
    /// runtime.
    replica_of: RwLock<Option<String>>,
    clients: Mutex<Vec<ClientNetStats>>,
    subs: Mutex<SubRouter>,
}

impl NetShared {
    fn is_replica(&self) -> bool {
        self.replica_of
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .is_some()
    }

    fn primary_addr(&self) -> Option<String> {
        self.replica_of
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// Routes emitted deltas to the connections that own the
/// subscriptions, with one bounded buffer per connection.
#[derive(Default)]
struct SubRouter {
    /// `(engine label, sub id)` → connection id. Sub ids are allocated
    /// per engine table, so the label is part of the key.
    routes: HashMap<(String, u64), usize>,
    bufs: HashMap<usize, ConnDeltas>,
}

/// One connection's pending delta frames (pre-serialized JSON).
#[derive(Default)]
struct ConnDeltas {
    entries: Vec<String>,
    lost: bool,
}

/// Pushes the driver's labelled deltas into the owning connections' buffers;
/// returns how many were routed (unrouted deltas — e.g. for
/// driver-internal subscription mixes — are dropped).
fn route_deltas(shared: &NetShared, pending: Vec<(String, AnswerDelta)>) -> usize {
    let mut router = shared.subs.lock().unwrap_or_else(|p| p.into_inner());
    let mut routed = 0usize;
    for (label, d) in pending {
        let Some(&conn) = router.routes.get(&(label.clone(), d.id.0)) else {
            continue;
        };
        let buf = router.bufs.entry(conn).or_default();
        if buf.lost {
            continue;
        }
        if buf.entries.len() >= SUB_BUF_CAP {
            // A slow poller: keeping a torn prefix would let the client
            // replay a wrong answer, so drop everything and flag it.
            buf.entries.clear();
            buf.lost = true;
            continue;
        }
        buf.entries.push(format!(
            "{{\"engine\":{label:?},\"delta\":{}}}",
            d.to_json()
        ));
        routed += 1;
    }
    routed
}

/// The serving front-end: owns the listener and the driver.
pub struct NetServer {
    listener: TcpListener,
    driver: Arc<RwLock<ServeDriver>>,
    policy: FaultPolicy,
    cfg: NetServerConfig,
    shared: Arc<NetShared>,
}

impl NetServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) around a
    /// bootstrapped driver.
    pub fn bind(
        addr: &str,
        driver: ServeDriver,
        policy: FaultPolicy,
        cfg: NetServerConfig,
    ) -> io::Result<NetServer> {
        Ok(NetServer {
            listener: TcpListener::bind(addr)?,
            driver: Arc::new(RwLock::new(driver)),
            policy,
            shared: Arc::new(NetShared {
                inflight: AtomicUsize::new(0),
                served: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                deadline_misses: AtomicU64::new(0),
                reaped: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                replica_of: RwLock::new(cfg.replica_of.clone()),
                clients: Mutex::new(Vec::new()),
                subs: Mutex::new(SubRouter::default()),
            }),
            cfg,
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections until a `shutdown` op arrives,
    /// then drains every connection and returns the final summary JSON
    /// (`served`, `rejected_admissions`, `failed_queries`,
    /// `leaked_workers`, …).
    pub fn serve(self) -> String {
        let mut handles = Vec::new();
        let mut next_id = 0usize;
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(_) => break,
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // The wake-up connection (or a late client) after
                // shutdown: drop it and stop accepting.
                break;
            }
            let id = next_id;
            next_id += 1;
            self.shared
                .clients
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(ClientNetStats::default());
            let driver = Arc::clone(&self.driver);
            let shared = Arc::clone(&self.shared);
            let policy = self.policy;
            let cfg = self.cfg.clone();
            let local = self.listener.local_addr();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pdr-net-{id}"))
                    .spawn(move || handle_conn(stream, id, driver, shared, policy, cfg, local))
                    .expect("spawning a connection handler"),
            );
        }
        let spawned = handles.len();
        let joined = handles
            .into_iter()
            .map(|h| h.join())
            .filter(Result::is_ok)
            .count();
        let pool = Executor::global();
        let pool_workers = pool.workers();
        let pool_joined = if self.cfg.shutdown_pool {
            pool.shutdown()
        } else {
            pool_workers
        };
        let leaked = (spawned - joined) + pool_workers.saturating_sub(pool_joined);
        let netfaults = self
            .cfg
            .faults
            .as_ref()
            .map(|f| f.stats().to_json())
            .unwrap_or_else(|| "null".into());
        format!(
            "{{\"shutdown\":true,\"served\":{},\"rejected_admissions\":{},\"failed_queries\":{},\
             \"deadline_misses\":{},\"connections\":{},\"reaped_connections\":{},\
             \"netfaults\":{},\"pool_workers\":{},\"leaked_workers\":{}}}",
            self.shared.served.load(Ordering::SeqCst),
            self.shared.rejected.load(Ordering::SeqCst),
            self.shared.failed.load(Ordering::SeqCst),
            self.shared.deadline_misses.load(Ordering::SeqCst),
            spawned,
            self.shared.reaped.load(Ordering::SeqCst),
            netfaults,
            pool_workers,
            leaked
        )
    }
}

/// Serves one connection until EOF, error, or shutdown, then tears
/// down whatever subscriptions it owned.
fn handle_conn(
    mut stream: TcpStream,
    id: usize,
    driver: Arc<RwLock<ServeDriver>>,
    shared: Arc<NetShared>,
    policy: FaultPolicy,
    cfg: NetServerConfig,
    local: io::Result<SocketAddr>,
) {
    conn_loop(&mut stream, id, &driver, &shared, &policy, &cfg, &local);
    drop_conn_subs(id, &driver, &shared);
}

fn conn_loop(
    stream: &mut TcpStream,
    id: usize,
    driver: &RwLock<ServeDriver>,
    shared: &NetShared,
    policy: &FaultPolicy,
    cfg: &NetServerConfig,
    local: &io::Result<SocketAddr>,
) {
    // Per-connection deterministic jitter stream for fault backoff.
    let mut rng = SeededRng::new(policy.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Bounded reads: the 50 ms poll quantum lets the loop observe both
    // the idle/frame deadlines and the shared shutdown flag without a
    // dedicated watchdog thread. No-delay: a response must not wait on
    // the peer's delayed ACK (module doc, "Wire protocol").
    if stream.set_read_timeout(Some(READ_POLL)).is_err()
        || stream.set_write_timeout(Some(cfg.frame_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    loop {
        let frame = match read_frame_within(
            stream,
            Some((cfg.idle_timeout, cfg.frame_timeout)),
            Some(&shared.shutdown),
        ) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(e) => {
                if e.kind() == io::ErrorKind::TimedOut {
                    shared.reaped.fetch_add(1, Ordering::SeqCst);
                }
                return;
            }
        };
        let (resp, shutdown) = dispatch(&frame, id, driver, shared, policy, cfg, &mut rng);
        if write_frame_faulted(stream, &resp, cfg.faults.as_deref()).is_err() {
            return;
        }
        if shutdown {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the acceptor so it observes the flag.
            if let Ok(addr) = local {
                let _ = TcpStream::connect(addr);
            }
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn err_json(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{msg}\"}}")
}

/// Echoes a request's numeric `id` into a response object, so clients
/// surviving duplicated/delayed frames can match answers to requests.
fn attach_id(resp: String, id: Option<u64>) -> String {
    match id {
        Some(n) if resp.ends_with('}') => {
            format!("{},\"id\":{}}}", &resp[..resp.len() - 1], n)
        }
        _ => resp,
    }
}

/// Handles one request frame; the bool asks the caller to begin
/// shutdown after writing the response.
fn dispatch(
    frame: &str,
    id: usize,
    driver: &RwLock<ServeDriver>,
    shared: &NetShared,
    policy: &FaultPolicy,
    cfg: &NetServerConfig,
    rng: &mut SeededRng,
) -> (String, bool) {
    let req = match Json::parse(frame) {
        Ok(v) => v,
        Err(_) => return (err_json("bad json"), false),
    };
    let req_id = req.get("id").and_then(Json::as_u64);
    let (resp, shutdown) = dispatch_op(&req, id, driver, shared, policy, cfg, rng);
    let resp = attach_id(resp, req_id);
    if resp.len() > MAX_FRAME {
        // Unsendable as one frame: answer a typed error instead, so the
        // client learns why and the connection stays usable.
        let err = format!(
            "{{\"ok\":false,\"error\":\"frame_too_large\",\"bytes\":{},\"max\":{MAX_FRAME}}}",
            resp.len()
        );
        return (attach_id(err, req_id), shutdown);
    }
    (resp, shutdown)
}

#[allow(clippy::too_many_arguments)]
fn dispatch_op(
    req: &Json,
    id: usize,
    driver: &RwLock<ServeDriver>,
    shared: &NetShared,
    policy: &FaultPolicy,
    cfg: &NetServerConfig,
    rng: &mut SeededRng,
) -> (String, bool) {
    let op = req.get("op").and_then(Json::as_str).unwrap_or("");
    match op {
        "query" | "check" => (
            serve_query(req, op == "check", id, driver, shared, policy, cfg, rng),
            false,
        ),
        "tick" => {
            if shared.is_replica() {
                return (err_json("replica is read-only; use sync"), false);
            }
            {
                let d = driver.read().unwrap_or_else(|p| p.into_inner());
                let fenced = d.labels().iter().any(|l| {
                    d.engine(l)
                        .and_then(|e| e.as_sharded())
                        .is_some_and(|p| p.is_fenced())
                });
                if fenced {
                    return (
                        err_json("fenced: a newer primary epoch exists; writes refused"),
                        false,
                    );
                }
            }
            let (updates, t_now, pending) = {
                let mut d = driver.write().unwrap_or_else(|p| p.into_inner());
                let (updates, pending) = d.tick();
                (updates, d.simulator().t_now(), pending)
            };
            let routed = route_deltas(shared, pending);
            (
                format!(
                    "{{\"ok\":true,\"updates\":{updates},\"t_now\":{t_now},\"deltas\":{routed}}}"
                ),
                false,
            )
        }
        "ship_log" => (serve_ship_log(req, driver), false),
        "sync" => (serve_sync(req, driver, shared, policy, rng), false),
        "promote" => (serve_promote(req, driver, shared), false),
        "subscribe" => (serve_subscribe(req, id, driver, shared), false),
        "unsubscribe" => (serve_unsubscribe(req, id, driver, shared), false),
        "poll_deltas" => (poll_deltas(shared, id), false),
        "rebalance" => (serve_rebalance(req, driver), false),
        "metrics" => (metrics_json(driver, shared, cfg), false),
        "shutdown" => ("{\"ok\":true,\"draining\":true}".to_string(), true),
        // Test-only: a response past the frame cap, to drive the
        // oversize path end to end.
        #[cfg(test)]
        "oversize" => (
            format!("{{\"ok\":true,\"pad\":\"{}\"}}", "x".repeat(MAX_FRAME)),
            false,
        ),
        _ => (err_json("unknown op"), false),
    }
}

/// Handles a `poll_deltas` op: drains the connection's buffered deltas.
/// A drain too large for one frame is dropped and answered `lost:true`
/// with no deltas — the contract of a [`SUB_BUF_CAP`] overflow, so the
/// client resubscribes instead of replaying past a silent gap.
fn poll_deltas(shared: &NetShared, conn: usize) -> String {
    let mut router = shared.subs.lock().unwrap_or_else(|p| p.into_inner());
    let buf = router.bufs.entry(conn).or_default();
    let mut lost = std::mem::take(&mut buf.lost);
    let mut deltas = std::mem::take(&mut buf.entries).join(",");
    // Leaves room for the envelope and an echoed request id.
    if deltas.len() > MAX_FRAME - 128 {
        lost = true;
        deltas.clear();
    }
    format!("{{\"ok\":true,\"lost\":{lost},\"deltas\":[{deltas}]}}")
}

/// Handles a `subscribe` op: registers a standing query on one engine
/// and routes its delta stream to this connection.
fn serve_subscribe(
    req: &Json,
    conn: usize,
    driver: &RwLock<ServeDriver>,
    shared: &NetShared,
) -> String {
    let (Some(rho), Some(l), Some(q_t)) = (
        req.get("rho").and_then(Json::as_f64),
        req.get("l").and_then(Json::as_f64),
        req.get("q_t").and_then(Json::as_u64),
    ) else {
        return err_json("subscribe needs rho, l, q_t");
    };
    let region = match req.get("region") {
        None | Some(Json::Null) => None,
        Some(Json::Arr(c)) if c.len() == 4 => {
            let v: Vec<f64> = c.iter().filter_map(Json::as_f64).collect();
            if v.len() == 4 && v[0] < v[2] && v[1] < v[3] {
                Some(Rect::new(v[0], v[1], v[2], v[3]))
            } else {
                return err_json("region must be a finite [x_lo,y_lo,x_hi,y_hi]");
            }
        }
        Some(_) => return err_json("region must be a finite [x_lo,y_lo,x_hi,y_hi]"),
    };
    let mut d = driver.write().unwrap_or_else(|p| p.into_inner());
    let label = match resolve_label(req, &d) {
        Ok(label) => label,
        Err(e) => return e,
    };
    match d.subscribe_on(&label, rho, l, region, QtPolicy::NowPlus(q_t)) {
        Ok((sid, initial)) => {
            {
                let mut router = shared.subs.lock().unwrap_or_else(|p| p.into_inner());
                router.routes.insert((label.clone(), sid.0), conn);
                router.bufs.entry(conn).or_default();
            }
            // Route the initial snapshot (and whatever else maintenance
            // just committed) so the first poll already replays it.
            let pending = initial.into_iter().map(|d| (label.clone(), d)).collect();
            drop(d);
            route_deltas(shared, pending);
            format!("{{\"ok\":true,\"sub\":{},\"engine\":{label:?}}}", sid.0)
        }
        Err(SubscribeError::NoSuchEngine(_)) => err_json("no such engine"),
        Err(SubscribeError::Rejected(e)) => format!(
            "{{\"ok\":false,\"error\":\"subscribe\",\"detail\":{:?}}}",
            format!("{e}")
        ),
    }
}

/// Handles an `unsubscribe` op.
fn serve_unsubscribe(
    req: &Json,
    conn: usize,
    driver: &RwLock<ServeDriver>,
    shared: &NetShared,
) -> String {
    let Some(sub) = req.get("sub").and_then(Json::as_u64) else {
        return err_json("unsubscribe needs sub");
    };
    let mut d = driver.write().unwrap_or_else(|p| p.into_inner());
    let label = match resolve_label(req, &d) {
        Ok(label) => label,
        Err(e) => return e,
    };
    let owned = {
        let router = shared.subs.lock().unwrap_or_else(|p| p.into_inner());
        router.routes.get(&(label.clone(), sub)) == Some(&conn)
    };
    if !owned {
        return "{\"ok\":true,\"removed\":false}".to_string();
    }
    let removed = d.unsubscribe_on(&label, SubId(sub));
    drop(d);
    let mut router = shared.subs.lock().unwrap_or_else(|p| p.into_inner());
    router.routes.remove(&(label, sub));
    format!("{{\"ok\":true,\"removed\":{removed}}}")
}

/// Resolves the `engine` request field (or the first registered
/// engine) to a label.
fn resolve_label(req: &Json, d: &ServeDriver) -> Result<String, String> {
    match req.get("engine").and_then(Json::as_str) {
        Some(l) => Ok(l.to_string()),
        None => d
            .labels()
            .first()
            .cloned()
            .ok_or_else(|| err_json("no engines registered")),
    }
}

/// Handles a `ship_log` op on a primary: cuts a checkpoint + WAL-delta
/// shipment from the sharded plane behind an engine for a log-shipping
/// replica. Shipments are self-describing — a replica whose `(epoch,
/// offsets)` no longer match gets a bootstrap, not an error.
fn serve_ship_log(req: &Json, driver: &RwLock<ServeDriver>) -> String {
    let epoch = req.get("epoch").and_then(Json::as_u64).unwrap_or(0);
    // The requester's replication epoch: a follower of a *newer*
    // primary fences this plane permanently (split-brain guard).
    let req_repl = req.get("repl_epoch").and_then(Json::as_u64).unwrap_or(0);
    let offsets: Vec<usize> = match req.get("offsets") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Arr(items)) => {
            let v: Vec<usize> = items
                .iter()
                .filter_map(Json::as_u64)
                .map(|x| x as usize)
                .collect();
            if v.len() != items.len() {
                return err_json("offsets must be non-negative integers");
            }
            v
        }
        Some(_) => return err_json("offsets must be an array"),
    };
    let d = driver.read().unwrap_or_else(|p| p.into_inner());
    let label = match resolve_label(req, &d) {
        Ok(l) => l,
        Err(resp) => return resp,
    };
    let Some(engine) = d.engine(&label) else {
        return err_json("no such engine");
    };
    let Some(plane) = engine.as_sharded() else {
        return err_json("engine is not a sharded primary");
    };
    if plane.fence_if_stale(req_repl) {
        return format!(
            "{{\"ok\":false,\"error\":\"fenced\",\"stale\":{},\"current\":{}}}",
            plane.repl_epoch(),
            req_repl.max(plane.repl_epoch())
        );
    }
    let ship = plane.wal_since(epoch, &offsets);
    let checkpoint = ship
        .checkpoint
        .as_ref()
        .map(|cp| format!("\"{}\"", b64_encode(cp)))
        .unwrap_or_else(|| "null".into());
    let segments: Vec<String> = ship
        .segments
        .iter()
        .map(|s| {
            format!(
                "{{\"shard\":{},\"start\":{},\"bytes\":\"{}\"}}",
                s.shard,
                s.start,
                b64_encode(&s.bytes)
            )
        })
        .collect();
    format!(
        "{{\"ok\":true,\"engine\":{label:?},\"shards\":{},\"epoch\":{},\"repl_epoch\":{},\
         \"part_epoch\":{},\"t_base\":{},\"checkpoint\":{},\"segments\":[{}]}}",
        ship.shards,
        ship.epoch,
        ship.repl_epoch,
        ship.part_epoch,
        ship.t_base,
        checkpoint,
        segments.join(",")
    )
}

/// Handles a `sync` op on a replica front-end: pulls one shipment from
/// the configured primary and ingests it. The network round trip runs
/// without holding any driver lock; only the final ingest takes the
/// write lock.
///
/// Transient network errors retry in place with the policy's seeded
/// backoff; an ingest `Mismatch` (gap past the watermark — the primary
/// restarted or GC'd the segment) forces one full re-bootstrap fetch.
/// A `fenced` refusal (either side) and a `frame_too_large` shipment
/// are terminal — a retry would only repeat them — and are answered as
/// typed errors.
fn serve_sync(
    req: &Json,
    driver: &RwLock<ServeDriver>,
    shared: &NetShared,
    policy: &FaultPolicy,
    rng: &mut SeededRng,
) -> String {
    let Some(primary) = shared.primary_addr() else {
        return err_json("not a replica front-end");
    };
    let (label, epoch, offsets, my_repl) = {
        let d = driver.read().unwrap_or_else(|p| p.into_inner());
        let label = match resolve_label(req, &d) {
            Ok(l) => l,
            Err(resp) => return resp,
        };
        let Some(rep) = d.engine(&label).and_then(|e| e.as_replica()) else {
            return err_json("engine is not a replica");
        };
        (
            label,
            rep.applied_epoch(),
            rep.applied_offsets().to_vec(),
            rep.repl_epoch(),
        )
    };
    let mut attempts: u32 = 0;
    let mut force_bootstrap = false;
    loop {
        attempts += 1;
        let body = if force_bootstrap {
            ship_log_body(Some(&label), 0, &[], my_repl)
        } else {
            ship_log_body(Some(&label), epoch, &offsets, my_repl)
        };
        let fetch = NetClient::connect(&primary)
            .and_then(|mut c| c.request(&body))
            .map_err(|e| format!("ship_log from {primary}: {e}"));
        if let Ok(resp) = &fetch {
            if let Some(err @ ("fenced" | "frame_too_large")) =
                resp.get("error").and_then(Json::as_str)
            {
                return format!(
                    "{{\"ok\":false,\"error\":\"{err}\",\"detail\":{:?},\
                     \"attempts\":{attempts}}}",
                    format!("{resp:?}")
                );
            }
        }
        let ship = match fetch.and_then(|resp| parse_shipment(&resp)) {
            Ok(s) => s,
            Err(e) => {
                if attempts >= policy.max_attempts {
                    return format!(
                        "{{\"ok\":false,\"error\":\"sync\",\"detail\":{e:?},\
                         \"attempts\":{attempts}}}"
                    );
                }
                backoff(policy, attempts, rng);
                continue;
            }
        };
        let mut d = driver.write().unwrap_or_else(|p| p.into_inner());
        let Some(rep) = d.engine_mut(&label).and_then(|e| e.as_replica_mut()) else {
            return err_json("engine is not a replica");
        };
        match rep.ingest(&ship) {
            Ok(r) => {
                return format!(
                    "{{\"ok\":true,\"bootstrapped\":{},\"records\":{},\"updates\":{},\
                     \"duplicates\":{},\"lag\":{},\"applied_t\":{},\"attempts\":{}}}",
                    r.bootstrapped,
                    r.records,
                    r.updates,
                    r.duplicates,
                    r.lag,
                    rep.applied_t(),
                    attempts
                )
            }
            Err(RecoverError::Fenced { stale, current }) => {
                return format!(
                    "{{\"ok\":false,\"error\":\"fenced\",\"stale\":{stale},\
                     \"current\":{current},\"attempts\":{attempts}}}"
                )
            }
            Err(e) => {
                let retriable = matches!(e, RecoverError::Mismatch(_)) && !force_bootstrap;
                if retriable && attempts < policy.max_attempts {
                    force_bootstrap = true;
                    drop(d);
                    backoff(policy, attempts, rng);
                    continue;
                }
                return format!(
                    "{{\"ok\":false,\"error\":\"ingest\",\"detail\":{:?},\"attempts\":{}}}",
                    format!("{e}"),
                    attempts
                );
            }
        }
    }
}

/// Handles a `promote` op: turns a replica front-end into a writable
/// primary. Seals the applied state, bumps the replication epoch past
/// the replicated lineage, and stops the front-end pulling from its
/// old primary. Idempotent — promoting a promoted node re-answers its
/// epoch.
fn serve_promote(req: &Json, driver: &RwLock<ServeDriver>, shared: &NetShared) -> String {
    let mut d = driver.write().unwrap_or_else(|p| p.into_inner());
    let label = match resolve_label(req, &d) {
        Ok(l) => l,
        Err(resp) => return resp,
    };
    match d.promote_replica(&label) {
        Ok((repl_epoch, applied_t)) => {
            drop(d);
            let mut primary = shared.replica_of.write().unwrap_or_else(|p| p.into_inner());
            *primary = None;
            format!(
                "{{\"ok\":true,\"promoted\":true,\"repl_epoch\":{repl_epoch},\
                 \"applied_t\":{applied_t}}}"
            )
        }
        Err(e) => format!(
            "{{\"ok\":false,\"error\":\"promote\",\"detail\":{:?}}}",
            format!("{e}")
        ),
    }
}

/// Connection teardown: unregisters every subscription the connection
/// owns and frees its delta buffer.
fn drop_conn_subs(conn: usize, driver: &RwLock<ServeDriver>, shared: &NetShared) {
    let owned: Vec<(String, u64)> = {
        let mut router = shared.subs.lock().unwrap_or_else(|p| p.into_inner());
        router.bufs.remove(&conn);
        let owned: Vec<(String, u64)> = router
            .routes
            .iter()
            .filter(|(_, c)| **c == conn)
            .map(|(k, _)| k.clone())
            .collect();
        for key in &owned {
            router.routes.remove(key);
        }
        owned
    };
    if owned.is_empty() {
        return;
    }
    let mut d = driver.write().unwrap_or_else(|p| p.into_inner());
    for (label, sub) in owned {
        let _ = d.unsubscribe_on(&label, SubId(sub));
    }
}

/// Admission + execution of a `query`/`check` op.
#[allow(clippy::too_many_arguments)]
fn serve_query(
    req: &Json,
    check: bool,
    id: usize,
    driver: &RwLock<ServeDriver>,
    shared: &NetShared,
    policy: &FaultPolicy,
    cfg: &NetServerConfig,
    rng: &mut SeededRng,
) -> String {
    let (Some(rho), Some(l), Some(q_t)) = (
        req.get("rho").and_then(Json::as_f64),
        req.get("l").and_then(Json::as_f64),
        req.get("q_t").and_then(Json::as_u64),
    ) else {
        return err_json("query needs rho, l, q_t");
    };
    // Bounded admission: reject rather than queue without limit.
    if shared.inflight.fetch_add(1, Ordering::SeqCst) >= cfg.capacity {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        with_client(shared, id, |c| c.rejected += 1);
        return format!(
            "{{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":{}}}",
            cfg.retry_after_ms
        );
    }
    let start = Instant::now();
    let (outcome, t_abs, latency) = {
        let d = driver.read().unwrap_or_else(|p| p.into_inner());
        let engine = match req.get("engine").and_then(Json::as_str) {
            Some(label) => d.engine(label),
            None => d.labels().first().and_then(|l| d.engine(l)),
        };
        // `q_t` is an offset into the prediction window, resolved
        // against the serving clock under the same read lock the query
        // runs under — a concurrent tick cannot strand it mid-request.
        // On a primary that clock is the simulator's; on a replica it
        // is the applied protocol time of the replicated stream (the
        // local simulator never ticks), so at equal applied offsets the
        // same `q_t` hits the same absolute timestamp on both.
        let t_abs = match engine.and_then(|e| e.as_replica()) {
            Some(rep) => rep.applied_t() + q_t,
            None => d.simulator().t_now() + q_t,
        };
        let q = PdrQuery::new(rho, l, t_abs);
        let answer = match engine {
            None => Err(err_json("no such engine")),
            // A replica that has never bootstrapped holds no state: an
            // empty answer would be indistinguishable from a real one.
            Some(engine)
                if engine
                    .as_replica()
                    .is_some_and(|r| r.bootstraps() == 0 && !r.promoted()) =>
            {
                Err(err_json("not_synced"))
            }
            Some(engine) => {
                // Transient faults retry in place under the read lock —
                // the query path is `&self`, so no recovery is needed
                // for a retry to be meaningful. A panic (e.g. an offset
                // outside the engine's horizon) is answered as an
                // error, not a dead connection; the read path mutates
                // no engine state that could be observed broken.
                let mut attempt = 1;
                loop {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        engine.try_query(&q)
                    }));
                    match r {
                        Ok(Ok(a)) => break Ok((a, attempt)),
                        Ok(Err(_)) if attempt < policy.max_attempts => {
                            backoff(policy, attempt, rng);
                            attempt += 1;
                        }
                        Ok(Err(e)) => {
                            break Err(format!(
                                "{{\"ok\":false,\"error\":\"storage\",\"detail\":{:?}}}",
                                format!("{e:?}")
                            ))
                        }
                        Err(_) => break Err(err_json("query panicked")),
                    }
                }
            }
        };
        // The deadline covers admission + the engine answer; the
        // `check` op's brute-force verification sweep runs after the
        // clock stops, so it cannot poison deadline accounting.
        let latency = start.elapsed();
        let outcome = answer.map(|(a, attempts)| {
            let sym = check.then(|| d.ground_truth(&q).symmetric_difference_area(&a.regions));
            (a, sym, attempts)
        });
        (outcome, t_abs, latency)
    };
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    let miss = policy.deadline.is_some_and(|dl| latency > dl);
    shared.served.fetch_add(1, Ordering::SeqCst);
    if miss {
        shared.deadline_misses.fetch_add(1, Ordering::SeqCst);
    }
    with_client(shared, id, |c| {
        c.queries += 1;
        if miss {
            c.deadline_misses += 1;
        }
    });
    match outcome {
        Ok((a, sym, attempts)) => {
            let check_part = sym
                .map(|s| format!(",\"exact\":{},\"sym_diff\":{}", s < 1e-9, fmt_f64(s)))
                .unwrap_or_default();
            // With `"rects":true` the canonical rect list rides along
            // (shortest-roundtrip floats, so client-side replay checks
            // compare bit-identical coordinates).
            let rects_part = if req.get("rects").and_then(Json::as_bool) == Some(true) {
                let items: Vec<String> = a
                    .regions
                    .rects()
                    .iter()
                    .map(|r| {
                        format!(
                            "[{},{},{},{}]",
                            fmt_f64(r.x_lo),
                            fmt_f64(r.y_lo),
                            fmt_f64(r.x_hi),
                            fmt_f64(r.y_hi)
                        )
                    })
                    .collect();
                format!(",\"rects\":[{}]", items.join(","))
            } else {
                String::new()
            };
            format!(
                "{{\"ok\":true,\"regions\":{},\"area\":{},\"t\":{},\"micros\":{},\
                 \"attempts\":{},\"deadline_miss\":{}{}{}}}",
                a.regions.len(),
                fmt_f64(a.regions.area()),
                t_abs,
                latency.as_micros(),
                attempts,
                miss,
                check_part,
                rects_part
            )
        }
        Err(resp) => {
            shared.failed.fetch_add(1, Ordering::SeqCst);
            resp
        }
    }
}

fn with_client(shared: &NetShared, id: usize, f: impl FnOnce(&mut ClientNetStats)) {
    let mut clients = shared.clients.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(c) = clients.get_mut(id) {
        f(c);
    }
}

/// JSON-safe float formatting (finite shortest-roundtrip).
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Handles a `rebalance` op: forces one topology change on a sharded
/// primary — `"action":"split"` splits the hottest splittable leaf,
/// `"action":"merge"` merges the coldest complete sibling group.
/// Exists so tests and smoke scripts can exercise migration without
/// waiting for the automatic policy; limits still apply.
fn serve_rebalance(req: &Json, driver: &RwLock<ServeDriver>) -> String {
    let action = req.get("action").and_then(Json::as_str).unwrap_or("split");
    let mut d = driver.write().unwrap_or_else(|p| p.into_inner());
    let label = match resolve_label(req, &d) {
        Ok(l) => l,
        Err(resp) => return resp,
    };
    let Some(plane) = d.engine_mut(&label).and_then(|e| e.as_sharded_mut()) else {
        return err_json("engine is not a sharded primary");
    };
    let result = match action {
        "split" => plane.rebalance_split(),
        "merge" => plane.rebalance_merge(),
        _ => return err_json("action must be \"split\" or \"merge\""),
    };
    match result {
        Ok(r) => format!(
            "{{\"ok\":true,\"action\":{:?},\"retired\":{:?},\"created\":{:?},\
             \"records_replayed\":{},\"leaves\":{},\"part_epoch\":{}}}",
            r.action, r.retired, r.created, r.records_replayed, r.leaves, r.part_epoch
        ),
        Err(e) => format!("{{\"ok\":false,\"error\":\"{e}\"}}"),
    }
}

fn metrics_json(driver: &RwLock<ServeDriver>, shared: &NetShared, cfg: &NetServerConfig) -> String {
    let pool = Executor::global();
    let clients = {
        let clients = shared.clients.lock().unwrap_or_else(|p| p.into_inner());
        clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{{\"client\":{},\"queries\":{},\"deadline_misses\":{},\"rejected\":{}}}",
                    i, c.queries, c.deadline_misses, c.rejected
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let (t_now, objects, replica, repl, partition) = {
        let d = driver.read().unwrap_or_else(|p| p.into_inner());
        let default_engine = d.labels().first().and_then(|l| d.engine(l));
        // `replica_lag` and friends ride along whenever the default
        // engine is a log-shipping replica.
        let replica = d
            .labels()
            .first()
            .and_then(|l| d.engine(l))
            .and_then(|e| e.as_replica())
            .map(|r| {
                format!(
                    "{{\"replica_lag\":{},\"applied_t\":{},\"epoch\":{},\"shipments\":{},\
                     \"bootstraps\":{},\"duplicates\":{},\"fenced_shipments\":{}}}",
                    r.lag(),
                    r.applied_t(),
                    r.applied_epoch(),
                    r.shipments(),
                    r.bootstraps(),
                    r.duplicates(),
                    r.fenced_shipments()
                )
            });
        // Replication-epoch state of the writable plane (if any):
        // fencing counters prove a deposed primary dropped its writes.
        let repl = default_engine.and_then(|e| e.as_sharded()).map(|p| {
            format!(
                "{{\"repl_epoch\":{},\"fenced\":{},\"fenced_writes\":{}}}",
                p.repl_epoch(),
                p.is_fenced(),
                p.fenced_writes()
            )
        });
        // The partition tree (leaf tiles, depths, owned/ghost loads)
        // of whichever sharded plane backs the default engine —
        // primary or the plane inside a replica.
        let partition = default_engine
            .and_then(|e| e.as_sharded().or_else(|| e.as_replica().map(|r| r.plane())))
            .map(|p| p.partition_json());
        (
            d.simulator().t_now(),
            d.simulator().population().len(),
            replica,
            repl,
            partition,
        )
    };
    let wire_subs = {
        let router = shared.subs.lock().unwrap_or_else(|p| p.into_inner());
        router.routes.len()
    };
    let netfaults = cfg
        .faults
        .as_ref()
        .map(|f| f.stats().to_json())
        .unwrap_or_else(|| "null".into());
    let role = if shared.is_replica() {
        "replica"
    } else {
        "primary"
    };
    format!(
        "{{\"ok\":true,\"metrics\":{{\"t_now\":{},\"objects\":{},\"role\":{:?},\
         \"pool_workers\":{},\
         \"queue_depth\":{},\"inflight\":{},\"served\":{},\"rejected_admissions\":{},\
         \"failed_queries\":{},\"deadline_misses\":{},\"reaped_connections\":{},\
         \"wire_subs\":{},\"replica\":{},\"repl\":{},\"partition\":{},\"netfaults\":{},\
         \"clients\":[{}],\"exec\":{}}}}}",
        t_now,
        objects,
        role,
        pool.workers(),
        pool.queue_depth(),
        shared.inflight.load(Ordering::SeqCst),
        shared.served.load(Ordering::SeqCst),
        shared.rejected.load(Ordering::SeqCst),
        shared.failed.load(Ordering::SeqCst),
        shared.deadline_misses.load(Ordering::SeqCst),
        shared.reaped.load(Ordering::SeqCst),
        wire_subs,
        replica.unwrap_or_else(|| "null".into()),
        repl.unwrap_or_else(|| "null".into()),
        partition.unwrap_or_else(|| "null".into()),
        netfaults,
        clients,
        pool.obs_report().to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkConfig, RoadNetwork, TrafficSimulator};
    use pdr_core::{EngineSpec, FrConfig};
    use pdr_mobject::TimeHorizon;
    use pdr_storage::CostModel;

    fn driver(n: usize) -> ServeDriver {
        let net = RoadNetwork::generate(
            &NetworkConfig {
                extent: 200.0,
                nodes: 150,
                hotspots: 3,
                spread: 0.05,
                background: 0.2,
                degree: 3,
            },
            13,
        );
        let sim = TrafficSimulator::new(net, n, 17, 4, 0);
        let fr = FrConfig {
            extent: 200.0,
            m: 40,
            horizon: TimeHorizon::new(4, 4),
            buffer_pages: 64,
            threads: 1,
        };
        let mut d = ServeDriver::new(sim, CostModel::PAPER_DEFAULT)
            .with_engine("fr", EngineSpec::Fr(fr).build(0));
        d.bootstrap();
        d
    }

    #[test]
    fn base64_round_trips_and_rejects_garbage() {
        let mut lcg = 0x1234_5678_9abc_def0u64;
        for len in 0..=67usize {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (lcg >> 56) as u8
                })
                .collect();
            let enc = b64_encode(&bytes);
            assert_eq!(enc.len() % 4, 0);
            assert_eq!(b64_decode(&enc).unwrap(), bytes, "len {len}");
        }
        assert_eq!(
            b64_encode(b"any carnal pleasure."),
            "YW55IGNhcm5hbCBwbGVhc3VyZS4="
        );
        assert!(b64_decode("abc").is_err(), "length not a multiple of 4");
        assert!(b64_decode("ab!=").is_err(), "byte outside alphabet");
        assert!(b64_decode("a=bc").is_err(), "padding in the middle");
        assert!(b64_decode("====").is_err(), "all padding");
        assert!(b64_decode("Ab==Cdef").is_err(), "padded group not last");
    }

    #[test]
    fn json_parser_round_trips_protocol_documents() {
        let doc = r#"{"op":"query","rho":0.015,"l":20.0,"q_t":3,"engine":"fr","tags":[1,true,null,"a\nb"]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("query"));
        assert_eq!(v.get("rho").and_then(Json::as_f64), Some(0.015));
        assert_eq!(v.get("q_t").and_then(Json::as_u64), Some(3));
        let Json::Arr(tags) = v.get("tags").unwrap() else {
            panic!("tags must parse as an array");
        };
        assert_eq!(tags[1], Json::Bool(true));
        assert_eq!(tags[3], Json::Str("a\nb".into()));
        assert!(Json::parse("{\"x\":1} trailing").is_err());
        assert!(Json::parse("{\"x\":}").is_err());
        assert!(Json::parse("1e999").is_err(), "non-finite numbers rejected");
    }

    #[test]
    fn frames_round_trip_and_oversize_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"tick\"}").unwrap();
        write_frame(&mut buf, "{}").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"op\":\"tick\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{}"));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        let mut torn = &buf[..2];
        assert!(read_frame(&mut torn).is_err(), "torn header must error");
        let huge = [0xFFu8, 0xFF, 0xFF, 0xFF];
        assert!(
            read_frame(&mut &huge[..]).is_err(),
            "oversize length rejected"
        );
    }

    /// Counts `write` calls; everything written is kept for a read-back.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(b);
            Ok(b.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A frame leaves in exactly one `write`: a length prefix written
    /// on its own would wait out the peer's delayed ACK under Nagle.
    #[test]
    fn every_frame_is_a_single_write() {
        for len in [0usize, 1, 300, 70_000, MAX_FRAME] {
            let payload = "x".repeat(len);
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "payload of {len} bytes");
            assert_eq!(
                read_frame(&mut &w.bytes[..]).unwrap().as_deref(),
                Some(payload.as_str())
            );
        }
        let mut w = CountingWriter::default();
        assert!(write_frame(&mut w, &"x".repeat(MAX_FRAME + 1)).is_err());
        assert_eq!(w.writes, 0, "an oversize frame writes nothing");
    }

    #[test]
    fn client_sockets_are_no_delay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let c = NetClient::connect(&addr).unwrap();
        assert!(
            c.stream.nodelay().unwrap(),
            "NetClient must set TCP_NODELAY"
        );
    }

    /// Loopback latency guard: round trips must not pay the ~40 ms
    /// delayed-ACK floor each. Lockstep trips stall on a frame split
    /// across two writes; padded requests span more than one 64 KiB
    /// loopback segment; pipelined triples make the server write two
    /// small responses back to back (even when the client's own Nagle
    /// coalesces the last two requests), and Nagle holds the second
    /// until the client's delayed ACK unless the sockets are no-delay.
    #[test]
    fn loopback_round_trips_stay_below_the_delayed_ack_floor() {
        let server = NetServer::bind(
            "127.0.0.1:0",
            driver(50),
            FaultPolicy::default(),
            NetServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || server.serve());
        let mut c = NetClient::connect(&addr).unwrap();
        let padded = format!("{{\"op\":\"metrics\",\"pad\":\"{}\"}}", "x".repeat(100_000));
        let started = Instant::now();
        let mut trips = 0u32;
        for k in 0..60 {
            let body = if k % 3 == 0 {
                padded.as_str()
            } else {
                "{\"op\":\"metrics\"}"
            };
            let r = c.request(body).unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
            trips += 1;
        }
        for _ in 0..40 {
            for _ in 0..3 {
                c.send("{\"op\":\"metrics\"}").unwrap();
            }
            for _ in 0..3 {
                let r = c.recv().unwrap();
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
                trips += 1;
            }
        }
        let elapsed = started.elapsed();
        c.request("{\"op\":\"shutdown\"}").unwrap();
        server.join().unwrap();
        assert!(
            elapsed < Duration::from_secs(1),
            "{trips} round trips took {elapsed:?}; a framing or no-delay \
             regression costs ~40 ms each"
        );
    }

    /// A response over [`MAX_FRAME`] is answered with a typed error that
    /// echoes the request id, and the connection keeps serving.
    #[test]
    fn oversize_response_is_a_typed_error_on_a_live_connection() {
        let server = NetServer::bind(
            "127.0.0.1:0",
            driver(50),
            FaultPolicy::default(),
            NetServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || server.serve());
        let mut c = NetClient::connect(&addr).unwrap();
        let r = c.request("{\"op\":\"oversize\",\"id\":5}").unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{r:?}");
        assert_eq!(
            r.get("error").and_then(Json::as_str),
            Some("frame_too_large")
        );
        assert_eq!(r.get("max").and_then(Json::as_u64), Some(MAX_FRAME as u64));
        assert!(r.get("bytes").and_then(Json::as_u64).unwrap() > MAX_FRAME as u64);
        assert_eq!(r.get("id").and_then(Json::as_u64), Some(5));
        let r = c.request("{\"op\":\"metrics\",\"id\":6}").unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
        assert_eq!(r.get("id").and_then(Json::as_u64), Some(6));
        c.request("{\"op\":\"shutdown\"}").unwrap();
        let summary = server.join().unwrap();
        assert!(summary.contains("\"connections\":1"), "{summary}");
    }

    /// A delta backlog too large for one frame is answered `lost:true`
    /// with no deltas, so a client never replays later deltas after a
    /// silently dropped drain: the loss is reported no later than the
    /// first poll that carries a later delta.
    #[test]
    fn oversize_poll_reports_the_backlog_lost() {
        let server = NetServer::bind(
            "127.0.0.1:0",
            driver(50),
            FaultPolicy::default(),
            NetServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let shared = Arc::clone(&server.shared);
        let server = std::thread::spawn(move || server.serve());
        let mut c = NetClient::connect(&addr).unwrap();
        c.request("{\"op\":\"metrics\"}").unwrap();
        {
            // The only connection is id 0; fill its buffer past the
            // frame cap while staying under `SUB_BUF_CAP` entries.
            let mut router = shared.subs.lock().unwrap();
            router.routes.insert(("fr".into(), 7), 0);
            let pad = "x".repeat(8 * 1024);
            let buf = router.bufs.entry(0).or_default();
            for _ in 0..(MAX_FRAME / pad.len() + 8) {
                buf.entries
                    .push(format!("{{\"engine\":\"fr\",\"pad\":\"{pad}\"}}"));
            }
            assert!(buf.entries.len() < SUB_BUF_CAP);
        }
        let poll = |c: &mut NetClient| {
            let r = c.request("{\"op\":\"poll_deltas\",\"id\":3}").unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
            assert_eq!(r.get("id").and_then(Json::as_u64), Some(3));
            let Some(Json::Arr(deltas)) = r.get("deltas") else {
                panic!("deltas must be an array: {r:?}");
            };
            (r.get("lost").and_then(Json::as_bool), deltas.len())
        };
        assert_eq!(poll(&mut c), (Some(true), 0), "oversize backlog");
        let later = AnswerDelta {
            id: SubId(7),
            now: 1,
            q_t: 1,
            added: Vec::new(),
            removed: Vec::new(),
            degraded: false,
            resync: false,
        };
        assert_eq!(route_deltas(&shared, vec![("fr".into(), later)]), 1);
        assert_eq!(poll(&mut c), (Some(false), 1), "later deltas flow again");
        assert_eq!(poll(&mut c), (Some(false), 0));
        c.request("{\"op\":\"shutdown\"}").unwrap();
        server.join().unwrap();
    }

    /// Full protocol pass over a real socket: ticks advance the clock,
    /// answers are exact against the ground truth, metrics expose the
    /// executor counters, and shutdown reports zero leaked workers.
    #[test]
    fn tcp_round_trip_serves_exact_answers_and_clean_shutdown() {
        let server = NetServer::bind(
            "127.0.0.1:0",
            driver(300),
            FaultPolicy::default(),
            NetServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || server.serve());
        let mut c = NetClient::connect(&addr).unwrap();
        for _ in 0..3 {
            let r = c.request("{\"op\":\"tick\"}").unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
            let r = c
                .request("{\"op\":\"check\",\"rho\":0.015,\"l\":20.0,\"q_t\":2}")
                .unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
            assert_eq!(
                r.get("exact").and_then(Json::as_bool),
                Some(true),
                "FR must be exact over the wire: {r:?}"
            );
        }
        // Pipelining: several requests on the wire before any read.
        for _ in 0..4 {
            c.send("{\"op\":\"query\",\"rho\":0.015,\"l\":20.0,\"q_t\":1}")
                .unwrap();
        }
        for _ in 0..4 {
            let r = c.recv().unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        }
        let m = c.request("{\"op\":\"metrics\"}").unwrap();
        let metrics = m.get("metrics").expect("metrics object");
        assert_eq!(
            metrics.get("failed_queries").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            metrics.get("rejected_admissions").and_then(Json::as_u64),
            Some(0)
        );
        assert!(metrics.get("exec").is_some(), "executor counters present");
        let clients = metrics.get("clients").unwrap();
        let Json::Arr(clients) = clients else {
            panic!("clients must be an array")
        };
        assert_eq!(clients.len(), 1);
        assert_eq!(clients[0].get("queries").and_then(Json::as_u64), Some(7));
        let r = c.request("{\"op\":\"shutdown\"}").unwrap();
        assert_eq!(r.get("draining").and_then(Json::as_bool), Some(true));
        let summary = server.join().unwrap();
        assert!(
            summary.contains("\"leaked_workers\":0"),
            "clean shutdown: {summary}"
        );
        assert!(summary.contains("\"failed_queries\":0"), "{summary}");
    }

    /// Applies one `poll_deltas` response to the client-side mirrors,
    /// asserting nothing was lost or degraded; returns the delta count.
    fn apply_wire_deltas(resp: &Json, mirrors: &mut HashMap<u64, Vec<Rect>>) -> usize {
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        assert_eq!(resp.get("lost").and_then(Json::as_bool), Some(false));
        let Json::Arr(deltas) = resp.get("deltas").expect("deltas array") else {
            panic!("deltas must be an array: {resp:?}");
        };
        let parse_rects = |v: &Json| -> Vec<Rect> {
            let Json::Arr(items) = v else {
                panic!("rect list: {v:?}")
            };
            items
                .iter()
                .map(|r| {
                    let Json::Arr(c) = r else {
                        panic!("rect: {r:?}")
                    };
                    let c: Vec<f64> = c.iter().filter_map(Json::as_f64).collect();
                    Rect::new(c[0], c[1], c[2], c[3])
                })
                .collect()
        };
        for entry in deltas {
            let d = entry.get("delta").expect("delta body");
            assert_eq!(d.get("degraded").and_then(Json::as_bool), Some(false));
            let id = d.get("sub").and_then(Json::as_u64).expect("sub id");
            let patch = AnswerDelta {
                id: SubId(id),
                now: 0,
                q_t: 0,
                added: parse_rects(d.get("added").expect("added")),
                removed: parse_rects(d.get("removed").expect("removed")),
                degraded: false,
                resync: d.get("resync").is_some(),
            };
            if let Some(m) = mirrors.get_mut(&id) {
                patch.apply_to(m);
            }
        }
        deltas.len()
    }

    /// Standing subscriptions over the wire: the per-connection delta
    /// stream, replayed client-side, reconstructs — bit-for-bit — the
    /// rect list a from-scratch `query` (clipped to the subscribed
    /// region) returns at every tick.
    #[test]
    fn tcp_subscription_deltas_replay_to_from_scratch_answers() {
        use pdr_core::SubscriptionTable;
        use pdr_geometry::RegionSet;

        let server = NetServer::bind(
            "127.0.0.1:0",
            driver(300),
            FaultPolicy::default(),
            NetServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || server.serve());
        let mut c = NetClient::connect(&addr).unwrap();

        // One full-domain and one region-restricted standing query.
        let full_region = Rect::new(0.0, 0.0, 200.0, 200.0);
        let part_region = Rect::new(30.0, 20.0, 160.0, 170.0);
        let r = c
            .request("{\"op\":\"subscribe\",\"rho\":0.015,\"l\":20.0,\"q_t\":2}")
            .unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
        assert_eq!(r.get("engine").and_then(Json::as_str), Some("fr"));
        let sub_full = r.get("sub").and_then(Json::as_u64).unwrap();
        let r = c
            .request(
                "{\"op\":\"subscribe\",\"rho\":0.02,\"l\":20.0,\"q_t\":1,\
                 \"region\":[30.0,20.0,160.0,170.0]}",
            )
            .unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
        let sub_part = r.get("sub").and_then(Json::as_u64).unwrap();
        let specs = [
            (sub_full, 0.015, 2u64, full_region),
            (sub_part, 0.02, 1u64, part_region),
        ];
        let mut mirrors: HashMap<u64, Vec<Rect>> = HashMap::new();
        mirrors.insert(sub_full, Vec::new());
        mirrors.insert(sub_part, Vec::new());

        let check = |c: &mut NetClient, mirrors: &HashMap<u64, Vec<Rect>>| {
            for (sub, rho, q_t, region) in specs {
                let r = c
                    .request(&format!(
                        "{{\"op\":\"query\",\"rho\":{rho},\"l\":20.0,\"q_t\":{q_t},\"rects\":true}}"
                    ))
                    .unwrap();
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
                let Json::Arr(items) = r.get("rects").expect("rects present") else {
                    panic!("rects must be an array: {r:?}");
                };
                let rects: Vec<Rect> = items
                    .iter()
                    .map(|it| {
                        let Json::Arr(co) = it else { panic!() };
                        let co: Vec<f64> = co.iter().filter_map(Json::as_f64).collect();
                        Rect::new(co[0], co[1], co[2], co[3])
                    })
                    .collect();
                let reference = SubscriptionTable::clip(&RegionSet::from_rects(rects), region);
                assert_eq!(
                    mirrors[&sub].as_slice(),
                    reference.rects(),
                    "replayed mirror diverged for sub {sub}"
                );
            }
        };

        // The initial snapshot arrives as the first delta.
        let r = c.request("{\"op\":\"poll_deltas\"}").unwrap();
        assert!(apply_wire_deltas(&r, &mut mirrors) >= 2, "{r:?}");
        check(&mut c, &mirrors);

        for _ in 0..4 {
            let r = c.request("{\"op\":\"tick\"}").unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
            let r = c.request("{\"op\":\"poll_deltas\"}").unwrap();
            apply_wire_deltas(&r, &mut mirrors);
            check(&mut c, &mirrors);
        }

        let m = c.request("{\"op\":\"metrics\"}").unwrap();
        assert_eq!(
            m.get("metrics")
                .and_then(|v| v.get("wire_subs"))
                .and_then(Json::as_u64),
            Some(2),
            "{m:?}"
        );
        let r = c
            .request(&format!("{{\"op\":\"unsubscribe\",\"sub\":{sub_part}}}"))
            .unwrap();
        assert_eq!(r.get("removed").and_then(Json::as_bool), Some(true));
        let r = c
            .request(&format!("{{\"op\":\"unsubscribe\",\"sub\":{sub_part}}}"))
            .unwrap();
        assert_eq!(
            r.get("removed").and_then(Json::as_bool),
            Some(false),
            "double unsubscribe is a no-op"
        );

        let r = c.request("{\"op\":\"shutdown\"}").unwrap();
        assert_eq!(r.get("draining").and_then(Json::as_bool), Some(true));
        let summary = server.join().unwrap();
        assert!(summary.contains("\"leaked_workers\":0"), "{summary}");
    }

    /// The sharded spec both replication endpoints are built from; the
    /// configs must match for shipped answers to be bit-identical.
    fn sharded_spec() -> EngineSpec {
        EngineSpec::Sharded {
            adaptive: None,
            inner: Box::new(EngineSpec::Fr(FrConfig {
                extent: 200.0,
                m: 40,
                horizon: TimeHorizon::new(4, 4),
                buffer_pages: 64,
                threads: 1,
            })),
            sx: 2,
            sy: 2,
            l_max: 20.0,
        }
    }

    fn sim(n: usize) -> TrafficSimulator {
        let net = RoadNetwork::generate(
            &NetworkConfig {
                extent: 200.0,
                nodes: 150,
                hotspots: 3,
                spread: 0.05,
                background: 0.2,
                degree: 3,
            },
            13,
        );
        TrafficSimulator::new(net, n, 17, 4, 0)
    }

    /// Full log-shipping pass over real sockets: a replica front-end
    /// bootstraps from its primary via `sync`/`ship_log`, keeps up
    /// incrementally across ticks, answers bit-identically at caught-up
    /// offsets, and refuses writes.
    #[test]
    fn tcp_replica_syncs_and_answers_bit_identically() {
        let mut primary_driver = ServeDriver::new(sim(300), pdr_storage::CostModel::PAPER_DEFAULT)
            .with_engine("fr", sharded_spec().build(0));
        primary_driver.bootstrap();
        let primary = NetServer::bind(
            "127.0.0.1:0",
            primary_driver,
            FaultPolicy::default(),
            NetServerConfig::default(),
        )
        .unwrap();
        let primary_addr = primary.local_addr().unwrap().to_string();
        let primary = std::thread::spawn(move || primary.serve());

        // The replica never bootstraps from its own simulator — all its
        // state arrives through shipments.
        let replica_driver = ServeDriver::new(sim(300), pdr_storage::CostModel::PAPER_DEFAULT)
            .with_engine("fr", sharded_spec().try_build_replica(0).unwrap());
        let replica = NetServer::bind(
            "127.0.0.1:0",
            replica_driver,
            FaultPolicy::default(),
            NetServerConfig {
                replica_of: Some(primary_addr.clone()),
                ..NetServerConfig::default()
            },
        )
        .unwrap();
        let replica_addr = replica.local_addr().unwrap().to_string();
        let replica = std::thread::spawn(move || replica.serve());

        let mut p = NetClient::connect(&primary_addr).unwrap();
        let mut r = NetClient::connect(&replica_addr).unwrap();

        // Writes are refused on the replica.
        let resp = r.request("{\"op\":\"tick\"}").unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));

        // Bootstrap sync, then incremental syncs across primary ticks.
        let resp = r.request("{\"op\":\"sync\"}").unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        assert_eq!(resp.get("bootstrapped").and_then(Json::as_bool), Some(true));

        let compare = |p: &mut NetClient, r: &mut NetClient| {
            for q_t in [0u64, 2, 4] {
                let body = format!(
                    "{{\"op\":\"query\",\"rho\":0.015,\"l\":20.0,\"q_t\":{q_t},\"rects\":true}}"
                );
                let a = p.request(&body).unwrap();
                let b = r.request(&body).unwrap();
                assert_eq!(a.get("ok").and_then(Json::as_bool), Some(true), "{a:?}");
                assert_eq!(b.get("ok").and_then(Json::as_bool), Some(true), "{b:?}");
                assert_eq!(
                    a.get("t").and_then(Json::as_u64),
                    b.get("t").and_then(Json::as_u64),
                    "replica clock diverged"
                );
                assert_eq!(
                    a.get("rects"),
                    b.get("rects"),
                    "replica answer not bit-identical at q_t={q_t}"
                );
            }
        };
        compare(&mut p, &mut r);

        for tick in 0..4 {
            let resp = p.request("{\"op\":\"tick\"}").unwrap();
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            let resp = r.request("{\"op\":\"sync\"}").unwrap();
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(true),
                "{resp:?}"
            );
            assert_eq!(
                resp.get("bootstrapped").and_then(Json::as_bool),
                Some(false),
                "steady state ships deltas: {resp:?}"
            );
            assert_eq!(
                resp.get("lag").and_then(Json::as_u64),
                Some(0),
                "caught up after sync at tick {tick}"
            );
            compare(&mut p, &mut r);
        }

        // The replica's metrics surface the staleness gauge.
        let m = r.request("{\"op\":\"metrics\"}").unwrap();
        let rep = m
            .get("metrics")
            .and_then(|v| v.get("replica"))
            .expect("replica metrics block");
        assert_eq!(rep.get("replica_lag").and_then(Json::as_u64), Some(0));
        assert_eq!(rep.get("bootstraps").and_then(Json::as_u64), Some(1));

        for (name, c) in [("replica", &mut r), ("primary", &mut p)] {
            let resp = c.request("{\"op\":\"shutdown\"}").unwrap();
            assert_eq!(
                resp.get("draining").and_then(Json::as_bool),
                Some(true),
                "{name} shutdown"
            );
        }
        for (name, h) in [("replica", replica), ("primary", primary)] {
            let summary = h.join().unwrap();
            assert!(
                summary.contains("\"leaked_workers\":0"),
                "{name}: {summary}"
            );
        }
    }

    /// A primary refusal that a retry would only repeat — a newer epoch
    /// (`fenced`) or a shipment over the frame cap — ends a replica's
    /// `sync` after one pull, answered with the same typed error.
    #[test]
    fn sync_stops_at_the_first_terminal_primary_refusal() {
        for error in ["fenced", "frame_too_large"] {
            // A stand-in primary that refuses every `ship_log` pull.
            let primary = TcpListener::bind("127.0.0.1:0").unwrap();
            let primary_addr = primary.local_addr().unwrap().to_string();
            let primary = std::thread::spawn(move || {
                let mut pulls = 0u32;
                for stream in primary.incoming() {
                    let mut stream = stream.unwrap();
                    let req = read_frame(&mut stream).unwrap().unwrap_or_default();
                    if !req.contains("ship_log") {
                        return pulls;
                    }
                    pulls += 1;
                    let resp = format!("{{\"ok\":false,\"error\":\"{error}\"}}");
                    write_frame(&mut stream, &resp).unwrap();
                }
                pulls
            });
            let replica_driver = ServeDriver::new(sim(50), pdr_storage::CostModel::PAPER_DEFAULT)
                .with_engine("fr", sharded_spec().try_build_replica(0).unwrap());
            let replica = NetServer::bind(
                "127.0.0.1:0",
                replica_driver,
                FaultPolicy::default(),
                NetServerConfig {
                    replica_of: Some(primary_addr.clone()),
                    ..NetServerConfig::default()
                },
            )
            .unwrap();
            let replica_addr = replica.local_addr().unwrap().to_string();
            let replica = std::thread::spawn(move || replica.serve());
            let mut r = NetClient::connect(&replica_addr).unwrap();
            let resp = r.request("{\"op\":\"sync\"}").unwrap();
            assert_eq!(resp.get("error").and_then(Json::as_str), Some(error));
            assert_eq!(resp.get("attempts").and_then(Json::as_u64), Some(1));
            r.request("{\"op\":\"shutdown\"}").unwrap();
            replica.join().unwrap();
            let mut stop = TcpStream::connect(&primary_addr).unwrap();
            write_frame(&mut stop, "{}").unwrap();
            assert_eq!(primary.join().unwrap(), 1, "{error}: one pull, no retries");
        }
    }

    /// Replica bootstrap at its scale limit: a bootstrap shipment past
    /// [`MAX_FRAME`] is refused as a typed `frame_too_large`, by the
    /// primary to a direct `ship_log` and by the replica's `sync` after
    /// one pull, and both connections keep serving; the replica, never
    /// bootstrapped, answers queries with the typed `not_synced`.
    /// Checkpoints carry motions, not histograms, so only the
    /// population crosses the cap: on this 2×2 shape the sealed
    /// container is ~130 B per object (router table plus every leaf's
    /// motion table, halo ghosts included), ~172 B base64-encoded, so
    /// a bootstrap fails from ~24K objects; 30K ship ~5.2 MB.
    #[test]
    fn oversize_bootstrap_is_refused_typed_on_both_ends() {
        const OBJECTS: usize = 30_000;
        let mut primary_driver =
            ServeDriver::new(sim(OBJECTS), pdr_storage::CostModel::PAPER_DEFAULT)
                .with_engine("fr", sharded_spec().build(0));
        primary_driver.bootstrap();
        let primary = NetServer::bind(
            "127.0.0.1:0",
            primary_driver,
            FaultPolicy::default(),
            NetServerConfig::default(),
        )
        .unwrap();
        let primary_addr = primary.local_addr().unwrap().to_string();
        let primary = std::thread::spawn(move || primary.serve());
        let replica_driver = ServeDriver::new(sim(50), pdr_storage::CostModel::PAPER_DEFAULT)
            .with_engine("fr", sharded_spec().try_build_replica(0).unwrap());
        let replica = NetServer::bind(
            "127.0.0.1:0",
            replica_driver,
            FaultPolicy::default(),
            NetServerConfig {
                replica_of: Some(primary_addr.clone()),
                ..NetServerConfig::default()
            },
        )
        .unwrap();
        let replica_addr = replica.local_addr().unwrap().to_string();
        let replica = std::thread::spawn(move || replica.serve());
        let mut p = NetClient::connect(&primary_addr).unwrap();
        let mut r = NetClient::connect(&replica_addr).unwrap();

        let resp = p.request(&ship_log_body(Some("fr"), 0, &[], 0)).unwrap();
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("frame_too_large"),
            "{resp:?}"
        );
        assert!(resp.get("bytes").and_then(Json::as_u64).unwrap() > MAX_FRAME as u64);
        let resp = r.request("{\"op\":\"sync\"}").unwrap();
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("frame_too_large"),
            "{resp:?}"
        );
        assert_eq!(resp.get("attempts").and_then(Json::as_u64), Some(1));

        // A threshold above the whole population: the filter rejects
        // every cell, so the probe stays cheap at this scale.
        let query = "{\"op\":\"query\",\"rho\":1000.0,\"l\":20.0,\"q_t\":1}";
        let resp = p.request(query).unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "primary connection unusable after the refusal: {resp:?}"
        );
        let resp = r.request(query).unwrap();
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("not_synced"),
            "an unsynced replica must not answer from its empty plane: {resp:?}"
        );
        for c in [&mut r, &mut p] {
            c.request("{\"op\":\"shutdown\"}").unwrap();
        }
        for h in [replica, primary] {
            let summary = h.join().unwrap();
            assert!(summary.contains("\"leaked_workers\":0"), "{summary}");
        }
    }

    /// With zero capacity every admission bounces with the retry hint —
    /// backpressure instead of queueing.
    #[test]
    fn zero_capacity_rejects_every_admission_with_retry_hint() {
        let cfg = NetServerConfig {
            capacity: 0,
            retry_after_ms: 7,
            ..NetServerConfig::default()
        };
        let server =
            NetServer::bind("127.0.0.1:0", driver(200), FaultPolicy::default(), cfg).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || server.serve());
        let mut c = NetClient::connect(&addr).unwrap();
        for _ in 0..3 {
            let r = c
                .request("{\"op\":\"query\",\"rho\":0.015,\"l\":20.0,\"q_t\":1}")
                .unwrap();
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(r.get("error").and_then(Json::as_str), Some("overloaded"));
            assert_eq!(r.get("retry_after_ms").and_then(Json::as_u64), Some(7));
        }
        // tick is not admission-gated — the write path must stay live.
        let r = c.request("{\"op\":\"tick\"}").unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        c.request("{\"op\":\"shutdown\"}").unwrap();
        let summary = server.join().unwrap();
        assert!(summary.contains("\"rejected_admissions\":3"), "{summary}");
    }

    /// A frame truncated at *every* possible byte boundary — inside the
    /// length prefix and inside the payload — must surface as an error,
    /// never as a silent short read or a hang.
    #[test]
    fn torn_frames_error_at_every_byte_boundary() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"tick\",\"id\":7}").unwrap();
        assert_eq!(
            read_frame(&mut &buf[..]).unwrap().as_deref(),
            Some("{\"op\":\"tick\",\"id\":7}")
        );
        assert_eq!(
            read_frame(&mut &buf[..0]).unwrap(),
            None,
            "empty stream is clean EOF"
        );
        for cut in 1..buf.len() {
            let mut torn = &buf[..cut];
            assert!(
                read_frame(&mut torn).is_err(),
                "torn frame at byte {cut} must error"
            );
        }
    }

    /// A peer stalling mid-frame (partial length prefix, then silence)
    /// is reaped after the frame timeout instead of pinning a worker
    /// forever; a peer disconnecting mid-payload tears down cleanly.
    /// Blocking `read_exact` without a deadline would hang this test.
    #[test]
    fn stalled_and_torn_connections_are_reaped_not_pinned() {
        let cfg = NetServerConfig {
            idle_timeout: Duration::from_millis(300),
            frame_timeout: Duration::from_millis(150),
            ..NetServerConfig::default()
        };
        let server =
            NetServer::bind("127.0.0.1:0", driver(200), FaultPolicy::default(), cfg).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || server.serve());

        // Stall 1: two bytes of length prefix, then silence.
        let mut stalled = TcpStream::connect(&addr).unwrap();
        stalled.write_all(&[0x00, 0x00]).unwrap();
        // Stall 2: honest prefix claiming 50 bytes, 10 delivered, drop.
        let mut torn = TcpStream::connect(&addr).unwrap();
        torn.write_all(&50u32.to_be_bytes()).unwrap();
        torn.write_all(&[b'{'; 10]).unwrap();
        drop(torn);
        // Idle: connected, never writes a byte.
        let idle = TcpStream::connect(&addr).unwrap();

        std::thread::sleep(Duration::from_millis(700));
        let mut c = NetClient::connect(&addr).unwrap();
        let m = c.request("{\"op\":\"metrics\"}").unwrap();
        let reaped = m
            .get("metrics")
            .and_then(|v| v.get("reaped_connections"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            reaped >= 2,
            "stalled + idle connections must be reaped, got {reaped}: {m:?}"
        );
        drop(stalled);
        drop(idle);
        c.request("{\"op\":\"shutdown\"}").unwrap();
        let summary = server.join().unwrap();
        assert!(summary.contains("\"leaked_workers\":0"), "{summary}");
    }

    /// With a `duplicate frame` plan under the server's frame writes,
    /// every response arrives twice; a client matching on the echoed
    /// request id discards the duplicates and stays in sync.
    #[test]
    fn duplicated_response_frames_are_discarded_by_id_matching() {
        let plan =
            crate::netfault::NetFaultPlan::parse("duplicate frame every=1 permanent").unwrap();
        let inj = Arc::new(NetFaultInjector::new(plan));
        let cfg = NetServerConfig {
            faults: Some(inj.clone()),
            ..NetServerConfig::default()
        };
        let server =
            NetServer::bind("127.0.0.1:0", driver(200), FaultPolicy::default(), cfg).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || server.serve());
        let mut c = NetClient::connect(&addr).unwrap();
        let recv_matching = |c: &mut NetClient, want: u64| -> String {
            loop {
                let frame = c.recv_raw().unwrap();
                if let Ok(v) = Json::parse(&frame) {
                    if v.get("id").and_then(Json::as_u64) == Some(want) {
                        return frame;
                    }
                }
            }
        };
        for id in 1..=5u64 {
            c.send(&format!("{{\"op\":\"tick\",\"id\":{id}}}")).unwrap();
            let frame = recv_matching(&mut c, id);
            assert!(frame.contains("\"ok\":true"), "{frame}");
        }
        assert!(
            inj.stats().duplicates >= 5,
            "every response written twice: {:?}",
            inj.stats()
        );
        c.send("{\"op\":\"shutdown\",\"id\":99}").unwrap();
        let frame = recv_matching(&mut c, 99);
        assert!(frame.contains("\"draining\":true"), "{frame}");
        let summary = server.join().unwrap();
        assert!(summary.contains("\"leaked_workers\":0"), "{summary}");
        assert!(summary.contains("\"netfaults\":{"), "{summary}");
    }

    /// A `drop frame` plan under the server's writes loses one response;
    /// the client times out on the missing frame, retries on the same
    /// connection, and the drop surfaces in the metrics' netfault block.
    #[test]
    fn dropped_response_frame_times_out_client_and_counts_in_metrics() {
        let plan = crate::netfault::NetFaultPlan::parse("drop frame nth=2 times=1").unwrap();
        let cfg = NetServerConfig {
            faults: Some(Arc::new(NetFaultInjector::new(plan))),
            ..NetServerConfig::default()
        };
        let server =
            NetServer::bind("127.0.0.1:0", driver(200), FaultPolicy::default(), cfg).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || server.serve());
        let mut c = NetClient::connect(&addr).unwrap();
        c.set_io_timeouts(Some(Duration::from_millis(300)), None)
            .unwrap();
        let r = c.request("{\"op\":\"tick\",\"id\":1}").unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        // Second response is dropped below the framing layer.
        c.send("{\"op\":\"tick\",\"id\":2}").unwrap();
        assert!(c.recv().is_err(), "dropped response must time out");
        // The connection itself is healthy; the next exchange works.
        let r = c.request("{\"op\":\"tick\",\"id\":3}").unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
        let m = c.request("{\"op\":\"metrics\",\"id\":4}").unwrap();
        let drops = m
            .get("metrics")
            .and_then(|v| v.get("netfaults"))
            .and_then(|v| v.get("drops"))
            .and_then(Json::as_u64);
        assert_eq!(drops, Some(1), "{m:?}");
        c.request("{\"op\":\"shutdown\"}").unwrap();
        server.join().unwrap();
    }

    /// Failover over real sockets: promote a synced replica, verify it
    /// accepts writes, and verify the deposed primary fences itself the
    /// moment it observes the newer replication epoch.
    #[test]
    fn tcp_promote_turns_replica_writable_and_fences_old_primary() {
        let mut primary_driver = ServeDriver::new(sim(300), pdr_storage::CostModel::PAPER_DEFAULT)
            .with_engine("fr", sharded_spec().build(0));
        primary_driver.bootstrap();
        let primary = NetServer::bind(
            "127.0.0.1:0",
            primary_driver,
            FaultPolicy::default(),
            NetServerConfig::default(),
        )
        .unwrap();
        let primary_addr = primary.local_addr().unwrap().to_string();
        let primary = std::thread::spawn(move || primary.serve());

        let replica_driver = ServeDriver::new(sim(300), pdr_storage::CostModel::PAPER_DEFAULT)
            .with_engine("fr", sharded_spec().try_build_replica(0).unwrap());
        let replica = NetServer::bind(
            "127.0.0.1:0",
            replica_driver,
            FaultPolicy::default(),
            NetServerConfig {
                replica_of: Some(primary_addr.clone()),
                ..NetServerConfig::default()
            },
        )
        .unwrap();
        let replica_addr = replica.local_addr().unwrap().to_string();
        let replica = std::thread::spawn(move || replica.serve());

        let mut p = NetClient::connect(&primary_addr).unwrap();
        let mut r = NetClient::connect(&replica_addr).unwrap();

        // Establish replicated state: two ticks, then a catch-up sync.
        for _ in 0..2 {
            let resp = p.request("{\"op\":\"tick\"}").unwrap();
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        }
        let resp = r.request("{\"op\":\"sync\"}").unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        let applied_t = resp.get("applied_t").and_then(Json::as_u64).unwrap();

        // Promote. The response carries the bumped epoch and the sealed
        // applied time; a second promote is an idempotent re-answer.
        let resp = r.request("{\"op\":\"promote\"}").unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        let epoch = resp.get("repl_epoch").and_then(Json::as_u64).unwrap();
        assert!(epoch >= 2, "promotion bumps past the replicated epoch");
        assert_eq!(
            resp.get("applied_t").and_then(Json::as_u64),
            Some(applied_t)
        );
        let again = r.request("{\"op\":\"promote\"}").unwrap();
        assert_eq!(again.get("repl_epoch").and_then(Json::as_u64), Some(epoch));

        // The promoted node ticks (writes) and keeps answering exactly.
        let resp = r.request("{\"op\":\"tick\"}").unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "promoted node must accept writes: {resp:?}"
        );
        let resp = r
            .request("{\"op\":\"check\",\"rho\":0.015,\"l\":20.0,\"q_t\":1}")
            .unwrap();
        assert_eq!(
            resp.get("exact").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        // Syncing a promoted node is refused — it no longer follows.
        let resp = r.request("{\"op\":\"sync\"}").unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));

        // The deposed primary fences itself on first contact with the
        // newer epoch: ship_log refuses, then writes are refused too.
        let resp = p
            .request(&format!(
                "{{\"op\":\"ship_log\",\"epoch\":0,\"offsets\":[],\"repl_epoch\":{epoch}}}"
            ))
            .unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(resp.get("error").and_then(Json::as_str), Some("fenced"));
        let resp = p.request("{\"op\":\"tick\"}").unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "fenced primary must refuse writes: {resp:?}"
        );
        assert!(
            resp.get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("fenced")),
            "{resp:?}"
        );
        let m = p.request("{\"op\":\"metrics\"}").unwrap();
        let repl = m
            .get("metrics")
            .and_then(|v| v.get("repl"))
            .expect("repl block on a primary");
        assert_eq!(repl.get("fenced").and_then(Json::as_bool), Some(true));

        for c in [&mut r, &mut p] {
            c.request("{\"op\":\"shutdown\"}").unwrap();
        }
        for (name, h) in [("replica", replica), ("primary", primary)] {
            let summary = h.join().unwrap();
            assert!(
                summary.contains("\"leaked_workers\":0"),
                "{name}: {summary}"
            );
        }
    }
}
