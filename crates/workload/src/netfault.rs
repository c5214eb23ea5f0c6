//! Deterministic network fault injection for the TCP serving plane.
//!
//! A [`NetFaultPlan`] is the network-layer sibling of the storage
//! crate's `FaultPlan`: a declarative, seeded schedule of faults
//! injected *beneath* the length-prefixed framing layer, on the write
//! path of either endpoint (server or client). Because both directions
//! of a conversation write frames, one injector on either side covers
//! requests and responses alike. Faults are deterministic: the same
//! plan against the same frame sequence injects the same faults, so
//! every chaos scenario is reproducible from its seed.
//!
//! Five kinds of faults are modelled:
//!
//! * **drop frame** — the frame is silently discarded; the writer
//!   believes it was sent. The peer times out and retries.
//! * **delay frame** — the frame is delivered after `ms` milliseconds.
//! * **duplicate frame** — the frame is delivered twice, back to back.
//!   Receivers correlate by the echoed request `id`.
//! * **truncate frame** — the length prefix and the first half of the
//!   payload are delivered in one write (a prefix of the same buffer an
//!   intact frame is sent from), then the stream is shut down: the peer
//!   observes a torn frame mid-read.
//! * **reset conn** / **drop conn** — the connection is shut down
//!   (instead of the frame being written); the writer sees an error.
//!
//! Plans parse from the one-rule-per-line grammar shared with storage
//! fault plans (see [`pdr_storage::seeded`]; [`NetFaultPlan::parse`]
//! adds the head words and `ms=`). Every rule, `conn` rules included,
//! counts frame writes:
//!
//! ```text
//! # every frame is dropped with p = 0.01 (seeded, deterministic)
//! seed 1337
//! drop frame prob=0.01
//! # the 4th frame arrives 25 ms late, and the 5th and 6th too
//! delay frame nth=4 times=3 ms=25
//! # every 10th frame is duplicated, forever
//! duplicate frame every=10 permanent
//! # the 7th frame is torn mid-payload
//! truncate frame nth=7
//! # the 3rd frame write resets the connection instead
//! reset conn nth=3
//! ```

use pdr_storage::seeded::{parse_plan, PlanError, SeededRng, Trigger};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a consulted plan asks the framing layer to do with one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFault {
    /// Write the frame normally.
    Deliver,
    /// Silently discard the frame (pretend the write succeeded).
    Drop,
    /// Deliver the frame after this many milliseconds.
    Delay(u64),
    /// Write the frame twice.
    Duplicate,
    /// Write the length prefix plus the first half of the payload in
    /// one write, then shut the stream down (a torn frame for the
    /// reader).
    Truncate,
    /// Shut the connection down instead of writing.
    Reset,
}

/// Which fault a rule injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NetFaultKind {
    Drop,
    Delay,
    Duplicate,
    Truncate,
    Reset,
}

/// What a rule targets: one frame write, or the whole connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NetFaultScope {
    Frame,
    Conn,
}

/// One declarative network fault rule.
#[derive(Clone, Debug)]
struct NetFaultRule {
    kind: NetFaultKind,
    scope: NetFaultScope,
    /// Delay in milliseconds (`delay` rules only).
    ms: u64,
    trigger: Trigger,
}

/// A seeded, declarative schedule of network faults. Wrap it in a
/// [`NetFaultInjector`] and hand that to the serving front-end or a
/// client; the framing layer consults it on every frame write.
#[derive(Clone, Debug)]
pub struct NetFaultPlan {
    rules: Vec<NetFaultRule>,
    rng: SeededRng,
}

/// Seed of plans that do not name one.
const DEFAULT_SEED: u64 = 0x0C4A_05FE;

impl Default for NetFaultPlan {
    fn default() -> Self {
        NetFaultPlan::new(DEFAULT_SEED)
    }
}

impl NetFaultPlan {
    /// An empty plan (injects nothing) with the given probability seed.
    pub fn new(seed: u64) -> Self {
        NetFaultPlan {
            rules: Vec::new(),
            rng: SeededRng::new(seed),
        }
    }

    /// `true` when the plan has no rules at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of rules in the plan.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Parses the plan-file format: the shared grammar of
    /// [`pdr_storage::seeded`] with these head words and one extra key:
    ///
    /// ```text
    /// drop|delay|duplicate|truncate|reset frame|conn [ms=<u64>] <trigger words>
    /// ```
    ///
    /// `ms` is required for `delay` and invalid elsewhere. `delay`,
    /// `duplicate` and `truncate` only make sense per-frame; `reset`
    /// only per-connection; `drop` takes either scope.
    pub fn parse(text: &str) -> Result<NetFaultPlan, PlanError> {
        let (seed, rules) = parse_plan(text, |words| {
            let kind = match words.next().unwrap_or_default() {
                "drop" => NetFaultKind::Drop,
                "delay" => NetFaultKind::Delay,
                "duplicate" => NetFaultKind::Duplicate,
                "truncate" => NetFaultKind::Truncate,
                "reset" => NetFaultKind::Reset,
                _ => return Err("expected drop, delay, duplicate, truncate or reset"),
            };
            let scope = match words.next() {
                Some("frame") => NetFaultScope::Frame,
                Some("conn") => NetFaultScope::Conn,
                _ => return Err("expected frame or conn after the fault kind"),
            };
            match (kind, scope) {
                (NetFaultKind::Drop, _) => {}
                (
                    NetFaultKind::Delay | NetFaultKind::Duplicate | NetFaultKind::Truncate,
                    NetFaultScope::Frame,
                ) => {}
                (NetFaultKind::Reset, NetFaultScope::Conn) => {}
                (NetFaultKind::Reset, NetFaultScope::Frame) => return Err("reset is conn-only"),
                (_, NetFaultScope::Conn) => {
                    return Err("delay, duplicate and truncate are frame-only")
                }
            }
            let mut ms = 0;
            let trigger = Trigger::parse(words, |key, value| match key {
                "ms" => {
                    ms = value.parse().map_err(|_| "bad ms value")?;
                    Ok(())
                }
                _ => Err("unknown key"),
            })?;
            if kind == NetFaultKind::Delay && ms == 0 {
                return Err("delay needs ms=<positive>");
            }
            if kind != NetFaultKind::Delay && ms != 0 {
                return Err("ms is delay-only");
            }
            Ok(NetFaultRule {
                kind,
                scope,
                ms,
                trigger,
            })
        })?;
        Ok(NetFaultPlan {
            rules,
            rng: SeededRng::new(seed.unwrap_or(DEFAULT_SEED)),
        })
    }

    /// Consults the plan for the next frame write. Every rule, `conn`
    /// rules included, counts frame writes. When several rules fire for
    /// the same frame the most destructive action wins
    /// (reset > truncate > drop > duplicate > delay); every firing
    /// rule advances its own budget either way.
    pub fn check_frame(&mut self) -> FrameFault {
        let mut verdict = FrameFault::Deliver;
        for rule in &mut self.rules {
            if !rule.trigger.fire(&mut self.rng) {
                continue;
            }
            let action = match (rule.kind, rule.scope) {
                (NetFaultKind::Reset, _) | (NetFaultKind::Drop, NetFaultScope::Conn) => {
                    FrameFault::Reset
                }
                (NetFaultKind::Truncate, _) => FrameFault::Truncate,
                (NetFaultKind::Drop, _) => FrameFault::Drop,
                (NetFaultKind::Duplicate, _) => FrameFault::Duplicate,
                (NetFaultKind::Delay, _) => FrameFault::Delay(rule.ms),
            };
            if severity(action) > severity(verdict) {
                verdict = action;
            }
        }
        verdict
    }
}

fn severity(a: FrameFault) -> u8 {
    match a {
        FrameFault::Deliver => 0,
        FrameFault::Delay(_) => 1,
        FrameFault::Duplicate => 2,
        FrameFault::Drop => 3,
        FrameFault::Truncate => 4,
        FrameFault::Reset => 5,
    }
}

/// Counters for network faults the injector actually fired, surfaced
/// through the serve `metrics` op and client summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetFaultStats {
    /// Frame writes consulted.
    pub frames: u64,
    /// Frames silently dropped.
    pub drops: u64,
    /// Frames delivered late.
    pub delays: u64,
    /// Total injected delay, in milliseconds.
    pub delayed_ms: u64,
    /// Frames written twice.
    pub duplicates: u64,
    /// Frames torn mid-payload (stream shut down after a prefix).
    pub truncates: u64,
    /// Connections shut down instead of a frame write.
    pub resets: u64,
}

impl NetFaultStats {
    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.drops + self.delays + self.duplicates + self.truncates + self.resets
    }

    /// The stats as a JSON object (for metrics surfaces).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"frames\":{},\"drops\":{},\"delays\":{},\"delayed_ms\":{},\"duplicates\":{},\
             \"truncates\":{},\"resets\":{}}}",
            self.frames,
            self.drops,
            self.delays,
            self.delayed_ms,
            self.duplicates,
            self.truncates,
            self.resets
        )
    }
}

/// A shared, thread-safe wrapper around a [`NetFaultPlan`]: the framing
/// layer consults it on every frame write and the fired faults are
/// counted atomically. One injector is shared by every connection of a
/// server (or every request of a client), so `nth`/`every` selectors
/// count frames process-wide in write order.
#[derive(Debug)]
pub struct NetFaultInjector {
    plan: Mutex<NetFaultPlan>,
    frames: AtomicU64,
    drops: AtomicU64,
    delays: AtomicU64,
    delayed_ms: AtomicU64,
    duplicates: AtomicU64,
    truncates: AtomicU64,
    resets: AtomicU64,
}

impl NetFaultInjector {
    /// Wraps a plan for shared use.
    pub fn new(plan: NetFaultPlan) -> Self {
        NetFaultInjector {
            plan: Mutex::new(plan),
            frames: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            delayed_ms: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            truncates: AtomicU64::new(0),
            resets: AtomicU64::new(0),
        }
    }

    /// Consults the plan for the next frame write and records the
    /// verdict in the counters.
    pub fn check_frame(&self) -> FrameFault {
        let fault = {
            let mut plan = self.plan.lock().unwrap_or_else(|p| p.into_inner());
            plan.check_frame()
        };
        self.frames.fetch_add(1, Ordering::Relaxed);
        match fault {
            FrameFault::Deliver => {}
            FrameFault::Drop => {
                self.drops.fetch_add(1, Ordering::Relaxed);
            }
            FrameFault::Delay(ms) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                self.delayed_ms.fetch_add(ms, Ordering::Relaxed);
            }
            FrameFault::Duplicate => {
                self.duplicates.fetch_add(1, Ordering::Relaxed);
            }
            FrameFault::Truncate => {
                self.truncates.fetch_add(1, Ordering::Relaxed);
            }
            FrameFault::Reset => {
                self.resets.fetch_add(1, Ordering::Relaxed);
            }
        }
        fault
    }

    /// A snapshot of the fired-fault counters.
    pub fn stats(&self) -> NetFaultStats {
        NetFaultStats {
            frames: self.frames.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            delayed_ms: self.delayed_ms.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            truncates: self.truncates.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let text = "\
# chaos plan
seed 99

drop frame prob=0.25        # seeded coin per frame
delay frame nth=4 times=3 ms=25
duplicate frame every=10 permanent
truncate frame nth=7
reset conn nth=3
drop conn nth=9
";
        let plan = NetFaultPlan::parse(text).expect("plan parses");
        assert_eq!(plan.len(), 6);
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(NetFaultPlan::parse("explode frame nth=1").is_err());
        assert!(NetFaultPlan::parse("drop nth=1").is_err(), "missing scope");
        assert!(NetFaultPlan::parse("reset frame nth=1").is_err());
        assert!(NetFaultPlan::parse("delay conn ms=5").is_err());
        assert!(NetFaultPlan::parse("duplicate conn every=2").is_err());
        assert!(NetFaultPlan::parse("delay frame nth=1").is_err(), "no ms");
        assert!(NetFaultPlan::parse("drop frame ms=5").is_err());
        assert!(NetFaultPlan::parse("drop frame prob=1.5").is_err());
        assert!(NetFaultPlan::parse("drop frame times=2 permanent").is_err());
        assert!(NetFaultPlan::parse("drop frame permanent times=2").is_err());
        let err = NetFaultPlan::parse("drop frame\nreset frame").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn nth_burst_fires_exactly_times() {
        let mut plan = NetFaultPlan::parse("drop frame nth=3 times=2").unwrap();
        let hits: Vec<bool> = (0..6)
            .map(|_| plan.check_frame() == FrameFault::Drop)
            .collect();
        assert_eq!(hits, [false, false, true, true, false, false]);
    }

    #[test]
    fn every_rule_fires_periodically_and_severity_orders() {
        let mut plan =
            NetFaultPlan::parse("duplicate frame every=2 permanent\ndrop frame nth=4").unwrap();
        let hits: Vec<FrameFault> = (0..6).map(|_| plan.check_frame()).collect();
        assert_eq!(
            hits,
            [
                FrameFault::Deliver,
                FrameFault::Duplicate,
                FrameFault::Deliver,
                // Both rules fire on frame 4; drop outranks duplicate.
                FrameFault::Drop,
                FrameFault::Deliver,
                FrameFault::Duplicate,
            ]
        );
    }

    #[test]
    fn prob_rule_is_deterministic_for_a_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut plan =
                NetFaultPlan::parse(&format!("seed {seed}\ndrop frame prob=0.3 times=1000"))
                    .unwrap();
            (0..64)
                .map(|_| plan.check_frame() == FrameFault::Drop)
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
    }

    #[test]
    fn injector_counts_fired_faults() {
        let inj = NetFaultInjector::new(
            NetFaultPlan::parse("delay frame nth=1 ms=1\nduplicate frame nth=2").unwrap(),
        );
        assert_eq!(inj.check_frame(), FrameFault::Delay(1));
        assert_eq!(inj.check_frame(), FrameFault::Duplicate);
        assert_eq!(inj.check_frame(), FrameFault::Deliver);
        let st = inj.stats();
        assert_eq!(st.frames, 3);
        assert_eq!(st.delays, 1);
        assert_eq!(st.delayed_ms, 1);
        assert_eq!(st.duplicates, 1);
        assert_eq!(st.injected(), 2);
        assert!(st.to_json().contains("\"duplicates\":1"));
    }
}
