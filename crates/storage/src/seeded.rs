//! Seeded decisions shared by every fault-injection and retry path.
//!
//! The storage [`FaultPlan`](crate::FaultPlan), the network fault plan
//! beneath the TCP framing layer, the serve loop's retry backoff and
//! the client's reconnect backoff all draw from the same three pieces,
//! kept here once:
//!
//! * [`SeededRng`] — one xorshift64* generator;
//! * [`Trigger`] — the `nth`/`every`/`prob` selectors with a
//!   `times=k`/`permanent` budget, and [`parse_plan`] for the plan-file
//!   lines both fault grammars share;
//! * [`backoff_delay`] — seeded jittered exponential backoff.
//!
//! Every stream is a pure function of its seed, so the same seed fires
//! the same faults and sleeps the same backoff on every run.
//!
//! # Shared plan-file grammar
//!
//! One rule per line; `#` starts a comment and blank lines are ignored.
//!
//! ```text
//! seed <u64>          # seeds the prob= draws (the last seed line wins)
//! <head words> [nth=<u64>] [every=<u64>] [prob=<f64>]
//!              [times=<u64>] [permanent] [<plan-specific key>=<value>]
//! ```
//!
//! Each plan defines its own head words and extra keys. A rule fires
//! once unless given a budget: `nth=N` arms it at the N-th consulted
//! operation (1-based) and `times=T` extends the burst to operations
//! `N..N+T`; `every=K` fires on every K-th operation; `prob=p` fires
//! with seeded probability `p`; a rule with no selector fires on every
//! operation. `times=T` (default 1) caps how often the rule fires and
//! `permanent` removes the cap; the two conflict in either order.

use std::fmt;
use std::time::Duration;

/// xorshift64* generator. The state is `seed | 1`, so it is never zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeededRng(u64);

impl SeededRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SeededRng(seed | 1)
    }

    /// Advances the state and returns the full 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw in `[0, 1)` from the top 53 bits of the output.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seeded jittered exponential backoff before retry `attempt`: the
/// delay doubles from `base_us` up to `cap_us` (never below `base_us`)
/// and is jittered uniformly into `[delay/2, delay]`. A zero delay
/// returns at once without advancing `rng`.
pub fn backoff_delay(base_us: u64, cap_us: u64, attempt: u32, rng: &mut SeededRng) -> Duration {
    let delay = base_us
        .saturating_mul(1u64 << attempt.min(16))
        .min(cap_us.max(base_us));
    if delay == 0 {
        return Duration::ZERO;
    }
    Duration::from_micros(delay / 2 + rng.next_u64() % (delay / 2 + 1))
}

/// How often a rule keeps firing once its selector matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Budget {
    /// Fires at most this many times (transient).
    Count(u64),
    /// Fires forever (permanent).
    Permanent,
}

/// When a fault rule fires: a selector (`nth`, `every`, `prob`, or
/// none for "every operation") under a `times`/`permanent` budget, with
/// the count of operations seen and faults fired so far.
#[derive(Clone, Debug)]
pub struct Trigger {
    nth: Option<u64>,
    every: Option<u64>,
    prob: Option<f64>,
    budget: Budget,
    seen: u64,
    fired: u64,
}

impl Trigger {
    /// Fires on every operation, `times` times in all (`None`: forever).
    pub(crate) fn always(times: Option<u64>) -> Self {
        Trigger {
            nth: None,
            every: None,
            prob: None,
            budget: times.map_or(Budget::Permanent, Budget::Count),
            seen: 0,
            fired: 0,
        }
    }

    /// Fires on operations `n..n+times` (1-based; `None`: from `n` on,
    /// forever).
    pub(crate) fn nth(n: u64, times: Option<u64>) -> Self {
        Trigger {
            nth: Some(n),
            ..Trigger::always(times)
        }
    }

    /// `true` when the rule has no `times` budget.
    pub fn is_permanent(&self) -> bool {
        self.budget == Budget::Permanent
    }

    /// Counts one operation and decides whether the rule fires on it.
    /// Only `prob` rules draw from `rng`.
    pub fn fire(&mut self, rng: &mut SeededRng) -> bool {
        self.seen += 1;
        let armed = match self.budget {
            Budget::Count(k) => self.fired < k,
            Budget::Permanent => true,
        };
        if !armed {
            return false;
        }
        let hit = if let Some(n) = self.nth {
            // `times=k` extends the burst to ops n..n+k.
            match self.budget {
                Budget::Count(k) => self.seen >= n && self.seen < n + k,
                Budget::Permanent => self.seen >= n,
            }
        } else if let Some(e) = self.every {
            e > 0 && self.seen.is_multiple_of(e)
        } else if let Some(p) = self.prob {
            rng.next_unit() < p
        } else {
            true
        };
        if hit {
            self.fired += 1;
        }
        hit
    }

    /// Parses the trigger words of one rule, handing every other
    /// `key=value` to `key`, which rejects the keys its plan does not
    /// know. `times` defaults to 1.
    pub fn parse<'a>(
        words: impl Iterator<Item = &'a str>,
        mut key: impl FnMut(&str, &str) -> Result<(), &'static str>,
    ) -> Result<Trigger, &'static str> {
        let mut trigger = Trigger::always(Some(1));
        let mut times_set = false;
        for word in words {
            if word == "permanent" {
                if times_set {
                    return Err("times conflicts with permanent");
                }
                trigger.budget = Budget::Permanent;
                continue;
            }
            let (k, value) = word.split_once('=').ok_or("expected key=value")?;
            match k {
                "nth" => trigger.nth = Some(value.parse().map_err(|_| "bad nth value")?),
                "every" => trigger.every = Some(value.parse().map_err(|_| "bad every value")?),
                "prob" => {
                    let p: f64 = value.parse().map_err(|_| "bad prob value")?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err("prob outside [0, 1]");
                    }
                    trigger.prob = Some(p);
                }
                "times" => {
                    if trigger.is_permanent() {
                        return Err("times conflicts with permanent");
                    }
                    times_set = true;
                    trigger.budget = Budget::Count(value.parse().map_err(|_| "bad times value")?);
                }
                _ => key(k, value)?,
            }
        }
        Ok(trigger)
    }
}

/// Parses a plan file in the shared grammar. `seed` lines are handled
/// here; every other line goes, split into words, to `rule`. Returns the
/// last `seed` (if any) and the rules in file order.
pub fn parse_plan<'t, R>(
    text: &'t str,
    mut rule: impl FnMut(&mut std::str::SplitWhitespace<'t>) -> Result<R, &'static str>,
) -> Result<(Option<u64>, Vec<R>), PlanError> {
    let mut seed = None;
    let mut rules = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let err = |what| PlanError {
            line: idx + 1,
            what,
        };
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        if words.clone().next() == Some("seed") {
            let v = words.nth(1).ok_or(err("seed needs a value"))?;
            seed = Some(v.parse().map_err(|_| err("bad seed value"))?);
            continue;
        }
        rules.push(rule(&mut words).map_err(err)?);
    }
    Ok((seed, rules))
}

/// Parse error for the plan-file formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanError {
    /// 1-based line the error was found on.
    pub line: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first 32 outputs for seeds 1, 42 and 1337, recorded from the
    /// generator's earlier private copies (storage and network fault
    /// plans, serve and client backoff). Any change here changes every
    /// seeded fault schedule and backoff in the repository.
    #[rustfmt::skip]
    const GOLDEN_STREAMS: [(u64, [u64; 32]); 3] = [
        (1, [
            0xBAFACF624F01C45D, 0x02DA6891E507685D, 0xFE17A361146FB7A5, 0xE1F55904DDD37531,
            0xB240BCC99B22C671, 0xC7D6D754258E951D, 0x4C353B6A1CEE7FCD, 0xCD587A6892FB4F79,
            0x94F640E7790E27E3, 0xA1233B955020EC36, 0x1B5A05C5FA350BD4, 0x792B9A1FD33D6F85,
            0xAD2EFCED076FC20E, 0x328F12DFCF696077, 0xFE15AEBE1A8B60D4, 0x4562D3D4AAB1AFEF,
            0xD70DAB38E8A0B731, 0xE85CE3E4976EE58D, 0x0883B0C3125CFBD3, 0x50D44B3BAA9FB46C,
            0xA527915D97E7DF30, 0xBC70F5ED95BCE2F5, 0xAC56441CA565155A, 0xA1F46C4BE0433A95,
            0x68FE6708E6DBA6D2, 0x53EFA06EB47B8FAC, 0x4901FC80673A23E5, 0x6EF43BE8EC61A5BB,
            0xF412E11ABBE01502, 0xA7C4AC45009D395C, 0xFCA19E61CCBDAE44, 0xF555518815595A74,
        ]),
        (42, [
            0xC3965A1C5C63FB9F, 0xBDAD4075645AE0C6, 0xE53387CBBC064367, 0x9CD63D960F86C2B9,
            0xD7ECB68727DD3F2B, 0xD9ECC7A3056C5DDA, 0xD936F81601AE825A, 0x7DC90CF308508223,
            0x10833E03FC108EB3, 0xB17EA16D5A0BF83F, 0x407F6415CBE937EF, 0x15561982F7BA4AA1,
            0xC3BE3FED33F30621, 0x2C968CC0A647BEDE, 0xC09E614BD7E402F1, 0x12406A775A6946C4,
            0xF2C91BE206F4293D, 0xAFF7B4C5ADC78A14, 0xD441CCBBE34A31D0, 0x06EB5EA468937690,
            0x45779214C87CDCAB, 0x28C6542B34C01E8F, 0xD551419B1A3366DE, 0xF6828EC84F36B6A1,
            0x44A8BFCCCEAD6D59, 0x54D16C390398BDA9, 0x82CD51242F0297DC, 0xC9C1BBBC6E716381,
            0xF3CAA5C0E3D73E58, 0xD913169DCD861218, 0xE6B4BDC8DE96C461, 0x0C69C6C38FC76BE3,
        ]),
        (1337, [
            0x998D3722B3927307, 0xFE6B8A2234621771, 0xFABBA511839EB0BF, 0xB4E972B7770B47A6,
            0x7DB6C0021F3A4CF8, 0xC853BFFED963BFBE, 0xAA43DDEEB675278E, 0x902AD4D631D0F2C2,
            0xB514C81EF998078A, 0xE140C954B5BB718D, 0xB579DB1351CB94EB, 0x3909A81E63206CE0,
            0x6AD6CBC87157ED64, 0x61566D2F0FBA078B, 0xFB0CAEC3C03B4712, 0x81C006539E48B4EF,
            0x93402526DD82173F, 0x5B29CAFBED2C6AB9, 0xC8DB32D44F83E27B, 0xC79097A55FDE8F07,
            0x8698A2C56192BD09, 0xE849B55630D515AA, 0x19A5D7F98161C116, 0x0C28919AEBA29FBD,
            0x371CDC3C5004D0BB, 0x59801235D3782EAC, 0x41B81019E6B334DB, 0x2DC123E20D41403B,
            0x784F9030AB0B437D, 0x3518880A6AF519BA, 0xFAF1F56AEBFF6D85, 0xDE4661C6DA1A8F8A,
        ]),
    ];

    #[test]
    fn generator_matches_recorded_streams() {
        for (seed, want) in GOLDEN_STREAMS {
            let mut rng = SeededRng::new(seed);
            let got: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
            assert_eq!(got, want, "seed {seed}");
        }
        let (mut a, mut b) = (SeededRng::new(42), SeededRng::new(42));
        for _ in 0..32 {
            let u = a.next_unit();
            assert_eq!(u, (b.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
            assert!((0.0..1.0).contains(&u));
        }
    }

    /// One jitter stream (seed `0x5EED`) over attempts 0..=12, recorded
    /// from the earlier serve-loop and client backoff functions.
    fn backoff_run(base_us: u64, cap_us: u64) -> Vec<u64> {
        let mut rng = SeededRng::new(0x5EED);
        (0..=12)
            .map(|a| backoff_delay(base_us, cap_us, a, &mut rng).as_micros() as u64)
            .collect()
    }

    #[test]
    fn backoff_matches_recorded_delays() {
        // `FaultPolicy::default()`: 50 us base, 2 ms cap.
        assert_eq!(
            backoff_run(50, 2_000),
            [27, 75, 192, 393, 541, 838, 1514, 1261, 1870, 1963, 1332, 1900, 1719]
        );
        // Client reconnects: 2 ms base, 200 ms cap.
        assert_eq!(
            backoff_run(2_000, 200_000),
            [
                1366, 2643, 6607, 10821, 19349, 59416, 93116, 166800, 100518, 150155, 126369,
                128719, 125986
            ]
        );
    }

    #[test]
    fn backoff_stays_in_its_jitter_window() {
        for (base, cap) in [(50, 2_000), (2_000, 200_000), (7, 3), (1, u64::MAX)] {
            let mut rng = SeededRng::new(base ^ cap);
            for attempt in 0..40 {
                let delay = base.saturating_mul(1 << attempt.min(16)).min(cap.max(base));
                let d = backoff_delay(base, cap, attempt, &mut rng).as_micros() as u64;
                assert!(
                    delay / 2 <= d && d <= delay,
                    "{d} outside [{delay}/2, {delay}]"
                );
                assert!(d <= cap.max(base), "cap exceeded");
            }
        }
        let mut rng = SeededRng::new(9);
        let before = rng;
        assert_eq!(backoff_delay(0, 2_000, 3, &mut rng), Duration::ZERO);
        assert_eq!(rng, before, "a zero delay draws nothing");
    }
}
