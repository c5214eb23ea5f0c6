//! Deterministic fault injection for the simulated storage plane.
//!
//! A [`FaultPlan`] is a declarative, seeded schedule of storage faults
//! injected beneath the [`BufferPool`](crate::BufferPool) at the
//! [`Disk`](crate::Disk) layer. Faults are *deterministic*: the same
//! plan against the same I/O sequence injects the same faults, so every
//! failure scenario in the test suite and the serve smoke is
//! reproducible. Three kinds of faults are modelled:
//!
//! * **read faults** — the device refuses to return a page
//!   ([`StorageError::ReadFailed`]), either transiently (a bounded
//!   number of times; a retry succeeds) or permanently;
//! * **write faults** — the device refuses a page write
//!   ([`StorageError::WriteFailed`]);
//! * **torn writes** — the write *appears* to succeed but only a prefix
//!   of the page reaches the platter. The damage is silent at write
//!   time and is detected on a later read by the per-page CRC32
//!   checksum as [`StorageError::Corrupt`] — corruption is detected,
//!   never consumed.
//!
//! Plans can be built programmatically ([`FaultPlan::new`] +
//! [`FaultPlan::with_read_fault`] and friends) or parsed from the
//! [shared plan-file grammar](crate::seeded) ([`FaultPlan::parse`]),
//! one rule per line:
//!
//! ```text
//! # transient: reads 5..7 (1-based) fail, retries after that succeed
//! read nth=5 times=3
//! # permanent: every read of page 7 fails forever
//! read page=7 permanent
//! # the 2nd disk write is torn (first sector only reaches disk)
//! torn write nth=2
//! # seeded probabilistic faults: each read fails with p=0.01,
//! # at most 4 injections
//! seed 42
//! read prob=0.01 times=4
//! ```

use crate::seeded::{parse_plan, PlanError, SeededRng, Trigger};
use crate::{PageId, PAGE_SIZE};
use std::fmt;

/// Bytes of a torn write that actually reach the disk (the first
/// "sector" of the 4 KiB page). The stored checksum covers the full
/// intended page, so the next read detects the tear.
pub const TORN_WRITE_PREFIX: usize = 512;

/// Typed error for the fallible storage paths, replacing panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// The device failed to read `page`. `transient` faults succeed
    /// when retried; permanent ones never do.
    ReadFailed {
        /// Page whose read failed.
        page: PageId,
        /// Whether a retry can succeed.
        transient: bool,
    },
    /// The device failed to write `page`.
    WriteFailed {
        /// Page whose write failed.
        page: PageId,
        /// Whether a retry can succeed.
        transient: bool,
    },
    /// The page's content does not match its recorded CRC32 checksum
    /// (e.g. after a torn write). The damage is on the platter:
    /// retrying the read returns the same error, but restoring the
    /// data from a checkpoint can repair it.
    Corrupt {
        /// Page whose checksum verification failed.
        page: PageId,
    },
}

impl StorageError {
    /// `true` when simply retrying the same operation may succeed.
    pub fn is_transient(&self) -> bool {
        match *self {
            StorageError::ReadFailed { transient, .. } => transient,
            StorageError::WriteFailed { transient, .. } => transient,
            StorageError::Corrupt { .. } => false,
        }
    }

    /// `true` for checksum failures, which re-writing the data (e.g.
    /// restoring from a checkpoint) can repair — unlike a device that
    /// permanently refuses reads.
    pub fn is_corruption(&self) -> bool {
        matches!(self, StorageError::Corrupt { .. })
    }

    /// The page the error refers to.
    pub fn page(&self) -> PageId {
        match *self {
            StorageError::ReadFailed { page, .. }
            | StorageError::WriteFailed { page, .. }
            | StorageError::Corrupt { page } => page,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StorageError::ReadFailed { page, transient } => {
                let kind = if transient { "transient" } else { "permanent" };
                write!(f, "{kind} read failure on {page:?}")
            }
            StorageError::WriteFailed { page, transient } => {
                let kind = if transient { "transient" } else { "permanent" };
                write!(f, "{kind} write failure on {page:?}")
            }
            StorageError::Corrupt { page } => write!(f, "checksum mismatch on {page:?}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Counters for faults the plan actually injected (and checksum
/// failures the CRC layer caught), surfaced through the pool and the
/// serve metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Read operations failed by the plan.
    pub read_faults: u64,
    /// Write operations failed by the plan.
    pub write_faults: u64,
    /// Writes silently torn by the plan.
    pub torn_writes: u64,
    /// Reads that failed CRC32 verification.
    pub crc_failures: u64,
}

impl FaultStats {
    /// Total faults injected by the plan (checksum failures are a
    /// *consequence* of torn writes, not an extra injection).
    pub fn injected(&self) -> u64 {
        self.read_faults + self.write_faults + self.torn_writes
    }
}

impl std::ops::AddAssign for FaultStats {
    fn add_assign(&mut self, rhs: FaultStats) {
        self.read_faults += rhs.read_faults;
        self.write_faults += rhs.write_faults;
        self.torn_writes += rhs.torn_writes;
        self.crc_failures += rhs.crc_failures;
    }
}

/// Which operation a rule applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultOp {
    Read,
    Write,
}

/// One declarative fault rule. Built through [`FaultPlan`] helpers or
/// the plan-file parser.
#[derive(Clone, Debug)]
struct FaultRule {
    op: FaultOp,
    /// Restrict the rule to one page (otherwise any page matches).
    page: Option<u32>,
    /// Torn write instead of an error (write rules only).
    torn: bool,
    trigger: Trigger,
}

impl FaultRule {
    /// Decides whether the rule fires for the next operation on `page`.
    /// Operations on other pages do not count towards the trigger.
    fn check(&mut self, page: PageId, rng: &mut SeededRng) -> bool {
        self.page.is_none_or(|p| p == page.0) && self.trigger.fire(rng)
    }
}

/// A seeded, declarative schedule of storage faults. Install it on a
/// pool with [`BufferPool::set_fault_plan`](crate::BufferPool::set_fault_plan);
/// the [`Disk`](crate::Disk) consults it on every physical read and
/// write.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    rng: SeededRng,
}

/// Seed of plans that do not name one.
const DEFAULT_SEED: u64 = 0x5EED_CAFE;

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(DEFAULT_SEED)
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given probability seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
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

    fn with_rule(mut self, op: FaultOp, page: Option<u32>, torn: bool, trigger: Trigger) -> Self {
        self.rules.push(FaultRule {
            op,
            page,
            torn,
            trigger,
        });
        self
    }

    /// Adds a transient read fault burst: matching reads number
    /// `nth..nth+times` (1-based) fail; later reads succeed.
    pub fn with_read_fault(self, nth: u64, times: u64) -> Self {
        self.with_rule(FaultOp::Read, None, false, Trigger::nth(nth, Some(times)))
    }

    /// Adds a permanent read fault on one page: every read of `page`
    /// fails forever.
    pub fn with_permanent_page_fault(self, page: u32) -> Self {
        self.with_rule(FaultOp::Read, Some(page), false, Trigger::always(None))
    }

    /// Adds a permanent read fault on *every* page: the device refuses
    /// all physical reads from the `nth` one on.
    pub fn with_permanent_read_fault(self, nth: u64) -> Self {
        self.with_rule(FaultOp::Read, None, false, Trigger::nth(nth, None))
    }

    /// Adds a transient write fault burst analogous to
    /// [`with_read_fault`](Self::with_read_fault).
    pub fn with_write_fault(self, nth: u64, times: u64) -> Self {
        self.with_rule(FaultOp::Write, None, false, Trigger::nth(nth, Some(times)))
    }

    /// Adds a torn write: the `nth` matching write (optionally
    /// restricted to `page`) silently persists only its first
    /// [`TORN_WRITE_PREFIX`] bytes.
    pub fn with_torn_write(self, nth: u64, page: Option<u32>) -> Self {
        self.with_rule(FaultOp::Write, page, true, Trigger::nth(nth, Some(1)))
    }

    /// Parses the plan-file format: the [shared grammar](crate::seeded)
    /// with these head words and one extra key:
    ///
    /// ```text
    /// [torn] read|write [page=<u32>] <trigger words>
    /// ```
    ///
    /// `page` restricts the rule to one page; operations on other pages
    /// do not count towards its trigger. `torn` is only valid on
    /// `write` rules and cannot be `permanent`.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        let (seed, rules) = parse_plan(text, |words| {
            let mut head = words.next().unwrap_or_default();
            let torn = head == "torn";
            if torn {
                head = words.next().ok_or("torn needs write")?;
            }
            let op = match head {
                "read" => FaultOp::Read,
                "write" => FaultOp::Write,
                _ => return Err("expected read or write"),
            };
            if torn && op != FaultOp::Write {
                return Err("torn is write-only");
            }
            let mut page = None;
            let trigger = Trigger::parse(words, |key, value| match key {
                "page" => {
                    page = Some(value.parse().map_err(|_| "bad page value")?);
                    Ok(())
                }
                _ => Err("unknown key"),
            })?;
            if torn && trigger.is_permanent() {
                return Err("torn cannot be permanent");
            }
            Ok(FaultRule {
                op,
                page,
                torn,
                trigger,
            })
        })?;
        Ok(FaultPlan {
            rules,
            rng: SeededRng::new(seed.unwrap_or(DEFAULT_SEED)),
        })
    }

    /// Consults the plan for a physical read of `page`. `Some(true)`
    /// means a transient fault, `Some(false)` permanent.
    pub(crate) fn check_read(&mut self, page: PageId) -> Option<bool> {
        let mut verdict = None;
        for rule in self.rules.iter_mut().filter(|r| r.op == FaultOp::Read) {
            if rule.check(page, &mut self.rng) {
                let transient = !rule.trigger.is_permanent();
                // Permanent verdicts dominate transient ones.
                verdict = Some(verdict.unwrap_or(true) && transient);
            }
        }
        verdict
    }

    /// Consults the plan for a physical write of `page`. Returns what
    /// should happen to the write.
    pub(crate) fn check_write(&mut self, page: PageId) -> WriteVerdict {
        let mut verdict = WriteVerdict::Ok;
        for rule in self.rules.iter_mut().filter(|r| r.op == FaultOp::Write) {
            if rule.check(page, &mut self.rng) {
                if rule.torn {
                    if verdict == WriteVerdict::Ok {
                        verdict = WriteVerdict::Torn;
                    }
                } else {
                    let transient = !rule.trigger.is_permanent();
                    verdict = match verdict {
                        WriteVerdict::Fail { transient: t } => WriteVerdict::Fail {
                            transient: t && transient,
                        },
                        _ => WriteVerdict::Fail { transient },
                    };
                }
            }
        }
        verdict
    }
}

/// Outcome of consulting the plan for a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteVerdict {
    Ok,
    Torn,
    Fail { transient: bool },
}

/// Compile-time sanity: a torn prefix must fit in a page.
const _: () = assert!(TORN_WRITE_PREFIX < PAGE_SIZE);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_burst_fires_exactly_times() {
        let mut plan = FaultPlan::default().with_read_fault(3, 2);
        let pg = PageId(0);
        let hits: Vec<bool> = (0..6).map(|_| plan.check_read(pg).is_some()).collect();
        assert_eq!(hits, [false, false, true, true, false, false]);
    }

    #[test]
    fn permanent_page_rule_only_hits_that_page() {
        let mut plan = FaultPlan::default().with_permanent_page_fault(7);
        assert_eq!(plan.check_read(PageId(3)), None);
        assert_eq!(plan.check_read(PageId(7)), Some(false), "permanent");
        assert_eq!(plan.check_read(PageId(7)), Some(false), "still failing");
    }

    #[test]
    fn torn_write_verdict() {
        let mut plan = FaultPlan::default().with_torn_write(2, None);
        assert_eq!(plan.check_write(PageId(0)), WriteVerdict::Ok);
        assert_eq!(plan.check_write(PageId(1)), WriteVerdict::Torn);
        assert_eq!(plan.check_write(PageId(1)), WriteVerdict::Ok, "one-shot");
    }

    #[test]
    fn parse_round_trip() {
        let text = "\
# a comment
seed 99

read nth=5 times=3   # trailing comment
read page=7 permanent
torn write nth=1
write every=4 times=2
read prob=0.5 times=1
";
        let plan = FaultPlan::parse(text).expect("plan parses");
        assert_eq!(plan.len(), 5);
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(FaultPlan::parse("torn read nth=1").is_err());
        assert!(FaultPlan::parse("fail nth=1").is_err());
        assert!(FaultPlan::parse("read nth=x").is_err());
        assert!(FaultPlan::parse("read prob=1.5").is_err());
        assert!(FaultPlan::parse("torn write nth=1 permanent").is_err());
        assert!(FaultPlan::parse("read nth=1 times=3 permanent").is_err());
        assert!(FaultPlan::parse("read nth=1 permanent times=3").is_err());
        let err = FaultPlan::parse("read nth=1\nwrite bogus").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn empty_and_comment_only_plans_are_clean() {
        let plan = FaultPlan::parse("# nothing\n\n").expect("parses");
        assert!(plan.is_empty());
    }

    #[test]
    fn every_rule_fires_periodically() {
        let mut plan = FaultPlan::parse("write every=3 times=2").expect("parses");
        let hits: Vec<bool> = (0..9)
            .map(|_| plan.check_write(PageId(0)) != WriteVerdict::Ok)
            .collect();
        assert_eq!(
            hits,
            [false, false, true, false, false, true, false, false, false]
        );
    }

    #[test]
    fn prob_rule_is_deterministic_for_a_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut plan =
                FaultPlan::parse(&format!("seed {seed}\nread prob=0.3 times=1000")).unwrap();
            (0..64)
                .map(|_| plan.check_read(PageId(0)).is_some())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
    }
}
