//! Standing PDR subscriptions with incremental delta answers.
//!
//! A [`Subscription`] is a PDR query that stays registered: instead of
//! recomputing `query(ρ, l, q_t)` from scratch every tick, the engine
//! maintains the subscription's canonical answer across
//! `apply_batch`/`advance_to` and emits an [`AnswerDelta`] — the exact
//! rectangle-level patch between the previous canonical answer and the
//! new one. Because every engine answer is canonicalized (the maximal
//! slab decomposition is a pure function of the dense point set, see
//! [`RegionSet::canonicalize`]), the patched answer is **bit-identical**
//! to a from-scratch `query` at every tick; the incremental path only
//! changes *how much work* producing it costs, never the bytes.
//!
//! The [`SubscriptionTable`] is the per-engine registry: it owns the
//! subscriptions, their last committed answers, and the diff logic.
//! Engines expose it through
//! [`DensityEngine::subscriptions`](crate::DensityEngine::subscriptions).
//!
//! One maintenance loop serves every engine
//! ([`DensityEngine::maintain_subscriptions`](crate::DensityEngine::maintain_subscriptions)):
//! the table groups the standing queries by `(ρ, l, resolved q_t)`, the
//! engine evaluates each group's full-domain answer once through
//! [`DensityEngine::eval_groups`](crate::DensityEngine::eval_groups), and
//! the table commits each subscription's clipped answer — or marks it
//! degraded when its group failed. Engines differ only in how they
//! evaluate a group: the default runs one `try_query` per group, while
//! FR and DH answer through a [`GroupMemo`], which keeps each group's
//! last whole answer and reuses it while the histogram epoch stands.
//! Once the epoch moves the group is simply evaluated afresh: under the
//! update protocol an engine's state is a function of the live reports,
//! so a fresh evaluation *is* the maintained answer. A sharded plane
//! keeps the only table; its shards hold no subscriptions and only
//! evaluate the groups the plane hands them.

use crate::obs::{Histogram, HistogramSnapshot};
use crate::PdrQuery;
use pdr_geometry::{Rect, RegionSet};
use pdr_mobject::Timestamp;
use pdr_storage::StorageError;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Identifier of a standing subscription, unique within one engine
/// plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId(pub u64);

/// How a standing query's evaluation timestamp tracks the clock.
///
/// Both policies resolve to a timestamp `≥ now`: the engines' horizon
/// ring buffer recycles the slots of past timestamps, so a standing
/// query about the past is clamped to the present, the oldest moment
/// the engine can still answer for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QtPolicy {
    /// Evaluate at a fixed timestamp, clamped up to `now` once the
    /// clock passes it.
    Fixed(Timestamp),
    /// Evaluate `offset` timestamps into the prediction window, sliding
    /// with the clock (`q_t = now + offset`).
    NowPlus(u64),
}

impl QtPolicy {
    /// The evaluation timestamp at clock `now` (always `≥ now`).
    pub fn resolve(&self, now: Timestamp) -> Timestamp {
        match self {
            QtPolicy::Fixed(t) => (*t).max(now),
            QtPolicy::NowPlus(offset) => now + offset,
        }
    }
}

/// A standing PDR query: `(ρ, l, q_t policy)` restricted to a region of
/// interest.
#[derive(Clone, Copy, Debug)]
pub struct Subscription {
    /// Table-assigned identifier.
    pub id: SubId,
    /// Density threshold ρ (objects per unit²).
    pub rho: f64,
    /// Neighborhood edge length `l`.
    pub l: f64,
    /// Region of interest: the maintained answer is the engine's dense
    /// region clipped to this rectangle (then canonicalized).
    pub region: Rect,
    /// How `q_t` tracks the clock.
    pub policy: QtPolicy,
}

/// The incremental patch between two consecutive canonical answers of
/// one subscription.
///
/// Applying the patch to the previous canonical rectangle list — remove
/// every rect of `removed` (exact bit match), append `added`, re-sort —
/// reproduces the new canonical answer rect-for-rect
/// ([`apply_to`](AnswerDelta::apply_to)).
#[derive(Clone, Debug)]
pub struct AnswerDelta {
    /// The subscription this patch belongs to.
    pub id: SubId,
    /// The clock tick the patch was produced at.
    pub now: Timestamp,
    /// The resolved evaluation timestamp.
    pub q_t: Timestamp,
    /// Rectangles present in the new answer but not the old.
    pub added: Vec<Rect>,
    /// Rectangles present in the old answer but not the new.
    pub removed: Vec<Rect>,
    /// `true` while the engine cannot maintain this subscription
    /// exactly (e.g. its owning shard is fault-degraded). A degraded
    /// patch carries no rects — the previous answer stays authoritative
    /// but stale; the first non-degraded patch afterwards catches up.
    pub degraded: bool,
    /// `true` on the first patch emitted after the subscription was
    /// re-routed to a new owner set (a shard split, merge, or plane
    /// restore). The patch itself is still an exact diff — consumers
    /// replay it like any other — the marker only tells them the
    /// serving topology changed underneath the subscription.
    pub resync: bool,
}

/// Canonical rectangle order: the total order
/// [`RegionSet::canonicalize`] sorts by, extended over all four
/// coordinates so it is total on arbitrary rect lists.
pub fn rect_cmp(a: &Rect, b: &Rect) -> std::cmp::Ordering {
    a.x_lo
        .total_cmp(&b.x_lo)
        .then(a.y_lo.total_cmp(&b.y_lo))
        .then(a.x_hi.total_cmp(&b.x_hi))
        .then(a.y_hi.total_cmp(&b.y_hi))
}

/// Exact diff of two canonical (sorted, disjoint) rectangle lists:
/// returns `(added, removed)` such that removing `removed` from `old`
/// and appending `added` (re-sorted) reproduces `new` bit-for-bit.
/// Linear merge walk — no geometry, pure bit comparison.
pub fn diff_canonical(old: &[Rect], new: &[Rect]) -> (Vec<Rect>, Vec<Rect>) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < new.len() {
        match rect_cmp(&old[i], &new[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                removed.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j]);
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
    (added, removed)
}

impl AnswerDelta {
    /// `true` when the patch changes nothing (and carries no
    /// degradation transition worth reporting).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Applies the patch to a canonical rectangle list in place,
    /// reproducing the next canonical answer bit-for-bit. Degraded
    /// patches carry no rects, so applying them is a no-op.
    pub fn apply_to(&self, rects: &mut Vec<Rect>) {
        if !self.removed.is_empty() {
            // Both lists are sorted in canonical order: subtract with
            // one merge walk.
            let mut k = 0usize;
            rects.retain(|r| {
                while k < self.removed.len()
                    && rect_cmp(&self.removed[k], r) == std::cmp::Ordering::Less
                {
                    k += 1;
                }
                !(k < self.removed.len()
                    && rect_cmp(&self.removed[k], r) == std::cmp::Ordering::Equal)
            });
        }
        rects.extend_from_slice(&self.added);
        rects.sort_by(rect_cmp);
    }

    /// Serializes the patch for the wire protocol. Coordinates use
    /// shortest-roundtrip formatting (not the metrics plane's rounded
    /// [`json_f64`](crate::obs::json_f64)): a patch's `removed` rects
    /// must match the consumer's replayed answer bit-for-bit, so the
    /// wire must preserve every coordinate exactly.
    pub fn to_json(&self) -> String {
        fn coord(x: f64) -> String {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_string()
            }
        }
        fn rects_json(rects: &[Rect]) -> String {
            let items: Vec<String> = rects
                .iter()
                .map(|r| {
                    format!(
                        "[{},{},{},{}]",
                        coord(r.x_lo),
                        coord(r.y_lo),
                        coord(r.x_hi),
                        coord(r.y_hi)
                    )
                })
                .collect();
            format!("[{}]", items.join(","))
        }
        format!(
            "{{\"sub\":{},\"t\":{},\"q_t\":{},\"degraded\":{},\"resync\":{},\"added\":{},\"removed\":{}}}",
            self.id.0,
            self.now,
            self.q_t,
            self.degraded,
            self.resync,
            rects_json(&self.added),
            rects_json(&self.removed)
        )
    }
}

/// Why a subscription could not be registered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubError {
    /// The requested neighborhood edge exceeds what the engine's shard
    /// halos cover: maintaining it would silently lose density at cut
    /// lines, so registration is refused instead.
    EdgeExceedsHalo {
        /// The requested edge length.
        l: f64,
        /// The largest edge the plane was built for.
        l_max: f64,
    },
    /// A query parameter is non-finite or non-positive.
    InvalidQuery,
}

impl std::fmt::Display for SubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubError::EdgeExceedsHalo { l, l_max } => write!(
                f,
                "query edge l = {l} exceeds the sharded plane's l_max = {l_max}: \
                 the halo cannot cover it and density would be lost at cut lines"
            ),
            SubError::InvalidQuery => {
                write!(f, "subscription parameters must be finite and positive")
            }
        }
    }
}

impl std::error::Error for SubError {}

/// One subscription's mutable state inside the table.
#[derive(Clone, Debug)]
struct SubState {
    sub: Subscription,
    /// Last committed canonical answer (clipped to the region).
    answer: Vec<Rect>,
    degraded: bool,
    /// Set when the owner set serving this subscription changed (shard
    /// split/merge/restore); the next emitted patch carries the
    /// `resync` marker and clears the flag.
    resync: bool,
}

/// The bit-exact identity of a standing-query group, `(ρ, l, resolved
/// q_t)`: ρ and `l` by bit pattern, so `0.05` and `0.05000…1` are
/// distinct groups.
pub(crate) type GroupKey = (u64, u64, Timestamp);

/// The group key of a (resolved) group query.
pub(crate) fn group_key(q: &PdrQuery) -> GroupKey {
    (q.rho.to_bits(), q.l.to_bits(), q.q_t)
}

/// The last whole answer of each standing-query group, tagged with the
/// histogram epoch it was evaluated at — the group-answer reuse of the
/// engines whose state is one epoch-stamped histogram (FR, DH). An
/// unchanged epoch means no update or advance changed the histogram
/// since the answer was stored, so it still is the engine's answer; any
/// other epoch re-evaluates.
#[derive(Debug, Default)]
pub(crate) struct GroupMemo {
    entries: HashMap<GroupKey, (u64, RegionSet)>,
}

impl GroupMemo {
    /// Answers `groups`, in order, at histogram epoch `epoch`: first
    /// drops the entry of every group not among `groups` (unregistered,
    /// or a sliding `q_t` moved on), then serves each group stored at
    /// `epoch` and evaluates (and stores) the rest through `eval`. A
    /// failed evaluation leaves the group's previous entry in place.
    pub(crate) fn answer(
        &mut self,
        groups: &[PdrQuery],
        epoch: u64,
        mut eval: impl FnMut(&PdrQuery) -> Result<RegionSet, StorageError>,
    ) -> Vec<Result<RegionSet, StorageError>> {
        self.entries
            .retain(|k, _| groups.iter().any(|q| group_key(q) == *k));
        groups
            .iter()
            .map(|q| {
                let key = group_key(q);
                if let Some((_, hit)) = self.entries.get(&key).filter(|(e, _)| *e == epoch) {
                    return Ok(hit.clone());
                }
                let answer = eval(q)?;
                self.entries.insert(key, (epoch, answer.clone()));
                Ok(answer)
            })
            .collect()
    }

    /// Forgets every entry (a restored histogram restarts its epochs).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// One maintenance pass between
/// [`begin_pass`](SubscriptionTable::begin_pass) and
/// [`finish_pass`](SubscriptionTable::finish_pass).
#[derive(Debug)]
pub(crate) struct Pass {
    now: Timestamp,
    /// Set when the pass is timed (accounting on, table non-empty).
    started: Option<Instant>,
    /// The distinct `(ρ, l, resolved q_t)` group queries, in key order.
    pub(crate) groups: Vec<PdrQuery>,
    /// Every subscription, in id order, with the index of its group in
    /// `groups`.
    pub(crate) members: Vec<(Subscription, usize)>,
}

/// Per-engine registry of standing subscriptions: owns the
/// subscriptions, their last committed canonical answers, the diff
/// logic, and the maintenance-pass accounting. Deterministic iteration
/// order (by id).
#[derive(Debug, Default)]
pub struct SubscriptionTable {
    subs: BTreeMap<u64, SubState>,
    next_id: u64,
    /// Pass accounting is skipped — not even a clock read — while set.
    obs_off: bool,
    /// Patches emitted by maintenance passes.
    deltas_emitted: u64,
    /// Wall-clock latency of whole maintenance passes.
    pass_latency: Histogram,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SubscriptionTable::default()
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Registers a standing query and returns its fresh id. The initial
    /// committed answer is empty: the first maintenance pass emits the
    /// full current answer as `added`.
    pub fn register(
        &mut self,
        rho: f64,
        l: f64,
        region: Rect,
        policy: QtPolicy,
    ) -> Result<SubId, SubError> {
        if !(rho.is_finite() && rho > 0.0 && l.is_finite() && l > 0.0) {
            return Err(SubError::InvalidQuery);
        }
        let id = SubId(self.next_id);
        self.next_id += 1;
        let sub = Subscription {
            id,
            rho,
            l,
            region,
            policy,
        };
        self.subs.insert(
            id.0,
            SubState {
                sub,
                answer: Vec::new(),
                degraded: false,
                resync: false,
            },
        );
        Ok(id)
    }

    /// Flags every subscription for a topology resync: its next patch
    /// (even an otherwise-silent one) is emitted with `resync: true`.
    /// The sharded plane calls this after a split, merge or reshaping
    /// restore, so consumers learn the serving topology changed.
    pub fn mark_resync_all(&mut self) {
        for state in self.subs.values_mut() {
            state.resync = true;
        }
    }

    /// Removes a subscription; `false` when the id is unknown.
    pub fn unregister(&mut self, id: SubId) -> bool {
        self.subs.remove(&id.0).is_some()
    }

    /// `true` when `id` is registered.
    pub fn contains(&self, id: SubId) -> bool {
        self.subs.contains_key(&id.0)
    }

    /// The registered subscriptions, in id order.
    pub fn subs(&self) -> impl Iterator<Item = &Subscription> + '_ {
        self.subs.values().map(|s| &s.sub)
    }

    /// One subscription's spec.
    pub fn get(&self, id: SubId) -> Option<&Subscription> {
        self.subs.get(&id.0).map(|s| &s.sub)
    }

    /// The last committed canonical answer of `id` (empty before the
    /// first maintenance pass).
    pub fn answer(&self, id: SubId) -> Option<&[Rect]> {
        self.subs.get(&id.0).map(|s| s.answer.as_slice())
    }

    /// Whether `id` is currently marked degraded.
    pub fn is_degraded(&self, id: SubId) -> Option<bool> {
        self.subs.get(&id.0).map(|s| s.degraded)
    }

    /// Clips an engine answer to a subscription region and
    /// re-canonicalizes — the invariant every committed answer obeys:
    /// `answer = canonicalize(clip(query(q).regions, region))`.
    pub fn clip(full: &RegionSet, region: Rect) -> RegionSet {
        RegionSet::union_disjoint_clipped([(full, region)])
    }

    /// Starts a maintenance pass at clock `now`: groups the standing
    /// queries by `(ρ, l, resolved q_t)`. The engine evaluates each of
    /// the pass's groups once and hands the answers to
    /// [`finish_pass`](Self::finish_pass).
    pub(crate) fn begin_pass(&self, now: Timestamp) -> Pass {
        let queries: Vec<(Subscription, PdrQuery)> = self
            .subs
            .values()
            .map(|st| {
                let s = st.sub;
                (s, PdrQuery::new(s.rho, s.l, s.policy.resolve(now)))
            })
            .collect();
        let mut index: BTreeMap<GroupKey, (usize, PdrQuery)> = queries
            .iter()
            .map(|(_, q)| (group_key(q), (0, *q)))
            .collect();
        let mut groups = Vec::with_capacity(index.len());
        for (slot, q) in index.values_mut() {
            *slot = groups.len();
            groups.push(*q);
        }
        Pass {
            now,
            started: (!self.obs_off && !queries.is_empty()).then(Instant::now),
            groups,
            members: queries
                .iter()
                .map(|(s, q)| (*s, index[&group_key(q)].0))
                .collect(),
        }
    }

    /// Ends a maintenance pass: commits `answer(sub, group)` — the
    /// subscription's canonical answer, already clipped to its region —
    /// for every subscription of the pass, or marks it degraded when
    /// `answer` is `None` (its group, or a shard it needs, failed).
    /// Returns the emitted patches in id order.
    pub(crate) fn finish_pass(
        &mut self,
        pass: Pass,
        mut answer: impl FnMut(&Subscription, usize) -> Option<RegionSet>,
    ) -> Vec<AnswerDelta> {
        let mut deltas = Vec::new();
        for (sub, g) in &pass.members {
            let q_t = pass.groups[*g].q_t;
            let delta = match answer(sub, *g) {
                Some(clipped) => self.commit(sub.id, clipped, pass.now, q_t),
                None => self.mark_degraded(sub.id, pass.now, q_t),
            };
            deltas.extend(delta);
        }
        if let Some(started) = pass.started {
            self.pass_latency.record(started.elapsed());
            self.deltas_emitted += deltas.len() as u64;
        }
        deltas
    }

    /// Turns pass accounting ([`deltas_emitted`](Self::deltas_emitted),
    /// [`pass_latency`](Self::pass_latency)) on or off; on by default.
    pub(crate) fn set_obs_enabled(&mut self, on: bool) {
        self.obs_off = !on;
    }

    /// Patches emitted by maintenance passes so far.
    pub(crate) fn deltas_emitted(&self) -> u64 {
        self.deltas_emitted
    }

    /// Latency of whole maintenance passes (passes over an empty table
    /// are not recorded).
    pub(crate) fn pass_latency(&self) -> HistogramSnapshot {
        self.pass_latency.snapshot()
    }

    /// Commits a freshly computed canonical answer for `id`, clearing
    /// any degradation, and returns the patch against the previous
    /// committed answer. `None` when nothing changed (no rect moved, no
    /// degradation to clear) or the id is unknown.
    fn commit(
        &mut self,
        id: SubId,
        answer: RegionSet,
        now: Timestamp,
        q_t: Timestamp,
    ) -> Option<AnswerDelta> {
        let state = self.subs.get_mut(&id.0)?;
        let new: Vec<Rect> = answer.rects().to_vec();
        let (added, removed) = diff_canonical(&state.answer, &new);
        let was_degraded = state.degraded;
        let resync = state.resync;
        state.answer = new;
        state.degraded = false;
        state.resync = false;
        if added.is_empty() && removed.is_empty() && !was_degraded && !resync {
            return None;
        }
        Some(AnswerDelta {
            id,
            now,
            q_t,
            added,
            removed,
            degraded: false,
            resync,
        })
    }

    /// Marks `id` degraded: the stored answer is left untouched (stale
    /// but correct as of its commit) and a rect-free degraded patch is
    /// returned on the transition into degradation. Repeated marks stay
    /// silent.
    fn mark_degraded(&mut self, id: SubId, now: Timestamp, q_t: Timestamp) -> Option<AnswerDelta> {
        let state = self.subs.get_mut(&id.0)?;
        if state.degraded {
            return None;
        }
        state.degraded = true;
        let resync = state.resync;
        state.resync = false;
        Some(AnswerDelta {
            id,
            now,
            q_t,
            added: Vec::new(),
            removed: Vec::new(),
            degraded: true,
            resync,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x_lo: f64, y_lo: f64, x_hi: f64, y_hi: f64) -> Rect {
        Rect::new(x_lo, y_lo, x_hi, y_hi)
    }

    #[test]
    fn diff_and_apply_round_trip() {
        let old = vec![r(0.0, 0.0, 1.0, 1.0), r(2.0, 0.0, 3.0, 1.0)];
        let new = vec![
            r(0.0, 0.0, 1.0, 1.0),
            r(2.0, 0.0, 3.0, 2.0),
            r(5.0, 5.0, 6.0, 6.0),
        ];
        let (added, removed) = diff_canonical(&old, &new);
        assert_eq!(removed, vec![r(2.0, 0.0, 3.0, 1.0)]);
        assert_eq!(added, vec![r(2.0, 0.0, 3.0, 2.0), r(5.0, 5.0, 6.0, 6.0)]);
        let delta = AnswerDelta {
            id: SubId(0),
            now: 1,
            q_t: 1,
            added,
            removed,
            degraded: false,
            resync: false,
        };
        let mut replay = old.clone();
        delta.apply_to(&mut replay);
        assert_eq!(replay, new, "patched answer must equal the new answer");
    }

    #[test]
    fn commit_emits_patches_and_degradation_transitions() {
        let mut t = SubscriptionTable::new();
        let id = t
            .register(0.1, 10.0, r(0.0, 0.0, 100.0, 100.0), QtPolicy::NowPlus(2))
            .unwrap();
        assert_eq!(t.answer(id), Some(&[][..]));
        // First commit: the whole answer arrives as `added`.
        let ans = RegionSet::from_rects([r(1.0, 1.0, 2.0, 2.0)]);
        let d = t.commit(id, ans.clone(), 0, 2).expect("first commit emits");
        assert_eq!(d.added.len(), 1);
        assert!(d.removed.is_empty());
        // Identical commit: silent.
        assert!(t.commit(id, ans.clone(), 1, 3).is_none());
        // Degradation: one transition patch, then silence.
        let d = t.mark_degraded(id, 2, 4).expect("transition emits");
        assert!(d.degraded && d.is_empty());
        assert!(t.mark_degraded(id, 3, 5).is_none());
        assert_eq!(t.is_degraded(id), Some(true));
        // Recovery with an unchanged answer still emits (clears the flag).
        let d = t.commit(id, ans, 4, 6).expect("recovery emits");
        assert!(!d.degraded && d.is_empty());
        assert_eq!(t.is_degraded(id), Some(false));
        assert!(t.unregister(id));
        assert!(!t.unregister(id));
    }

    #[test]
    fn resync_marker_rides_the_next_patch_once() {
        let mut t = SubscriptionTable::new();
        let id = t
            .register(0.1, 10.0, r(0.0, 0.0, 100.0, 100.0), QtPolicy::NowPlus(1))
            .unwrap();
        let ans = RegionSet::from_rects([r(1.0, 1.0, 2.0, 2.0)]);
        let d = t.commit(id, ans.clone(), 0, 1).expect("first commit emits");
        assert!(!d.resync);
        // An unchanged commit is silent — until a resync is pending, in
        // which case the marker forces an (otherwise empty) patch out.
        assert!(t.commit(id, ans.clone(), 1, 2).is_none());
        t.mark_resync_all();
        let d = t
            .commit(id, ans.clone(), 2, 3)
            .expect("resync forces a patch");
        assert!(d.resync && d.is_empty() && !d.degraded);
        // The flag is one-shot.
        assert!(t.commit(id, ans, 3, 4).is_none());
    }

    /// The memo's contract: a group stored at the pass's epoch is served
    /// without evaluating, any other epoch re-evaluates, a group missing
    /// from a pass is evicted, and a failed evaluation keeps the group's
    /// previous entry.
    #[test]
    fn group_memo_hits_evicts_and_keeps_entries_past_failures() {
        let (a, b) = (PdrQuery::new(0.1, 10.0, 1), PdrQuery::new(0.2, 10.0, 1));
        let ans = |q: &PdrQuery| RegionSet::from_rects([r(q.rho, 0.0, 1.0, 1.0)]);
        let pass = |memo: &mut GroupMemo, groups: &[PdrQuery], epoch: u64| {
            let mut evals = 0;
            let out = memo.answer(groups, epoch, |q| {
                evals += 1;
                Ok(ans(q))
            });
            for (q, got) in groups.iter().zip(out) {
                assert_eq!(got.unwrap().rects(), ans(q).rects());
            }
            evals
        };
        let mut memo = GroupMemo::default();
        assert_eq!(pass(&mut memo, &[a, b], 1), 2);
        assert_eq!(pass(&mut memo, &[a, b], 1), 0, "same epoch: both hits");
        assert_eq!(pass(&mut memo, &[a, b], 2), 2, "new epoch: both evaluated");
        assert_eq!(pass(&mut memo, &[a], 2), 0);
        assert_eq!(pass(&mut memo, &[a, b], 2), 1, "dropped group was evicted");

        let fault = StorageError::ReadFailed {
            page: pdr_storage::PageId(0),
            transient: true,
        };
        let out = memo.answer(
            &[a, b],
            3,
            |q| if q == &b { Err(fault) } else { Ok(ans(q)) },
        );
        assert_eq!(out[1], Err(fault));
        assert_eq!(
            pass(&mut memo, &[b], 2),
            0,
            "the failure kept b's epoch-2 entry"
        );
    }

    #[test]
    fn register_rejects_garbage_and_policies_resolve_forward() {
        let mut t = SubscriptionTable::new();
        let region = r(0.0, 0.0, 10.0, 10.0);
        assert_eq!(
            t.register(f64::NAN, 10.0, region, QtPolicy::NowPlus(0)),
            Err(SubError::InvalidQuery)
        );
        assert_eq!(
            t.register(0.1, -1.0, region, QtPolicy::NowPlus(0)),
            Err(SubError::InvalidQuery)
        );
        assert_eq!(QtPolicy::Fixed(5).resolve(3), 5);
        assert_eq!(QtPolicy::Fixed(5).resolve(9), 9, "past q_t clamps to now");
        assert_eq!(QtPolicy::NowPlus(2).resolve(7), 9);
    }
}
