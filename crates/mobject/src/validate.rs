//! Input hardening for the update protocol.
//!
//! Reports come from the outside world — `MotionState`'s fields are
//! `pub`, so nothing structurally prevents a caller from assembling a
//! motion with NaN coordinates, duplicating an object id inside one
//! batch, or stamping an update with a timestamp the server's
//! ring-buffered summaries cannot place. Any of these would silently
//! poison the density counters. [`screen_batch`] classifies such
//! updates with a typed [`ReportError`] so engines can *count and skip*
//! them instead of debug-asserting deep inside a summary structure.

use crate::{MotionState, ObjectId, Timestamp, Update, UpdateKind};
use std::collections::HashSet;
use std::fmt;

/// Why a report (one [`Update`]) was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportError {
    /// A coordinate or velocity component is NaN or infinite.
    NonFinite {
        /// Object the bad report was for.
        id: ObjectId,
    },
    /// A second insertion of the same object id inside one batch
    /// (legitimate re-reports pair a deletion with the new insertion).
    DuplicateId {
        /// The duplicated id.
        id: ObjectId,
    },
    /// The update is not stamped with the server's current time, or an
    /// insertion's report was not taken when it arrived.
    OutsideHorizon {
        /// Object the report was for.
        id: ObjectId,
        /// The report's reference time.
        t_ref: Timestamp,
        /// The update's arrival time.
        t_now: Timestamp,
    },
}

impl ReportError {
    /// The object the rejected report was for.
    pub fn id(&self) -> ObjectId {
        match *self {
            ReportError::NonFinite { id }
            | ReportError::DuplicateId { id }
            | ReportError::OutsideHorizon { id, .. } => id,
        }
    }
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ReportError::NonFinite { id } => write!(f, "non-finite motion in report for {id:?}"),
            ReportError::DuplicateId { id } => {
                write!(f, "duplicate insertion of {id:?} in one batch")
            }
            ReportError::OutsideHorizon { id, t_ref, t_now } => write!(
                f,
                "report for {id:?} outside the time horizon (t_ref {t_ref}, t_now {t_now})"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

impl MotionState {
    /// Fallible [`new`](MotionState::new): returns
    /// [`ReportError::NonFinite`] instead of panicking, for validating
    /// externally sourced reports.
    pub fn try_new(
        id: ObjectId,
        origin: pdr_geometry::Point,
        velocity: pdr_geometry::Point,
        t_ref: Timestamp,
    ) -> Result<MotionState, ReportError> {
        if !origin.is_finite() || !velocity.is_finite() {
            return Err(ReportError::NonFinite { id });
        }
        Ok(MotionState {
            origin,
            velocity,
            t_ref,
        })
    }
}

/// Screens one update against the server's validity rules. An
/// insertion must carry a report taken when it arrives (`t_ref ==
/// t_now`, as [`Update::insert`] builds it). `base`, when given, is
/// the server's current time `t_base`, and every update must be
/// stamped with it: the server advances first, then applies. Under
/// both rules a per-timestamp summary holds, at any base, exactly the
/// spans `[t_ref, t_ref + H]` of the live reports (clipped to its
/// window), so it can be rebuilt from those reports alone.
pub fn screen_update(u: &Update, base: Option<Timestamp>) -> Result<(), ReportError> {
    let m = u.motion();
    if !m.origin.is_finite() || !m.velocity.is_finite() {
        return Err(ReportError::NonFinite { id: u.id });
    }
    let stale_insert = matches!(u.kind, UpdateKind::Insert { .. }) && m.t_ref != u.t_now;
    if stale_insert || base.is_some_and(|t_base| u.t_now != t_base) {
        return Err(ReportError::OutsideHorizon {
            id: u.id,
            t_ref: m.t_ref,
            t_now: u.t_now,
        });
    }
    Ok(())
}

/// Screens a whole batch: per-update checks via [`screen_update`] plus
/// the cross-update rule that an object id may be *inserted* at most
/// once per batch. Returns the indices of rejected updates with their
/// errors; accepted updates are the remaining indices, in order.
pub fn screen_batch(updates: &[Update], base: Option<Timestamp>) -> Vec<(usize, ReportError)> {
    let mut rejected = Vec::new();
    let mut inserted: HashSet<ObjectId> = HashSet::new();
    for (i, u) in updates.iter().enumerate() {
        if let Err(e) = screen_update(u, base) {
            rejected.push((i, e));
            continue;
        }
        if matches!(u.kind, UpdateKind::Insert { .. }) && !inserted.insert(u.id) {
            rejected.push((i, ReportError::DuplicateId { id: u.id }));
        }
    }
    rejected
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_geometry::Point;

    fn motion(t_ref: Timestamp) -> MotionState {
        MotionState::new(Point::new(10.0, 10.0), Point::new(1.0, 0.0), t_ref)
    }

    #[test]
    fn clean_batch_passes() {
        let batch = vec![
            Update::delete(ObjectId(1), 5, motion(2)),
            Update::insert(ObjectId(1), 5, motion(5)),
            Update::insert(ObjectId(2), 5, motion(5)),
        ];
        assert!(screen_batch(&batch, Some(5)).is_empty());
    }

    #[test]
    fn non_finite_motion_rejected() {
        let mut bad = motion(5);
        bad.velocity = Point::new(f64::NAN, 0.0); // pub field bypasses the ctor assert
        let batch = vec![Update::insert(ObjectId(7), 5, bad)];
        let rejected = screen_batch(&batch, None);
        assert_eq!(
            rejected,
            vec![(0, ReportError::NonFinite { id: ObjectId(7) })]
        );
    }

    #[test]
    fn duplicate_insert_rejected_but_delete_insert_pair_allowed() {
        let batch = vec![
            Update::delete(ObjectId(3), 5, motion(2)),
            Update::insert(ObjectId(3), 5, motion(5)),
            Update::insert(ObjectId(3), 5, motion(5)),
        ];
        let rejected = screen_batch(&batch, None);
        assert_eq!(
            rejected,
            vec![(2, ReportError::DuplicateId { id: ObjectId(3) })]
        );
    }

    #[test]
    fn timestamps_off_the_server_clock_rejected() {
        // `Update::insert` rebases to t_now, so a stale report can only
        // arrive through the pub fields — the bypass screening guards.
        let stale = Update {
            id: ObjectId(1),
            t_now: 10,
            kind: UpdateKind::Insert { motion: motion(9) },
        };
        let ahead = Update::insert(ObjectId(2), 12, motion(12)); // after t_base
        let late = Update::insert(ObjectId(3), 9, motion(9)); // before t_base
        let early_delete = Update::delete(ObjectId(4), 11, motion(2));
        let ok = Update::insert(ObjectId(5), 10, motion(7));
        let ok_delete = Update::delete(ObjectId(6), 10, motion(2));
        let batch = vec![stale, ahead, late, early_delete, ok, ok_delete];
        let rejected = screen_batch(&batch, Some(10));
        let idxs: Vec<usize> = rejected.iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3]);
        assert!(rejected
            .iter()
            .all(|(_, e)| matches!(e, ReportError::OutsideHorizon { .. })));
        // Without a clock only the insertion's own stamp is checked.
        let idxs: Vec<usize> = screen_batch(&batch, None).iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, vec![0]);
    }

    #[test]
    fn try_new_rejects_garbage() {
        let err = MotionState::try_new(
            ObjectId(9),
            Point::new(f64::INFINITY, 0.0),
            Point::ORIGIN,
            0,
        )
        .unwrap_err();
        assert_eq!(err, ReportError::NonFinite { id: ObjectId(9) });
        assert_eq!(err.id(), ObjectId(9));
        assert!(MotionState::try_new(ObjectId(9), Point::ORIGIN, Point::ORIGIN, 0).is_ok());
    }
}
