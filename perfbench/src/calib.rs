//! A fixed probe of the host's speed.
//!
//! On a shared host the speed of the whole machine drifts: the same
//! seed of roads_adhoc measured an unscaled `query_p50_ms` from 94 ms to
//! 130 ms over five back-to-back runs, in slow spells that last from
//! seconds to minutes.
//! The in-process workloads therefore run this probe once per iteration,
//! between their timed operations, and report each timed sample scaled
//! to the speed at which the probe takes [`REFERENCE_MS`]
//! ([`Samples::host_scaled`]). The probe is this crate's own code and
//! uses none of the repository's, so a change to the engines cannot move
//! it; it sorts and builds an ordered map in cache, like the geometry
//! merge that dominates the FR query, because a probe bound by memory
//! latency did not follow the drift.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::time::Instant;

/// About the probe's time on the 2-core Xeon host the benchmark was
/// tuned on, in its faster spells (1.35–1.5 ms); the scaled metrics
/// are in milliseconds of a host of that speed.
pub const REFERENCE_MS: f64 = 1.5;

/// Each sample is scaled by the median of the probes this many
/// iterations either side of its own: nine probes, about 1.5 s on roads
/// and 0.8 s on hotspots. Blocks of 4–6 s followed the slow spells less
/// well: over the same eight roads runs, `tick_p90_ms` spread 0.12
/// scaled by 24-iteration blocks and 0.04 scaled by this window.
pub const HALF_WINDOW: usize = 4;

/// Keys sorted by one round, four times over.
const SORT_LEN: usize = 16 * 1024;
const SORTS: usize = 4;
/// Keys inserted into the ordered map by one round.
const MAP_LEN: usize = 4 * 1024;

pub struct HostProbe {
    keys: Vec<u64>,
    /// The time of every round, in milliseconds.
    pub ms: Samples,
    sink: u64,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        // A fixed LCG stream: the probe does the same work in every run.
        let mut x = 7u64;
        let keys = (0..SORT_LEN)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 11
            })
            .collect();
        HostProbe {
            keys,
            ms: Samples::default(),
            sink: 0,
        }
    }

    /// Times one round of the fixed work.
    pub fn probe(&mut self) {
        let start = Instant::now();
        for k in 0..SORTS {
            let mut v = self.keys.clone();
            v.sort_unstable();
            self.sink ^= v[SORT_LEN / 2 + k];
        }
        let mut map = BTreeMap::new();
        for (i, &x) in self.keys[..MAP_LEN].iter().enumerate() {
            map.insert(x, i as u64);
        }
        self.sink ^= map.values().step_by(97).sum::<u64>();
        std::hint::black_box(self.sink);
        self.ms.push_ms(start.elapsed());
    }
}
