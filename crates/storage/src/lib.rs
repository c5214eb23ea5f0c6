//! Simulated disk storage for the PDR reproduction.
//!
//! The paper's cost model (Table 1) fixes a 4 KiB page size, a buffer of
//! 10 % of the dataset size, and charges **10 ms per random disk
//! access**; query cost for the exact filtering-refinement method is
//! reported as `CPU + 10 ms × (number of buffer misses)`. This crate
//! reproduces that model with real moving parts rather than a stub:
//!
//! * [`Disk`] — an in-memory array of 4 KiB pages with allocate /
//!   free / read / write, standing in for the raw device;
//! * [`BufferPool`] — a fixed-capacity page cache with true O(1) LRU
//!   replacement and write-back of dirty frames;
//! * [`IoStats`] / [`CostModel`] — accounting that converts misses into
//!   the paper's milliseconds;
//! * [`FaultPlan`] and [`seeded`] — seeded fault injection beneath the
//!   device, and the generator, trigger grammar and backoff that every
//!   seeded fault and retry path in the workspace shares.
//!
//! The TPR-tree stores its nodes through this stack, one node per page,
//! so its query I/O is measured rather than assumed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod codec;
mod disk;
mod fault;
mod lru;
pub mod seeded;

pub use buffer::{BufferPool, IoStats};
pub use codec::{crc32, unzigzag64, zigzag64, ByteReader, ByteWriter, CodecError};
pub use disk::{Disk, PageId, PAGE_SIZE};
pub use fault::{FaultPlan, FaultStats, StorageError, TORN_WRITE_PREFIX};
pub use lru::LruList;
pub use seeded::PlanError;

/// Converts I/O counts into the paper's time units.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cost of one random disk access, in milliseconds (paper: 10 ms).
    pub random_io_ms: f64,
}

impl CostModel {
    /// The paper's cost model: 10 ms per random I/O.
    pub const PAPER_DEFAULT: CostModel = CostModel { random_io_ms: 10.0 };

    /// Milliseconds of I/O implied by `stats`: each buffer miss is one
    /// random read; each write-back of a dirty evictee is one random
    /// write.
    pub fn io_ms(&self, stats: &IoStats) -> f64 {
        stats.physical_ios() as f64 * self.random_io_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_charges_misses_and_writebacks() {
        let stats = IoStats {
            logical_reads: 100,
            misses: 7,
            evictions: 5,
            writebacks: 3,
        };
        assert_eq!(CostModel::PAPER_DEFAULT.io_ms(&stats), 100.0);
    }
}
