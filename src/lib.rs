//! # pdr — Pointwise-Dense Region Queries in Spatio-temporal Databases
//!
//! A Rust reproduction of Ni & Ravishankar, *"Pointwise-Dense Region
//! Queries in Spatio-temporal Databases"* (ICDE 2007).
//!
//! A point is **ρ-dense** at time `t` if its `l`-square neighborhood
//! contains at least `ρ·l²` moving objects; a PDR query returns *all*
//! ρ-dense points as a union of rectangles — complete, unambiguous,
//! arbitrary in shape and size, with a per-point local-density
//! guarantee. Two engines answer it:
//!
//! * [`FrEngine`] — exact: density-histogram filtering plus TPR-tree
//!   range queries and plane-sweep refinement;
//! * [`PaEngine`] — approximate: per-timestamp Chebyshev polynomial
//!   density surfaces queried by branch-and-bound; orders of magnitude
//!   faster at a tolerable accuracy loss.
//!
//! ## Quickstart
//!
//! ```
//! use pdr::{FrConfig, FrEngine, PdrQuery};
//! use pdr::workload::uniform_population;
//! use pdr::mobject::TimeHorizon;
//!
//! // 2 000 objects on a 1000-mile plane.
//! let pop = uniform_population(2000, 1000.0, 1.0, 42, 0);
//! let mut fr = FrEngine::new(
//!     FrConfig {
//!         extent: 1000.0,
//!         m: 100,
//!         horizon: TimeHorizon::new(10, 10),
//!         buffer_pages: 256,
//!         threads: 0, // refinement workers: one per core
//!     },
//!     0,
//! );
//! fr.bulk_load(&pop, 0);
//!
//! // All regions with >= 5 objects per 30x30-mile neighborhood, 5
//! // timestamps from now.
//! let q = PdrQuery::new(5.0 / (30.0 * 30.0), 30.0, 5);
//! let answer = fr.query(&q);
//! println!("{} dense rectangles", answer.regions.len());
//! ```
//!
//! The full per-crate documentation lives in the re-exported modules
//! below; DESIGN.md maps every subsystem and every figure of the paper
//! to the code that reproduces it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pdr_core::{
    accuracy, classify_cells, dh_optimistic, dh_pessimistic, exact_dense_regions, point_density,
    refine_region, refine_region_set, Accuracy, CellClass, Classification, DenseThreshold,
    DensityEngine, ExactOracle, FrAnswer, FrCacheCounters, FrConfig, FrEngine, PaAnswer, PaConfig,
    PaEngine, PdrQuery, RangeIndex,
};

/// Prior-work baselines (dense-cell and effective-density queries).
pub mod baselines {
    pub use pdr_core::baselines::*;
}

/// Planar geometry kernel: rectangles, `l`-squares, region measure.
pub mod geometry {
    pub use pdr_geometry::*;
}

/// Moving-object model, update protocol, time horizon.
pub mod mobject {
    pub use pdr_mobject::*;
}

/// Simulated disk pages, LRU buffer pool, I/O cost model.
pub mod storage {
    pub use pdr_storage::*;
}

/// Chebyshev polynomial machinery behind the approximate method.
pub mod chebyshev {
    pub use pdr_chebyshev::*;
}

/// Per-timestamp density histograms and prefix sums.
pub mod histogram {
    pub use pdr_histogram::*;
}

/// The TPR-tree index over moving objects.
pub mod tprtree {
    pub use pdr_tprtree::*;
}

/// The velocity-bounded grid index — the alternative refinement index.
pub mod gridindex {
    pub use pdr_gridindex::*;
}

/// Workload generation: synthetic road networks, traffic simulation,
/// experiment configuration.
pub mod workload {
    pub use pdr_workload::*;
}
