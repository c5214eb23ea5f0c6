//! Workload generation for the PDR experiments.
//!
//! The paper generates moving objects with the method of Forlizzi et
//! al. over the **Chicago metropolitan road network** on a 1000 × 1000
//! mile plane (datasets CH40K / CH100K / CH500K). The real network is
//! not redistributable, so this crate substitutes a *synthetic* road
//! network with the properties the experiments actually exercise:
//!
//! * heavy spatial skew — intersections cluster around a city core and
//!   satellite hot-spots, so genuinely dense regions exist at every
//!   threshold the paper sweeps;
//! * network-constrained, piecewise-linear movement — objects travel
//!   from intersection to intersection and re-report on arrival (or
//!   when the maximum update time `U` forces them to), producing the
//!   same insert/delete update stream shape;
//! * skewed speeds in 25–100 mph, slow traffic dominating.
//!
//! See DESIGN.md for the substitution rationale. The crate also ships
//! simpler uniform/Gaussian generators used by tests and ablations, and
//! [`config`] reproduces Table 1's experimental setup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod net;
pub mod netfault;
mod network;
mod queries;
pub mod rng;
mod serve;
mod simple;
mod simulator;
mod skew;

pub use net::{NetClient, NetServer, NetServerConfig};
pub use netfault::{FrameFault, NetFaultInjector, NetFaultPlan, NetFaultStats};
pub use network::{NetworkConfig, RoadNetwork};
pub use queries::{query_workload, QuerySpec};
pub use rng::StdRng;
pub use serve::{
    default_deadline, ClientLoad, EngineLoad, FaultPolicy, QueryMix, ServeDriver, ServeReport,
    SubscribeError,
};
pub use simple::{gaussian_clusters, uniform_population};
pub use simulator::{DatasetSpec, TrafficSimulator};
pub use skew::{SkewConfig, SkewedWorkload};
