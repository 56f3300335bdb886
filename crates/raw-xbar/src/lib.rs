//! # raw-xbar — the Rotating Crossbar router on the Raw processor
//!
//! This crate is the paper's primary contribution, rebuilt on the
//! [`raw_sim`] substrate:
//!
//! * [`layout`] — the Figure 7-2 mapping of ingress / lookup / crossbar /
//!   egress elements onto the 16 tiles;
//! * [`config`] — the 2,500-point global configuration space (§6.1), the
//!   sequential-walk compile-time scheduler (§6.4), and its minimization
//!   to a small self-sufficient set of per-tile local configurations
//!   (§6.2);
//! * [`codegen`] — the third scheduler pass: generated switch programs
//!   (header-exchange routine + one unrolled body routine per local
//!   configuration) that fit the 8K-entry switch instruction memory —
//!   and provably would not without the minimization;
//! * [`image`] — the one router image: the configuration space, switch
//!   programs and jump tables every router with the same quantum and
//!   crossbar shares;
//! * [`programs`] — the four tile programs, including the distributed
//!   token algorithm of Chapter 5 (fair, deadlock-free by the counting
//!   discipline of the generated schedules);
//! * [`costs`] — the few modelled cycle costs that are constants rather
//!   than consequences of the simulated hardware;
//! * [`devices`] — input/output line cards with external buffering;
//! * [`router`] — the assembled 4-port router with throughput, latency,
//!   and utilization measurement;
//! * [`mod@reference`] — the functional reference of the datapath and the one
//!   audit every run is held to.

pub mod asm_xbar;
pub mod codegen;
pub mod config;
pub mod costs;
pub mod devices;
pub mod image;
pub mod layout;
pub mod programs;
pub mod reference;
pub mod router;
pub mod scale;

pub use config::{
    schedule_matching, Bid, Client, ConfigSpace, GlobalSchedule, LocalConfig, RingDir, SchedPolicy,
};
pub use devices::{LineCardIn, LineCardOut, OutCollector, OutFraming};
pub use image::{PortImage, RouterImage};
pub use layout::{PortTiles, RouterLayout, NPORTS};
pub use programs::{
    EgressMode, EgressStats, IngressQueueing, IngressStats, LookupStats, XbarStats,
};
pub use raw_sched::SchedKind;
/// The simulator a router runs on (`RawRouter::machine`), for crates that
/// reach the machine only through a router.
pub use raw_sim;
pub use reference::{audit, port_table};
pub use router::{LookupFault, RawRouter, RouterConfig};
pub use scale::{ring_saturation_throughput, ring_walk, ScalingCurve, ScalingPoint};
