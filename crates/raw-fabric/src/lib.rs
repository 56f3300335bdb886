//! # raw-fabric — a Clos fabric of Rotating Crossbar routers
//!
//! The paper's §8.5 answer to "how does this scale past 4 ports" is not
//! a bigger ring — a ring's bisection is constant while uniform traffic
//! crossing it grows with the port count — but composition: "build a
//! larger router out of multiple of these small 4-port routers". This
//! crate is that composition, in the lineage of Tiny Tera and every
//! multi-stage switch since:
//!
//! * **Topologies** ([`topology`]): one Clos builder at depth `k` gives
//!   the single router (`k = 1`), the 3-stage 16-port Clos from 12
//!   routers (`k = 2`) and the recursive 64- and 256-port fabrics; a
//!   folded 8-port leaf-spine from 6 and a 6-port pair of chips joined
//!   by a trunk are the two hand-wired plans. All are
//!   built from *unmodified* [`raw_xbar::RawRouter`] instances, with
//!   fabric forwarding expressed purely through per-router LPM tables
//!   over a `10.<dst>.<middle>.x` address scheme, and one
//!   [`TopologyPlan`] is the only description of a fabric;
//! * **Links** ([`link`]): bounded inter-router FIFOs with per-epoch
//!   drain rates and credit-based backpressure onto the sender's egress
//!   port — links never drop, so fabric-wide
//!   `offered == delivered + dropped` stays exact;
//! * **Spray** ([`SprayMode`]): the middle-stage choice per flow, either
//!   a deterministic hash or least-occupancy at first sight; both are
//!   flow-pinned, preserving intra-flow order across the fabric;
//! * **Deterministic parallelism** ([`RawFabric`]): each router advances
//!   in epochs of K cycles, with every cross-router transfer applied at
//!   the epoch boundary, sequentially on the caller's thread. Between
//!   two boundaries the routers share nothing, so an [`Executor`] only
//!   picks how many scoped threads run them ([`Executor::Reference`]:
//!   the caller alone; [`Executor::Sharded`]: a router-disjoint
//!   partition, see [`shard`]; [`Executor::Threaded`] is its
//!   one-shard-per-router layout), each holding `&mut` borrows of its
//!   own routers — so every executor is bit-identical to the
//!   single-threaded reference, asserted by [`RawFabric::fingerprint`];
//! * **Scale** ([`Topology::Clos64`], [`Topology::Clos256`]): recursive
//!   5- and 7-stage folded-Clos fabrics of 80 and 448 radix-4 routers,
//!   the port counts Tiny Tera targets, still through the same
//!   link-sizing gate (RV7xx) and RV5xx–RV6xx static analyses;
//! * **Static verification** ([`verify`]): channel-dependency deadlock
//!   proofs and routing-soundness walks over the plan and the tables
//!   the routers forward with — the gate [`RawFabric::try_new`] passes
//!   before it builds a router;
//! * **Audit** ([`audit()`]): every injected stream replayed hop by hop
//!   through the per-router functional reference
//!   ([`raw_xbar::reference::forward`]), and the run's deliveries and
//!   drops held to the result.

mod audit;
pub mod fabric;
pub mod link;
pub mod shard;
pub mod topology;
pub mod verify;

pub use audit::audit;
pub use fabric::{
    FabricComponent, FabricConfig, FabricConfigError, FabricError, FabricSummary, RawFabric,
    SprayMode,
};
pub use link::FabricLink;
pub use shard::{partition_routers, Executor};
pub use topology::{
    dst_ext_port, fabric_addr, plan, stamp_middle, LinkSpec, RouterSpec, Topology, TopologyPlan,
};
pub use verify::{fabric_reports, verify_fabric, verify_plan, FabricVerdict};
