//! # raw-router — the Raw-processor IP router, reproduced
//!
//! A from-scratch Rust reproduction of *High-Bandwidth Packet Switching
//! on the Raw General-Purpose Architecture* (ICPP 2003): a 4-port
//! multigigabit IP router whose switch fabric — the **Rotating
//! Crossbar** — is implemented entirely on the software-scheduled static
//! network of the MIT Raw tiled processor, here rebuilt as a
//! cycle-accurate simulator.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use raw_router::lookup::{ForwardingTable, RouteEntry};
//! use raw_router::net::Packet;
//! use raw_router::xbar::{RawRouter, RouterConfig};
//!
//! // A forwarding table: 10.<p>.0.0/16 -> output port p.
//! let routes: Vec<RouteEntry> = (0..4)
//!     .map(|p| RouteEntry::new(0x0a00_0000 | (p << 16), 16, p))
//!     .collect();
//! let table = Arc::new(ForwardingTable::build(&routes));
//!
//! // A 4-port router on a simulated 250 MHz Raw chip.
//! let mut router = RawRouter::new(RouterConfig::default(), table);
//!
//! // Offer a 64-byte packet on port 0, destined to port 2's prefix.
//! let pkt = Packet::synthetic(0x0a0a_0001, 0x0a02_0001, 64, 64, 7);
//! router.offer(0, 0, &pkt);
//! assert!(router.run_until_drained(100_000));
//!
//! let out = router.delivered(2);
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].1.header.ttl, 63); // TTL decremented in flight
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sim`] | `raw-sim` | the Raw chip: tiles, static/dynamic networks, caches, tracing |
//! | [`isa`] | `raw-isa` | Raw assembly, assembler, cycle-accurate interpreter |
//! | [`net`] | `raw-net` | IPv4 headers, packets, internal fragmentation |
//! | [`lookup`] | `raw-lookup` | Patricia trie + DIR-24-8 longest-prefix match |
//! | [`xbar`] | `raw-xbar` | the Rotating Crossbar and the assembled router |
//! | [`baselines`] | `raw-baselines` | Click model, FIFO/VOQ+iSLIP crossbar, cells study |
//! | [`workloads`] | `raw-workloads` | seeded traffic generation |
//! | [`fabric`] | `raw-fabric` | multi-router fabrics (§8.5): Clos, leaf-spine, two chips |
//!
//! Reproduction entry point: `cargo run --release -p raw-bench --bin
//! repro -- all`. See DESIGN.md for the system inventory and
//! EXPERIMENTS.md for paper-vs-measured results.

pub use raw_baselines as baselines;
pub use raw_fabric as fabric;
pub use raw_isa as isa;
pub use raw_lookup as lookup;
pub use raw_net as net;
pub use raw_sim as sim;
pub use raw_workloads as workloads;
pub use raw_xbar as xbar;
