//! # raw-lookup — IP route lookup for the Raw router
//!
//! The Lookup Processor of each port (§4.2) resolves a packet's output
//! port by longest-prefix match. This crate provides:
//!
//! * [`patricia`] — the Patricia-trie table the paper names as the
//!   traditional structure (§2.1);
//! * [`dir24`] — a two-level direct-index "small forwarding table" in the
//!   spirit of the Degermark et al. work cited for future core-router
//!   lookups (§8.2), with a constant two-access worst case;
//! * [`table`] — synthetic routing-table/traffic generation and the
//!   cycle-cost model that converts memory accesses into Lookup
//!   Processor cycles.

pub mod dir24;
pub mod patricia;
pub mod table;

pub use dir24::{Dir24_8, DirTable};
pub use patricia::{canonical, mask, reference_lpm, PatriciaTable, RouteEntry};
pub use table::{
    decode_hop, encode_multicast, synth_addresses, synth_table, Engine, ForwardingTable, Hop,
    LookupCostModel, LookupMemModel, MAX_ACCESSES, MULTICAST_FLAG,
};
