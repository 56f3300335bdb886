//! The four tile-processor programs of a router port (§4.2), as
//! cycle-stepped state machines with the paper's per-cycle cost model.
//!
//! * [`IngressProgram`] — streams packets in from the line card (network
//!   1), verifies and rewrites the IPv4 header, requests route lookup
//!   over the dynamic network, buffers payload into local memory while
//!   waiting or when denied (2 cycles/word), and per quantum bids into
//!   the Rotating Crossbar, streaming granted fragments either from its
//!   buffer (`lw $csto` — 1 cycle/word) or cut-through from the wire
//!   (`move $csto, $csti2` — 1 cycle/word).
//! * [`LookupProgram`] — answers longest-prefix-match queries against the
//!   forwarding table, charging the engine's access-cost model.
//! * [`CrossbarProgram`] — the distributed Rotating Crossbar algorithm of
//!   Chapter 6: per quantum it takes its ingress's header, runs the ring
//!   all-to-all, indexes the precomputed configuration jump table (a real
//!   timed memory load), returns the grant word, and steers its switch
//!   processor to the selected body routine. The token is a synchronous
//!   counter local to every crossbar tile (§5.1); it is never
//!   transmitted.
//! * [`EgressProgram`] — in cut-through mode monitors fragment tags while
//!   the switch streams bodies straight to the line card; in
//!   store-and-forward mode buffers fragments (2 cycles/word),
//!   reassembles per source port, and streams finished packets out.

mod crossbar;
mod egress;
mod ingress;
mod lookup;

pub use crossbar::{CrossbarProgram, XbarStats};
pub use egress::{EgressMode, EgressProgram, EgressStats};
pub use ingress::{IngressProgram, IngressQueueing, IngressStats, VOQ_REGION_WORDS};
pub use lookup::{LookupProgram, LookupStats};

use crate::layout::NPORTS;

/// The "empty input queue" header word. Never collides with a packed
/// [`raw_net::FragTag`] (its compute-op bits would be the invalid value 3).
pub const EMPTY_HDR: u32 = 0xFFFF_FFFF;

/// Grant-word values on the crossbar→ingress path.
pub const GRANT: u32 = 1;
pub const DENY: u32 = 0;

/// Word address where a crossbar tile's configuration jump table lives.
pub const XBAR_TABLE_BASE: u32 = 0;

/// Word address of the ingress packet buffer.
pub const IG_BUF_BASE: u32 = 0x1000;

/// Word address (and stride) of the egress per-source reassembly regions.
pub const EG_BUF_BASE: u32 = 0x1000;
pub const EG_BUF_STRIDE: u32 = 0x8000;

/// Tile-local memory the router's programs address, in words: the egress
/// reassembly regions end highest, above the ingress VOQ regions and the
/// largest (destination-mask, 16^4-entry) jump table. The prototype's
/// local memory holds them all.
const MIN_LOCAL_MEM_WORDS: usize = (EG_BUF_BASE + NPORTS as u32 * EG_BUF_STRIDE) as usize;
const _: () = assert!(
    MIN_LOCAL_MEM_WORDS >= (IG_BUF_BASE + 0x1000 + NPORTS as u32 * VOQ_REGION_WORDS) as usize
        && MIN_LOCAL_MEM_WORDS >= XBAR_TABLE_BASE as usize + 16usize.pow(4)
        && MIN_LOCAL_MEM_WORDS <= raw_sim::LOCAL_MEM_WORDS
);
