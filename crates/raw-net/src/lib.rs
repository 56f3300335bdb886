//! # raw-net — the IPv4 substrate of the Raw router
//!
//! Everything the router's data path needs to speak IP:
//!
//! * [`checksum`] — the Internet checksum, including the RFC 1624
//!   incremental update used for TTL decrements;
//! * [`ipv4`] — header parse/build/validate and the per-hop forwarding
//!   mutation performed by the Ingress Processor;
//! * [`packet`] — whole packets as 32-bit word streams (the form in which
//!   line cards feed the Raw static network);
//! * [`frag`] — the one-word tag of the router's internal fragmentation
//!   framing: packets larger than one routing quantum cross the Rotating
//!   Crossbar as tagged fragments (§4.2), cut by the `raw-xbar` ingress
//!   tile program and stitched back by the egress one;
//! * [`corrupt`] — deterministic, length-preserving packet mutators for
//!   the `raw-chaos` fault-injection campaigns;
//! * [`fnv`] — the FNV-1a word fold behind every run fingerprint.

pub mod checksum;
pub mod corrupt;
pub mod fnv;
pub mod frag;
pub mod ipv4;
pub mod packet;

pub use corrupt::CorruptRng;
pub use fnv::Fnv1a;
pub use frag::{FragTag, MAX_FRAG_WORDS};
pub use ipv4::{fmt_addr, parse_addr, IpError, Ipv4Header, IPV4_HEADER_BYTES, IPV4_HEADER_WORDS};
pub use packet::Packet;
