//! Routing in a low-earth-orbit satellite constellation (§8.8).
//!
//! The paper's last future-work item proposes the Raw router as the
//! on-board switch of LEO satellites, whose four ports map naturally to
//! the four inter-satellite links (north/south in-plane, east/west
//! cross-plane). This example builds a small constellation where every
//! satellite is a `RawRouter`, computes next-hop tables from the torus
//! geometry, and routes ground traffic across several satellite hops —
//! auditing each hop against the reference datapath and checking TTL
//! decrements and end-to-end delivery.
//!
//! It stays a hop-by-hop walk rather than a `RawFabric`: a 4-port torus
//! spends every port on an inter-satellite link, so no port is left for
//! the ground attachment a `TopologyPlan` needs as an external port.
//!
//! ```text
//! cargo run --release --example leo_satellite
//! ```

use std::sync::Arc;

use raw_router::lookup::{ForwardingTable, RouteEntry};
use raw_router::net::Packet;
use raw_router::xbar::{audit, RawRouter, RouterConfig};

/// Constellation dimensions: `PLANES` orbital planes of `PER_PLANE`
/// satellites (a tiny Iridium-like torus).
const PLANES: usize = 3;
const PER_PLANE: usize = 3;

/// Port conventions on each satellite.
const NORTH: usize = 0; // next satellite in the plane
const SOUTH: usize = 1; // previous satellite in the plane
const EAST: usize = 2; // neighboring plane
const WEST: usize = 3;

/// Each satellite `s` owns the ground prefix `10.<s>.0.0/16`.
fn sat_prefix(s: usize) -> u32 {
    0x0a00_0000 | ((s as u32) << 16)
}

fn sat_id(plane: usize, slot: usize) -> usize {
    plane * PER_PLANE + slot
}

/// Shortest-path next hop on the torus: fix the plane (east/west), then
/// the in-plane slot (north/south).
fn next_port(from: usize, to: usize) -> Option<usize> {
    if from == to {
        return None;
    }
    let (fp, fs) = (from / PER_PLANE, from % PER_PLANE);
    let (tp, ts) = (to / PER_PLANE, to % PER_PLANE);
    if fp != tp {
        let east = (tp + PLANES - fp) % PLANES;
        let west = (fp + PLANES - tp) % PLANES;
        return Some(if east <= west { EAST } else { WEST });
    }
    let north = (ts + PER_PLANE - fs) % PER_PLANE;
    let south = (fs + PER_PLANE - ts) % PER_PLANE;
    Some(if north <= south { NORTH } else { SOUTH })
}

/// The forwarding table on satellite `s`: every satellite's ground prefix
/// mapped to the outgoing inter-satellite link (its own prefix goes to an
/// arbitrary port standing in for the downlink).
fn sat_table(s: usize) -> Arc<ForwardingTable> {
    let n = PLANES * PER_PLANE;
    let routes: Vec<RouteEntry> = (0..n)
        .map(|t| {
            let port = next_port(s, t).unwrap_or(NORTH) as u32;
            RouteEntry::new(sat_prefix(t), 16, port)
        })
        .collect();
    Arc::new(ForwardingTable::build(&routes))
}

fn main() {
    let n = PLANES * PER_PLANE;
    println!("constellation: {PLANES} planes x {PER_PLANE} sats = {n} satellites\n");

    // Route a packet from ground under satellite 0 to ground under the
    // diagonally opposite satellite, hop by hop: at each hop a fresh
    // RawRouter (the satellite's switch) carries the packet from its
    // uplink port to the correct inter-satellite link.
    let src_sat = sat_id(0, 0);
    let dst_sat = sat_id(2, 2);
    let mut pkt = Packet::synthetic(
        sat_prefix(src_sat) | 0x0001,
        sat_prefix(dst_sat) | 0x0001,
        256,
        64,
        9,
    );

    let mut here = src_sat;
    let mut hops = 0usize;
    while here != dst_sat {
        let port = next_port(here, dst_sat).expect("not there yet");
        let cfg = RouterConfig {
            quantum_words: 64,
            cut_through: true,
            ..RouterConfig::default()
        };
        let mut sat = RawRouter::new(cfg, sat_table(here));
        // The packet arrives on some uplink port; use the opposite of
        // where it is headed so ingress != egress.
        let in_port = (port + 2) % 4;
        sat.offer(in_port, 0, &pkt);
        assert!(sat.run_until_drained(300_000), "satellite {here} wedged");
        let errs = audit(&sat, [(in_port, pkt.to_words())], true);
        assert!(errs.is_empty(), "satellite {here}: {errs:#?}");
        let out = sat.delivered(port);
        assert_eq!(out.len(), 1, "satellite {here} misrouted the packet");
        pkt = out[0].1.clone();
        let next = match port {
            NORTH => sat_id(here / PER_PLANE, (here % PER_PLANE + 1) % PER_PLANE),
            SOUTH => sat_id(
                here / PER_PLANE,
                (here % PER_PLANE + PER_PLANE - 1) % PER_PLANE,
            ),
            EAST => sat_id((here / PER_PLANE + 1) % PLANES, here % PER_PLANE),
            _ => sat_id((here / PER_PLANE + PLANES - 1) % PLANES, here % PER_PLANE),
        };
        hops += 1;
        println!(
            "hop {hops}: sat {here} -> sat {next} via port {port} (ttl now {})",
            pkt.header.ttl
        );
        here = next;
        assert!(hops < 16, "routing loop");
    }

    println!("\ndelivered to satellite {dst_sat} after {hops} hops");
    assert_eq!(pkt.header.ttl, 64 - hops as u8, "one TTL decrement per hop");
    assert!(pkt.header.checksum_ok());
    println!(
        "TTL: 64 -> {} ({} hops), checksum still valid — per-hop IP \
         processing held up across the constellation",
        pkt.header.ttl, hops
    );
}
