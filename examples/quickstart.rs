//! Quickstart: route a handful of packets through the Raw router and
//! inspect what comes out.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use raw_router::lookup::{ForwardingTable, RouteEntry};
use raw_router::net::Packet;
use raw_router::xbar::{audit, RawRouter, RouterConfig};

fn main() {
    // Forwarding table: 10.<p>.0.0/16 -> output port p.
    let routes: Vec<RouteEntry> = (0..4)
        .map(|p| RouteEntry::new(0x0a00_0000 | (p << 16), 16, p))
        .collect();
    let table = Arc::new(ForwardingTable::build(&routes));

    // A 4-port router on a simulated 250 MHz Raw chip, with the default
    // 64-word routing quantum and cut-through egress.
    let mut router = RawRouter::new(RouterConfig::default(), table);

    // Offer one packet per input, each to a different output, keeping
    // what was offered for the audit.
    let mut offered = Vec::new();
    for src in 0..4u32 {
        let dst = (src + 1) % 4;
        let pkt = Packet::synthetic(
            0x0a0a_0000 + src,         // source address
            0x0a00_0001 | (dst << 16), // inside 10.<dst>.0.0/16
            256,                       // total bytes
            64,                        // TTL
            src,                       // payload seed
        );
        router.offer(src as usize, 0, &pkt);
        offered.push((src as usize, pkt.to_words()));
        println!("offered: port {src} -> 10.{dst}.0.1 (256 B)");
    }

    let ok = router.run_until_drained(200_000);
    assert!(ok, "packets did not drain");
    println!("\nrouter drained after {} cycles\n", router.machine.cycle());

    for port in 0..4 {
        for (cycle, p) in router.delivered(port) {
            println!(
                "port {port} <- {} -> {}  ttl={} checksum_ok={} at cycle {cycle}",
                raw_router::net::fmt_addr(p.header.src),
                raw_router::net::fmt_addr(p.header.dst),
                p.header.ttl,
                p.header.checksum_ok(),
            );
        }
    }

    // Per-tile utilization summary — who did the work?
    println!("\nper-port statistics:");
    for i in 0..4 {
        let s = router.ingress_stats(i);
        println!(
            "  ingress {i}: {} packets, {} grants, {} cut-through words",
            s.packets_completed, s.grants, s.words_cut_through
        );
    }

    // Every delivery checked against the functional reference datapath:
    // right output, right bytes, in order, nothing lost.
    let errs = audit(&router, offered, true);
    assert!(errs.is_empty(), "{errs:#?}");
    println!("\naudit: every packet forwarded as the reference datapath says");
}
