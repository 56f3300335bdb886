//! An edge-router scenario: realistic mixed traffic through the 4-port
//! Raw router with a synthetic BGP-scale forwarding table, fragmentation
//! of jumbo packets, drops of expired-TTL packets, and full accounting.
//!
//! ```text
//! cargo run --release --example edge_router
//! ```

use std::sync::Arc;

use raw_router::lookup::{synth_addresses, synth_table, ForwardingTable};
use raw_router::net::Packet;
use raw_router::xbar::{audit, RawRouter, RouterConfig};

fn main() {
    // A 5,000-route synthetic table with a realistic prefix-length mix.
    let routes = synth_table(5_000, 4, 2026);
    let table = Arc::new(ForwardingTable::build(&routes));
    println!(
        "forwarding table: {} routes (Patricia depth <= {})",
        routes.len(),
        table.patricia.max_depth()
    );

    // Store-and-forward egress with a 64-word quantum: packets larger
    // than 256 bytes cross the crossbar as multiple fragments and are
    // reassembled per source at the egress (§4.2).
    let cfg = RouterConfig {
        quantum_words: 64,
        cut_through: false,
        ..RouterConfig::default()
    };
    let mut router = RawRouter::new(cfg, table);

    // Mixed traffic: sizes from 64 B to 1,500 B, destinations drawn to
    // hit the table, one expired-TTL packet injected deliberately.
    let sizes = [64usize, 256, 576, 1500, 128, 1024];
    let addrs = synth_addresses(&routes, 240, 0.9, 7);
    let mut offered = Vec::new();
    let mut offered_bytes = 0u64;
    for (k, dst) in addrs.iter().enumerate() {
        let src_port = k % 4;
        let bytes = sizes[k % sizes.len()];
        let ttl = if k == 100 { 1 } else { 64 };
        let p = Packet::synthetic(0x0a0a_0000 + src_port as u32, *dst, bytes, ttl, k as u32);
        offered_bytes += p.total_bytes() as u64;
        router.offer(src_port, 0, &p);
        offered.push((src_port, p.to_words()));
    }

    assert!(router.run_until_drained(6_000_000), "traffic wedged");
    let cycles = router.machine.cycle();
    println!(
        "drained after {cycles} cycles ({:.2} ms at 250 MHz)",
        cycles as f64 / 250e3
    );

    let mut delivered = 0usize;
    let mut delivered_bytes = 0u64;
    for port in 0..4 {
        let out = router.delivered(port);
        let bytes: u64 = out.iter().map(|(_, p)| p.total_bytes() as u64).sum();
        println!("  out port {port}: {} packets, {} bytes", out.len(), bytes);
        delivered += out.len();
        delivered_bytes += bytes;
    }
    println!(
        "delivered {delivered} + dropped {} of {} offered ({} of {} bytes)",
        router.dropped_count(),
        router.offered(),
        delivered_bytes,
        offered_bytes
    );
    // Every delivery and drop checked against the functional reference
    // datapath: the lookup, the TTL decrement and the checksum, each
    // packet once, in order, nothing lost.
    let errs = audit(&router, offered, true);
    assert!(errs.is_empty(), "{errs:#?}");
    assert_eq!(router.parse_errors(), 0);

    // Fabric statistics.
    for i in 0..4 {
        let s = router.egress_stats(i);
        println!(
            "  egress {i}: {} fragments reassembled into {} packets ({} reasm errors)",
            s.fragments, s.packets, s.reasm_errors
        );
    }
    println!(
        "aggregate goodput across the run: {:.2} Gbps",
        router.throughput_gbps(0, cycles)
    );
}
