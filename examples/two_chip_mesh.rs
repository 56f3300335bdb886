//! Scaling by composition (§8.5): "One solution is simply to build a
//! larger router out of multiple of these small 4-port routers."
//!
//! This example glues two 4-port Raw routers into a 6-external-port
//! system: port 3 of chip A is cabled to port 3 of chip B (an
//! inter-chip trunk), giving external ports A0–A2 and B0–B2. Forwarding
//! tables are hierarchical: each chip sends traffic for the other chip's
//! prefixes down the trunk. The harness relays delivered trunk packets
//! between the chips — the glueless-mesh composition, at line-card
//! granularity.
//!
//! ```text
//! cargo run --release --example two_chip_mesh
//! ```

use std::sync::Arc;

use raw_router::lookup::{ForwardingTable, RouteEntry};
use raw_router::net::Packet;
use raw_router::xbar::{audit, RawRouter, RouterConfig};

/// External address plan: `10.<chip*4 + port>.0.0/16`.
fn prefix(chip: usize, port: usize) -> u32 {
    0x0a00_0000 | (((chip * 4 + port) as u32) << 16)
}

const TRUNK: usize = 3; // local port wired to the other chip

fn chip_table(chip: usize) -> Arc<ForwardingTable> {
    let mut routes = Vec::new();
    for p in 0..3 {
        // Local external ports.
        routes.push(RouteEntry::new(prefix(chip, p), 16, p as u32));
        // The other chip's ports go down the trunk.
        routes.push(RouteEntry::new(prefix(1 - chip, p), 16, TRUNK as u32));
    }
    Arc::new(ForwardingTable::build(&routes))
}

fn main() {
    let cfg = || RouterConfig {
        quantum_words: 32,
        cut_through: true,
        ..RouterConfig::default()
    };
    let mut chips = [
        RawRouter::new(cfg(), chip_table(0)),
        RawRouter::new(cfg(), chip_table(1)),
    ];

    // Traffic: every external port sends to every other external port,
    // including cross-chip flows that must transit the trunk. Each chip
    // keeps what it was handed, in offer order, for its audit.
    let mut handed: [Vec<(usize, Vec<u32>)>; 2] = [Vec::new(), Vec::new()];
    let mut offered = 0usize;
    let mut cross = 0usize;
    for (sc, sp) in (0..2).flat_map(|c| (0..3).map(move |p| (c, p))) {
        for (dc, dp) in (0..2).flat_map(|c| (0..3).map(move |p| (c, p))) {
            if (sc, sp) == (dc, dp) {
                continue;
            }
            let pkt = Packet::synthetic(
                prefix(sc, sp) | (0xf000 + offered as u32),
                prefix(dc, dp) | 1,
                128,
                64,
                offered as u32,
            );
            chips[sc].offer(sp, 0, &pkt);
            handed[sc].push((sp, pkt.to_words()));
            offered += 1;
            if sc != dc {
                cross += 1;
            }
        }
    }
    println!("offered {offered} flows across 6 external ports ({cross} cross-chip)");

    // Co-simulate: run both chips in slices; relay trunk deliveries to
    // the peer chip (the inter-chip cable, at line-card granularity).
    let mut relayed = 0usize;
    let mut relayed_per_chip = [0usize; 2];
    for _slice in 0..400 {
        for chip in &mut chips {
            chip.run(500);
        }
        #[allow(clippy::needless_range_loop)]
        for c in 0..2 {
            let out: Vec<Packet> = chips[c]
                .delivered(TRUNK)
                .into_iter()
                .map(|(_, p)| p)
                .collect();
            let release = chips[1 - c].machine.cycle();
            for pkt in out.iter().skip(relayed_per_chip[c]) {
                chips[1 - c].offer(TRUNK, release, pkt);
                handed[1 - c].push((TRUNK, pkt.to_words()));
                relayed_per_chip[c] += 1;
                relayed += 1;
            }
        }
        let done: usize = (0..2)
            .map(|c| (0..3).map(|p| chips[c].delivered(p).len()).sum::<usize>())
            .sum();
        if done == offered {
            break;
        }
    }

    // Validate: every flow delivered at the right external port, TTL
    // decremented once per chip traversed.
    let mut delivered = 0usize;
    for (c, chip) in chips.iter().enumerate() {
        for p in 0..3 {
            for (_, pkt) in chip.delivered(p) {
                assert!(pkt.header.checksum_ok());
                let hops = 64 - pkt.header.ttl;
                let src_chip = ((pkt.header.src >> 16) & 0xff) / 4;
                let expected_hops = if src_chip as usize == c { 1 } else { 2 };
                assert_eq!(
                    hops as usize, expected_hops,
                    "TTL must drop once per chip traversed"
                );
                delivered += 1;
            }
        }
    }
    assert_eq!(delivered, offered, "all flows must arrive");
    // Each chip against the reference datapath, over everything it was
    // handed: its external flows and the trunk packets relayed to it.
    for (c, (chip, handed)) in chips.iter().zip(handed).enumerate() {
        let errs = audit(chip, handed, true);
        assert!(errs.is_empty(), "chip {c}: {errs:#?}");
    }
    println!(
        "delivered {delivered}/{offered}; {relayed} packets transited the trunk; \
         cross-chip packets show two TTL decrements"
    );
    println!("a 6-port router from two 4-port chips — the §8.5 composition");
}
