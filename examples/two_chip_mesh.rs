//! Scaling by composition (§8.5): "One solution is simply to build a
//! larger router out of multiple of these small 4-port routers."
//!
//! Two 4-port Raw routers make a 6-external-port system: port 3 of each
//! chip is cabled to port 3 of the other (an inter-chip trunk in each
//! direction), leaving external ports A0–A2 and B0–B2. Each chip's
//! table sends the other chip's prefixes down the trunk. The plan is
//! `Topology::TwoChip6`, run as a `RawFabric` like every other
//! composition: statically verified when it is built, advanced in
//! epochs, and audited hop by hop against the reference datapath.
//!
//! ```text
//! cargo run --release --example two_chip_mesh
//! ```

use raw_router::fabric::{
    audit, dst_ext_port, fabric_addr, Executor, FabricConfig, RawFabric, Topology,
};
use raw_router::net::Packet;
use raw_router::xbar::RouterConfig;

/// External port `e` sits on chip `e / 3`.
fn chip(e: usize) -> usize {
    e / 3
}

fn main() {
    let base = FabricConfig::default();
    let mut fab = RawFabric::try_new(FabricConfig {
        topology: Topology::TwoChip6,
        // A 128-byte packet crosses each chip in one cut-through quantum.
        router: RouterConfig {
            quantum_words: 32,
            ..base.router.clone()
        },
        ..base
    })
    .expect("the two-chip plan verifies");

    // Traffic: every external port sends to every other external port,
    // including cross-chip flows that must transit the trunk. The source
    // address names the sending port: 10.100.<src>.0.
    let mut offered = 0usize;
    let mut cross = 0usize;
    for src in 0..6 {
        for dst in (0..6).filter(|&d| d != src) {
            let from = 0x0a64_0000 | ((src as u32) << 8);
            let pkt = Packet::synthetic(from, fabric_addr(dst as u8, 0), 128, 64, offered as u32);
            fab.offer(src, 0, &pkt);
            offered += 1;
            cross += usize::from(chip(src) != chip(dst));
        }
    }
    println!("offered {offered} flows across 6 external ports ({cross} cross-chip)");

    assert!(
        fab.run_until_drained_with(1_000, Executor::Reference),
        "the two chips must drain"
    );

    // Every flow at the right external port, TTL decremented once per
    // chip traversed.
    let mut delivered = 0usize;
    for ext in 0..6 {
        for (_, pkt) in fab.delivered(ext) {
            assert_eq!(dst_ext_port(&pkt), ext);
            let src = ((pkt.header.src >> 8) & 0xff) as usize;
            let hops = 64 - pkt.header.ttl as usize;
            let expected_hops = if chip(src) == chip(ext) { 1 } else { 2 };
            assert_eq!(hops, expected_hops, "TTL must drop once per chip traversed");
            delivered += 1;
        }
    }
    assert_eq!(delivered, offered, "all flows must arrive");
    let trunked: u64 = fab.summary().links.iter().map(|l| l.packets).sum();
    assert_eq!(
        trunked as usize, cross,
        "every cross-chip flow takes the trunk"
    );
    // Both chips, hop by hop, against the reference datapath.
    let errs = audit(&fab, true);
    assert!(errs.is_empty(), "{errs:#?}");
    println!(
        "delivered {delivered}/{offered} in {} epochs; {trunked} packets transited the trunk; \
         cross-chip packets show two TTL decrements",
        fab.epochs_run()
    );
    println!("a 6-port router from two 4-port chips — the §8.5 composition");
}
