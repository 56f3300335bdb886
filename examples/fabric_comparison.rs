//! Fabric shoot-out: the Rotating Crossbar on Raw versus the systems of
//! Chapter 2 — a Click software router and a conventional input-queued
//! cell crossbar (FIFO vs VOQ+iSLIP).
//!
//! ```text
//! cargo run --release --example fabric_comparison
//! ```

use std::sync::Arc;

use raw_router::baselines::{saturation_throughput, ClickRouter, Queueing};
use raw_router::lookup::{ForwardingTable, RouteEntry};
use raw_router::net::Packet;
use raw_router::xbar::{audit, RawRouter, RouterConfig};

fn raw_router_peak(bytes: usize) -> f64 {
    let routes: Vec<RouteEntry> = (0..4)
        .map(|p| RouteEntry::new(0x0a00_0000 | (p << 16), 16, p))
        .collect();
    let table = Arc::new(ForwardingTable::build(&routes));
    let cfg = RouterConfig {
        quantum_words: bytes / 4,
        cut_through: true,
        ..RouterConfig::default()
    };
    let mut r = RawRouter::new(cfg, table);
    let n = (300_000 / (bytes / 4)).min(6000);
    let mut offered = Vec::new();
    for k in 0..n as u32 {
        for src in 0..4u32 {
            let dst = (src + 2) % 4;
            let p = Packet::synthetic(0x0a0a_0000 + src, 0x0a00_0001 | (dst << 16), bytes, 64, k);
            r.offer(src as usize, 0, &p);
            offered.push((src as usize, p.to_words()));
        }
    }
    r.run(180_000);
    // The saturated run is cut off, so packets may still be owed: the
    // audit checks what came out, not that everything did.
    let errs = audit(&r, offered, false);
    assert!(errs.is_empty(), "{errs:#?}");
    r.throughput_gbps(20_000, 180_000)
}

fn main() {
    println!("Fabric comparison at 64 B and 1,024 B packets\n");

    let click = ClickRouter::standard();
    for bytes in [64usize, 1024] {
        let raw = raw_router_peak(bytes);
        let cl = click.saturation_gbps(bytes);
        println!("-- {bytes} B packets --");
        println!("  Raw Rotating Crossbar : {raw:6.2} Gbps");
        println!(
            "  Click on a 700MHz PC  : {cl:6.2} Gbps   ({:.0}x slower)",
            raw / cl
        );
    }

    println!("\nConventional cell crossbar, 16 ports, uniform saturation:");
    let fifo = saturation_throughput(Queueing::Fifo, 16, 1, 30_000, 1);
    let voq = saturation_throughput(Queueing::Voq, 16, 4, 30_000, 1);
    println!(
        "  FIFO input queues     : {:5.1}% of line rate (HOL blocking)",
        fifo * 100.0
    );
    println!(
        "  VOQ + iSLIP           : {:5.1}% of line rate",
        voq * 100.0
    );
    println!(
        "\nThe Rotating Crossbar achieves crossbar-class switching on a \
         general-purpose chip:\nits token schedule plays the role iSLIP plays \
         in the GSR backplane, computed by\nthe crossbar tiles themselves \
         from a compile-time-minimized configuration set."
    );
}
