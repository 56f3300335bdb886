//! One router image, many routers: routers built with the same quantum
//! and crossbar share one immutable [`raw_xbar::RouterImage`], and no
//! mutable state leaks through it. Two routers on one image, offered the
//! same packets and stepped alternately, must stay digest-identical
//! after every run call: a write through anything they share would make
//! the second see what the first did a step early.

use std::sync::Arc;

use raw_net::Packet;
use raw_sim::{lockstep, EngineMode};
use raw_xbar::{port_table, RawRouter, RouterConfig};

const PACKETS: u32 = 160;

/// A router offered `PACKETS` packets of 24..=64 bytes, spread over all
/// inputs and outputs (so ports contend), four released every 20 cycles.
fn loaded(cfg: &RouterConfig) -> RawRouter {
    let mut r = RawRouter::new(cfg.clone(), port_table());
    for k in 0..PACKETS {
        let src = k % 4;
        let dst = (src + 1 + (k / 4) % 3) % 4;
        let mut p = Packet::synthetic(
            0x0a0a_0000 + src,
            0x0a00_0001 | (dst << 16),
            24 + (k as usize % 5) * 10,
            64,
            k,
        );
        p.header.id = k as u16;
        p.header.checksum = p.header.compute_checksum();
        r.offer(src as usize, u64::from(k / 4) * 20, &p);
    }
    r
}

#[test]
fn routers_sharing_an_image_never_diverge() {
    let native = RouterConfig {
        quantum_words: 16,
        ..RouterConfig::default()
    };
    let asm = RouterConfig {
        asm_crossbar: true,
        ..native.clone()
    };
    for base in [native, asm] {
        for engine in [EngineMode::PerCycle, EngineMode::Compiled] {
            let mut cfg = base.clone();
            cfg.raw.engine = engine;
            let what = format!("asm_crossbar {} / {engine:?}", cfg.asm_crossbar);
            let (mut a, mut b) = (loaded(&cfg), loaded(&cfg));
            assert!(Arc::ptr_eq(&a.image, &b.image), "{what}: one image");
            let found = lockstep(
                &mut a,
                &mut b,
                |r, i| r.run([1, 7, 13][i as usize % 3]),
                |r| r.machine.digests(),
                900,
            );
            assert_eq!(found, None, "{what}: (run call, component) where they part");
            for r in [&mut a, &mut b] {
                assert!(r.run_until_drained(2_000_000), "{what}: drains");
            }
            assert_eq!(a.delivered_count(), u64::from(PACKETS), "{what}");
            assert_eq!(a.machine.digests(), b.machine.digests(), "{what}");
            for p in 0..4 {
                assert_eq!(a.delivered(p), b.delivered(p), "{what}: output {p}");
            }
        }
    }
}
