//! End-to-end tests of the scheduler-mode router: iSLIP and crosspoint-
//! queued arbitration running on the same static network, switch code,
//! and ingest/egress paths as the paper's rotating token — only the
//! per-quantum matching differs.

use raw_net::Packet;
use raw_sim::{first_divergence, EngineMode};
use raw_xbar::{port_table, RawRouter, RouterConfig, SchedKind};

fn addr_for(p: u32) -> u32 {
    0x0a00_0001 | (p << 16)
}

fn packet(src_port: u32, dst_port: u32, bytes: usize, seed: u32) -> Packet {
    Packet::synthetic(0x0a0a_0000 + src_port, addr_for(dst_port), bytes, 64, seed)
}

/// The scheduler head-to-head configuration: VOQ ingresses (required by
/// the mask-bid protocol) with everything else at defaults.
fn sched_cfg(kind: SchedKind) -> RouterConfig {
    RouterConfig {
        quantum_words: 32,
        cut_through: true,
        queueing: raw_xbar::IngressQueueing::Voq,
        arbiter: kind,
        ..RouterConfig::default()
    }
}

#[test]
fn every_scheduler_delivers_every_port_pair() {
    for kind in SchedKind::all() {
        let mut r = RawRouter::new(sched_cfg(kind), port_table());
        let mut expect = [0usize; 4];
        for round in 0..3u32 {
            for src in 0..4u32 {
                for dst in 0..4u32 {
                    r.offer(
                        src as usize,
                        0,
                        &packet(src, dst, 128, round * 16 + src * 4 + dst),
                    );
                    expect[dst as usize] += 1;
                }
            }
        }
        assert!(
            r.run_until_drained(4_000_000),
            "{}: traffic wedged",
            kind.name()
        );
        #[allow(clippy::needless_range_loop)]
        for dst in 0..4usize {
            let out = r.delivered(dst);
            assert_eq!(out.len(), expect[dst], "{}: port {dst}", kind.name());
            for (_, p) in &out {
                assert_eq!(p.header.ttl, 63, "{}", kind.name());
                assert!(p.header.checksum_ok(), "{}", kind.name());
            }
        }
        assert_eq!(r.parse_errors(), 0, "{}", kind.name());
    }
}

#[test]
fn schedulers_deliver_identical_packet_sets() {
    // Same offered workload under all three arbiters: the delivered
    // multiset per output (payload checksums) must be identical — the
    // scheduler changes *when*, never *what* or *where*.
    let deliver = |kind: SchedKind| -> [Vec<Vec<u8>>; 4] {
        let mut r = RawRouter::new(sched_cfg(kind), port_table());
        for k in 0..10u32 {
            for src in 0..4u32 {
                r.offer(
                    src as usize,
                    0,
                    &packet(src, (src + 1 + k) % 4, 96, k * 4 + src),
                );
            }
        }
        assert!(r.run_until_drained(4_000_000), "{}", kind.name());
        std::array::from_fn(|p| {
            let mut v: Vec<Vec<u8>> = r
                .delivered(p)
                .into_iter()
                .map(|(_, pk)| pk.payload)
                .collect();
            v.sort();
            v
        })
    };
    let [token, islip, cq] = SchedKind::all().map(deliver);
    assert_eq!(token, islip);
    assert_eq!(token, cq);
}

#[test]
fn per_flow_order_survives_every_scheduler() {
    for kind in SchedKind::all() {
        let mut r = RawRouter::new(sched_cfg(kind), port_table());
        for i in 0..8u16 {
            let mut p = packet(0, 1, 96, i as u32);
            p.header.id = i;
            p.header.checksum = p.header.compute_checksum();
            r.offer(0, 0, &p);
        }
        assert!(r.run_until_drained(2_000_000), "{}", kind.name());
        let ids: Vec<u16> = r.delivered(1).iter().map(|(_, p)| p.header.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u16>>(), "{}", kind.name());
    }
}

#[test]
fn crossbar_replicas_stay_in_lockstep() {
    // The four crossbar tiles each run a private arbiter replica over
    // the same bid vectors; their quantum counters must agree (within
    // the one-quantum skew of the drain cutoff) and every granted pair
    // must show up in the scheduler statistics.
    for kind in [
        SchedKind::Islip { iters: 4 },
        SchedKind::CrosspointQueued { capacity: 4 },
    ] {
        let mut r = RawRouter::new(sched_cfg(kind), port_table());
        for k in 0..8u32 {
            for src in 0..4u32 {
                r.offer(
                    src as usize,
                    0,
                    &packet(src, (src + 2) % 4, 128, k * 4 + src),
                );
            }
        }
        assert!(r.run_until_drained(4_000_000), "{}", kind.name());
        let quanta: Vec<u64> = (0..4).map(|i| r.xbar_stats(i).unwrap().quanta).collect();
        let max = *quanta.iter().max().unwrap();
        let min = *quanta.iter().min().unwrap();
        assert!(
            max - min <= 1,
            "{}: quanta diverged {quanta:?}",
            kind.name()
        );
        for i in 0..4 {
            let s = r.xbar_stats(i).unwrap();
            assert!(s.sched_iterations > 0, "{}: tile {i}", kind.name());
            assert!(s.sched_matched > 0, "{}: tile {i}", kind.name());
            // Grants the tile issued for its own ingress are a subset of
            // the matched pairs its replica computed.
            assert!(s.grants_issued <= s.sched_matched, "{}", kind.name());
        }
    }
}

#[test]
fn scheduler_mode_is_engine_invariant() {
    // The arbiters live in tile programs, so the compiled engine must
    // reproduce the per-cycle run exactly: the machines agree cycle by
    // cycle through the cycle the per-cycle run drains at, and both runs
    // drain with the same delivery cycles and the same grant counts.
    let router = |engine: EngineMode| {
        let mut cfg = sched_cfg(SchedKind::Islip { iters: 4 });
        cfg.raw.engine = engine;
        let mut r = RawRouter::new(cfg, port_table());
        for k in 0..6u32 {
            for src in 0..4u32 {
                r.offer(
                    src as usize,
                    0,
                    &packet(src, (3 - src) % 4, 96, k * 4 + src),
                );
            }
        }
        r
    };
    let drained = |engine: EngineMode| {
        let mut r = router(engine);
        assert!(r.run_until_drained(4_000_000));
        let mut out: Vec<(u64, u16)> = (0..4)
            .flat_map(|p| r.delivered(p))
            .map(|(c, pk)| (c, pk.header.id))
            .collect();
        out.sort();
        let grants: u64 = (0..4).map(|i| r.xbar_stats(i).unwrap().grants_issued).sum();
        (r.machine.cycle(), out, grants)
    };
    let reference = drained(EngineMode::PerCycle);
    let found = first_divergence(
        || router(EngineMode::PerCycle),
        || router(EngineMode::Compiled),
        |r, n| r.run(n),
        |r| r.machine.digests(),
        reference.0,
    );
    assert_eq!(found, None, "(cycle, component) where the engines part");
    assert_eq!(drained(EngineMode::Compiled), reference);
}
