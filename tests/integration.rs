//! Cross-crate integration tests: workloads → router → delivery
//! validation against the lookup substrate, exercising configurations the
//! paper's evaluation spans.

use std::sync::Arc;

use raw_router::lookup::{synth_table, Engine, ForwardingTable};
use raw_router::net::Packet;
use raw_router::workloads::{generate, Pattern, ScheduledPacket, Workload};
use raw_router::xbar::{audit, port_table, RawRouter, RouterConfig};

/// Offer `sched`, run until drained, and hold the run to the functional
/// reference: conservation and correctness, byte for byte.
fn run_audited(r: &mut RawRouter, sched: &[ScheduledPacket], max_cycles: u64) {
    for s in sched {
        r.offer(s.port, s.release, &s.packet);
    }
    assert!(r.run_until_drained(max_cycles), "traffic wedged");
    let offered = sched.iter().map(|s| (s.port, s.packet.to_words()));
    let errs = audit(r, offered, true);
    assert!(errs.is_empty(), "{errs:#?}");
}

#[test]
fn uniform_traffic_cut_through_end_to_end() {
    let mut r = RawRouter::new(RouterConfig::for_packet_bytes(256), port_table());
    let sched = generate(&Workload::average(256, 40, 11));
    run_audited(&mut r, &sched, 3_000_000);
}

/// Regression: multi-fragment packets whose padded tail must switch the
/// intake machine into buffering after the wire-sourced fragments
/// (previously wedged the router on mixed-size traffic).
#[test]
fn mixed_sizes_store_forward_drain_completely() {
    let mut r = RawRouter::new(
        RouterConfig {
            quantum_words: 64,
            cut_through: false,
            ..RouterConfig::default()
        },
        port_table(),
    );
    let sizes = [64usize, 576, 1500, 300, 1024, 72];
    let sched: Vec<ScheduledPacket> = (0..36)
        .map(|k| {
            let (src, dst) = (k % 4, (k * 7 + 1) % 4);
            ScheduledPacket {
                port: src,
                release: 0,
                packet: Packet::synthetic(
                    0x0a0a_0000 + src as u32,
                    0x0a00_0001 | ((dst as u32) << 16),
                    sizes[k % sizes.len()],
                    64,
                    k as u32,
                ),
            }
        })
        .collect();
    // Payloads survive fragmentation + reassembly bit-exactly.
    run_audited(&mut r, &sched, 6_000_000);
}

#[test]
fn both_lookup_engines_route_identically() {
    let routes = synth_table(800, 4, 5);
    let table = Arc::new(ForwardingTable::build(&routes));
    let mut deliveries = Vec::new();
    for engine in [Engine::Patricia, Engine::Dir24_8] {
        let mut r = RawRouter::new(
            RouterConfig {
                quantum_words: 32,
                cut_through: true,
                engine,
                ..RouterConfig::default()
            },
            Arc::clone(&table),
        );
        let addrs = raw_router::lookup::synth_addresses(&routes, 32, 0.9, 6);
        for (k, a) in addrs.iter().enumerate() {
            let p = Packet::synthetic(0x0a0a_0000, *a, 128, 64, k as u32);
            r.offer(k % 4, 0, &p);
        }
        assert!(r.run_until_drained(3_000_000));
        let counts: Vec<usize> = (0..4).map(|p| r.delivered(p).len()).collect();
        deliveries.push(counts);
    }
    assert_eq!(deliveries[0], deliveries[1], "engines disagreed end-to-end");
}

#[test]
fn weighted_tokens_skew_hotspot_shares() {
    let mut r = RawRouter::new(
        RouterConfig {
            weights: [3, 1, 1, 1],
            ..RouterConfig::for_packet_bytes(256)
        },
        port_table(),
    );
    // Offer far more than the window can drain so the shares are
    // measured under sustained backlog.
    let w = Workload {
        pattern: Pattern::Hotspot { dst: 0 },
        ..Workload::peak(256, 3000)
    };
    for s in generate(&w) {
        r.offer(s.port, s.release, &s.packet);
    }
    r.run(150_000);
    let out = r.delivered(0);
    let mut per = [0u64; 4];
    for (_, p) in &out {
        per[(p.header.src & 0x3) as usize] += 1;
    }
    // Port 0 holds the token 3 of every 6 quanta: expect ~3x the share.
    let ratio = per[0] as f64 / per[1].max(1) as f64;
    assert!(
        (2.0..=4.0).contains(&ratio),
        "weighted share off: {per:?} (ratio {ratio:.2})"
    );
}

#[test]
fn deterministic_replay() {
    let mut counts = Vec::new();
    for _ in 0..2 {
        let mut r = RawRouter::new(RouterConfig::for_packet_bytes(128), port_table());
        for s in generate(&Workload::average(128, 50, 77)) {
            r.offer(s.port, s.release, &s.packet);
        }
        r.run(150_000);
        let cycles: Vec<u64> = (0..4)
            .flat_map(|p| r.delivered(p))
            .map(|(c, _)| c)
            .collect();
        counts.push(cycles);
    }
    assert_eq!(
        counts[0], counts[1],
        "simulation must be fully deterministic"
    );
}

#[test]
fn bursty_arrivals_with_gaps() {
    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    let w = Workload {
        pattern: Pattern::Bursty { burst: 4 },
        arrivals: raw_router::workloads::Arrivals::Bernoulli {
            slot_cycles: 400,
            p_mille: 500,
        },
        ..Workload::average(128, 25, 3)
    };
    run_audited(&mut r, &generate(&w), 6_000_000);
}

#[test]
fn workspace_crates_compose_through_the_facade() {
    // The root crate re-exports every subsystem coherently.
    let _ = raw_router::sim::RawConfig::default();
    let _ = raw_router::baselines::ClickRouter::standard();
    let cs = raw_router::xbar::ConfigSpace::enumerate(raw_router::xbar::SchedPolicy::default());
    assert_eq!(raw_router::xbar::config::GLOBAL_SPACE, 2500);
    assert!(cs.minimized_len() < 40);
}
