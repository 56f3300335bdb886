//! End-to-end router tests: packets in on line cards, through ingress →
//! lookup → Rotating Crossbar → egress, out on line cards, with full
//! validation of the delivered IP packets.

use std::sync::Arc;

use raw_lookup::{ForwardingTable, RouteEntry};
use raw_net::Packet;
use raw_xbar::reference::port_routes;
use raw_xbar::{audit, port_table, RawRouter, RouterConfig};

/// What a test offered, as the audit wants it: `(input, wire words)`.
type Sent = Vec<(usize, Vec<u32>)>;

/// Offer `p` on `port` at cycle 0 and remember it for the audit.
fn offer(r: &mut RawRouter, sent: &mut Sent, port: usize, p: &Packet) {
    r.offer(port, 0, p);
    sent.push((port, p.to_words()));
}

/// The drained run is exactly what the reference prescribes: every
/// packet out of the right port once, TTL decremented, checksum valid,
/// payload intact, each flow in order.
fn assert_audit(r: &RawRouter, sent: &Sent) {
    let errs = audit(r, sent.iter().map(|(port, words)| (*port, words)), true);
    assert!(errs.is_empty(), "{errs:#?}");
}

/// Address inside output port `p`'s prefix.
fn addr_for(p: u32) -> u32 {
    0x0a00_0001 | (p << 16)
}

fn packet(src_port: u32, dst_port: u32, bytes: usize, seed: u32) -> Packet {
    Packet::synthetic(0x0a0a_0000 + src_port, addr_for(dst_port), bytes, 64, seed)
}

/// The port table plus a class-D route fanning `0xe000_0000/4` out to
/// ports 1, 2 and 3.
fn multicast_table() -> Arc<ForwardingTable> {
    let mut routes = port_routes();
    routes.push(RouteEntry::new(
        0xe000_0000,
        4,
        raw_lookup::encode_multicast(0b1110),
    ));
    Arc::new(ForwardingTable::build(&routes))
}

#[test]
fn single_packet_traverses_router() {
    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    let mut sent = Sent::new();
    offer(&mut r, &mut sent, 0, &packet(0, 2, 64, 1));
    assert!(r.run_until_drained(60_000), "packet never delivered");
    assert_eq!(r.delivered(2).len(), 1, "packet must exit on port 2");
    // Routed correctly, TTL decremented, checksum still valid, payload
    // intact, no misdelivery.
    assert_audit(&r, &sent);
}

#[test]
fn packets_to_every_port_pair() {
    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    let mut sent = Sent::new();
    for src in 0..4u32 {
        for dst in 0..4u32 {
            let p = packet(src, dst, 128, src * 4 + dst);
            offer(&mut r, &mut sent, src as usize, &p);
        }
    }
    assert!(r.run_until_drained(400_000), "not all 16 packets delivered");
    for dst in 0..4usize {
        assert_eq!(r.delivered(dst).len(), 4, "port {dst}");
    }
    assert_audit(&r, &sent);
}

#[test]
fn per_flow_order_is_preserved() {
    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    // 8 packets from port 0 to port 1 with increasing IP ids.
    for i in 0..8u16 {
        let mut p = packet(0, 1, 256, i as u32);
        p.header.id = i;
        p.header.checksum = p.header.compute_checksum();
        r.offer(0, 0, &p);
    }
    assert!(r.run_until_drained(400_000));
    let out = r.delivered(1);
    assert_eq!(out.len(), 8);
    let ids: Vec<u16> = out.iter().map(|(_, p)| p.header.id).collect();
    assert_eq!(ids, (0..8).collect::<Vec<u16>>(), "FIFO per-flow order");
    // Completion cycles strictly increase.
    for w in out.windows(2) {
        assert!(w[0].0 < w[1].0);
    }
}

#[test]
fn figure_5_1_permutation_all_ports_concurrent() {
    // The Figure 5-1 pattern: 0->2, 1->3, 2->0, 3->1, all at once, many
    // packets — every port both sends and receives continuously.
    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    let n = 12;
    for k in 0..n {
        for src in 0..4u32 {
            let dst = (src + 2) % 4;
            r.offer(src as usize, 0, &packet(src, dst, 256, k * 7 + src));
        }
    }
    assert!(r.run_until_drained(2_000_000), "permutation traffic wedged");
    for dst in 0..4usize {
        assert_eq!(r.delivered(dst).len(), n as usize, "port {dst}");
    }
    assert_eq!(r.parse_errors(), 0);
    // The four token counters stayed in lock-step (§5.1's synchronous
    // counter claim).
    let tokens = r.token_counters();
    let max = *tokens.iter().max().unwrap();
    let min = *tokens.iter().min().unwrap();
    assert!(max - min <= 1, "token counters diverged: {tokens:?}");
}

#[test]
fn output_contention_serializes_but_delivers_all() {
    // All four inputs target port 0 — the §5.4 fairness scenario.
    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    let n = 6;
    for k in 0..n {
        for src in 0..4u32 {
            r.offer(src as usize, 0, &packet(src, 0, 128, k * 11 + src));
        }
    }
    assert!(r.run_until_drained(2_000_000), "hotspot traffic wedged");
    assert_eq!(r.delivered(0).len(), 4 * n as usize);
    assert_eq!(r.parse_errors(), 0);
    // Every ingress got grants — no starvation.
    for i in 0..4 {
        let s = r.ingress_stats(i);
        assert!(s.grants >= n as u64, "ingress {i} starved: {s:?}");
    }
}

#[test]
fn store_and_forward_reassembles_fragmented_packets() {
    // Quantum 32 words but 1,024-byte (256-word) packets: 8 fragments
    // per packet, reassembled by the egress.
    let cfg = RouterConfig {
        quantum_words: 32,
        cut_through: false,
        ..RouterConfig::default()
    };
    let mut r = RawRouter::new(cfg, port_table());
    let mut sent = Sent::new();
    offer(&mut r, &mut sent, 0, &packet(0, 2, 1024, 5));
    // Interleaves with the first packet's fragments at egress 2.
    offer(&mut r, &mut sent, 1, &packet(1, 2, 1024, 6));
    assert!(r.run_until_drained(2_000_000), "fragmented packets wedged");
    assert_eq!(r.delivered(2).len(), 2);
    // Both reassembled intact (order between flows unspecified).
    assert_audit(&r, &sent);
    let eg = r.egress_stats(2);
    assert_eq!(eg.reasm_errors, 0);
    assert_eq!(eg.fragments, 16);
}

#[test]
fn ttl_expired_packets_are_dropped() {
    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    let mut p = packet(0, 1, 64, 9);
    p.header.ttl = 1;
    p.header.checksum = p.header.compute_checksum();
    r.offer(0, 0, &p);
    // A good packet behind it still flows.
    r.offer(0, 0, &packet(0, 1, 64, 10));
    assert!(
        r.run_until_drained(200_000),
        "good packet stuck behind drop"
    );
    assert_eq!(r.delivered(1).len(), 1);
    assert_eq!(r.ingress_stats(0).packets_dropped, 1);
}

#[test]
fn idle_router_stays_quiet_and_sane() {
    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    r.run(20_000);
    assert_eq!(r.delivered_count(), 0);
    assert_eq!(r.parse_errors(), 0);
    // The crossbar keeps cycling empty quanta without wedging.
    let q = r.xbar_stats(0).unwrap().quanta;
    assert!(q > 100, "crossbar made only {q} quanta in 20k cycles");
    let tokens = r.token_counters();
    assert!(tokens.iter().max().unwrap() - tokens.iter().min().unwrap() <= 1);
}

#[test]
fn multicast_packet_fans_out_to_all_subscribed_ports() {
    // §8.6 end-to-end: a class-D route fans one packet out to ports
    // 1, 2 and 3 through the fabric's switch multicast, while unicast
    // traffic keeps flowing.
    let cfg = RouterConfig {
        quantum_words: 32,
        cut_through: true,
        ..RouterConfig::default()
    };
    let mut r = RawRouter::new(cfg, multicast_table());
    // One multicast packet from port 0 plus a unicast chaser per port.
    let mut sent = Sent::new();
    let mc = Packet::synthetic(0x0a0a_0000, 0xe000_0005, 128, 64, 1);
    offer(&mut r, &mut sent, 0, &mc);
    for src in 0..4u32 {
        let chaser = packet(src, (src + 1) % 4, 128, 10 + src);
        offer(&mut r, &mut sent, src as usize, &chaser);
    }
    r.run(200_000);
    // The multicast copy reached ports 1..3 (not 0, the source port is
    // not in the group).
    let copies = |port: usize| {
        r.delivered(port)
            .iter()
            .filter(|(_, p)| p.header.dst == 0xe000_0005)
            .count()
    };
    assert_eq!([0, 1, 2, 3].map(copies), [0, 1, 1, 1]);
    // Each copy intact, and the unicast chasers all arrived too.
    assert_eq!(r.delivered_count(), 3 + 4);
    assert_audit(&r, &sent);
}

/// The router reads multicast off its table: under the default
/// configuration a class-D route fans out to its members only.
#[test]
fn a_multicast_table_fans_out_under_the_default_config() {
    let mut r = RawRouter::new(RouterConfig::default(), multicast_table());
    let mut sent = Sent::new();
    for k in 0..4 {
        let mc = Packet::synthetic(0x0a0a_0000, 0xe000_0005, 128, 64, k);
        offer(&mut r, &mut sent, 0, &mc);
    }
    r.run(100_000);
    assert_eq!([0, 1, 2, 3].map(|p| r.delivered(p).len()), [0, 4, 4, 4]);
    assert_audit(&r, &sent);
}

#[test]
fn multicast_mode_still_routes_plain_unicast() {
    // The multicast jump table embeds the unicast behavior: a table with
    // a multicast route that no packet uses.
    let mut r = RawRouter::new(RouterConfig::default(), multicast_table());
    for src in 0..4u32 {
        r.offer(src as usize, 0, &packet(src, (src + 2) % 4, 256, src));
    }
    assert!(r.run_until_drained(400_000));
    for dst in 0..4usize {
        assert_eq!(r.delivered(dst).len(), 1, "port {dst}");
    }
    assert_eq!(r.parse_errors(), 0);
}

#[test]
fn voq_ingress_routes_correctly() {
    // Basic sanity in VOQ mode: mixed destinations from one port.
    let cfg = RouterConfig {
        quantum_words: 32,
        cut_through: true,
        queueing: raw_xbar::IngressQueueing::Voq,
        ..RouterConfig::default()
    };
    let mut r = RawRouter::new(cfg, port_table());
    let mut sent = Sent::new();
    for k in 0..12u32 {
        offer(&mut r, &mut sent, 0, &packet(0, k % 4, 128, k));
    }
    assert!(r.run_until_drained(2_000_000), "VOQ traffic wedged");
    for dst in 0..4usize {
        assert_eq!(r.delivered(dst).len(), 3, "port {dst}");
    }
    assert_audit(&r, &sent);
}

#[test]
fn voq_defeats_head_of_line_blocking() {
    // HOL scenario: every port's queue starts with a long burst to the
    // contended port 0, followed by one packet to an uncontended port.
    // FIFO ingresses serialize the whole burst before the tail packet
    // moves; VOQ lets the tail packet overtake.
    let offer_all = |r: &mut RawRouter| {
        for src in 0..4u32 {
            for k in 0..20u32 {
                r.offer(src as usize, 0, &packet(src, 0, 64, k));
            }
            // The HOL victim: destined to an idle output.
            let mut v = packet(src, src + 10, 64, 99);
            v.header.dst = 0x0a00_0001 | (((src + 1) % 4) << 16);
            v.header.checksum = v.header.compute_checksum();
            r.offer(src as usize, 0, &v);
        }
    };
    let victim_time = |queueing| -> u64 {
        let cfg = RouterConfig {
            quantum_words: 16,
            cut_through: true,
            queueing,
            ..RouterConfig::default()
        };
        let mut r = RawRouter::new(cfg, port_table());
        offer_all(&mut r);
        assert!(r.run_until_drained(4_000_000));
        // Completion cycle of the last victim packet (ips outside port 0).
        (0..4)
            .flat_map(|p| r.delivered(p))
            .filter(|(_, p)| ((p.header.dst >> 16) & 0x3) != 0)
            .map(|(c, _)| c)
            .max()
            .expect("victims delivered")
    };
    let fifo = victim_time(raw_xbar::IngressQueueing::Fifo);
    let voq = victim_time(raw_xbar::IngressQueueing::Voq);
    assert!(
        voq * 10 < fifo * 7,
        "VOQ must let victims overtake the hotspot burst: fifo {fifo} vs voq {voq}"
    );
}

#[test]
fn assembly_crossbar_routes_like_the_native_one() {
    // The §6.5 path: crossbar tiles run generated Raw assembly on the
    // cycle-accurate interpreter. Same traffic, same deliveries.
    let run = |asm: bool| -> Vec<Vec<u16>> {
        let cfg = RouterConfig {
            quantum_words: 16,
            cut_through: true,
            asm_crossbar: asm,
            ..RouterConfig::default()
        };
        let mut r = RawRouter::new(cfg, port_table());
        for k in 0..6u32 {
            for src in 0..4u32 {
                let mut p = packet(src, (src + k) % 4, 64, k * 5 + src);
                p.header.id = k as u16;
                p.header.checksum = p.header.compute_checksum();
                r.offer(src as usize, 0, &p);
            }
        }
        assert!(
            r.run_until_drained(3_000_000),
            "asm={asm} traffic wedged: {} of {}",
            r.delivered_count(),
            r.offered()
        );
        assert_eq!(r.parse_errors(), 0);
        (0..4)
            .map(|port| {
                let mut ids: Vec<u16> =
                    r.delivered(port).iter().map(|(_, p)| p.header.id).collect();
                ids.sort_unstable();
                ids
            })
            .collect()
    };
    let native = run(false);
    let asm = run(true);
    assert_eq!(native, asm, "assembly crossbar diverged from native");
}

#[test]
fn assembly_crossbar_sustains_permutation_traffic() {
    let cfg = RouterConfig {
        quantum_words: 64,
        cut_through: true,
        asm_crossbar: true,
        ..RouterConfig::default()
    };
    let mut r = RawRouter::new(cfg, port_table());
    for k in 0..20u32 {
        for src in 0..4u32 {
            r.offer(src as usize, 0, &packet(src, (src + 2) % 4, 256, k));
        }
    }
    assert!(r.run_until_drained(2_000_000));
    for dst in 0..4usize {
        assert_eq!(r.delivered(dst).len(), 20, "port {dst}");
    }
    assert_eq!(r.parse_errors(), 0);
}

#[test]
fn corrupt_checksum_packet_is_dropped_and_stream_resyncs() {
    // A packet with a broken header checksum is discarded by the ingress
    // (§4.2's verification). The checksum leaves the claimed length
    // intact, so the drop is classified, the exact payload span drained,
    // and the framer stays packet-aligned: the very next packet parses
    // cleanly with no idle gap needed, and drained-accounting holds
    // (delivered + dropped == offered).
    use raw_telemetry::DropReason;
    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    let mut bad = packet(0, 1, 64, 5);
    bad.header.checksum ^= 0x5aa5; // corrupt
    r.offer(0, 0, &bad);
    let good = packet(0, 2, 64, 6);
    r.offer(0, 0, &good);
    assert!(r.run_until_drained(400_000), "accounting must close");
    assert_eq!(r.delivered(2).len(), 1, "good packet lost after corruption");
    assert!(
        r.delivered(1).is_empty(),
        "the corrupt packet must not pass"
    );
    let ig = r.ingress_stats(0);
    assert_eq!(ig.packets_dropped, 1, "{ig:?}");
    assert_eq!(ig.drops[DropReason::BadChecksum.index()], 1, "{ig:?}");
    assert_eq!(ig.frame_errors, 0, "{ig:?}");
    assert_eq!(r.parse_errors(), 0);
}

#[test]
fn jumbo_packets_fragment_and_reassemble() {
    // A 9000-byte jumbo crosses the fabric as ~36 fragments at quantum
    // 64 and reassembles bit-exactly.
    let cfg = RouterConfig {
        quantum_words: 64,
        cut_through: false,
        ..RouterConfig::default()
    };
    let mut r = RawRouter::new(cfg, port_table());
    let mut sent = Sent::new();
    offer(&mut r, &mut sent, 0, &packet(0, 3, 9000, 7));
    assert!(r.run_until_drained(4_000_000), "jumbo wedged");
    assert_eq!(r.delivered(3).len(), 1);
    assert_audit(&r, &sent);
    let frags = r.egress_stats(3).fragments;
    assert_eq!(frags as usize, 2250usize.div_ceil(64), "9000B = 2250 words");
}

#[test]
fn back_to_back_minimum_packets_sustain_peak() {
    // 64-byte packets at saturation: sustained delivery rate within the
    // measured envelope (sanity guard against performance regressions).
    let cfg = RouterConfig {
        quantum_words: 16,
        cut_through: true,
        ..RouterConfig::default()
    };
    let mut r = RawRouter::new(cfg, port_table());
    for k in 0..600u32 {
        for src in 0..4u32 {
            r.offer(src as usize, 0, &packet(src, (src + 2) % 4, 64, k));
        }
    }
    r.run(60_000);
    let gbps = r.throughput_gbps(10_000, 60_000);
    assert!(
        gbps > 4.5,
        "64B peak regressed to {gbps:.2} Gbps (expected ~5.4)"
    );
    assert_eq!(r.parse_errors(), 0);
}

/// "Stall forever": a fault window of `u64::MAX` cycles saturates
/// instead of ending before it starts. An output refused from cycle 100
/// on completes nothing after that; an input paused from cycle 10 on
/// never starts its packet, while another input's flow drains.
#[test]
fn fault_windows_of_u64_max_last_forever() {
    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    for i in 0..8 {
        r.offer(0, 0, &packet(0, 2, 64, i));
    }
    r.stall_output(2, 100, u64::MAX);
    r.run(60_000);
    let out = r.delivered(2);
    assert!(out.len() < 8, "output 2 delivered all 8 packets");
    assert!(
        out.iter().all(|&(cycle, _)| cycle < 100),
        "output 2 completed a packet inside its stall window"
    );

    let mut r = RawRouter::new(RouterConfig::default(), port_table());
    for i in 0..8 {
        r.offer(0, 0, &packet(0, 2, 64, i));
    }
    r.offer(3, 50, &packet(3, 1, 64, 200));
    r.pause_input(3, 10, u64::MAX);
    r.run(60_000);
    assert_eq!(r.delivered(2).len(), 8);
    assert!(r.delivered(1).is_empty(), "input 3 injected while paused");
}

/// The router reads every counter back out of the machine by type: after
/// a mixed good/malformed run the four readers agree with each other and
/// with delivered + dropped == offered. The Crossbar Processor's counters
/// exist only where a `CrossbarProgram` runs — not under `asm_crossbar`.
#[test]
fn stats_readers_agree_with_conservation() {
    for asm in [false, true] {
        let cfg = RouterConfig {
            quantum_words: 16,
            asm_crossbar: asm,
            ..RouterConfig::default()
        };
        let mut r = RawRouter::new(cfg, port_table());
        for k in 0..5u32 {
            for src in 0..4u32 {
                let mut p = packet(src, (src + k) % 4, 64, k * 4 + src);
                match (k, src) {
                    (1, 0) | (3, 2) => p.header.checksum ^= 0x5aa5,
                    (2, 1) => {
                        p.header.ttl = 1;
                        p.header.checksum = p.header.compute_checksum();
                    }
                    _ => {}
                }
                r.offer(src as usize, 0, &p);
            }
        }
        assert!(r.run_until_drained(3_000_000), "asm={asm} wedged");

        let sum = |f: &dyn Fn(usize) -> u64| (0..4).map(f).sum::<u64>();
        assert_eq!(sum(&|p| r.ingress_stats(p).packets_dropped), 3);
        assert_eq!(r.dropped_count(), 3);
        assert_eq!(r.drop_reasons().iter().sum::<u64>(), 3);
        assert_eq!(sum(&|p| r.ingress_stats(p).packets_completed), 17);
        assert_eq!(sum(&|p| r.collected(p).packets.len() as u64), 17);
        assert_eq!(sum(&|p| r.egress_stats(p).packets), 17);
        assert_eq!(r.delivered_count(), 17);
        assert_eq!(r.delivered_count() + r.dropped_count(), r.offered());

        for p in 0..4 {
            assert_eq!(r.xbar_stats(p).is_some(), !asm, "asm={asm} port {p}");
        }
        if !asm {
            assert_eq!(
                sum(&|p| r.xbar_stats(p).unwrap().grants_issued),
                sum(&|p| r.ingress_stats(p).grants),
                "every grant was collected"
            );
        }
    }
}
