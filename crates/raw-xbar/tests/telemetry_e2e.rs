//! End-to-end telemetry tests on the assembled router: every delivered
//! packet gets a complete, monotone lifecycle record; the per-tile state
//! counters conserve cycles; attaching a sink never changes results.

use raw_net::Packet;
use raw_telemetry::{shared, with_sink, Recorder, SharedSink, StageSpan};
use raw_xbar::{port_table, IngressQueueing, RawRouter, RouterConfig};

fn packet(src_port: u32, dst_port: u32, bytes: usize, seed: u32) -> Packet {
    Packet::synthetic(
        0x0a0a_0000 + src_port,
        0x0a00_0001 | (dst_port << 16),
        bytes,
        64,
        seed,
    )
}

fn instrumented(cfg: RouterConfig) -> (RawRouter, SharedSink) {
    let sink = shared(Recorder::new(16, raw_sim::NUM_STATIC_NETS));
    let r = RawRouter::try_new_with_telemetry(cfg, port_table(), Some(sink.clone())).unwrap();
    (r, sink)
}

/// Assert a complete, monotone lifecycle for every delivered packet.
fn check_lives(sink: &SharedSink, delivered: u64, label: &str) {
    with_sink::<Recorder, _>(sink, |rec| {
        assert_eq!(
            rec.lives().len() as u64,
            delivered,
            "{label}: every delivered packet must close a lifecycle"
        );
        assert_eq!(rec.unmatched_egress, 0, "{label}: egress stamps matched");
        assert_eq!(rec.open_packets(), 0, "{label}: no packet left open");
        for life in rec.lives() {
            for span in StageSpan::ALL {
                assert!(
                    span.of(life).is_some(),
                    "{label}: packet {}:{} missing the {} span",
                    life.port,
                    life.id,
                    span.name()
                );
            }
        }
    });
}

#[test]
fn cut_through_lifecycles_are_complete() {
    let (mut r, sink) = instrumented(RouterConfig::default());
    for src in 0..4u32 {
        for dst in 0..4u32 {
            r.offer(src as usize, 0, &packet(src, dst, 128, src * 4 + dst));
        }
    }
    assert!(r.run_until_drained(400_000), "packets must drain");
    assert_eq!(r.parse_errors(), 0);
    check_lives(&sink, r.delivered_count(), "cut-through");
    with_sink::<Recorder, _>(&sink, |rec| {
        // Each packet closed on the output port the table routes it to.
        let mut per_dst = [0u64; 4];
        for life in rec.lives() {
            per_dst[life.dst as usize] += 1;
        }
        assert_eq!(per_dst, [4, 4, 4, 4]);
    });
}

#[test]
fn store_forward_voq_lifecycles_are_complete() {
    let cfg = RouterConfig {
        cut_through: false,
        queueing: IngressQueueing::Voq,
        quantum_words: 32,
        ..RouterConfig::default()
    };
    let (mut r, sink) = instrumented(cfg);
    // Multi-fragment packets: 256 bytes = 64 words > the 32-word quantum.
    for src in 0..4u32 {
        r.offer(src as usize, 0, &packet(src, (src + 1) % 4, 256, src));
    }
    assert!(r.run_until_drained(400_000), "packets must drain");
    assert_eq!(r.parse_errors(), 0);
    check_lives(&sink, r.delivered_count(), "store-forward");
}

#[test]
fn router_conservation_holds_per_tile() {
    let (mut r, sink) = instrumented(RouterConfig::default());
    for src in 0..4u32 {
        r.offer(src as usize, 0, &packet(src, (src + 2) % 4, 64, src));
    }
    r.run(30_000);
    let cycles = r.machine.cycle();
    with_sink::<Recorder, _>(&sink, |rec| {
        assert!(
            rec.conservation_violations(cycles).is_empty(),
            "per-tile busy+idle+stalls must equal {cycles} cycles"
        );
    });
}

#[test]
fn telemetry_does_not_change_router_results() {
    let run = |instrument: bool| -> (u64, u64, Vec<(u64, Packet)>) {
        let mut r = if instrument {
            instrumented(RouterConfig::default()).0
        } else {
            RawRouter::new(RouterConfig::default(), port_table())
        };
        for src in 0..4u32 {
            for dst in 0..4u32 {
                r.offer(src as usize, 0, &packet(src, dst, 128, src * 4 + dst));
            }
        }
        r.run(120_000);
        let delivered: Vec<(u64, Packet)> = (0..4).flat_map(|p| r.delivered(p)).collect();
        (r.machine.cycle(), r.delivered_count(), delivered)
    };
    let (c1, n1, d1) = run(true);
    let (c2, n2, d2) = run(false);
    assert_eq!((c1, n1), (c2, n2));
    assert_eq!(d1.len(), d2.len());
    for ((t1, p1), (t2, p2)) in d1.iter().zip(d2.iter()) {
        assert_eq!(t1, t2, "delivery cycles must be bit-identical");
        assert_eq!(p1.payload, p2.payload);
        assert_eq!(p1.header.dst, p2.header.dst);
    }
}
