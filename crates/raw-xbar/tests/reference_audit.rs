//! The audit has teeth: after a drained mixed run the reference agrees
//! with the router on every queueing × egress combination, and each of
//! seven single seeded edits to what the router collected or counted
//! makes it disagree — and reverts to an empty report.

use raw_net::Packet;
use raw_telemetry::DropReason;
use raw_xbar::reference::{forward, Expected, Fate};
use raw_xbar::{audit, port_table, IngressQueueing, RawRouter, RouterConfig};

type Sent = Vec<(usize, Vec<u32>)>;

/// Three packets per (input, output) pair with increasing ids, plus one
/// TTL-1 packet on input 1 and one bad-checksum packet on input 2.
fn mixed_run(queueing: IngressQueueing, cut_through: bool) -> (RawRouter, Sent) {
    let cfg = RouterConfig {
        quantum_words: 32,
        cut_through,
        queueing,
        ..RouterConfig::default()
    };
    // Odd sizes exercise the padded last word; store-and-forward also
    // fragments (302 B = 76 words = 3 quanta).
    let bytes = if cut_through { 102 } else { 302 };
    let mut r = RawRouter::new(cfg, port_table());
    let mut sent = Sent::new();
    for k in 0..3u32 {
        for src in 0..4u32 {
            for dst in 0..4u32 {
                let id = k * 16 + src * 4 + dst;
                let mut p =
                    Packet::synthetic(0x0a0a_0000 + src, 0x0a00_0001 | (dst << 16), bytes, 64, id);
                p.header.id = id as u16;
                match (k, src, dst) {
                    (1, 1, 3) => p.header.ttl = 1,
                    (2, 2, 0) => p.header.checksum ^= 0x5aa5,
                    _ => {}
                }
                if (k, src, dst) != (2, 2, 0) {
                    p.header.checksum = p.header.compute_checksum();
                }
                r.offer(src as usize, 0, &p);
                sent.push((src as usize, p.to_words()));
            }
        }
    }
    assert!(r.run_until_drained(6_000_000), "mixed run wedged");
    (r, sent)
}

fn report(r: &RawRouter, sent: &Sent, drained: bool) -> Vec<String> {
    audit(r, sent.iter().map(|(port, words)| (*port, words)), drained)
}

/// Apply one edit, expect a disagreement naming `what`, undo it, expect
/// silence again.
fn mutant(
    r: &mut RawRouter,
    sent: &Sent,
    name: &str,
    what: &str,
    edit: &dyn Fn(&mut RawRouter),
    undo: &dyn Fn(&mut RawRouter),
) {
    edit(r);
    let found = report(r, sent, true);
    assert!(
        found.iter().any(|e| e.contains(what)),
        "mutant '{name}' escaped: {found:#?}"
    );
    undo(r);
    let found = report(r, sent, true);
    assert!(found.is_empty(), "'{name}' did not revert: {found:#?}");
}

#[test]
fn seeded_mutants_are_caught_and_revert_cleanly() {
    for queueing in [IngressQueueing::Fifo, IngressQueueing::Voq] {
        for cut_through in [true, false] {
            println!("{queueing:?} cut_through={cut_through}");
            let (mut r, sent) = mixed_run(queueing, cut_through);
            let (r, sent) = (&mut r, &sent);
            assert_eq!((r.delivered_count(), r.dropped_count()), (46, 2));
            let clean = report(r, sent, true);
            assert!(clean.is_empty(), "{clean:#?}");

            mutant(
                r,
                sent,
                "move a packet to another output's collector",
                "-> output 2",
                &|r| {
                    let x = r.collected_mut(2).packets.pop().unwrap();
                    r.collected_mut(3).packets.push(x);
                },
                &|r| {
                    let x = r.collected_mut(3).packets.pop().unwrap();
                    r.collected_mut(2).packets.push(x);
                },
            );

            // The three packets of the input 3 -> output 1 flow, by
            // position in output 1's collector.
            let flow: Vec<usize> = (0..r.collected(1).packets.len())
                .filter(|&at| r.collected(1).packets[at].1.header.src == 0x0a0a_0003)
                .collect();
            assert_eq!(flow.len(), 3);
            let swap = |r: &mut RawRouter| r.collected_mut(1).packets.swap(flow[0], flow[1]);
            mutant(
                r,
                sent,
                "swap two packets of one flow",
                "it as #1 of input 3 -> output 1",
                &swap,
                &swap,
            );

            let set_ttl = |ttl: u8| {
                move |r: &mut RawRouter| {
                    let h = &mut r.collected_mut(0).packets[4].1.header;
                    h.ttl = ttl;
                    h.checksum = h.compute_checksum();
                }
            };
            mutant(
                r,
                sent,
                "restore a delivered TTL to 64",
                "no such packet",
                &set_ttl(64),
                &set_ttl(63),
            );

            let flip = |r: &mut RawRouter| r.collected_mut(3).packets[7].1.payload[40] ^= 0x10;
            mutant(
                r,
                sent,
                "flip one payload byte",
                "no such packet",
                &flip,
                &flip,
            );

            mutant(
                r,
                sent,
                "duplicate a delivery",
                "it as #0 of input",
                &|r| {
                    let x = r.collected(2).packets[0].clone();
                    r.collected_mut(2).packets.push(x);
                },
                &|r| {
                    r.collected_mut(2).packets.pop();
                },
            );

            let shift = |from: DropReason, to: DropReason| {
                move |r: &mut RawRouter| {
                    let d = &mut r.ingress_stats_mut(1).drops;
                    d[from.index()] -= 1;
                    d[to.index()] += 1;
                }
            };
            mutant(
                r,
                sent,
                "move one count between two DropReason buckets",
                "drops, the reference has",
                &shift(DropReason::TtlExpired, DropReason::BadChecksum),
                &shift(DropReason::BadChecksum, DropReason::TtlExpired),
            );

            // A missing delivery is a legal prefix of a run still in
            // flight: only a run declared drained is held to the count.
            let lost = r.collected_mut(0).packets.pop().unwrap();
            assert!(report(r, sent, false).is_empty());
            let found = report(r, sent, true);
            assert!(
                found.len() == 1 && found[0].contains("packets from input"),
                "'remove a delivery' escaped: {found:#?}"
            );
            r.collected_mut(0).packets.push(lost);
            assert!(report(r, sent, true).is_empty());
        }
    }
}

/// `forward` one stream at a time: the classification order the audit
/// relies on, including the two truncation cases that differ from a naive
/// parse (a cut inside the header is `Truncated`, not `BadIhl`; a cut in
/// the tail is only seen after the lookup, so it still spends a draw).
#[test]
fn forward_classifies_in_datapath_order() {
    let table = port_table();
    let good = Packet::synthetic(0x0a0a_0001, 0x0a02_0007, 102, 64, 9);
    let idle = raw_xbar::devices::WIRE_IDLE;
    let lookups = std::cell::Cell::new(0);
    let fate = |words: &[u32], miss: bool| {
        forward(&table, words, || {
            lookups.set(lookups.get() + 1);
            miss
        })
    };

    let Fate::Deliver { out_mask, packet } = fate(&good.to_words(), false) else {
        panic!("a good packet is delivered");
    };
    assert_eq!(out_mask, 0b0100);
    assert_eq!(packet.header.ttl, 63);
    assert!(packet.header.checksum_ok());
    assert_eq!(packet.payload, good.payload);
    // A forced miss lands on the default port.
    assert!(matches!(
        fate(&good.to_words(), true),
        Fate::Deliver {
            out_mask: 0b0001,
            ..
        }
    ));

    let mut cut_header = good.to_words();
    cut_header[3..].fill(idle);
    let mut cut_tail = good.to_words();
    *cut_tail.last_mut().unwrap() = idle;
    let mut expired = good.clone();
    expired.header.ttl = 1;
    expired.header.checksum = expired.header.compute_checksum();
    let mut expired_and_cut = expired.to_words();
    *expired_and_cut.last_mut().unwrap() = idle;
    let mut bad_sum = good.to_words();
    bad_sum[2] ^= 1;
    let mut bad_version = good.to_words();
    bad_version[0] ^= 0x2000_0000;
    let mut bad_ihl = good.to_words();
    bad_ihl[0] ^= 0x0300_0000;
    let rows = [
        (cut_header, DropReason::Truncated, 0),
        (good.to_words()[..4].to_vec(), DropReason::Truncated, 0),
        (cut_tail, DropReason::Truncated, 1),
        (good.to_words()[..20].to_vec(), DropReason::Truncated, 1),
        (expired.to_words(), DropReason::TtlExpired, 0),
        (expired_and_cut, DropReason::TtlExpired, 0),
        (bad_sum, DropReason::BadChecksum, 0),
        (bad_version, DropReason::BadVersion, 0),
        (bad_ihl, DropReason::BadIhl, 0),
    ];
    for (words, want, draws) in rows {
        let before = lookups.get();
        assert_eq!(fate(&words, false), Fate::Drop(want));
        assert_eq!(lookups.get() - before, draws, "{want:?}");
    }
}

/// A multicast packet is one offer and one copy per member port:
/// `Expected::copies` is what a fan-out run must wait for.
#[test]
fn expected_counts_copies_not_offers() {
    let mut routes = raw_xbar::reference::port_routes();
    routes.push(raw_lookup::RouteEntry::new(
        0xe000_0000,
        4,
        raw_lookup::encode_multicast(0b1110),
    ));
    let table = raw_lookup::ForwardingTable::build(&routes);
    let offered = (0..24u32).map(|k| {
        let p = Packet::synthetic(0x0a0a_0000, 0xe000_0005, 256, 64, k);
        (0usize, p.to_words())
    });
    let e = Expected::of(&table, None, offered);
    assert_eq!((e.copies(), e.dropped()), (72, 0));
}
