//! Property tests over the whole router: any small random workload, in
//! either egress mode, drains completely and passes the reference audit
//! (per-flow order, intact payloads, exactly-once delivery to the right
//! ports) with lock-step token counters — the §5.4/§5.5 guarantees as
//! executable properties.

use proptest::prelude::*;
use raw_net::Packet;
use raw_xbar::{audit, port_table, RawRouter, RouterConfig};

#[derive(Clone, Debug)]
struct Offer {
    src: usize,
    dst: u8,
    bytes: usize,
    gap: u64,
}

fn arb_offer(max_bytes: usize) -> impl Strategy<Value = Offer> {
    (0usize..4, 0u8..4, 24usize..max_bytes, 0u64..600).prop_map(|(src, dst, bytes, gap)| Offer {
        src,
        dst,
        bytes,
        gap,
    })
}

fn run_case(offers: &[Offer], quantum: usize, cut_through: bool) -> Result<(), TestCaseError> {
    let table = port_table();
    let cfg = RouterConfig {
        quantum_words: quantum,
        cut_through,
        ..RouterConfig::default()
    };
    let mut r = RawRouter::new(cfg, table);
    let mut release = [0u64; 4];
    let mut sent: Vec<(usize, Vec<u32>)> = Vec::new();
    for (k, o) in offers.iter().enumerate() {
        let bytes = if cut_through {
            // Cut-through requires single-quantum packets.
            o.bytes.min(quantum * 4)
        } else {
            o.bytes
        };
        let mut p = Packet::synthetic(
            0x0a0a_0000 + o.src as u32,
            0x0a00_0001 | ((o.dst as u32) << 16),
            bytes.max(24),
            64,
            k as u32,
        );
        p.header.id = k as u16;
        p.header.checksum = p.header.compute_checksum();
        release[o.src] += o.gap;
        r.offer(o.src, release[o.src], &p);
        sent.push((o.src, p.to_words()));
    }
    prop_assert!(
        r.run_until_drained(5_000_000),
        "workload wedged: {} of {} delivered",
        r.delivered_count(),
        r.offered()
    );
    let errs = audit(&r, sent, true);
    prop_assert!(errs.is_empty(), "{:?}", errs);

    // §5.1: the synchronous token counters never diverge by more than a
    // quantum in flight.
    let tokens = r.token_counters();
    let spread = tokens.iter().max().unwrap() - tokens.iter().min().unwrap();
    prop_assert!(spread <= 1, "token counters diverged: {:?}", tokens);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cut_through_router_is_correct_for_any_small_workload(
        offers in proptest::collection::vec(arb_offer(250), 1..10),
        quantum in 16usize..96,
    ) {
        run_case(&offers, quantum, true)?;
    }

    #[test]
    fn store_forward_router_is_correct_for_any_small_workload(
        offers in proptest::collection::vec(arb_offer(1500), 1..8),
        quantum in 16usize..96,
    ) {
        run_case(&offers, quantum, false)?;
    }
}
