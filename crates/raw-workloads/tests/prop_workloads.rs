//! Property tests on the traffic generators: determinism, validity of
//! every generated packet, pattern invariants, and release monotonicity.

use proptest::prelude::*;
use raw_workloads::*;

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        (0u8..4).prop_map(|s| Pattern::Permutation { shift: s }),
        Just(Pattern::Uniform),
        (0u8..4).prop_map(|d| Pattern::Hotspot { dst: d }),
        (1u32..16).prop_map(|b| Pattern::Bursty { burst: b }),
    ]
}

fn arb_arrivals() -> impl Strategy<Value = Arrivals> {
    prop_oneof![
        Just(Arrivals::Saturation),
        (10u64..500, 1u32..999).prop_map(|(s, p)| Arrivals::Bernoulli {
            slot_cycles: s,
            p_mille: p
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_generated_packet_is_valid(
        pattern in arb_pattern(),
        arrivals in arb_arrivals(),
        bytes in 24usize..1500,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let w = Workload {
            pattern,
            arrivals,
            packet_bytes: bytes,
            packets_per_port: n,
            seed,
            ttl: 64,
        };
        let sched = generate(&w);
        prop_assert_eq!(sched.len(), 4 * n);
        for s in &sched {
            prop_assert!(s.port < 4);
            prop_assert!(s.packet.header.checksum_ok());
            prop_assert_eq!(s.packet.total_bytes(), bytes);
            // Destination inside one of the four experiment prefixes.
            let dst_port = (s.packet.header.dst >> 16) & 0xff;
            prop_assert!(dst_port < 4);
            prop_assert_eq!(s.packet.header.dst & 0xff00_0000, 0x0a00_0000);
        }
        // Deterministic regeneration.
        let again = generate(&w);
        for (a, b) in sched.iter().zip(&again) {
            prop_assert_eq!(&a.packet, &b.packet);
            prop_assert_eq!(a.release, b.release);
        }
    }

    #[test]
    fn releases_are_monotone_per_port(
        bytes in 24usize..600,
        n in 2usize..30,
        seed in any::<u64>(),
        slot in 10u64..300,
        p in 1u32..999,
    ) {
        let w = Workload {
            arrivals: Arrivals::Bernoulli { slot_cycles: slot, p_mille: p },
            ..Workload::average(bytes, n, seed)
        };
        let sched = generate(&w);
        for port in 0..4 {
            let rel: Vec<u64> = sched
                .iter()
                .filter(|s| s.port == port)
                .map(|s| s.release)
                .collect();
            prop_assert_eq!(rel.len(), n);
            for pair in rel.windows(2) {
                prop_assert!(pair[0] < pair[1], "releases must strictly increase");
            }
        }
    }

    #[test]
    fn expected_counts_are_conserved(
        pattern in arb_pattern(),
        n in 1usize..50,
        seed in any::<u64>(),
    ) {
        let w = Workload {
            pattern,
            ..Workload::average(64, n, seed)
        };
        let mut per = [0usize; 4];
        for s in generate(&w) {
            per[((s.packet.header.dst >> 16) & 0xff) as usize] += 1;
        }
        prop_assert_eq!(per.iter().sum::<usize>(), 4 * n);
        if let Pattern::Hotspot { dst } = pattern {
            prop_assert_eq!(per[dst as usize], 4 * n);
        }
        if let Pattern::Permutation { .. } = pattern {
            // A permutation spreads each port's n packets to one output.
            prop_assert!(per.iter().all(|&c| c % n == 0));
        }
    }

    #[test]
    fn flow_ids_are_sequential(
        n in 1usize..60,
        seed in any::<u64>(),
    ) {
        let sched = generate(&Workload::average(128, n, seed));
        for port in 0..4 {
            let ids: Vec<u16> = sched
                .iter()
                .filter(|s| s.port == port)
                .map(|s| s.packet.header.id)
                .collect();
            prop_assert_eq!(ids, (0..n as u16).collect::<Vec<_>>());
        }
    }
}
