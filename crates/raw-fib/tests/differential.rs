//! Differential lookup verification over full synthesized FIBs: the
//! DIR-24-8 table, the Patricia trie, and the linear-scan
//! `reference_lpm` oracle must agree on every address — at 1K, 64K, and
//! 1M prefixes, over hit-biased samples, adversarial prefix-boundary
//! addresses, proptest-drawn addresses, and an exhaustive /24 grid over
//! a confined table.

use proptest::prelude::*;
use raw_fib::{synthesize, FibConfig};
use raw_lookup::{reference_lpm, synth_addresses, Engine, ForwardingTable, RouteEntry};

/// Compare both engines against each other on every address, and
/// against the O(n) reference oracle on the first `oracle_n` (the
/// oracle is linear in the table, so big tables sample it sparsely —
/// the engines still cross-check each other on the full set).
fn differential(routes: &[RouteEntry], addrs: &[u32], oracle_n: usize) {
    let table = ForwardingTable::build(routes);
    for (i, &a) in addrs.iter().enumerate() {
        let (dir, dir_acc) = table.lookup_traced(Engine::Dir24_8, a);
        let (pat, _) = table.lookup_traced(Engine::Patricia, a);
        assert_eq!(
            dir,
            pat,
            "engines disagree at {a:#010x} ({} routes)",
            routes.len()
        );
        assert!(
            (1..=2).contains(&dir_acc),
            "DIR-24-8 accesses {dir_acc} out of range at {a:#010x}"
        );
        if i < oracle_n {
            assert_eq!(
                dir,
                reference_lpm(routes, a),
                "oracle disagrees at {a:#010x} ({} routes)",
                routes.len()
            );
        }
    }
}

/// Boundary addresses for every route: first and last address of the
/// prefix, plus the address just past the prefix (often matched by a
/// different, shorter route).
fn boundary_addrs(routes: &[RouteEntry], cap: usize) -> Vec<u32> {
    let mut out = Vec::new();
    for r in routes.iter().take(cap) {
        let span = if r.len == 0 {
            u32::MAX
        } else {
            (1u32 << (32 - r.len)) - 1
        };
        out.push(r.prefix);
        out.push(r.prefix | span);
        out.push((r.prefix | span).wrapping_add(1));
    }
    out
}

#[test]
fn differential_1k_prefixes() {
    let routes = synthesize(&FibConfig::new(1_000, 4, 101));
    let mut addrs = synth_addresses(&routes, 20_000, 0.8, 9);
    addrs.extend(boundary_addrs(&routes, 1_000));
    let n = addrs.len();
    differential(&routes, &addrs, n);
}

#[test]
fn differential_64k_prefixes() {
    let routes = synthesize(&FibConfig::new(64_000, 16, 102));
    let mut addrs = synth_addresses(&routes, 20_000, 0.8, 10);
    addrs.extend(boundary_addrs(&routes, 4_000));
    differential(&routes, &addrs, 500);
}

#[test]
fn differential_1m_prefixes() {
    // The full Internet-scale point: both engines agree on 20K
    // addresses; the linear oracle cross-checks a 64-address sample
    // (it costs 1M comparisons per address).
    let routes = synthesize(&FibConfig::new(1_000_000, 16, 103));
    let mut addrs = synth_addresses(&routes, 18_000, 0.8, 11);
    addrs.extend(boundary_addrs(&routes, 1_000));
    differential(&routes, &addrs, 64);
}

/// A 16-bit split chains every route longer than /16 into a 2^16-slot
/// block: 35,180 blocks here, about 4.6 GB. The counting pass refuses
/// it by the arena limit before level 1 or the arena is allocated.
#[test]
#[should_panic(
    expected = "35180 level-2 blocks of 2^16 slots exceed the DIR's level-2 arena (max 268435456 slots, 512 MiB)"
)]
fn an_oversized_level_2_arena_fails_before_it_allocates() {
    ForwardingTable::build_with_l1_bits(&synthesize(&FibConfig::new(64_000, 4, 9)), 16);
}

#[test]
fn exhaustive_slash24_grid_over_confined_table() {
    // Confine the whole table inside 10.0.0.0/8; then the 65 536 /24
    // blocks of 10/8 tile every route, and probing one address per
    // block (plus one outside the base) is an exhaustive structural
    // walk of the L1 array against the oracle.
    let cfg = FibConfig {
        confine: Some((0x0a00_0000, 8)),
        ..FibConfig::new(1_000, 4, 104)
    };
    let routes = synthesize(&cfg);
    let mut addrs: Vec<u32> = (0..1u32 << 16)
        .map(|blk| 0x0a00_0000 | (blk << 8) | 0x01)
        .collect();
    addrs.push(0x0b00_0001); // outside the base: default route only
    let n = addrs.len();
    differential(&routes, &addrs, n);
}

/// Four small tables shared across proptest cases (building one per
/// case would dominate the run).
fn cached_tables() -> &'static Vec<(Vec<RouteEntry>, ForwardingTable)> {
    static TABLES: std::sync::OnceLock<Vec<(Vec<RouteEntry>, ForwardingTable)>> =
        std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        (0..4)
            .map(|seed| {
                let routes = synthesize(&FibConfig::new(2_000, 4, 200 + seed));
                let table = ForwardingTable::build(&routes);
                (routes, table)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn differential_holds_on_arbitrary_addresses(addr in any::<u32>(), seed in 0usize..4) {
        let (routes, table) = &cached_tables()[seed];
        let (dir, _) = table.lookup_traced(Engine::Dir24_8, addr);
        let (pat, _) = table.lookup_traced(Engine::Patricia, addr);
        prop_assert_eq!(dir, pat);
        prop_assert_eq!(dir, reference_lpm(routes, addr));
    }
}
