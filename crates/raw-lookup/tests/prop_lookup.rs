//! Property tests: the two lookup engines implement the same
//! longest-prefix-match function, and both agree with a naive
//! linear-scan oracle; the one-pass bulk trie is the trie repeated
//! inserts build.

use proptest::prelude::*;
use raw_lookup::*;

fn oracle(routes: &[RouteEntry], addr: u32) -> Option<u32> {
    // Linear scan for the longest matching prefix; later exact
    // duplicates replace earlier ones (insert semantics).
    let mut dedup: Vec<RouteEntry> = Vec::new();
    for r in routes {
        match dedup
            .iter_mut()
            .find(|c| c.len == r.len && c.prefix == r.prefix)
        {
            Some(c) => c.next_hop = r.next_hop,
            None => dedup.push(*r),
        }
    }
    dedup
        .iter()
        .filter(|r| r.matches(addr))
        .max_by_key(|r| r.len)
        .map(|r| r.next_hop)
}

/// A next hop: mostly a port number, sometimes one past 24 bits, up to
/// the widest the DIR stores.
fn arb_hop() -> impl Strategy<Value = u32> {
    prop_oneof![3 => 0u32..8, 1 => 0u32..=DIR_MAX_VALUE]
}

fn arb_route() -> impl Strategy<Value = RouteEntry> {
    (any::<u32>(), 0u8..=32, arb_hop()).prop_map(|(p, l, h)| RouteEntry::new(p, l, h))
}

/// Routes clustered inside 10.0.0.0/12 at a few lengths, so a drawn set
/// repeats `(prefix, len)` keys (with different hops), nests prefixes,
/// and shares level-1 slots.
fn clustered_route() -> impl Strategy<Value = RouteEntry> {
    const LENS: [u8; 9] = [8, 12, 16, 17, 20, 24, 25, 28, 32];
    (any::<u16>(), 0..LENS.len(), arb_hop())
        .prop_map(|(x, l, h)| RouteEntry::new(0x0a00_0000 | ((x as u32) << 4), LENS[l], h))
}

/// A route set with repeated keys, with (perhaps repeated) or without a
/// /0 route.
fn route_set() -> impl Strategy<Value = Vec<RouteEntry>> {
    (
        proptest::collection::vec(prop_oneof![arb_route(), clustered_route()], 0..60),
        any::<bool>(),
        arb_hop(),
        any::<usize>(),
    )
        .prop_map(|(mut routes, default, hop, at)| {
            if default {
                routes.insert(at % (routes.len() + 1), RouteEntry::new(0, 0, hop));
            } else {
                routes.retain(|r| r.len != 0);
            }
            routes
        })
}

/// Random addresses plus, for every route, its first and last address,
/// one inside it, and the one just past it.
fn probes(routes: &[RouteEntry], random: &[u32]) -> Vec<u32> {
    let mut out = random.to_vec();
    for (i, r) in routes.iter().enumerate() {
        let span = u32::MAX.checked_shr(r.len as u32).unwrap_or(0);
        let noise = random[i % random.len()];
        out.extend([
            r.prefix,
            r.prefix | (noise & span),
            r.prefix | span,
            (r.prefix | span).wrapping_add(1),
        ]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bulk_trie_is_the_inserted_trie(
        routes in route_set(),
        random in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let bulk = PatriciaTable::from_routes(&routes);
        let mut inserted = PatriciaTable::new();
        for r in &routes {
            inserted.insert(*r);
        }
        let key = |r: &RouteEntry| (r.prefix, r.len, r.next_hop);
        let (mut a, mut b) = (bulk.iter(), inserted.iter());
        a.sort_by_key(key);
        b.sort_by_key(key);
        prop_assert_eq!(a, b);
        prop_assert_eq!(bulk.len(), inserted.len());
        prop_assert_eq!(bulk.max_depth(), inserted.max_depth());
        for a in probes(&routes, &random) {
            prop_assert_eq!(bulk.lookup_traced(a), inserted.lookup_traced(a), "addr {:#x}", a);
        }
    }

    /// The DIR answers the reference, in two accesses exactly when a
    /// route longer than the level-1 split shares the address's slot.
    #[test]
    fn dir_meets_its_specification(
        routes in route_set(),
        random in proptest::collection::vec(any::<u32>(), 1..40),
        l1_sel in 0usize..3,
    ) {
        let l1_bits = [16u8, 18, 20][l1_sel];
        let d = DirTable::with_bits(&routes, l1_bits);
        let slot = |a: u32| a >> (32 - l1_bits as u32);
        for a in probes(&routes, &random) {
            let chained = routes.iter().any(|r| r.len > l1_bits && slot(r.prefix) == slot(a));
            let want = (reference_lpm(&routes, a), if chained { 2 } else { 1 });
            prop_assert_eq!(d.lookup_traced(a), want, "addr {:#x}", a);
        }
    }

    #[test]
    fn patricia_matches_oracle(
        routes in proptest::collection::vec(arb_route(), 0..60),
        addrs in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut t = PatriciaTable::new();
        for r in &routes {
            t.insert(*r);
        }
        for a in addrs {
            prop_assert_eq!(t.lookup(a), oracle(&routes, a), "addr {:#x}", a);
        }
    }

    #[test]
    fn dir24_matches_oracle(
        routes in proptest::collection::vec(arb_route(), 0..60),
        addrs in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let d = DirTable::with_bits(&routes, 20);
        for a in addrs {
            prop_assert_eq!(d.lookup(a), oracle(&routes, a), "addr {:#x}", a);
        }
    }

    #[test]
    fn insert_then_remove_is_identity(
        routes in proptest::collection::vec(arb_route(), 1..40),
        extra in arb_route(),
        addrs in proptest::collection::vec(any::<u32>(), 1..20),
    ) {
        // Skip if `extra` collides with an existing prefix (removal would
        // then expose the pre-existing route, which is correct but not
        // the identity being tested).
        prop_assume!(!routes.iter().any(|r| r.len == extra.len && r.prefix == extra.prefix));
        let mut t = PatriciaTable::new();
        for r in &routes {
            t.insert(*r);
        }
        let before: Vec<_> = addrs.iter().map(|&a| t.lookup(a)).collect();
        t.insert(extra);
        prop_assert_eq!(t.remove(extra.prefix, extra.len), Some(extra.next_hop));
        let after: Vec<_> = addrs.iter().map(|&a| t.lookup(a)).collect();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn patricia_visit_count_bounded(
        routes in proptest::collection::vec(arb_route(), 0..80),
        addr in any::<u32>(),
    ) {
        let mut t = PatriciaTable::new();
        for r in &routes {
            t.insert(*r);
        }
        let (_, visited) = t.lookup_traced(addr);
        prop_assert!(visited <= 34, "visited {} nodes", visited);
    }
}
