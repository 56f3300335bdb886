//! The Patricia trie keeps its shape. Patricia-engine routers charge a
//! lookup by the nodes it visits, so a change to the node layout must
//! leave every `(hop, visited)` pair, the walk order of `iter` and
//! `max_depth` exactly as they were. These digests pin all three on the
//! 1M-prefix table and on the 64K table confined to 10.0.0.0/8, whose
//! route lists `synthesis_keeps_its_draw_sequence` pins in turn.

use raw_fib::{synthesize, FibConfig};
use raw_lookup::{synth_addresses, Engine, ForwardingTable, RouteEntry};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `(lookups, walk, max_depth)`: a digest of `(hop, visited)` over a
/// fixed probe set (80 % inside some route, 20 % uniform), a digest of
/// `iter`'s routes in the order it yields them, and the deepest node.
fn shape(routes: &[RouteEntry]) -> (u64, u64, u32) {
    let table = ForwardingTable::build(routes);
    let mut lookups = Fnv::new();
    for a in synth_addresses(routes, 200_000, 0.8, 0x5eed) {
        let (hop, visited) = table.lookup_traced(Engine::Patricia, a);
        lookups.mix(hop.map_or(u64::MAX, u64::from));
        lookups.mix(u64::from(visited));
    }
    let mut walk = Fnv::new();
    for r in table.patricia.iter() {
        walk.mix((u64::from(r.prefix) << 8) | u64::from(r.len));
        walk.mix(u64::from(r.next_hop));
    }
    (lookups.0, walk.0, table.patricia.max_depth())
}

#[test]
fn the_trie_keeps_its_shape_at_1m_and_64k() {
    let full = synthesize(&FibConfig::new(1_000_000, 4, 2003));
    assert_eq!(
        shape(&full),
        (0x55a5_a929_ecb9_d52a, 0xddad_8baf_305a_4127, 26),
        "1M prefixes"
    );
    let confined = synthesize(&FibConfig {
        confine: Some((0x0a00_0000, 8)),
        ..FibConfig::new(65_536, 4, 2003)
    });
    assert_eq!(
        shape(&confined),
        (0x4bfb_17f0_69f9_efa6, 0x9b26_1e89_8c38_5f3d, 20),
        "64K prefixes in 10.0.0.0/8"
    );
}
