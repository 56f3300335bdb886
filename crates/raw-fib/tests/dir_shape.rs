//! The DIR-24-8 keeps its answers. DIR-engine routers charge a lookup by
//! the accesses it makes, so a change to the slot layout must leave
//! every `(hop, accesses)` pair and the level-2 block count exactly as
//! they were. These digests pin both on the 1M-prefix table, on the 64K
//! table confined to 10.0.0.0/8 and on the `synth_table` list whose
//! chain of level-2 blocks is the longest the tests build.

use raw_fib::{synthesize, FibConfig};
use raw_lookup::{synth_addresses, synth_table, DirTable, RouteEntry};

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

/// `(lookups, l2_blocks)`: a digest of `(hop, accesses)` over a fixed
/// probe set (80 % inside some route, 20 % uniform) and the number of
/// level-2 blocks the canonical 24/8 build chains.
fn shape(routes: &[RouteEntry]) -> (u64, usize) {
    let dir = DirTable::build(routes);
    let mut lookups = Fnv::new();
    for a in synth_addresses(routes, 200_000, 0.8, 0x5eed) {
        let (hop, accesses) = dir.lookup_traced(a);
        lookups.mix(hop.map_or(u64::MAX, u64::from));
        lookups.mix(u64::from(accesses));
    }
    (lookups.0, dir.l2_blocks())
}

#[test]
fn the_dir_keeps_its_answers_at_1m_and_64k() {
    let full = synthesize(&FibConfig::new(1_000_000, 4, 2003));
    assert_eq!(shape(&full), (0xcfe8_7ff5_51e0_b2e6, 16_359), "1M prefixes");
    let confined = synthesize(&FibConfig {
        confine: Some((0x0a00_0000, 8)),
        ..FibConfig::new(65_536, 4, 2003)
    });
    assert_eq!(
        shape(&confined),
        (0xe675_817e_0ad8_28e6, 1_597),
        "64K prefixes in 10.0.0.0/8"
    );
    let chained = synth_table(1_000_000, 4, 20260810);
    assert_eq!(
        shape(&chained),
        (0xcfe2_9065_27b2_7e05, 56_803),
        "synth_table 1M"
    );
}
