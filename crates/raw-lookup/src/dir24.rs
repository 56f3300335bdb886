//! A DIR-24-8 style two-level "small forwarding table".
//!
//! §8.2 cites Degermark et al.'s *Small Forwarding Tables for Fast
//! Routing Lookups* as the direction for a competitive lookup engine on
//! Raw. We implement the classic two-level direct-index organization in
//! that spirit: a first level indexed by the top `L1_BITS` address bits
//! (24 in the canonical configuration) resolves almost every lookup in
//! **one** memory access; longer prefixes chain to second-level blocks
//! (a second access). This trades memory for a constant two-access worst
//! case — exactly the trade a wire-speed Lookup Processor wants.
//!
//! The level split is parameterizable ([`DirTable::with_bits`]) so tests
//! can exercise the identical algorithm without allocating the full
//! 2^24-entry array; [`Dir24_8`] is the canonical 24/8 instance.

use crate::patricia::{mask, RouteEntry};

/// Packed first-level entry: `[31:30]` kind (0 empty, 1 hop, 2 pointer),
/// `[29:24]` owning prefix length, `[23:0]` value (next hop or block
/// index).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct L1(u32);

const KIND_EMPTY: u32 = 0;
const KIND_HOP: u32 = 1;
const KIND_PTR: u32 = 2;

impl L1 {
    fn new(kind: u32, plen: u8, value: u32) -> L1 {
        debug_assert!(value < (1 << 24), "DIR table values are 24-bit");
        L1((kind << 30) | ((plen as u32) << 24) | value)
    }

    fn kind(self) -> u32 {
        self.0 >> 30
    }

    fn plen(self) -> u8 {
        ((self.0 >> 24) & 0x3f) as u8
    }

    fn value(self) -> u32 {
        self.0 & 0xff_ffff
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct L2 {
    plen: u8,
    kind: u8,
    hop: u32,
}

/// The two-level table, split at `l1_bits`. Built once from a route
/// list; rebuilt on change (routing-table updates are off the fast path,
/// managed by the network processor, §2.2.1).
pub struct DirTable {
    l1_bits: u8,
    l1: Vec<L1>,
    l2: Vec<Vec<L2>>,
    routes: usize,
}

/// The canonical DIR-24-8 configuration.
pub type Dir24_8 = DirTable;

impl DirTable {
    /// Build with the canonical 24-bit first level.
    pub fn build(routes: &[RouteEntry]) -> DirTable {
        DirTable::with_bits(routes, 24)
    }

    /// Build with a `l1_bits`-bit first level (16..=24). Prefixes no
    /// longer than `l1_bits` live in level 1; longer ones chain to
    /// level-2 blocks of `2^(32 - l1_bits)` slots, one per address.
    pub fn with_bits(routes: &[RouteEntry], l1_bits: u8) -> DirTable {
        assert!(
            (16..=24).contains(&l1_bits),
            "level-2 blocks index all remaining bits"
        );
        let mut t = DirTable {
            l1_bits,
            l1: vec![L1::default(); 1usize << l1_bits],
            l2: Vec::new(),
            routes: 0,
        };
        // Deduplicate exact prefixes: the last occurrence in input order
        // wins, matching PatriciaTable::insert replacement semantics.
        // Indexed by a map so BGP-scale builds (~1M routes) stay linear.
        let mut chosen: Vec<RouteEntry> = Vec::with_capacity(routes.len());
        let mut index: std::collections::HashMap<(u32, u8), usize> =
            std::collections::HashMap::with_capacity(routes.len());
        for r in routes {
            let key = (mask(r.prefix, r.len), r.len);
            match index.get(&key) {
                Some(&i) => chosen[i].next_hop = r.next_hop,
                None => {
                    index.insert(key, chosen.len());
                    chosen.push(RouteEntry::new(r.prefix, r.len, r.next_hop));
                }
            }
        }
        // Insert short prefixes first so longer ones overwrite (stable).
        chosen.sort_by_key(|r| r.len);
        for r in chosen {
            t.insert(r);
        }
        t
    }

    fn l2_block_len(&self) -> usize {
        1usize << (32 - self.l1_bits as u32)
    }

    fn insert(&mut self, r: RouteEntry) {
        self.routes += 1;
        let l1_bits = self.l1_bits;
        if r.len <= l1_bits {
            let start = (mask(r.prefix, r.len) >> (32 - l1_bits as u32)) as usize;
            let count = 1usize << (l1_bits - r.len) as usize;
            for i in start..start + count {
                let slot = self.l1[i];
                match slot.kind() {
                    KIND_PTR => {
                        let blk = &mut self.l2[slot.value() as usize];
                        for e in blk.iter_mut() {
                            if e.kind == 0 || e.plen <= r.len {
                                *e = L2 {
                                    plen: r.len,
                                    kind: 1,
                                    hop: r.next_hop,
                                };
                            }
                        }
                    }
                    KIND_HOP if slot.plen() > r.len => {}
                    _ => {
                        self.l1[i] = L1::new(KIND_HOP, r.len, r.next_hop);
                    }
                }
            }
        } else {
            let idx = (r.prefix >> (32 - l1_bits as u32)) as usize;
            let blk_len = self.l2_block_len();
            let blk_idx = match self.l1[idx].kind() {
                KIND_PTR => self.l1[idx].value() as usize,
                old_kind => {
                    let seed = if old_kind == KIND_HOP {
                        L2 {
                            plen: self.l1[idx].plen(),
                            kind: 1,
                            hop: self.l1[idx].value(),
                        }
                    } else {
                        L2::default()
                    };
                    self.l2.push(vec![seed; blk_len]);
                    let bi = self.l2.len() - 1;
                    self.l1[idx] = L1::new(KIND_PTR, 0, bi as u32);
                    bi
                }
            };
            // Slot range within the block covered by this prefix (one
            // slot per address below the first level).
            let within = r.prefix & (u32::MAX >> l1_bits); // low bits
            let lo = within as usize;
            let count = 1usize << (32 - r.len as u32);
            let blk = &mut self.l2[blk_idx];
            for e in &mut blk[lo..lo + count] {
                if e.kind == 0 || e.plen <= r.len {
                    *e = L2 {
                        plen: r.len,
                        kind: 1,
                        hop: r.next_hop,
                    };
                }
            }
        }
    }

    /// Lookup: next hop plus the number of memory accesses (1 or 2).
    pub fn lookup_traced(&self, addr: u32) -> (Option<u32>, u32) {
        let e = self.l1[(addr >> (32 - self.l1_bits as u32)) as usize];
        match e.kind() {
            KIND_EMPTY => (None, 1),
            KIND_HOP => (Some(e.value()), 1),
            _ => {
                let slot = (addr & (u32::MAX >> self.l1_bits)) as usize;
                let l2 = self.l2[e.value() as usize][slot];
                if l2.kind == 1 {
                    (Some(l2.hop), 2)
                } else {
                    (None, 2)
                }
            }
        }
    }

    pub fn lookup(&self, addr: u32) -> Option<u32> {
        self.lookup_traced(addr).0
    }

    /// Number of level-2 blocks allocated (memory footprint metric).
    pub fn l2_blocks(&self) -> usize {
        self.l2.len()
    }

    /// Heap footprint in bytes of the built table — the level-1 array,
    /// the level-2 block spine, and every block buffer, all accounted at
    /// their *allocated* capacity (the spine grows by push, so its
    /// capacity can exceed its length; block buffers are sized exactly
    /// at construction). Asserted against a counting allocator in
    /// `tests/memory_accounting.rs`.
    pub fn memory_bytes(&self) -> usize {
        self.l1.capacity() * std::mem::size_of::<L1>()
            + self.l2.capacity() * std::mem::size_of::<Vec<L2>>()
            + self
                .l2
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<L2>())
                .sum::<usize>()
    }

    /// [`DirTable::memory_bytes`] per installed route.
    pub fn bytes_per_prefix(&self) -> f64 {
        self.memory_bytes() as f64 / self.routes.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patricia::PatriciaTable;

    fn e(prefix: u32, len: u8, hop: u32) -> RouteEntry {
        RouteEntry::new(prefix, len, hop)
    }

    #[test]
    fn short_prefixes_resolve_in_one_access() {
        let t = DirTable::build(&[e(0x0a000000, 8, 1), e(0x0a010000, 16, 2)]);
        assert_eq!(t.lookup_traced(0x0a010203), (Some(2), 1));
        assert_eq!(t.lookup_traced(0x0a020203), (Some(1), 1));
        assert_eq!(t.lookup_traced(0x0b000000), (None, 1));
        assert_eq!(t.l2_blocks(), 0);
    }

    #[test]
    fn long_prefixes_use_second_level() {
        let t = DirTable::build(&[e(0x0a000000, 8, 1), e(0x0a000080, 25, 9)]);
        // 10.0.0.128/25 covers .128-.255 of block 10.0.0.
        assert_eq!(t.lookup_traced(0x0a0000ff), (Some(9), 2));
        assert_eq!(
            t.lookup_traced(0x0a000001),
            (Some(1), 2),
            "short route via L2 seed"
        );
        assert_eq!(t.lookup_traced(0x0a000100), (Some(1), 1));
        assert_eq!(t.l2_blocks(), 1);
    }

    #[test]
    fn host_route_beats_everything() {
        let t = DirTable::build(&[e(0, 0, 1), e(0xc0a80000, 16, 2), e(0xc0a80101, 32, 3)]);
        assert_eq!(t.lookup(0xc0a80101), Some(3));
        assert_eq!(t.lookup(0xc0a80102), Some(2));
        assert_eq!(t.lookup(0x08080808), Some(1));
    }

    #[test]
    fn agrees_with_patricia_on_fixed_corpus() {
        let routes = vec![
            e(0, 0, 100),
            e(0x0a000000, 8, 1),
            e(0x0a010000, 16, 2),
            e(0x0a010200, 24, 3),
            e(0x0a010280, 25, 4),
            e(0x0a0102ff, 32, 5),
            e(0xac100000, 12, 6),
            e(0xc0a80000, 16, 7),
        ];
        let d = DirTable::build(&routes);
        let mut p = PatriciaTable::new();
        for r in &routes {
            p.insert(*r);
        }
        for addr in [
            0x0a0102ffu32,
            0x0a010281,
            0x0a010201,
            0x0a010301,
            0x0a020000,
            0xac1fffff,
            0xac200000,
            0xc0a80001,
            0x7f000001,
        ] {
            assert_eq!(d.lookup(addr), p.lookup(addr), "addr {addr:#x}");
        }
    }

    #[test]
    fn small_l1_matches_canonical_semantics() {
        let routes = vec![
            e(0, 0, 9),
            e(0xc0a80000, 16, 2),
            e(0xc0a80180, 25, 3),
            e(0xc0a80101, 32, 4),
        ];
        let big = DirTable::build(&routes);
        let small = DirTable::with_bits(&routes, 20);
        for addr in [0xc0a80101u32, 0xc0a80185, 0xc0a80001, 0x01020304] {
            assert_eq!(big.lookup(addr), small.lookup(addr), "addr {addr:#x}");
        }
    }

    #[test]
    fn later_duplicate_wins() {
        let t = DirTable::build(&[e(0x0a000000, 8, 1), e(0x0a000000, 8, 2)]);
        assert_eq!(t.lookup(0x0a000001), Some(2));
    }

    #[test]
    fn memory_accounting() {
        let t = DirTable::with_bits(&[e(0x0a000080, 25, 9)], 20);
        assert!(t.memory_bytes() > (1 << 20) * 4);
        assert_eq!(t.l2_blocks(), 1);
    }
}
