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
//! The /0 default route is kept out of band: an empty level-1 slot or
//! level-2 entry answers it, with the access count a filled one would
//! have, so a table pays only for the slots its other routes cover. The
//! level-1 array is allocated zeroed (all empty), and pages no route
//! reaches are never written.
//!
//! The level split is parameterizable ([`DirTable::with_bits`]) so tests
//! can exercise the identical algorithm without allocating the full
//! 2^24-entry array; [`Dir24_8`] is the canonical 24/8 instance.

use crate::patricia::{canonical, is_canonical, RouteEntry};

/// Packed first-level entry: `[31:30]` kind (0 empty, 1 hop, 2 pointer),
/// `[29:24]` owning prefix length, `[23:0]` value (next hop or block
/// index). All-zero is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// [`L1`] entries as plain `u32`s, so `vec![0; n]` allocates them
    /// zeroed.
    l1: Vec<u32>,
    l2: Vec<Vec<L2>>,
    /// The /0 route's next hop: what an empty slot answers.
    default: Option<u32>,
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
    /// level-2 blocks of `2^(32 - l1_bits)` slots, one per address. Of
    /// repeated prefixes the last wins (see [`canonical`]).
    pub fn with_bits(routes: &[RouteEntry], l1_bits: u8) -> DirTable {
        DirTable::from_canonical(&canonical(routes), l1_bits)
    }

    /// Build from a [`canonical`] route list. Every covering prefix
    /// comes before the prefixes it covers, and a slot is only
    /// overwritten by a route at least as long as its owner, so every
    /// slot ends up owned by its longest covering route.
    pub(crate) fn from_canonical(routes: &[RouteEntry], l1_bits: u8) -> DirTable {
        assert!(
            (16..=24).contains(&l1_bits),
            "level-2 blocks index all remaining bits"
        );
        debug_assert!(is_canonical(routes));
        let mut t = DirTable {
            l1_bits,
            l1: vec![0; 1usize << l1_bits],
            l2: Vec::new(),
            default: None,
            routes: 0,
        };
        for r in routes {
            t.insert(*r);
        }
        t
    }

    fn l2_block_len(&self) -> usize {
        1usize << (32 - self.l1_bits as u32)
    }

    fn insert(&mut self, r: RouteEntry) {
        self.routes += 1;
        let l1_bits = self.l1_bits;
        if r.len == 0 {
            self.default = Some(r.next_hop);
        } else if r.len <= l1_bits {
            let start = (r.prefix >> (32 - l1_bits as u32)) as usize;
            let count = 1usize << (l1_bits - r.len) as usize;
            for i in start..start + count {
                let slot = L1(self.l1[i]);
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
                        self.l1[i] = L1::new(KIND_HOP, r.len, r.next_hop).0;
                    }
                }
            }
        } else {
            let idx = (r.prefix >> (32 - l1_bits as u32)) as usize;
            let blk_len = self.l2_block_len();
            let slot = L1(self.l1[idx]);
            let blk_idx = match slot.kind() {
                KIND_PTR => slot.value() as usize,
                old_kind => {
                    let seed = if old_kind == KIND_HOP {
                        L2 {
                            plen: slot.plen(),
                            kind: 1,
                            hop: slot.value(),
                        }
                    } else {
                        L2::default()
                    };
                    self.l2.push(vec![seed; blk_len]);
                    let bi = self.l2.len() - 1;
                    self.l1[idx] = L1::new(KIND_PTR, 0, bi as u32).0;
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
        let e = L1(self.l1[(addr >> (32 - self.l1_bits as u32)) as usize]);
        match e.kind() {
            KIND_EMPTY => (self.default, 1),
            KIND_HOP => (Some(e.value()), 1),
            _ => {
                let slot = (addr & (u32::MAX >> self.l1_bits)) as usize;
                let l2 = self.l2[e.value() as usize][slot];
                if l2.kind == 1 {
                    (Some(l2.hop), 2)
                } else {
                    (self.default, 2)
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
        self.l1.capacity() * std::mem::size_of::<u32>()
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

    /// The benchmark's port table, `10.<p>.0.0/16 -> p` and a /0, writes
    /// the level-1 slots of its four /16s and no others (every write is
    /// non-zero, so the non-zero slots are the written ones).
    #[test]
    fn port_table_writes_only_its_own_slots() {
        let mut routes: Vec<_> = (0..4).map(|p| e(0x0a00_0000 | (p << 16), 16, p)).collect();
        routes.push(e(0, 0, 0));
        let t = DirTable::build(&routes);
        let written = t.l1.iter().filter(|&&s| s != 0).count();
        assert!(written <= 4 * 256, "{written} level-1 slots written");
        assert_eq!(t.lookup_traced(0x0a02_0304), (Some(2), 1));
        assert_eq!(t.lookup_traced(0x0b00_0000), (Some(0), 1));
    }

    #[test]
    fn memory_accounting() {
        let t = DirTable::with_bits(&[e(0x0a000080, 25, 9)], 20);
        assert!(t.memory_bytes() > (1 << 20) * 4);
        assert_eq!(t.l2_blocks(), 1);
    }
}
