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
//! Both levels hold one `u16` per slot, an index: `0` is empty, `1..=H`
//! names one of the table's `H` distinct next hops (kept once each, in
//! a small `hops` table, as in DIR-24-8-BASIC's two-byte TBL24), and
//! `H+1..=65535` names a level-2 block, so hops and blocks together are
//! at most 65,535. Every level-2 block lives in one flat arena that a
//! counting pass sizes exactly before the fill.
//!
//! The level split is parameterizable ([`DirTable::with_bits`]) so tests
//! can exercise the identical algorithm without allocating the full
//! 2^24-entry array; [`Dir24_8`] is the canonical 24/8 instance.

use crate::patricia::{canonical, is_canonical, RouteEntry};

/// Largest next hop a [`DirTable`] stores. The Patricia trie holds the
/// DIR to it too, so both engines take the same route lists.
pub const DIR_MAX_VALUE: u32 = (1 << 30) - 1;

/// Most slot values a [`DirTable`] names: its distinct next hops and its
/// level-2 blocks share the non-zero values of a `u16` slot.
const DIR_MAX_INDEX: usize = u16::MAX as usize;

/// Most level-2 slots a [`DirTable`] allocates: 2^28 `u16`s, 512 MiB. A
/// route list that would chain more fails its build before anything is
/// allocated.
const DIR_MAX_L2_SLOTS: usize = 1 << 28;

/// A slot, in either level: `0` empty, then a next-hop index, then a
/// level-2 block index (level 1 only).
type Slot = u16;
const _: () = assert!(std::mem::size_of::<Slot>() == 2);

/// Panics unless `r`'s next hop is at most [`DIR_MAX_VALUE`]: the one
/// next-hop limit of both engines.
pub(crate) fn check_next_hop(r: &RouteEntry) {
    assert!(
        r.next_hop <= DIR_MAX_VALUE,
        "next hop {} of {:#010x}/{} exceeds the DIR's next-hop limit (max {DIR_MAX_VALUE})",
        r.next_hop,
        r.prefix,
        r.len
    );
}

/// The two-level table, split at `l1_bits`. Built once from a route
/// list; rebuilt on change (routing-table updates are off the fast path,
/// managed by the network processor, §2.2.1).
pub struct DirTable {
    l1_bits: u8,
    l1: Vec<Slot>,
    /// Every level-2 block, `2^(32 - l1_bits)` slots each, block `b` at
    /// `b << (32 - l1_bits)`; level-1 value `hops.len() + 1 + b` names it.
    l2: Vec<Slot>,
    /// The distinct next hops of the routes in the slots, ascending;
    /// slot value `i` answers `hops[i - 1]`.
    hops: Vec<u32>,
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

    /// Build from a [`canonical`] route list, the one place a table is
    /// built. Panics, before either level is allocated, if a next hop
    /// exceeds [`DIR_MAX_VALUE`], the distinct next hops and the level-2
    /// blocks together exceed [`DIR_MAX_INDEX`], or the level-2 arena
    /// would exceed [`DIR_MAX_L2_SLOTS`].
    ///
    /// A counting pass collects the distinct next hops and sizes the
    /// level-2 arena: the routes longer than `l1_bits` come in slot
    /// order, so each new level-1 slot among them is one block. The fill
    /// then writes every route's slots in list order, with no guard. Two
    /// routes that share a slot nest, and the covering one comes first,
    /// so the last write to a slot is its longest match. For the same
    /// reason a route no longer than `l1_bits` never meets a pointer: the
    /// routes that chain its slot are all inside it, so all come after
    /// it. A block starts as a copy of the level-1 slot it replaces.
    pub(crate) fn from_canonical(routes: &[RouteEntry], l1_bits: u8) -> DirTable {
        assert!(
            (16..=24).contains(&l1_bits),
            "level-2 blocks index all remaining bits"
        );
        debug_assert!(is_canonical(routes));
        let shift = 32 - l1_bits as u32;
        let mut blocks = 0usize;
        let mut last_chained = None;
        let mut hops = Vec::new();
        for r in routes {
            check_next_hop(r);
            if r.len == 0 {
                continue;
            }
            if hops.last() != Some(&r.next_hop) {
                hops.push(r.next_hop);
            }
            let slot = r.prefix >> shift;
            if r.len > l1_bits && last_chained != Some(slot) {
                blocks += 1;
                last_chained = Some(slot);
            }
        }
        hops.sort_unstable();
        hops.dedup();
        hops.shrink_to_fit();
        assert!(
            hops.len() + blocks <= DIR_MAX_INDEX,
            "{} distinct next hops and {blocks} level-2 blocks exceed the DIR's 16-bit slot (max {DIR_MAX_INDEX} together)",
            hops.len()
        );
        assert!(
            blocks << shift <= DIR_MAX_L2_SLOTS,
            "{blocks} level-2 blocks of 2^{shift} slots exceed the DIR's level-2 arena (max {DIR_MAX_L2_SLOTS} slots, {} MiB)",
            (DIR_MAX_L2_SLOTS * std::mem::size_of::<Slot>()) >> 20
        );
        let first_block = hops.len() + 1;
        let mut t = DirTable {
            l1_bits,
            l1: vec![0; 1 << l1_bits],
            l2: vec![0; blocks << shift],
            hops,
            default: None,
            routes: routes.len(),
        };
        // `u32::MAX` is past `DIR_MAX_VALUE`, so no route's hop.
        let (mut last_hop, mut word) = (u32::MAX, 0);
        let mut next_block = 0;
        for r in routes {
            if r.len == 0 {
                t.default = Some(r.next_hop);
                continue;
            }
            if r.next_hop != last_hop {
                let i = t.hops.binary_search(&r.next_hop).expect("counted");
                (last_hop, word) = (r.next_hop, (i + 1) as Slot);
            }
            if r.len <= l1_bits {
                let start = (r.prefix >> shift) as usize;
                let slots = &mut t.l1[start..start + (1 << (l1_bits - r.len))];
                debug_assert!(slots.iter().all(|&s| (s as usize) < first_block));
                slots.fill(word);
            } else {
                let i = (r.prefix >> shift) as usize;
                if (t.l1[i] as usize) < first_block {
                    let b = next_block;
                    t.l2[b << shift..(b + 1) << shift].fill(t.l1[i]);
                    t.l1[i] = (first_block + b) as Slot;
                    next_block += 1;
                }
                let base = (t.l1[i] as usize - first_block) << shift;
                let lo = base + (r.prefix & (u32::MAX >> l1_bits)) as usize;
                t.l2[lo..lo + (1 << (32 - r.len as u32))].fill(word);
            }
        }
        debug_assert_eq!(next_block, blocks);
        t
    }

    /// Lookup: next hop plus the number of memory accesses (1 or 2).
    /// The slot value is the next hop's index, so the `hops` read is not
    /// an access of its own.
    pub fn lookup_traced(&self, addr: u32) -> (Option<u32>, u32) {
        let shift = 32 - self.l1_bits as u32;
        let mut slot = self.l1[(addr >> shift) as usize] as usize;
        let mut accesses = 1;
        if slot > self.hops.len() {
            let base = (slot - self.hops.len() - 1) << shift;
            slot = self.l2[base + (addr & (u32::MAX >> self.l1_bits)) as usize] as usize;
            accesses = 2;
        }
        match slot {
            0 => (self.default, accesses),
            _ => (Some(self.hops[slot - 1]), accesses),
        }
    }

    pub fn lookup(&self, addr: u32) -> Option<u32> {
        self.lookup_traced(addr).0
    }

    /// Number of level-2 blocks (memory footprint metric).
    pub fn l2_blocks(&self) -> usize {
        self.l2.len() >> (32 - self.l1_bits as u32)
    }

    /// Number of distinct next hops the slots index.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Heap footprint in bytes of the built table: the level-1 array,
    /// the level-2 arena and the next-hop table, all sized exactly at
    /// construction, so this is `2 × (2^l1_bits + l2_blocks() ×
    /// 2^(32 - l1_bits)) + 4 × hop_count()`. Asserted against a counting
    /// allocator in `tests/memory_accounting.rs`.
    pub fn memory_bytes(&self) -> usize {
        (self.l1.capacity() + self.l2.capacity()) * std::mem::size_of::<Slot>()
            + self.hops.capacity() * std::mem::size_of::<u32>()
    }

    /// [`DirTable::memory_bytes`] per installed route.
    pub fn bytes_per_prefix(&self) -> f64 {
        self.memory_bytes() as f64 / self.routes.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patricia::{reference_lpm, PatriciaTable};

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

    /// Next hops past 24 bits come back whole, from level 1 and from a
    /// level-2 block, and from the trie.
    #[test]
    fn wide_next_hops_survive_both_levels() {
        let routes = [
            e(0, 0, 1),
            e(0x0a00_0000, 8, (1 << 24) + 3),
            e(0x0b00_0080, 25, (1 << 24) + 5),
        ];
        let d = DirTable::build(&routes);
        let p = PatriciaTable::from_routes(&routes);
        for addr in [0x0a01_0203u32, 0x0b00_00c8, 0x0b00_0005, 0x0c00_0000] {
            let want = reference_lpm(&routes, addr);
            assert_eq!(d.lookup(addr), want, "DIR at {addr:#x}");
            assert_eq!(p.lookup(addr), want, "Patricia at {addr:#x}");
        }
        assert_eq!(d.lookup(0x0a01_0203), Some(16_777_219));
        let top = [e(0x0a00_0080, 25, DIR_MAX_VALUE)];
        let (d, p) = (DirTable::build(&top), PatriciaTable::from_routes(&top));
        assert_eq!(d.lookup_traced(0x0a00_0081), (Some(DIR_MAX_VALUE), 2));
        assert_eq!(p.lookup(0x0a00_0081), Some(DIR_MAX_VALUE));
    }

    #[test]
    #[should_panic(expected = "exceeds the DIR's next-hop limit (max 1073741823)")]
    fn a_hop_past_the_value_field_fails_the_build() {
        DirTable::build(&[e(0x0a00_0000, 8, DIR_MAX_VALUE + 1)]);
    }

    /// `hops` /24s with next hops `0..hops`, then `blocks` /25s with hop
    /// 0, each in a /24 of its own.
    fn hops_and_blocks(hops: u32, blocks: u32) -> Vec<RouteEntry> {
        let short = (0..hops).map(|h| e(h << 8, 24, h));
        let long = (hops..hops + blocks).map(|s| e((s << 8) | 0x80, 25, 0));
        short.chain(long).collect()
    }

    /// 65,000 hops and 535 blocks fill every value of a slot: the widest
    /// hop index and the last block both answer.
    #[test]
    fn hops_and_blocks_fill_the_slot_exactly() {
        let t = DirTable::build(&hops_and_blocks(65_000, 535));
        assert_eq!((t.hop_count(), t.l2_blocks()), (65_000, 535));
        assert_eq!(t.lookup_traced(64_999 << 8), (Some(64_999), 1));
        assert_eq!(t.lookup_traced((65_534 << 8) | 0x81), (Some(0), 2));
        assert_eq!(t.lookup_traced(65_534 << 8), (None, 2));
        assert_eq!(t.lookup_traced(65_535 << 8), (None, 1));
    }

    #[test]
    #[should_panic(
        expected = "65000 distinct next hops and 536 level-2 blocks exceed the DIR's 16-bit slot (max 65535 together)"
    )]
    fn one_past_the_slot_fails_the_build() {
        DirTable::build(&hops_and_blocks(65_000, 536));
    }

    #[test]
    fn memory_accounting() {
        let t = DirTable::with_bits(&[e(0, 0, 3), e(0x0a000080, 25, 9), e(0x0b000000, 8, 9)], 20);
        assert_eq!((t.l2_blocks(), t.hop_count()), (1, 1));
        assert_eq!(t.memory_bytes(), 2 * ((1 << 20) + (1 << 12)) + 4);
    }
}
