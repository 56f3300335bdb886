//! The per-tile data memory system.
//!
//! Each Raw tile has an 8,192-word, 2-way set-associative, 3-cycle-latency
//! data cache with 32-byte lines, backed by off-chip DRAM reached over the
//! memory dynamic network. The cache has a single port: every access costs
//! tile-processor cycles, which is the constraint (§4.4) that makes
//! buffering a word from the network into local memory cost two cycles
//! while a load-and-forward (`lw $csto, off($r)`) costs one.
//!
//! The simulator models tag state exactly (sets, ways, LRU, dirty bits) and
//! charges every miss the prototype's fixed round trip to DRAM
//! ([`MISS_LATENCY`]). Data contents live in a flat per-tile local memory
//! since the cache is timing-only.

/// Cache capacity in 32-bit words (Raw: 8,192 words = 32 KB).
pub const CACHE_WORDS: usize = 8192;
/// Line size in words (Raw: 32-byte lines).
pub const CACHE_LINE_WORDS: usize = 8;
/// Associativity (Raw: 2-way).
pub const CACHE_WAYS: usize = 2;
/// Sets: 512 on the prototype.
pub const CACHE_SETS: usize = CACHE_WORDS / CACHE_LINE_WORDS / CACHE_WAYS;
/// Cycles a miss stalls the processor: a short dynamic-network round trip
/// plus the DRAM access on the 250 MHz prototype.
pub const MISS_LATENCY: u32 = 30;
/// Extra miss latency when the victim line is dirty (write-back).
pub const DIRTY_EVICT_PENALTY: u32 = 12;

/// Outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    Hit,
    /// Missed: the processor stalls for `latency` cycles while the line is
    /// fetched (and a dirty victim written back).
    Miss {
        latency: u32,
    },
}

/// One cache line's tag state in a word: the tag in the low bits, then
/// the valid and dirty bits. A zero word is an invalid line.
#[derive(Clone, Copy, Debug, Default)]
struct Line(u32);

const _: () = assert!(size_of::<Line>() == 4);

impl Line {
    const VALID: u32 = 1 << 31;
    const DIRTY: u32 = 1 << 30;

    /// A valid line holding `tag`. A tag is a word address over one
    /// way's 4,096 words, so even a 32-bit address's fits below the two
    /// flag bits.
    fn new(tag: u32, dirty: bool) -> Line {
        debug_assert!(tag < Line::DIRTY);
        Line(Line::VALID | if dirty { Line::DIRTY } else { 0 } | tag)
    }

    /// Valid and holding `tag`.
    fn holds(self, tag: u32) -> bool {
        self.0 & !Line::DIRTY == Line::VALID | tag
    }

    fn valid(self) -> bool {
        self.0 & Line::VALID != 0
    }

    fn dirty(self) -> bool {
        self.0 & Line::DIRTY != 0
    }
}

/// Tag-and-timing model of one tile's data cache. Its tag store is
/// allocated on the first access, so a tile that never loads or stores
/// holds none.
#[derive(Clone, Debug, Default)]
pub struct DCache {
    lines: Vec<Line>,
    /// Per-set LRU: index of the least-recently-used way (2-way only needs
    /// one bit; kept as u8 for arbitrary associativity).
    lru: Vec<u8>,
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
}

impl DCache {
    fn set_and_tag(&self, word_addr: u32) -> (usize, u32) {
        let line = word_addr as usize / CACHE_LINE_WORDS;
        let set = line % CACHE_SETS;
        let tag = (line / CACHE_SETS) as u32;
        (set, tag)
    }

    /// Allocate the tag store, every line invalid.
    #[cold]
    fn allocate(&mut self) {
        self.lines = vec![Line::default(); CACHE_SETS * CACHE_WAYS];
        self.lru = vec![0; CACHE_SETS];
    }

    /// Access `word_addr`.
    pub fn access(&mut self, word_addr: u32, is_write: bool) -> Access {
        if self.lines.is_empty() {
            self.allocate();
        }
        let (set, tag) = self.set_and_tag(word_addr);
        let base = set * CACHE_WAYS;
        // Hit path.
        for way in 0..CACHE_WAYS {
            let l = &mut self.lines[base + way];
            if l.holds(tag) {
                if is_write {
                    l.0 |= Line::DIRTY;
                }
                self.hits += 1;
                self.lru[set] = ((way + 1) % CACHE_WAYS) as u8;
                return Access::Hit;
            }
        }
        // Miss: fill into an invalid way if possible, else evict LRU.
        self.misses += 1;
        let victim = (0..CACHE_WAYS)
            .find(|&w| !self.lines[base + w].valid())
            .unwrap_or(self.lru[set] as usize);
        let mut latency = MISS_LATENCY;
        if self.lines[base + victim].dirty() {
            latency += DIRTY_EVICT_PENALTY;
            self.writebacks += 1;
        }
        self.lines[base + victim] = Line::new(tag, is_write);
        self.lru[set] = ((victim + 1) % CACHE_WAYS) as u8;
        Access::Miss { latency }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_geometry() {
        assert_eq!(CACHE_SETS, 512);
        assert_eq!(CACHE_WORDS * 4, 32 * 1024, "8K words = 32 KB");
    }

    #[test]
    fn tag_store_is_allocated_on_first_access() {
        let mut c = DCache::default();
        assert!(c.lines.is_empty() && c.lru.is_empty());
        assert_eq!(c.access(0, false), Access::Miss { latency: 30 });
        assert_eq!(c.lines.len(), CACHE_SETS * CACHE_WAYS);
        assert_eq!(c.lru.len(), CACHE_SETS);
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = DCache::default();
        assert_eq!(c.access(0, false), Access::Miss { latency: 30 });
        assert_eq!(c.access(0, false), Access::Hit);
        // Same line, different word.
        assert_eq!(c.access(7, false), Access::Hit);
        // Next line misses.
        assert_eq!(c.access(8, false), Access::Miss { latency: 30 });
    }

    #[test]
    fn two_way_associativity_holds_two_conflicting_lines() {
        let mut c = DCache::default();
        let stride = (CACHE_SETS * CACHE_LINE_WORDS) as u32; // same set, different tag
        assert!(matches!(c.access(0, false), Access::Miss { .. }));
        assert!(matches!(c.access(stride, false), Access::Miss { .. }));
        assert_eq!(c.access(0, false), Access::Hit);
        assert_eq!(c.access(stride, false), Access::Hit);
        // A third conflicting line evicts one of them.
        assert!(matches!(c.access(2 * stride, false), Access::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_costs_writeback() {
        let mut c = DCache::default();
        let stride = (CACHE_SETS * CACHE_LINE_WORDS) as u32;
        // Dirty both ways of set 0.
        assert!(matches!(c.access(0, true), Access::Miss { .. }));
        assert!(matches!(c.access(stride, true), Access::Miss { .. }));
        // Evicting a dirty line adds the write-back penalty.
        match c.access(2 * stride, false) {
            Access::Miss { latency } => assert_eq!(latency, 30 + 12),
            Access::Hit => panic!("expected a miss"),
        }
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn hit_rate_tracks() {
        let mut c = DCache::default();
        let _ = c.access(0, false);
        let _ = c.access(1, false);
        let _ = c.access(2, false);
        let _ = c.access(3, false);
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits, 3);
    }
}
