//! BGP-shaped FIB synthesis: deterministic routing tables whose
//! prefix-length histogram, nesting structure, and next-hop reuse match
//! published backbone snapshots.
//!
//! The shape constants follow the well-documented profile of
//! RouteViews/RIPE full-feed snapshots: just over half of all prefixes
//! are /24s, /16 and /22 are the secondary modes, a thin (~1.6%) tail
//! is longer than /24 (these are what force DIR-24-8 level-2 blocks),
//! and roughly a quarter of prefixes are more-specifics nested inside a
//! covering aggregate. Next-hop popularity is Zipf: a core FIB resolves
//! hundreds of thousands of routes onto a handful of peers.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use raw_lookup::{mask, RouteEntry};
use raw_workloads::zipf_cdf;
use serde::Serialize;

/// Per-length draw weights (parts per 100 000) for prefix lengths
/// 8..=32, the BGP snapshot profile described in the module docs. The
/// fine granularity matters at the short end: real tables carry only a
/// handful of /8s, and over-drawing them would blanket the address
/// space in accidental aggregates.
const LEN_WEIGHTS: [(u8, u32); 25] = [
    (8, 2),
    (9, 2),
    (10, 4),
    (11, 10),
    (12, 30),
    (13, 60),
    (14, 120),
    (15, 250),
    (16, 1_500),
    (17, 900),
    (18, 1_600),
    (19, 2_900),
    (20, 4_600),
    (21, 6_500),
    (22, 13_500),
    (23, 9_922),
    (24, 56_500),
    (25, 200),
    (26, 400),
    (27, 300),
    (28, 200),
    (29, 200),
    (30, 200),
    (31, 50),
    (32, 50),
];

/// Hasher for [`Seen`]'s set of drawn /25–/32 keys, each packed into
/// one `u64`: a 64×64→128-bit multiply folded to 64 bits, so every key
/// bit reaches the low bits that pick a bucket. The set is only ever
/// asked "seen before?", so the hasher changes the speed of synthesis,
/// never the draw sequence or the output.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("KeyHasher hashes one u64 key")
    }

    fn write_u64(&mut self, key: u64) {
        let m = (key as u128) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `(prefix, len)` route key as one integer.
fn route_key(prefix: u32, len: u8) -> u64 {
    ((prefix as u64) << 8) | len as u64
}

/// Longest prefix [`Seen`] keeps in its bitmap.
const BITMAP_MAX_LEN: u8 = 24;

/// [`synthesize`]'s set of drawn `(prefix, len)` keys. A key of at most
/// /24 is one bit of a 2^25-bit map (4 MiB) at
/// `(1 << len) + (prefix >> (32 - len))`: length `len` owns the `2^len`
/// bits from `2^len` on, so the index is a bijection and a draw costs
/// one cache miss. Longer keys, about 1.6 % of draws, go to a hash set.
struct Seen {
    short: Vec<u64>,
    long: HashSet<u64, BuildHasherDefault<KeyHasher>>,
}

impl Seen {
    fn new() -> Seen {
        Seen {
            short: vec![0; 1 << (BITMAP_MAX_LEN + 1 - 6)],
            long: HashSet::default(),
        }
    }

    /// Add a masked key; true if it was not there yet.
    fn insert(&mut self, prefix: u32, len: u8) -> bool {
        if len > BITMAP_MAX_LEN {
            return self.long.insert(route_key(prefix, len));
        }
        let i = (1usize << len) + (u64::from(prefix) >> (32 - len)) as usize;
        let (word, bit) = (&mut self.short[i / 64], 1u64 << (i % 64));
        let new = *word & bit == 0;
        *word |= bit;
        new
    }
}

/// Configuration of one synthesized FIB. Everything is a function of
/// this struct: the same config yields the identical route set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FibConfig {
    /// Total prefixes, including the always-present /0 default route.
    pub prefixes: usize,
    /// Next-hop universe (the router's output ports, or a fabric's
    /// external port space).
    pub next_hops: u32,
    pub seed: u64,
    /// Fraction (per mille) of routes drawn as a more-specific nested
    /// inside an already-chosen shorter prefix.
    pub nested_per_mille: u32,
    /// Zipf exponent ×1000 for next-hop popularity (0 = uniform).
    pub zipf_s_milli: u32,
    /// Confine every prefix inside `(prefix, len)` — e.g.
    /// `(0x0a00_0000, 8)` keeps the whole table inside 10.0.0.0/8 so an
    /// exhaustive /24 address grid over the base covers every route.
    pub confine: Option<(u32, u8)>,
}

impl FibConfig {
    /// The standard shape at a given size: 25% nesting, Zipf(1.0)
    /// next-hop reuse, unconfined.
    pub fn new(prefixes: usize, next_hops: u32, seed: u64) -> FibConfig {
        FibConfig {
            prefixes,
            next_hops,
            seed,
            nested_per_mille: 250,
            zipf_s_milli: 1000,
            confine: None,
        }
    }
}

/// Synthesize a routing table with the configured shape. The result
/// always starts with the /0 default route; the rest are distinct
/// `(prefix, len)` pairs in draw order.
pub fn synthesize(cfg: &FibConfig) -> Vec<RouteEntry> {
    assert!(cfg.prefixes >= 1, "a FIB holds at least the default route");
    assert!(cfg.next_hops >= 1);
    if let Some((base, blen)) = cfg.confine {
        assert_eq!(base, mask(base, blen), "confine base must be masked");
        assert!((1..=24).contains(&blen), "confine base out of range");
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let hop_cdf = zipf_cdf(cfg.zipf_s_milli, cfg.next_hops as usize);
    let draw_hop = |rng: &mut StdRng| -> u32 {
        let u = rng.gen::<u32>() as u64;
        hop_cdf.iter().position(|&c| u <= c).unwrap() as u32
    };

    let mut out = Vec::with_capacity(cfg.prefixes);
    let default_hop = draw_hop(&mut rng);
    out.push(RouteEntry::new(0, 0, default_hop));
    // The /0 route is never drawn again: every draw is at least a /8.
    let mut seen = Seen::new();

    let total_w: u32 = LEN_WEIGHTS.iter().map(|&(_, w)| w).sum();
    let min_len = cfg.confine.map_or(8, |(_, blen)| blen.max(8));
    while out.len() < cfg.prefixes {
        // Draw the target length from the snapshot histogram (lengths
        // shorter than a confinement base are re-rolled onto the base
        // length, keeping the /24 peak intact).
        let mut r = rng.gen_range(0..total_w);
        let mut len = 24u8;
        for &(l, w) in &LEN_WEIGHTS {
            if r < w {
                len = l;
                break;
            }
            r -= w;
        }
        len = len.max(min_len);

        let nested = out.len() > 1 && rng.gen_range(0..1000) < cfg.nested_per_mille;
        let prefix = if nested {
            // A more-specific punched through an existing aggregate:
            // pick a covering route with a shorter length and extend it
            // with random bits. Most routes are /24s that cannot cover
            // a /24 target, so sample a few times before falling back
            // to a fresh draw.
            let cover = (0..8)
                .map(|_| out[rng.gen_range(1..out.len() as u64) as usize])
                .find(|c| c.len < len);
            match cover {
                Some(c) => c.prefix | (mask(rng.gen::<u32>(), len) & !mask(u32::MAX, c.len)),
                None => mask(rng.gen::<u32>(), len),
            }
        } else {
            mask(rng.gen::<u32>(), len)
        };
        let prefix = match cfg.confine {
            Some((base, blen)) => base | (prefix & !mask(u32::MAX, blen)),
            None => prefix,
        };
        if seen.insert(prefix, len) {
            out.push(RouteEntry::new(prefix, len, draw_hop(&mut rng)));
        }
    }
    out
}

/// Measured shape of a route set, for asserting synthesis quality and
/// reporting alongside results.
#[derive(Clone, Debug, Serialize)]
pub struct FibShape {
    pub prefixes: usize,
    /// Routes per prefix length (index = length).
    pub len_hist: Vec<usize>,
    /// Fraction of routes that are exactly /24 (the histogram peak).
    pub frac_24: f64,
    /// Fraction longer than /24 — exactly the routes that force
    /// DIR-24-8 level-2 blocks.
    pub frac_gt24: f64,
    /// Routes covered by a shorter route in the same set (nested
    /// more-specifics; the default route does not count as cover).
    pub nested: usize,
    pub distinct_next_hops: usize,
    /// Share of routes resolving to the most popular next hop.
    pub top_hop_share: f64,
}

impl FibShape {
    pub fn of(routes: &[RouteEntry]) -> FibShape {
        let mut len_hist = vec![0usize; 33];
        let mut set = std::collections::HashSet::with_capacity(routes.len());
        let mut hops = std::collections::HashMap::new();
        for r in routes {
            len_hist[r.len as usize] += 1;
            set.insert((mask(r.prefix, r.len), r.len));
            *hops.entry(r.next_hop).or_insert(0usize) += 1;
        }
        let mut nested = 0;
        for r in routes {
            // Any strictly shorter, non-default ancestor counts.
            for l in 1..r.len {
                if set.contains(&(mask(r.prefix, l), l)) {
                    nested += 1;
                    break;
                }
            }
        }
        let n = routes.len().max(1) as f64;
        FibShape {
            prefixes: routes.len(),
            frac_24: len_hist[24] as f64 / n,
            frac_gt24: len_hist[25..=32].iter().sum::<usize>() as f64 / n,
            nested,
            distinct_next_hops: hops.len(),
            top_hop_share: hops.values().copied().max().unwrap_or(0) as f64 / n,
            len_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_net::Fnv1a;

    /// FNV-1a over each route's `(prefix, len)` key and next hop, in
    /// order.
    fn digest(routes: &[RouteEntry]) -> u64 {
        let mut h = Fnv1a::default();
        for r in routes {
            h.mix(route_key(r.prefix, r.len));
            h.mix(r.next_hop as u64);
        }
        h.finish()
    }

    /// The bitmap and the tail set together are a set of keys: every
    /// length, both ends of each length's range.
    #[test]
    fn seen_is_a_set_of_route_keys() {
        let mut seen = Seen::new();
        let mut set = HashSet::new();
        for len in 0..=32u8 {
            for prefix in [0, 0x0a0b_0c0d, u32::MAX] {
                let prefix = mask(prefix, len);
                for _ in 0..2 {
                    assert_eq!(seen.insert(prefix, len), set.insert((prefix, len)));
                }
            }
        }
    }

    /// The route lists are pinned: the "seen before?" test changes the
    /// speed of synthesis, never the draw sequence.
    #[test]
    fn synthesis_keeps_its_draw_sequence() {
        let full = synthesize(&FibConfig::new(1_000_000, 4, 2003));
        assert_eq!(digest(&full), 0xebd3_1625_5abe_2b34);
        let confined = synthesize(&FibConfig {
            confine: Some((0x0a00_0000, 8)),
            ..FibConfig::new(65_536, 4, 2003)
        });
        assert_eq!(digest(&confined), 0x27a0_f4cb_7c6e_bc27);
    }

    #[test]
    fn synthesis_is_deterministic_and_distinct() {
        let cfg = FibConfig::new(10_000, 4, 99);
        let a = synthesize(&cfg);
        let b = synthesize(&cfg);
        assert_eq!(a.len(), 10_000);
        assert_eq!(a, b);
        let mut seen = std::collections::HashSet::new();
        for r in &a {
            assert!(seen.insert((r.prefix, r.len)), "duplicate {r:?}");
            assert_eq!(r.prefix, mask(r.prefix, r.len), "unmasked prefix");
            assert!(r.next_hop < 4);
        }
        assert_eq!((a[0].prefix, a[0].len), (0, 0), "default route first");
        let c = synthesize(&FibConfig::new(10_000, 4, 100));
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn shape_matches_bgp_snapshot_profile() {
        let shape = FibShape::of(&synthesize(&FibConfig::new(64_000, 16, 7)));
        assert!(
            (0.50..0.60).contains(&shape.frac_24),
            "/24 share {:.3} off the published ~0.53 peak",
            shape.frac_24
        );
        assert!(
            (0.008..0.03).contains(&shape.frac_gt24),
            ">24 share {:.4} off the published ~1.6%",
            shape.frac_gt24
        );
        // /16 and /22 are secondary modes, both above the /17 dip.
        assert!(shape.len_hist[16] > shape.len_hist[17]);
        assert!(shape.len_hist[22] > shape.len_hist[17] * 2);
        // Real feeds nest heavily: the explicit 25% more-specific draw
        // plus accidental coverage by aggregates lands near 1/3.
        let nested_frac = shape.nested as f64 / shape.prefixes as f64;
        assert!(
            (0.20..0.55).contains(&nested_frac),
            "nested share {nested_frac:.3}"
        );
        // Zipf next-hop reuse: the top hop carries a dominant share.
        assert_eq!(shape.distinct_next_hops, 16);
        assert!(
            shape.top_hop_share > 2.0 / 16.0,
            "top hop share {:.3} not skewed",
            shape.top_hop_share
        );
    }

    #[test]
    fn confined_synthesis_stays_inside_base() {
        let cfg = FibConfig {
            confine: Some((0x0a00_0000, 8)),
            ..FibConfig::new(1_000, 4, 3)
        };
        let routes = synthesize(&cfg);
        for r in routes.iter().skip(1) {
            assert_eq!(r.prefix >> 24, 0x0a, "route escaped 10/8: {r:?}");
            assert!(r.len >= 8);
        }
    }
}
