//! Deterministic packet-corruption primitives for fault injection.
//!
//! Each mutator takes a packet's on-wire word stream (as produced by
//! [`crate::Packet::to_words`]) and applies one fault class. The mutators
//! are *length-preserving* except [`truncate_tail`]: the header's
//! `total_len` field is never touched, so a corrupted packet still frames
//! exactly as many words as it claims and the router can account for it
//! per-packet (drop the claimed length, resynchronize on the next
//! header). Randomness comes from the caller's [`CorruptRng`] so a fault
//! campaign replays bit-identically from its seed.

use crate::ipv4::{Ipv4Header, IPV4_HEADER_WORDS};

/// A small deterministic RNG (splitmix64 seeding + xorshift64*), so fault
/// injection does not depend on platform RNGs and replays exactly.
#[derive(Clone, Debug)]
pub struct CorruptRng {
    state: u64,
}

impl CorruptRng {
    pub fn new(seed: u64) -> CorruptRng {
        // splitmix64 step so nearby seeds diverge immediately.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        CorruptRng {
            state: if z == 0 { 1 } else { z },
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        assert!(n > 0);
        (self.next_u64() % u64::from(n)) as u32
    }

    /// True with probability `ppm` parts-per-million.
    pub fn chance_ppm(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.next_u64() % 1_000_000 < u64::from(ppm)
    }
}

/// Flip one header bit, never in the `total_len` field, so the packet
/// still frames correctly but fails validation (checksum, version, or
/// IHL) at the ingress parse.
pub fn flip_header_bit(words: &mut [u32], rng: &mut CorruptRng) {
    assert!(words.len() >= IPV4_HEADER_WORDS);
    // Header bits 0..160, little-end of word 0 first; bits 0..16 of word
    // 0 are total_len and stay intact.
    let bit = loop {
        let b = rng.below(32 * IPV4_HEADER_WORDS as u32);
        if b >= 16 {
            break b;
        }
    };
    words[bit as usize / 32] ^= 1 << (bit % 32);
}

/// Flip one payload bit (no-op for header-only packets). The IP checksum
/// covers only the header, so the packet is still *delivered* — payload
/// integrity is the end host's problem, exactly as on a real router.
pub fn flip_payload_bit(words: &mut [u32], rng: &mut CorruptRng) {
    let payload_words = words.len() - IPV4_HEADER_WORDS;
    if payload_words == 0 {
        return;
    }
    let bit = rng.below(32 * payload_words as u32);
    words[IPV4_HEADER_WORDS + bit as usize / 32] ^= 1 << (bit % 32);
}

/// Drop 1..=len-1 tail words: the wire goes idle before the header's
/// claimed length arrives.
pub fn truncate_tail(words: &mut Vec<u32>, rng: &mut CorruptRng) {
    let cut = 1 + rng.below(words.len() as u32 - 1) as usize;
    words.truncate(words.len() - cut);
}

/// XOR the checksum field with a random nonzero 16-bit value.
pub fn bad_checksum(words: &mut [u32], rng: &mut CorruptRng) {
    let x = 1 + rng.below(0xffff);
    words[2] ^= x; // word 2 low half is the checksum field
}

/// Set TTL to 0 or 1 with a recomputed checksum: a well-formed packet
/// that expires at this hop.
pub fn expire_ttl(words: &mut [u32], rng: &mut CorruptRng) {
    rewrite_header(words, |h| h.ttl = (rng.below(2)) as u8);
}

/// Set the version nibble to a random non-4 value, checksum recomputed so
/// the version check is what rejects it.
pub fn bad_version(words: &mut [u32], rng: &mut CorruptRng) {
    let v = loop {
        let v = rng.below(16);
        if v != 4 {
            break v;
        }
    };
    words[0] = (words[0] & 0x0fff_ffff) | (v << 28);
    fix_checksum_raw(words);
}

/// Set the IHL nibble to a random non-5 value, checksum recomputed. Small
/// values reject as `BadIhl`; large values claim more header bytes than
/// arrive and reject as `Truncated` — the satellite-1 hardening path.
pub fn bad_ihl(words: &mut [u32], rng: &mut CorruptRng) {
    let i = loop {
        let i = rng.below(16);
        if i != 5 {
            break i;
        }
    };
    words[0] = (words[0] & 0xf0ff_ffff) | (i << 24);
    fix_checksum_raw(words);
}

/// Parse, mutate, and re-serialize the header with a correct checksum.
fn rewrite_header(words: &mut [u32], f: impl FnOnce(&mut Ipv4Header)) {
    let mut hw = [0u32; IPV4_HEADER_WORDS];
    hw.copy_from_slice(&words[..IPV4_HEADER_WORDS]);
    let mut h = Ipv4Header::from_words(&hw).expect("corrupting a valid packet");
    f(&mut h);
    h.checksum = h.compute_checksum();
    words[..IPV4_HEADER_WORDS].copy_from_slice(&h.to_words());
}

/// Recompute the checksum over the raw header words without parsing
/// (needed once the version/IHL fields are already garbage).
fn fix_checksum_raw(words: &mut [u32]) {
    words[2] &= 0xffff_0000; // zero the checksum field
    let mut sum: u32 = 0;
    for w in words[..IPV4_HEADER_WORDS].iter() {
        sum += w >> 16;
        sum += w & 0xffff;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    words[2] |= !sum & 0xffff;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::IpError;
    use crate::packet::Packet;

    fn words() -> Vec<u32> {
        Packet::synthetic(0x0a000001, 0x0a010001, 256, 64, 7).to_words()
    }

    fn parse5(w: &[u32]) -> Result<Ipv4Header, IpError> {
        let mut hw = [0u32; IPV4_HEADER_WORDS];
        hw.copy_from_slice(&w[..IPV4_HEADER_WORDS]);
        Ipv4Header::from_words(&hw)
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = CorruptRng::new(0xC4A0);
        let mut b = CorruptRng::new(0xC4A0);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = CorruptRng::new(0xC4A1);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn header_flip_always_rejects_and_preserves_length() {
        for seed in 0..200 {
            let mut rng = CorruptRng::new(seed);
            let mut w = words();
            let before = w.len();
            flip_header_bit(&mut w, &mut rng);
            assert_eq!(w.len(), before);
            assert_eq!(w[0] & 0xffff, 256, "total_len must survive");
            assert!(parse5(&w).is_err(), "seed {seed} still parsed");
        }
    }

    #[test]
    fn payload_flip_still_parses() {
        for seed in 0..50 {
            let mut rng = CorruptRng::new(seed);
            let mut w = words();
            flip_payload_bit(&mut w, &mut rng);
            assert_eq!(parse5(&w).unwrap().total_len, 256);
            assert_ne!(w, words(), "a payload bit must actually flip");
        }
    }

    #[test]
    fn classified_mutations_reject_as_claimed() {
        for seed in 0..50 {
            let mut rng = CorruptRng::new(seed);
            let mut w = words();
            bad_checksum(&mut w, &mut rng);
            assert_eq!(parse5(&w), Err(IpError::BadChecksum));

            let mut w = words();
            expire_ttl(&mut w, &mut rng);
            let h = parse5(&w).unwrap();
            assert!(h.ttl <= 1);
            assert!(h.checksum_ok());

            let mut w = words();
            bad_version(&mut w, &mut rng);
            assert!(matches!(parse5(&w), Err(IpError::BadVersion(_))));

            let mut w = words();
            bad_ihl(&mut w, &mut rng);
            assert!(matches!(
                parse5(&w),
                Err(IpError::BadIhl(_)) | Err(IpError::Truncated)
            ));

            let mut w = words();
            let before = w.len();
            truncate_tail(&mut w, &mut rng);
            assert!(!w.is_empty() && w.len() < before);
        }
    }
}
