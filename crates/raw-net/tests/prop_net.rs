//! Property tests over the IPv4 substrate: serialization round trips,
//! checksum algebra, and the fragment tag's bit layout.

use proptest::prelude::*;
use raw_net::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Packet -> words -> packet is the identity for any size/fields.
    #[test]
    fn packet_word_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        bytes in 20usize..2000,
        ttl in 2u8..255,
        seed in any::<u32>(),
    ) {
        let p = Packet::synthetic(src, dst, bytes, ttl, seed);
        let q = Packet::from_words(&p.to_words()).unwrap();
        prop_assert_eq!(p, q);
    }

    /// The RFC 1624 incremental checksum update matches a full
    /// recomputation for any starting header and any number of hops.
    #[test]
    fn incremental_checksum_matches_full(
        src in any::<u32>(),
        dst in any::<u32>(),
        ttl in 2u8..255,
        hops in 1u8..64,
    ) {
        let mut h = Ipv4Header::new(src, dst, 500, ttl, 17);
        let hops = hops.min(ttl - 1);
        for _ in 0..hops {
            h.forward_hop().unwrap();
        }
        prop_assert_eq!(h.ttl, ttl - hops);
        prop_assert!(h.checksum_ok(), "incremental update drifted");
        prop_assert_eq!(h.checksum, h.compute_checksum());
    }

    /// Any corruption of a serialized header is caught by parse (the
    /// checksum covers every byte).
    #[test]
    fn parse_rejects_any_single_bit_flip(
        src in any::<u32>(),
        dst in any::<u32>(),
        bit in 0usize..160,
    ) {
        let h = Ipv4Header::new(src, dst, 100, 64, 6);
        let mut b = h.to_bytes();
        b[bit / 8] ^= 1 << (bit % 8);
        // Either the checksum/format catches it, or (for checksum-field
        // flips) the checksum no longer matches the fields.
        match Ipv4Header::parse(&b) {
            Err(_) => {}
            Ok(parsed) => prop_assert!(
                parsed != h,
                "a bit flip must never parse back to the original"
            ),
        }
    }

    /// Fragment tags survive pack/unpack for every field combination.
    #[test]
    fn tag_roundtrip(
        dst_mask in 0u8..16,
        src in 0u8..8,
        words in 0u16..1024,
        seq in 0u16..1024,
        first in any::<bool>(),
        last in any::<bool>(),
    ) {
        let t = FragTag {
            dst_mask,
            src_port: src,
            words,
            seq,
            first,
            last,
        };
        let w = t.pack();
        prop_assert_eq!(FragTag::unpack(w), t);
        prop_assert_eq!(w >> 29, 0, "bits [31:29] reserved clear");
        prop_assert_eq!(FragTag::unpack(w | 0xE000_0000), t, "reserved bits are ignored");
    }
}
