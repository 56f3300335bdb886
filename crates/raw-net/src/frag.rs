//! The router's *internal* fragmentation framing.
//!
//! §4.2: the Ingress Processor "is also used for fragmentation of IP
//! packets if their size exceeds the internal tile-to-tile data transfer
//! block on the Raw chip", and the Egress Processor "is used to perform
//! the reassembly of large IP packets fragmented by the Ingress
//! Processor". A packet crossing the Rotating Crossbar is cut into
//! fragments of at most one routing quantum; each fragment is prefixed by
//! a one-word tag so the Egress Processor can stitch packets back
//! together. The cutting and the stitching are the `raw-xbar` ingress and
//! egress tile programs; this module holds only the tag they exchange.

/// The one-word fragment tag.
///
/// Layout: `[3:0]` destination port *set* (one bit per output — a single
/// bit for unicast, several for the §8.6 multicast extension), `[6:4]`
/// source port, `[16:7]` payload words in this fragment, `[26:17]`
/// packet sequence number (per source port, wrapping), `[27]` first
/// fragment, `[28]` last fragment, `[31:29]` reserved zero (so a packed
/// tag can never collide with the all-ones control words; `unpack`
/// ignores them).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FragTag {
    /// Destination ports as a bit set (bit `p` = output port `p`).
    pub dst_mask: u8,
    pub src_port: u8,
    pub words: u16,
    pub seq: u16,
    pub first: bool,
    pub last: bool,
}

/// Maximum payload words one fragment can carry (10-bit field).
pub const MAX_FRAG_WORDS: usize = 1023;
/// Sequence numbers wrap at 10 bits.
pub const SEQ_MODULUS: u16 = 1 << 10;

impl FragTag {
    /// A unicast tag's destination port.
    pub fn unicast_dst(&self) -> Option<u8> {
        if self.dst_mask.count_ones() == 1 {
            Some(self.dst_mask.trailing_zeros() as u8)
        } else {
            None
        }
    }

    pub fn pack(&self) -> u32 {
        debug_assert!(self.dst_mask < 16 && self.src_port < 8);
        debug_assert!((self.words as usize) <= MAX_FRAG_WORDS);
        debug_assert!(self.seq < SEQ_MODULUS);
        u32::from(self.dst_mask)
            | (u32::from(self.src_port) << 4)
            | (u32::from(self.words) << 7)
            | (u32::from(self.seq) << 17)
            | ((self.first as u32) << 27)
            | ((self.last as u32) << 28)
    }

    pub fn unpack(w: u32) -> FragTag {
        FragTag {
            dst_mask: (w & 0xf) as u8,
            src_port: ((w >> 4) & 0x7) as u8,
            words: ((w >> 7) & 0x3ff) as u16,
            seq: ((w >> 17) & 0x3ff) as u16,
            first: (w >> 27) & 1 == 1,
            last: (w >> 28) & 1 == 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_pack_unpack_roundtrip() {
        let t = FragTag {
            dst_mask: 0b1010,
            src_port: 5,
            words: 1000,
            seq: 0x2bc,
            first: true,
            last: false,
        };
        let w = t.pack();
        assert_eq!(FragTag::unpack(w), t);
        assert_eq!(t.unicast_dst(), None);
        let u = FragTag {
            dst_mask: 0b0100,
            ..t
        };
        assert_eq!(u.unicast_dst(), Some(2));
        // Bits [31:29] stay clear (tags never collide with all-ones
        // controls), and unpacking ignores them.
        assert_eq!(w >> 29, 0);
        assert_eq!(FragTag::unpack(w | 0xE000_0000), FragTag::unpack(w));
    }
}
