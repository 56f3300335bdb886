//! The 64-bit FNV-1a fold over `u64` words behind every published run
//! fingerprint (`results/chaos.json`, `results/fabric.json`). One xor
//! and one multiply per word, in the order the caller mixes them.

#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_words_in_order() {
        assert_eq!(Fnv1a::default().finish(), 0xcbf2_9ce4_8422_2325);
        let fold = |xs: &[u64]| {
            let mut h = Fnv1a::default();
            xs.iter().for_each(|&x| h.mix(x));
            h.finish()
        };
        // One word: (offset ^ x) * prime.
        assert_eq!(
            fold(&[1]),
            (0xcbf2_9ce4_8422_2325u64 ^ 1).wrapping_mul(0x100_0000_01b3)
        );
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
    }
}
