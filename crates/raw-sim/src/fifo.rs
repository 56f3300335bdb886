//! Timestamped flow-controlled FIFOs, the basic transport element of every
//! on-chip network queue in the simulator.
//!
//! Each entry carries the cycle at which it was enqueued. A consumer may
//! only observe entries that are at least one cycle old (`visible_delay`
//! hops of pipeline), which is what limits words to one network hop per
//! cycle and gives the static network the 3-cycle send-to-use latency of
//! Figure 3-2 without any global ordering of component updates inside a
//! cycle. One type serves every queue: the static network's rings in the
//! machine's arena and the dynamic networks' router inputs and `$cdni`.

/// Depth of every static-network FIFO: link inputs, `$csti` and `$csto`
/// (Raw's network input blocks hold four words).
pub(crate) const RING_CAPACITY: usize = 4;

/// A FIFO of at most `N` words (a power of two), each held inline with
/// its enqueue cycle, the queue being the `len` slots from `head`,
/// wrapping at `N`. A word is seen by a consumer with `delay` extra
/// pipeline stages from cycle `enqueue + delay + 1` on: network switches
/// read at `delay == 0`, the tile processor's decode stage adds
/// `delay == 1`. `Ring` alone is the static network's depth.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ring<const N: usize = RING_CAPACITY> {
    words: [u32; N],
    enq: [u64; N],
    head: u32,
    len: u32,
}

impl<const N: usize> Default for Ring<N> {
    fn default() -> Self {
        const { assert!(N.is_power_of_two(), "a ring's depth is a power of two") };
        Ring {
            words: [0; N],
            enq: [0; N],
            head: 0,
            len: 0,
        }
    }
}

impl<const N: usize> Ring<N> {
    /// Position `offset` places behind the head.
    #[inline]
    fn at(&self, offset: u32) -> usize {
        ((self.head + offset) as usize) & (N - 1)
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Space for another word right now.
    #[inline]
    pub(crate) fn has_space(&self) -> bool {
        (self.len as usize) < N
    }

    /// The front word, if it is visible at `delay` this cycle.
    #[inline]
    pub(crate) fn peek_visible(&self, cycle: u64, delay: u64) -> Option<u32> {
        self.has_visible(cycle, delay)
            .then(|| self.words[self.at(0)])
    }

    /// A front word exists and is visible at `delay` this cycle.
    #[inline]
    pub(crate) fn has_visible(&self, cycle: u64, delay: u64) -> bool {
        self.len != 0 && self.enq[self.at(0)] + delay < cycle
    }

    /// True while the front word exists but is not yet visible at
    /// `delay`: it becomes so by the passage of time alone, with no push
    /// or pop to announce it.
    #[inline]
    pub(crate) fn is_aging(&self, cycle: u64, delay: u64) -> bool {
        self.len != 0 && !self.has_visible(cycle, delay)
    }

    /// Enqueue `word` during `cycle`; `false` (and nothing dropped) when
    /// full — callers model backpressure by retrying on a later cycle.
    #[inline]
    #[must_use]
    pub(crate) fn push(&mut self, word: u32, cycle: u64) -> bool {
        if !self.has_space() {
            return false;
        }
        let tail = self.at(self.len);
        self.words[tail] = word;
        self.enq[tail] = cycle;
        self.len += 1;
        true
    }

    /// Dequeue the front word, which the caller has seen is visible.
    #[inline]
    pub(crate) fn pop(&mut self) -> u32 {
        debug_assert!(self.len != 0, "pop from an empty ring");
        let w = self.words[self.at(0)];
        self.head = self.at(1) as u32;
        self.len -= 1;
        w
    }

    /// Dequeue the front word if visible at `delay`.
    #[inline]
    pub(crate) fn pop_visible(&mut self, cycle: u64, delay: u64) -> Option<u32> {
        self.has_visible(cycle, delay).then(|| self.pop())
    }
}

/// `len`, then each word with its enqueue cycle, front first, wherever the
/// ring starts.
impl<const N: usize> std::hash::Hash for Ring<N> {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        h.write_usize(self.len());
        (0..self.len).for_each(|k| (self.words[self.at(k)], self.enq[self.at(k)]).hash(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::hash::{DefaultHasher, Hash, Hasher};

    #[test]
    fn respects_capacity() {
        let mut f = Ring::<2>::default();
        assert!(f.push(1, 0));
        assert!(f.push(2, 0));
        assert!(!f.push(3, 0));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn same_cycle_entries_are_invisible() {
        let mut f = Ring::<4>::default();
        assert!(f.push(42, 5));
        // A switch (delay 0) cannot consume a word the same cycle it arrived.
        assert_eq!(f.peek_visible(5, 0), None);
        assert_eq!(f.peek_visible(6, 0), Some(42));
        // The processor decode stage (delay 1) sees it one cycle later still.
        assert_eq!(f.peek_visible(6, 1), None);
        assert_eq!(f.peek_visible(7, 1), Some(42));
    }

    #[test]
    fn pop_preserves_order() {
        let mut f = Ring::<4>::default();
        for (i, w) in [10u32, 11, 12].iter().enumerate() {
            assert!(f.push(*w, i as u64));
        }
        assert_eq!(f.pop_visible(100, 0), Some(10));
        assert_eq!(f.pop_visible(100, 0), Some(11));
        assert_eq!(f.pop_visible(100, 0), Some(12));
        assert_eq!(f.pop_visible(100, 0), None);
    }

    #[test]
    fn pop_respects_visibility() {
        let mut f = Ring::<4>::default();
        assert!(f.push(7, 10));
        assert_eq!(f.pop_visible(10, 0), None);
        assert_eq!(f.len(), 1, "an invisible word must not be consumed");
        assert_eq!(f.pop_visible(11, 0), Some(7));
    }

    /// Drive a `Ring<N>` and a `VecDeque` model through `ops` (push on
    /// `true`, pop on `false`, one per cycle): pushes are refused exactly
    /// when full, pops and peeks return the model's word, and the ring
    /// hashes as the model's `len` then `(word, enqueue cycle)` pairs,
    /// front first — what a digest reads.
    fn matches_model<const N: usize>(ops: &[bool]) -> Result<(), TestCaseError> {
        let (mut f, mut model) = (Ring::<N>::default(), VecDeque::new());
        let mut next = 0u32;
        for (cycle, &push) in (1u64..).zip(ops) {
            if push {
                prop_assert_eq!(f.push(next, cycle), model.len() < N);
                if model.len() < N {
                    model.push_back((next, cycle));
                    next += 1;
                }
            } else {
                // Pushed on an earlier cycle, so visible at delay 0.
                prop_assert_eq!(f.pop_visible(cycle, 0), model.pop_front().map(|(w, _)| w));
            }
            prop_assert_eq!(f.len(), model.len());
            prop_assert_eq!(f.peek_visible(cycle + 1, 0), model.front().map(|&(w, _)| w));
            let (mut hr, mut hm) = (DefaultHasher::new(), DefaultHasher::new());
            f.hash(&mut hr);
            hm.write_usize(model.len());
            model.iter().for_each(|e| e.hash(&mut hm));
            prop_assert_eq!(hr.finish(), hm.finish());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ring is a FIFO at both depths the machine uses (4: the
        /// static network and the dynamic routers' inputs; 8: `$cdni`),
        /// across any number of wraparounds.
        #[test]
        fn fifo_never_overflows(ops in proptest::collection::vec(any::<bool>(), 0..200)) {
            matches_model::<4>(&ops)?;
            matches_model::<8>(&ops)?;
        }
    }
}
