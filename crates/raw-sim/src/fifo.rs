//! Timestamped flow-controlled FIFOs, the basic transport element of every
//! on-chip network queue in the simulator.
//!
//! Each entry carries the cycle at which it was enqueued. A consumer may
//! only observe entries that are at least one cycle old (`visible_delay`
//! hops of pipeline), which is what limits words to one network hop per
//! cycle and gives the static network the 3-cycle send-to-use latency of
//! Figure 3-2 without any global ordering of component updates inside a
//! cycle.

/// Depth of every static-network FIFO: link inputs, `$csti` and `$csto`
/// (Raw's network input blocks hold four words).
pub(crate) const RING_CAPACITY: usize = 4;

/// One static-network FIFO in the machine's ring arena: its words and
/// their enqueue cycles held inline, the queue being the `len` slots from
/// `head`, wrapping at [`RING_CAPACITY`]. Visibility is [`TsFifo`]'s: a
/// word is seen by a consumer with `delay` extra pipeline stages from
/// cycle `enqueue + delay + 1` on.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Ring {
    words: [u32; RING_CAPACITY],
    enq: [u64; RING_CAPACITY],
    head: u32,
    len: u32,
}

impl Ring {
    /// Position `offset` places behind the head.
    #[inline]
    fn at(&self, offset: u32) -> usize {
        ((self.head + offset) as usize) & (RING_CAPACITY - 1)
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Space for another word right now.
    #[inline]
    pub(crate) fn has_space(&self) -> bool {
        (self.len as usize) < RING_CAPACITY
    }

    /// Enqueue cycle of the front word, if any.
    #[inline]
    pub(crate) fn front_ts(&self) -> Option<u64> {
        (self.len != 0).then(|| self.enq[self.at(0)])
    }

    /// A front word exists and is visible at `delay` this cycle.
    #[inline]
    pub(crate) fn has_visible(&self, cycle: u64, delay: u64) -> bool {
        self.len != 0 && self.enq[self.at(0)] + delay < cycle
    }

    /// True while the front word exists but is not yet visible at `delay`.
    #[inline]
    pub(crate) fn is_aging(&self, cycle: u64, delay: u64) -> bool {
        self.len != 0 && !self.has_visible(cycle, delay)
    }

    /// Enqueue `word` during `cycle`; `false` (and nothing dropped) when
    /// full.
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

/// Front first, each word with its enqueue cycle, wherever the ring starts
/// (what [`TsFifo`]'s digest reads too).
impl std::hash::Hash for Ring {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        h.write_usize(self.len());
        (0..self.len).for_each(|k| (self.words[self.at(k)], self.enq[self.at(k)]).hash(h));
    }
}

/// A bounded FIFO of 32-bit words tagged with their enqueue cycle: a
/// fixed ring over a slice allocated once at the given capacity. The
/// dynamic networks' queues; the static network's live in the machine's
/// `Ring` arena.
#[derive(Clone, Debug)]
pub struct TsFifo {
    /// `(word, enqueue cycle)` slots; the queue is the `len` slots
    /// starting at `head`, wrapping at the end of the slice.
    slots: Box<[(u32, u64)]>,
    head: usize,
    len: usize,
}

impl TsFifo {
    /// A FIFO holding at most `capacity` words. Raw's network input blocks
    /// hold four elements; the simulator default follows that.
    pub fn new(capacity: usize) -> TsFifo {
        assert!(capacity >= 1, "a FIFO must hold at least one word");
        TsFifo {
            slots: vec![(0, 0); capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Space for another word right now.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.len < self.slots.len()
    }

    /// Slot index `offset` places behind the head (`offset <= capacity`).
    #[inline]
    fn slot(&self, offset: usize) -> usize {
        let i = self.head + offset;
        if i >= self.slots.len() {
            i - self.slots.len()
        } else {
            i
        }
    }

    /// Enqueue `word` during `cycle`. Returns `false` (and drops nothing)
    /// if the FIFO is full — callers model backpressure by retrying on a
    /// later cycle.
    #[inline]
    #[must_use]
    pub fn push(&mut self, word: u32, cycle: u64) -> bool {
        if self.has_space() {
            let tail = self.slot(self.len);
            self.slots[tail] = (word, cycle);
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// The front word, if one was enqueued at least `delay + 1` cycles
    /// before `cycle` (i.e. is visible to a consumer with `delay` extra
    /// pipeline stages; network switches use `delay == 0`, the tile
    /// processor's decode stage adds `delay == 1`).
    #[inline]
    pub fn peek_visible(&self, cycle: u64, delay: u64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let (w, ts) = self.slots[self.head];
        (ts + delay < cycle).then_some(w)
    }

    /// True if [`TsFifo::peek_visible`] would return a word.
    #[inline]
    pub fn has_visible(&self, cycle: u64, delay: u64) -> bool {
        self.peek_visible(cycle, delay).is_some()
    }

    /// True while the front word exists but is not yet visible at
    /// `delay`: it becomes so by the passage of time alone, with no push
    /// or pop to announce it.
    #[inline]
    pub(crate) fn is_aging(&self, cycle: u64, delay: u64) -> bool {
        !self.is_empty() && !self.has_visible(cycle, delay)
    }

    /// Enqueue cycle of the front word, if any. The front word first
    /// becomes visible to a consumer with `delay` extra pipeline stages on
    /// cycle `front_ts() + delay + 1`; the machine's event-skip fast-forward
    /// uses this to find the next cycle on which anything can change.
    #[inline]
    pub fn front_ts(&self) -> Option<u64> {
        (self.len != 0).then(|| self.slots[self.head].1)
    }

    /// Dequeue the front word if visible.
    #[inline]
    pub fn pop_visible(&mut self, cycle: u64, delay: u64) -> Option<u32> {
        let w = self.peek_visible(cycle, delay)?;
        self.head = self.slot(1);
        self.len -= 1;
        Some(w)
    }

    /// Remove every queued word (used when resetting a machine).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Iterate over queued words front-to-back (diagnostics only).
    pub fn iter_words(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(|k| self.slots[self.slot(k)].0)
    }
}

/// Front first, each word with its enqueue cycle, wherever the ring starts.
impl std::hash::Hash for TsFifo {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        h.write_usize(self.len);
        (0..self.len).for_each(|k| self.slots[self.slot(k)].hash(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_capacity() {
        let mut f = TsFifo::new(2);
        assert!(f.push(1, 0));
        assert!(f.push(2, 0));
        assert!(!f.push(3, 0));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn same_cycle_entries_are_invisible() {
        let mut f = TsFifo::new(4);
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
        let mut f = TsFifo::new(4);
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
        let mut f = TsFifo::new(4);
        assert!(f.push(7, 10));
        assert_eq!(f.pop_visible(10, 0), None);
        assert_eq!(f.len(), 1, "an invisible word must not be consumed");
        assert_eq!(f.pop_visible(11, 0), Some(7));
    }

    /// The arena ring is [`TsFifo`] at depth 4, across wraparounds.
    #[test]
    fn ring_matches_tsfifo_at_its_depth() {
        let (mut ring, mut f) = (Ring::default(), TsFifo::new(RING_CAPACITY));
        for cycle in 1..200u64 {
            if cycle % 3 != 0 || cycle % 7 == 0 {
                assert_eq!(ring.push(cycle as u32, cycle), f.push(cycle as u32, cycle));
            }
            if cycle % 2 == 0 {
                assert_eq!(ring.pop_visible(cycle, 1), f.pop_visible(cycle, 1));
            }
            assert_eq!(ring.len(), f.len());
            assert_eq!(ring.front_ts(), f.front_ts());
            assert_eq!(ring.is_aging(cycle, 0), f.is_aging(cycle, 0));
        }
    }

    #[test]
    fn clear_empties() {
        let mut f = TsFifo::new(4);
        assert!(f.push(1, 0));
        f.clear();
        assert!(f.is_empty());
        assert!(f.has_space());
    }
}
