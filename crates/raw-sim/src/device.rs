//! Off-chip devices attached to edge ports of the static networks.
//!
//! "First data streams in on the static network from an off-chip input
//! line card" (§4.3): the simulator exposes every static-network link that
//! leaves the grid as an *edge port* to which a device can be bound. A
//! device can source words (a line card's receive side), sink words (its
//! transmit side, with backpressure), or both.

use std::any::Any;
use std::sync::{Arc, Mutex};

use crate::geom::{Dir, TileId};
use crate::switch::NetId;

/// Address of an edge port: the tile, the off-chip direction, and which
/// static network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgePort {
    pub tile: TileId,
    pub dir: Dir,
    pub net: NetId,
}

impl EdgePort {
    pub fn new(tile: TileId, dir: Dir, net: NetId) -> EdgePort {
        EdgePort { tile, dir, net }
    }
}

/// A device bound to an edge port. `Any` lets a caller retrieve the
/// concrete device from a machine by type
/// ([`crate::RawMachine::device_ref`] / [`crate::RawMachine::device_mut`]).
pub trait EdgeDevice: Any + Send {
    /// Offer at most one word into the chip this cycle, called only when
    /// the edge input FIFO has space.
    fn pull_in(&mut self, _cycle: u64) -> Option<u32> {
        None
    }

    /// Whether a word leaving the chip would be accepted this cycle
    /// (checked before the switch commits a route; exerts backpressure).
    fn can_push(&self, _cycle: u64) -> bool {
        true
    }

    /// Accept a word leaving the chip. Called only after `can_push`.
    fn push_out(&mut self, _word: u32, _cycle: u64) {}

    /// May [`EdgeDevice::pull_in`] ever return a word or have a side
    /// effect? Pure output-side devices (sinks) return false, letting
    /// the compiled engine drop them from the per-cycle injection poll
    /// entirely. The conservative default keeps custom devices
    /// correct.
    fn is_injector(&self) -> bool {
        true
    }
}

/// A source that feeds a fixed sequence of words into the chip.
pub struct WordSource {
    words: std::collections::VecDeque<u32>,
    pub injected: u64,
}

impl WordSource {
    pub fn new(words: impl IntoIterator<Item = u32>) -> WordSource {
        WordSource {
            words: words.into_iter().collect(),
            injected: 0,
        }
    }

    pub fn remaining(&self) -> usize {
        self.words.len()
    }
}

impl EdgeDevice for WordSource {
    fn pull_in(&mut self, _cycle: u64) -> Option<u32> {
        let w = self.words.pop_front();
        if w.is_some() {
            self.injected += 1;
        }
        w
    }
}

/// Shared handle to the words collected by a [`WordSink`].
// kept for benchmark/src/layers.rs:101, which locks it; otherwise the
// sink would own the vector and `device_ref` would read it.
pub type SinkHandle = Arc<Mutex<Vec<(u64, u32)>>>;

/// A sink that records every word leaving the chip, with its cycle.
/// Optionally rate-limited to model a line card that accepts at most one
/// word every `interval` cycles.
pub struct WordSink {
    collected: SinkHandle,
    interval: u64,
    last_accept: Option<u64>,
}

impl WordSink {
    /// An always-ready sink. Returns the device and a shared handle to its
    /// collected `(cycle, word)` pairs.
    pub fn new() -> (WordSink, SinkHandle) {
        Self::rate_limited(1)
    }

    /// A sink accepting at most one word per `interval` cycles.
    pub fn rate_limited(interval: u64) -> (WordSink, SinkHandle) {
        assert!(interval >= 1);
        let collected: SinkHandle = Arc::new(Mutex::new(Vec::new()));
        (
            WordSink {
                collected: Arc::clone(&collected),
                interval,
                last_accept: None,
            },
            collected,
        )
    }
}

impl EdgeDevice for WordSink {
    fn is_injector(&self) -> bool {
        false
    }

    fn can_push(&self, cycle: u64) -> bool {
        match self.last_accept {
            Some(last) => cycle >= last + self.interval,
            None => true,
        }
    }

    fn push_out(&mut self, word: u32, cycle: u64) {
        debug_assert!(self.can_push(cycle));
        self.last_accept = Some(cycle);
        self.collected.lock().unwrap().push((cycle, word));
    }
}

/// A sink that drops everything (a disconnected port that still accepts).
pub struct NullSink {
    pub dropped: u64,
}

impl NullSink {
    pub fn new() -> NullSink {
        NullSink { dropped: 0 }
    }
}

impl Default for NullSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeDevice for NullSink {
    fn is_injector(&self) -> bool {
        false
    }

    fn push_out(&mut self, _word: u32, _cycle: u64) {
        self.dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_source_drains_in_order() {
        let mut s = WordSource::new([1, 2, 3]);
        assert_eq!(s.pull_in(0), Some(1));
        assert_eq!(s.pull_in(1), Some(2));
        assert_eq!(s.pull_in(2), Some(3));
        assert_eq!(s.pull_in(3), None);
        assert_eq!(s.injected, 3);
    }

    #[test]
    fn sink_collects_with_cycles() {
        let (mut sink, handle) = WordSink::new();
        assert!(sink.can_push(0));
        sink.push_out(42, 5);
        sink.push_out(43, 6);
        let got = handle.lock().unwrap().clone();
        assert_eq!(got, vec![(5, 42), (6, 43)]);
    }

    #[test]
    fn rate_limited_sink_backpressures() {
        let (mut sink, _h) = WordSink::rate_limited(4);
        assert!(sink.can_push(10));
        sink.push_out(1, 10);
        assert!(!sink.can_push(11));
        assert!(!sink.can_push(13));
        assert!(sink.can_push(14));
    }

    #[test]
    fn null_sink_counts_drops() {
        let mut n = NullSink::new();
        n.push_out(1, 0);
        n.push_out(2, 1);
        assert_eq!(n.dropped, 2);
    }
}
