//! Inter-router links: bounded FIFOs with per-epoch drain rates and
//! credit-based backpressure.
//!
//! A link models the chip-to-chip channel between two 4-port routers.
//! Packets leave the sender's egress line card into the link queue at
//! the epoch boundary after they complete; each boundary the link drains
//! up to `rate` packets into the receiver's input line card. *Credits*
//! are the free queue slots: when they fall below the sender's worst-case
//! per-epoch emission, the fabric schedules a backpressure stall on the
//! sender's egress port for the next epoch — the same mechanism a
//! congested downstream line card uses ([`raw_xbar::LineCardOut`]
//! `stall_window`) — so the queue bound can never be exceeded and no
//! link ever drops a packet. Loss happens only inside routers, where it
//! is classified; that is what keeps fabric-wide conservation exact.

use std::collections::VecDeque;

use raw_net::Packet;
use raw_telemetry::LinkStats;

use crate::topology::LinkSpec;

#[derive(Debug)]
pub struct FabricLink {
    pub spec: LinkSpec,
    queue: VecDeque<Packet>,
    capacity: usize,
    rate: usize,
    /// Epoch windows `[start, start+len)` in which the drain is frozen
    /// (fault injection).
    stall_windows: Vec<(u64, u64)>,
    /// Packets sprayed toward this link but not yet in its queue (still
    /// inside the sending router) — the least-occupancy signal.
    pub inflight_sprayed: usize,
    pub stats: LinkStats,
}

impl FabricLink {
    pub fn new(index: usize, spec: LinkSpec, capacity: usize, rate: usize) -> FabricLink {
        assert!(rate >= 1, "link must drain at least one packet per epoch");
        assert!(capacity >= rate, "capacity below the drain rate is dead");
        FabricLink {
            spec,
            queue: VecDeque::new(),
            capacity,
            rate,
            stall_windows: Vec::new(),
            inflight_sprayed: 0,
            stats: LinkStats {
                link: index,
                from_router: spec.from.0,
                from_port: spec.from.1,
                to_router: spec.to.0,
                to_port: spec.to.1,
                min_credits: capacity,
                ..LinkStats::default()
            },
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn occupancy(&self) -> usize {
        self.queue.len()
    }

    /// Free slots — the sender's credit count.
    pub fn credits(&self) -> usize {
        self.capacity - self.queue.len()
    }

    /// Freeze the drain for `len` epochs starting at `start_epoch`.
    pub fn stall(&mut self, start_epoch: u64, len: u64) {
        self.stall_windows.push((start_epoch, len));
    }

    pub fn stalled_at(&self, epoch: u64) -> bool {
        self.stall_windows
            .iter()
            .any(|&(s, l)| epoch >= s && epoch < s.saturating_add(l))
    }

    /// Accept a packet that finished crossing the sender (called at the
    /// epoch boundary, in deterministic link order).
    pub fn push(&mut self, p: Packet) {
        self.queue.push_back(p);
        assert!(
            self.queue.len() <= self.capacity,
            "link {} overflowed: backpressure failed to hold the queue bound",
            self.stats.link
        );
        self.stats.packets += 1;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.queue.len());
    }

    /// Drain up to `min(rate, allowed)` packets for this epoch (zero
    /// while a stall window covers it), front first. `allowed` is the
    /// receiver's remaining input window: a congested receiver shrinks
    /// it, the queue backs up, credits fall, and the sender stalls —
    /// congestion propagates hop by hop instead of hiding in unbounded
    /// receiver-side buffers.
    pub fn drain(&mut self, epoch: u64, allowed: usize) -> Vec<Packet> {
        if self.stalled_at(epoch) {
            self.stats.stalled_epochs += 1;
            return Vec::new();
        }
        let n = self.rate.min(allowed).min(self.queue.len());
        self.queue.drain(..n).collect()
    }

    /// Digest of the queued packets' words, the credits, the stalled epochs.
    pub(crate) fn digest(&self) -> u64 {
        let mut h = raw_net::Fnv1a::default();
        for w in self.queue.iter().flat_map(Packet::to_words) {
            h.mix(u64::from(w));
        }
        h.mix(self.credits() as u64);
        h.mix(self.stats.stalled_epochs);
        h.finish()
    }

    /// Record the credit low-water mark; returns the credits so the
    /// fabric can decide whether to backpressure the sender.
    pub fn sample_credits(&mut self) -> usize {
        let c = self.credits();
        self.stats.min_credits = self.stats.min_credits.min(c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seed: u32) -> Packet {
        Packet::synthetic(0x0a0a_0001, 0x0a01_0001, 64, 64, seed)
    }

    fn link(capacity: usize, rate: usize) -> FabricLink {
        FabricLink::new(
            0,
            LinkSpec {
                from: (0, 1),
                to: (4, 2),
            },
            capacity,
            rate,
        )
    }

    #[test]
    fn drains_at_rate_in_fifo_order() {
        let mut l = link(8, 3);
        for s in 0..5 {
            l.push(pkt(s));
        }
        let first = l.drain(0, usize::MAX);
        assert_eq!(first.len(), 3);
        assert_eq!(first[0], pkt(0));
        assert_eq!(l.occupancy(), 2);
        assert_eq!(l.drain(1, usize::MAX).len(), 2);
        assert!(l.drain(2, usize::MAX).is_empty());
        assert_eq!(l.stats.packets, 5);
        assert_eq!(l.stats.max_occupancy, 5);
    }

    #[test]
    fn stall_windows_freeze_the_drain() {
        let mut l = link(8, 4);
        l.stall(2, 2);
        l.push(pkt(0));
        assert_eq!(l.drain(2, usize::MAX).len(), 0);
        assert_eq!(l.drain(3, usize::MAX).len(), 0);
        assert_eq!(l.stats.stalled_epochs, 2);
        assert_eq!(l.drain(4, usize::MAX).len(), 1);

        // "Stall forever": the window's end saturates instead of
        // wrapping to an epoch before its start.
        l.stall(6, u64::MAX);
        l.push(pkt(1));
        assert!(!l.stalled_at(5));
        assert!(l.stalled_at(6) && l.stalled_at(u64::MAX - 1));
        assert_eq!(l.drain(1 << 40, usize::MAX).len(), 0);
    }

    #[test]
    fn credits_track_free_slots() {
        let mut l = link(4, 1);
        assert_eq!(l.sample_credits(), 4);
        l.push(pkt(0));
        l.push(pkt(1));
        assert_eq!(l.sample_credits(), 2);
        assert_eq!(l.stats.min_credits, 2);
        l.drain(0, usize::MAX);
        assert_eq!(l.credits(), 3);
        // min_credits keeps the low-water mark.
        l.sample_credits();
        assert_eq!(l.stats.min_credits, 2);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn overflow_panics_instead_of_dropping() {
        let mut l = link(2, 1);
        for s in 0..3 {
            l.push(pkt(s));
        }
    }
}
