//! Line cards: the off-chip devices feeding and draining the router.
//!
//! The paper assumes "a large amount of buffering on the input and output
//! external to the Raw Processor" (§4.4); these devices are that
//! buffering. The input card releases packets according to a schedule
//! (saturation = back-to-back) and streams their words into the chip edge
//! at up to one word per cycle; the output card parses the outgoing word
//! stream back into packets and timestamps them.

use std::collections::VecDeque;

use raw_net::{FragTag, Packet};
use raw_sim::EdgeDevice;

/// The word a synchronous line transmits between packets (think SONET
/// idle frames): the link always carries words, and the ingress discards
/// idles while hunting for the next header. Idles never appear inside a
/// packet.
pub const WIRE_IDLE: u32 = 0xFFFF_FFFE;

/// Input line card. Packets become available at their release cycle and
/// are streamed in order, one word per cycle, as the chip accepts them;
/// between packets — and after the last offered packet — the line carries
/// [`WIRE_IDLE`] words, like a synchronous link's idle frames. The line
/// never goes silent: the ingress bid/grant protocol relies on ingest
/// routines completing promptly, so an injectable word must exist every
/// cycle. The card is polled every cycle, but that costs only the poll:
/// the tiles and switches behind a line whose idle frames nobody is
/// ingesting sleep on their full and empty FIFOs, and are woken by the
/// push or pop that changes them.
pub struct LineCardIn {
    queue: VecDeque<(u64, Vec<u32>)>,
    cur: Option<(Vec<u32>, usize)>,
    /// Slow-line-card fault windows `(start, end)`: while one covers the
    /// current cycle the card emits idle frames instead of starting the
    /// next packet. Windows apply at packet boundaries only — an
    /// in-flight packet always finishes, because idles never appear
    /// inside a packet.
    pause: Vec<(u64, u64)>,
    pub words_offered: u64,
    pub idle_words: u64,
    pub packets_offered: u64,
}

impl LineCardIn {
    pub fn new() -> LineCardIn {
        LineCardIn {
            queue: VecDeque::new(),
            cur: None,
            pause: Vec::new(),
            words_offered: 0,
            idle_words: 0,
            packets_offered: 0,
        }
    }

    /// Queue a packet for injection at `release` (cycles).
    pub fn offer(&mut self, release: u64, pkt: &Packet) {
        self.offer_words(release, pkt.to_words());
    }

    /// Queue a raw word stream for injection at `release` — the fault
    /// injection entry point for corrupted packets. The caller owns the
    /// framing: a stream truncated short of its header's claimed length
    /// should end with a [`WIRE_IDLE`] word so the ingress can observe
    /// the cut even under back-to-back traffic.
    pub fn offer_words(&mut self, release: u64, words: Vec<u32>) {
        self.queue.push_back((release, words));
        self.packets_offered += 1;
    }

    /// Emit idle frames (no new packet starts) during `[start, start+len)`.
    pub fn pause_window(&mut self, start: u64, len: u64) {
        if len > 0 {
            self.pause.push((start, start.saturating_add(len)));
        }
    }

    fn paused(&self, cycle: u64) -> bool {
        self.pause.iter().any(|&(s, e)| (s..e).contains(&cycle))
    }

    /// Packets not yet fully injected.
    pub fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.cur.is_some())
    }
}

impl Default for LineCardIn {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeDevice for LineCardIn {
    fn pull_in(&mut self, cycle: u64) -> Option<u32> {
        if self.cur.is_none() {
            if self.paused(cycle) {
                self.idle_words += 1;
                return Some(WIRE_IDLE);
            }
            match self.queue.front() {
                Some(&(release, _)) if release <= cycle => {
                    let (_, words) = self.queue.pop_front().unwrap();
                    self.cur = Some((words, 0));
                }
                _ => {
                    self.idle_words += 1;
                    return Some(WIRE_IDLE);
                }
            }
        }
        let (words, idx) = self.cur.as_mut().unwrap();
        let w = words[*idx];
        *idx += 1;
        if *idx == words.len() {
            self.cur = None;
        }
        self.words_offered += 1;
        Some(w)
    }
}

/// How the output card frames the stream it receives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OutFraming {
    /// Cut-through egress: `[tag][quantum words]` per fragment, padding
    /// included; each fragment is a whole packet.
    TaggedQuantum { quantum: usize },
    /// Store-and-forward egress: raw packet words, framed by the IPv4
    /// total-length field.
    RawPackets,
}

/// Everything the output card collected.
#[derive(Clone, Debug, Default)]
pub struct OutCollector {
    /// `(completion_cycle, packet)` in arrival order.
    pub packets: Vec<(u64, Packet)>,
    pub words: u64,
    pub parse_errors: u64,
    /// Fragmented packets seen on a cut-through port (a configuration
    /// error: cut-through requires single-fragment packets).
    pub unexpected_fragments: u64,
}

enum OutState {
    WaitTag,
    Body {
        real: usize,
        pad: usize,
        words: Vec<u32>,
    },
    Raw {
        words: Vec<u32>,
        need: Option<usize>,
    },
}

/// Output line card.
pub struct LineCardOut {
    framing: OutFraming,
    state: OutState,
    /// Egress-backpressure fault windows `(start, end)`: while one covers
    /// the current cycle the card refuses words, pushing back into the
    /// chip's edge FIFO (and from there into the switch fabric).
    stall: Vec<(u64, u64)>,
    pub collected: OutCollector,
}

impl LineCardOut {
    pub fn new(framing: OutFraming) -> LineCardOut {
        let state = match framing {
            OutFraming::TaggedQuantum { .. } => OutState::WaitTag,
            OutFraming::RawPackets => OutState::Raw {
                words: Vec::new(),
                need: None,
            },
        };
        LineCardOut {
            framing,
            state,
            stall: Vec::new(),
            collected: OutCollector::default(),
        }
    }

    /// Refuse outgoing words during `[start, start+len)` (backpressure).
    pub fn stall_window(&mut self, start: u64, len: u64) {
        if len > 0 {
            self.stall.push((start, start.saturating_add(len)));
        }
    }

    fn stalled(&self, cycle: u64) -> bool {
        self.stall.iter().any(|&(s, e)| (s..e).contains(&cycle))
    }

    fn finish_packet(col: &mut OutCollector, words: &[u32], cycle: u64) {
        match Packet::from_words(words) {
            Ok(p) => col.packets.push((cycle, p)),
            Err(_) => col.parse_errors += 1,
        }
    }
}

impl EdgeDevice for LineCardOut {
    fn is_injector(&self) -> bool {
        false // pure sink: never offers words into the chip
    }

    fn can_push(&self, cycle: u64) -> bool {
        !self.stalled(cycle)
    }

    fn push_out(&mut self, word: u32, cycle: u64) {
        debug_assert!(!self.stalled(cycle));
        let col = &mut self.collected;
        col.words += 1;
        match (&mut self.state, self.framing) {
            (OutState::WaitTag, OutFraming::TaggedQuantum { quantum }) => {
                let tag = FragTag::unpack(word);
                if !(tag.first && tag.last) {
                    col.unexpected_fragments += 1;
                }
                self.state = OutState::Body {
                    real: tag.words as usize,
                    pad: quantum - tag.words as usize,
                    words: Vec::with_capacity(tag.words as usize),
                };
            }
            (OutState::Body { real, pad, words }, _) => {
                if words.len() < *real {
                    words.push(word);
                    if words.len() == *real && *pad == 0 {
                        Self::finish_packet(col, words, cycle);
                        self.state = OutState::WaitTag;
                    }
                } else {
                    *pad -= 1;
                    if *pad == 0 {
                        Self::finish_packet(col, words, cycle);
                        self.state = OutState::WaitTag;
                    }
                }
            }
            (OutState::Raw { words, need }, _) => {
                words.push(word);
                if need.is_none() && words.len() >= raw_net::IPV4_HEADER_WORDS {
                    // Total length lives in the low half of word 0.
                    let total_len = (words[0] & 0xffff) as usize;
                    if total_len < 20 {
                        col.parse_errors += 1;
                        words.clear();
                        return;
                    }
                    *need = Some(raw_net::IPV4_HEADER_WORDS + (total_len - 20).div_ceil(4));
                }
                if let Some(n) = *need {
                    if words.len() == n {
                        Self::finish_packet(col, words, cycle);
                        words.clear();
                        *need = None;
                    }
                }
            }
            (OutState::WaitTag, OutFraming::RawPackets) => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_card_in_streams_in_order_after_release() {
        let mut lc = LineCardIn::new();
        let p = Packet::synthetic(1, 2, 64, 64, 0);
        lc.offer(10, &p);
        assert_eq!(lc.pull_in(5), Some(WIRE_IDLE), "idle frames before release");
        let mut got = Vec::new();
        for c in 10..40 {
            if let Some(w) = lc.pull_in(c) {
                if w != WIRE_IDLE {
                    got.push(w);
                }
            }
        }
        assert_eq!(got, p.to_words());
        assert_eq!(lc.backlog(), 0);
        assert!(lc.idle_words >= 1);
    }

    #[test]
    fn line_card_in_always_carries_words() {
        // The bid/grant protocol depends on the line never going silent:
        // an exhausted card still emits idle frames.
        let mut lc = LineCardIn::new();
        assert_eq!(lc.pull_in(0), Some(WIRE_IDLE), "idles before any offer");
        let p = Packet::synthetic(1, 2, 64, 64, 0);
        lc.offer(10, &p);
        for c in 0..p.to_words().len() as u64 {
            assert!(lc.pull_in(10 + c).is_some());
        }
        assert_eq!(lc.backlog(), 0);
        assert_eq!(lc.pull_in(60), Some(WIRE_IDLE), "idles after exhaustion");
    }

    #[test]
    fn out_card_parses_tagged_quantum_stream() {
        let quantum = 32usize;
        let mut lc = LineCardOut::new(OutFraming::TaggedQuantum { quantum });
        let p = Packet::synthetic(0x0a000001, 0x0a000002, 64, 64, 1);
        let words = p.to_words();
        let tag = FragTag {
            dst_mask: 1 << 1,
            src_port: 0,
            words: words.len() as u16,
            seq: 0,
            first: true,
            last: true,
        };
        lc.push_out(tag.pack(), 100);
        for (i, w) in words.iter().enumerate() {
            lc.push_out(*w, 101 + i as u64);
        }
        for i in 0..quantum - words.len() {
            lc.push_out(0, 200 + i as u64);
        }
        let c = &lc.collected;
        assert_eq!(c.packets.len(), 1);
        assert_eq!(c.parse_errors, 0);
        // The delivered packet matches, with TTL untouched here (the
        // ingress does the decrement, not the line card).
        assert_eq!(c.packets[0].1, p);
    }

    #[test]
    fn out_card_parses_raw_packet_stream() {
        let mut lc = LineCardOut::new(OutFraming::RawPackets);
        let a = Packet::synthetic(1, 2, 64, 9, 1);
        let b = Packet::synthetic(3, 4, 132, 9, 2);
        let mut cyc = 0;
        for p in [&a, &b] {
            for w in p.to_words() {
                lc.push_out(w, cyc);
                cyc += 1;
            }
        }
        let c = &lc.collected;
        assert_eq!(c.packets.len(), 2);
        assert_eq!(c.packets[0].1, a);
        assert_eq!(c.packets[1].1, b);
    }

    #[test]
    fn out_card_counts_corrupt_streams() {
        let quantum = 8usize;
        let mut lc = LineCardOut::new(OutFraming::TaggedQuantum { quantum });
        let tag = FragTag {
            dst_mask: 1,
            src_port: 0,
            words: 8,
            seq: 0,
            first: true,
            last: true,
        };
        lc.push_out(tag.pack(), 0);
        for i in 0..8 {
            lc.push_out(i, 1 + i as u64); // garbage, not a valid packet
        }
        assert_eq!(lc.collected.parse_errors, 1);
    }
}
