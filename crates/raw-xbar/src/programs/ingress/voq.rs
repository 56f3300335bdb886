//! Ingress queueing: the discipline, and the virtual output queues it
//! keeps in ingress local memory.

use crate::layout::NPORTS;

use super::IG_BUF_BASE;

/// Ingress queueing discipline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IngressQueueing {
    /// The paper's §4.4 design: one packet at a time, head-of-line, with
    /// payload cut-through at peak. Subject to HOL blocking under
    /// contention.
    #[default]
    Fifo,
    /// Virtual output queueing (the Chapter-2 / future-work extension):
    /// packets are buffered into per-destination queues (2 cycles/word,
    /// store-and-forward at the ingress) and the bid rotates across
    /// non-empty queues, eliminating head-of-line blocking at the cost
    /// of the buffering bandwidth.
    Voq,
}

impl IngressQueueing {
    /// True when ingress buffering is per-output (no head-of-line
    /// coupling between destinations). The fabric-level deadlock
    /// verifier keys its channel-dependency escape edges off this.
    pub fn is_voq(&self) -> bool {
        matches!(self, IngressQueueing::Voq)
    }

    pub fn name(&self) -> &'static str {
        match self {
            IngressQueueing::Fifo => "fifo",
            IngressQueueing::Voq => "voq",
        }
    }
}

/// One buffered packet awaiting service in a virtual output queue.
pub(super) struct VoqPkt {
    pub(super) base: u32,
    /// Region words reserved for this packet (the packet itself plus any
    /// wrap-waste at the region tail); freed in full on completion.
    pub(super) reserved: u32,
    pub(super) total_words: usize,
    pub(super) streamed: usize,
    pub(super) seq: u16,
    /// Destination port set for the fragment tags.
    pub(super) dst_mask: u8,
    /// Telemetry packet id assigned at ingress-accept.
    pub(super) id: u32,
}

/// Per-destination packet queues in ingress local memory: each output
/// owns a contiguous region managed as a ring of whole packets.
pub(super) struct VoqState {
    pub(super) queues: [std::collections::VecDeque<VoqPkt>; NPORTS],
    /// Allocation cursor per region (packets are freed strictly FIFO, so
    /// a head/tail pair per region suffices).
    pub(super) head: [u32; NPORTS],
    pub(super) used: [u32; NPORTS],
    /// Round-robin bid pointer across queues.
    pub(super) rr: usize,
}

/// Words of ingress memory per virtual output queue region. Four regions
/// are sized to fit the 8K-word data cache together (the §4.4 point that
/// the prototype's internal storage bounds buffering): larger regions
/// thrash the cache and double the buffering cost.
pub const VOQ_REGION_WORDS: u32 = 0x800;

impl VoqState {
    pub(super) fn new() -> VoqState {
        VoqState {
            queues: std::array::from_fn(|_| std::collections::VecDeque::new()),
            head: [0; NPORTS],
            used: [0; NPORTS],
            rr: 0,
        }
    }

    fn region_base(dst: usize) -> u32 {
        IG_BUF_BASE + 0x1000 + dst as u32 * VOQ_REGION_WORDS
    }

    /// Reserve space for a packet headed to the first port of `mask`
    /// (multicast packets queue under their lowest member). Returns the
    /// base address and the words reserved (packet plus any wrap-waste —
    /// the amount [`VoqState::free`] must release), or None when the
    /// region is full (backpressure).
    pub(super) fn alloc(&mut self, mask: u8, words: usize) -> Option<(u32, u32)> {
        let dst = mask.trailing_zeros() as usize;
        let words = words as u32;
        if self.used[dst] + words > VOQ_REGION_WORDS {
            return None;
        }
        // Keep packets contiguous: wrap the cursor when the tail space
        // is short (the wasted tail counts as used until freed).
        let offset = self.head[dst] % VOQ_REGION_WORDS;
        let (base_off, reserved) = if offset + words > VOQ_REGION_WORDS {
            let waste = VOQ_REGION_WORDS - offset;
            if self.used[dst] + waste + words > VOQ_REGION_WORDS {
                return None;
            }
            (0, waste + words)
        } else {
            (offset, words)
        };
        self.head[dst] += reserved;
        self.used[dst] += reserved;
        Some((Self::region_base(dst) + base_off, reserved))
    }

    pub(super) fn free(&mut self, dst: usize, reserved: u32) {
        self.used[dst] -= reserved;
    }

    /// Undo the most recent reservation in `dst`'s region (the packet
    /// being buffered was cut short on the wire and never enqueued).
    /// Sound because intake handles one packet at a time: the rolled-back
    /// reservation is always the newest, so the head cursor can rewind.
    pub(super) fn unalloc(&mut self, dst: usize, reserved: u32) {
        self.head[dst] -= reserved;
        self.used[dst] -= reserved;
    }
}
