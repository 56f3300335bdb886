//! The Ingress Processor (see the [module docs](super)).

use raw_net::{FragTag, IpError, Ipv4Header, IPV4_HEADER_WORDS};
use raw_sim::TileIo;
use raw_telemetry::{DropReason, SharedSink, Stage};

use super::IG_BUF_BASE;
use crate::codegen::IngressCode;
use crate::costs::VERIFY_CYCLES;
use crate::layout::NPORTS;

mod tick;
mod voq;

pub use voq::{IngressQueueing, VOQ_REGION_WORDS};
use voq::{VoqPkt, VoqState};

/// Observable ingress statistics.
#[derive(Clone, Debug, Default)]
pub struct IngressStats {
    pub packets_started: u64,
    pub packets_completed: u64,
    pub packets_dropped: u64,
    /// Classified drops, indexed by [`DropReason::index`];
    /// `packets_dropped` is always the sum of this array.
    pub drops: [u64; DropReason::COUNT],
    /// Header groups whose claimed length could not be trusted: the
    /// framer cannot drain a known span, so it resynchronizes on the
    /// next idle gap instead (these are *not* in `packets_dropped`).
    pub frame_errors: u64,
    pub words_ingested: u64,
    pub words_buffered: u64,
    pub words_cut_through: u64,
    pub bids: u64,
    pub grants: u64,
    pub denies: u64,
    pub fragments_sent: u64,
    pub wire_fragments: u64,
    pub proc_fragments: u64,
}

struct CurPkt {
    total_words: usize,
    /// Words taken off the wire *by the processor* (header + any buffered
    /// tail); cut-through words are accounted at stream completion.
    arrived: usize,
    /// Words already streamed into the fabric.
    streamed: usize,
    /// Destination port set (one bit per output; several for multicast).
    dst_mask: Option<u8>,
    /// Malformed / TTL-expired: consume from the wire and discard.
    drop: bool,
}

/// How the current fragment will be sourced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FragMode {
    /// Payload cut straight from the line card through the switch.
    Wire,
    /// Everything from the processor (buffered tail + padding).
    Proc,
}

enum Intake {
    /// No packet being parsed.
    Idle,
    /// Collecting the five header words (delivered by ingest routines).
    NeedHdr { have: usize },
    /// Header verification + TTL/checksum rewrite (modeled cycles).
    Verify { left: u32 },
    /// Send the two-word lookup request over the dynamic network.
    LookupSend { stage: u8 },
    /// Await the two-word reply (stage 0 = header, 1 = port).
    LookupWait { stage: u8 },
    /// Route resolved; fragments can be planned.
    Ready,
    /// A processor-sourced fragment needs its words buffered first:
    /// ingest words `[streamed+got .. streamed+need)` into local memory.
    BufferTail { need: usize, got: usize },
    /// VOQ mode: waiting for queue-region space (backpressure).
    AllocVoq,
    /// VOQ mode: store the rewritten header words at the packet's base
    /// (`reserved` region words roll back if the wire cuts out).
    StoreHdrVoq { base: u32, reserved: u32, i: usize },
    /// VOQ mode: buffer the whole packet into its queue's region
    /// (`got` of `need` payload words received; header words land
    /// first).
    BufferAll {
        base: u32,
        reserved: u32,
        need: usize,
        got: usize,
    },
    /// Discard the rest of a bad packet from the wire.
    Drain { left: usize },
}

/// The ingress's switch-steering state.
#[allow(clippy::large_enum_variant)]
enum Drive {
    /// Pick the next switch routine (or do processor-only work).
    Idle,
    /// An ingest routine is delivering `left` wire words to the processor.
    Ingest { left: usize },
    /// Send the bid word through the fire-and-forget bid routine.
    BidSend { word: u32, real: bool },
    /// Collect the outstanding grant word.
    CollectGrant { real: bool },
    /// Wait for the switch to finish the bid routine, then start the
    /// granted stream.
    StartStream,
    /// Feed the processor-sourced words of the active stream routine.
    Stream { mode: FragMode, sent: usize },
    /// Consume the header-prefetch coda words (the fragment is already
    /// accounted; these words belong to the next packet or are idles).
    StreamTail { left: usize },
    /// Wait for the stream routine to finish routing wire words, then
    /// account the fragment.
    EndStream,
    /// Wait for the stream routine to finish (fragment already
    /// accounted by the prefetch path).
    WaitHalt,
}

pub struct IngressProgram {
    port: u8,
    quantum: usize,
    ingest_pc: [usize; 4],
    bid_send_pc: usize,
    grant_recv_pc: usize,
    stream_wf_last_pc: usize,
    stream_wf_more_pc: usize,
    stream_wc_more_pc: usize,
    stream_wc_last_pc: usize,
    stream_proc_pc: usize,
    stream_proc_nc_pc: usize,
    lookup_tile: (u16, u16),
    queueing: IngressQueueing,
    /// Scheduler mode: bid the whole VOQ occupancy mask instead of one
    /// rotating head-of-queue header; the grant word names the VOQ the
    /// crossbar's arbiter elected to serve. Requires VOQ queueing.
    sched: bool,
    voq: VoqState,
    seq: u16,
    cur: Option<CurPkt>,
    hdr_words: [u32; IPV4_HEADER_WORDS],
    intake: Intake,
    drive: Drive,
    pending_tag: Option<(FragTag, FragMode, Option<usize>)>,
    /// A wire word received but not yet stored (store may miss-stall).
    pending_store: Option<(u32, u32)>,
    /// Ingest routines issued since the last bid; a bid is forced after
    /// the budget so this port never stalls the other ports' quanta for
    /// long. FIFO mode keeps the budget tiny (the peak path ingests via
    /// stream cut-through); VOQ mode buffers whole packets between
    /// service opportunities and needs a packet-sized budget.
    ingests_since_bid: u32,
    /// A bid was sent whose grant word has not been collected yet
    /// (`Some(real)`).
    grant_outstanding: Option<bool>,
    /// Cycle of the current tick (for telemetry stamps from inner helpers).
    now: u64,
    label: String,
    pub stats: IngressStats,
    /// Telemetry sink for per-packet lifecycle stamps (None = no stamps).
    pub telemetry: Option<SharedSink>,
    /// Next per-port packet id, handed out at ingress-accept.
    next_id: u32,
    /// Id of the packet currently owned by the intake pipeline.
    cur_id: u32,
}

impl IngressProgram {
    pub fn new(
        port: u8,
        code: &IngressCode,
        quantum: usize,
        lookup_row_col: (u16, u16),
        queueing: IngressQueueing,
        sched: bool,
    ) -> IngressProgram {
        assert!(
            !sched || queueing == IngressQueueing::Voq,
            "scheduler mode bids VOQ occupancy masks"
        );
        IngressProgram {
            port,
            quantum,
            ingest_pc: code.ingest_pc,
            bid_send_pc: code.bid_send_pc,
            grant_recv_pc: code.grant_recv_pc,
            stream_wf_last_pc: code.stream_wf_last_pc,
            stream_wf_more_pc: code.stream_wf_more_pc,
            stream_wc_more_pc: code.stream_wc_more_pc,
            stream_wc_last_pc: code.stream_wc_last_pc,
            stream_proc_pc: code.stream_proc_pc,
            stream_proc_nc_pc: code.stream_proc_nc_pc,
            lookup_tile: lookup_row_col,
            queueing,
            sched,
            voq: VoqState::new(),
            seq: 0,
            cur: None,
            hdr_words: [0; IPV4_HEADER_WORDS],
            intake: Intake::Idle,
            drive: Drive::Idle,
            pending_tag: None,
            pending_store: None,
            ingests_since_bid: 0,
            grant_outstanding: None,
            now: 0,
            label: format!("ingress{port}"),
            stats: IngressStats::default(),
            telemetry: None,
            next_id: 0,
            cur_id: 0,
        }
    }

    /// Record a per-packet lifecycle stamp when a telemetry sink is
    /// attached; a single branch otherwise.
    fn stamp(&self, cycle: u64, id: u32, stage: Stage) {
        if let Some(sink) = &self.telemetry {
            sink.lock()
                .unwrap()
                .packet_event(cycle, self.port, id, stage);
        }
    }

    /// Count a classified drop (graceful degradation: malformed input is
    /// counted and discarded, never panicked on). Keeps `packets_dropped`
    /// equal to the sum of the per-reason counters; these are the only
    /// drop counts (telemetry reads them from `IngressStats`).
    fn record_drop(&mut self, reason: DropReason) {
        self.stats.packets_dropped += 1;
        self.stats.drops[reason.index()] += 1;
    }

    /// Plan the next fragment of a head-of-queue packet, if any. In VOQ
    /// mode the bid rotates across non-empty virtual output queues (the
    /// HOL-blocking fix of §2.2.2); fragments stream from the buffered
    /// packet, processor-sourced. Returns the tag, the stream mode, and
    /// the VOQ index being served (None for the FIFO path).
    fn plan_fragment(&self) -> Option<(FragTag, FragMode, Option<usize>)> {
        if self.queueing == IngressQueueing::Voq {
            // Rotate from the rr pointer to the first non-empty queue.
            for k in 0..NPORTS {
                let q = (self.voq.rr + k) % NPORTS;
                if self.voq.queues[q].is_empty() {
                    continue;
                }
                return Some((self.voq_head_tag(q), FragMode::Proc, Some(q)));
            }
            return None;
        }
        let c = self.cur.as_ref()?;
        let dst_mask = c.dst_mask?;
        if c.drop || c.streamed >= c.total_words {
            return None;
        }
        let remaining = c.total_words - c.streamed;
        let frag_words = remaining.min(self.quantum);
        let pads = self.quantum - frag_words;
        let mode = if pads == 0 {
            FragMode::Wire
        } else {
            FragMode::Proc
        };
        // Proc-sourced fragments must be fully buffered first.
        if mode == FragMode::Proc {
            let first_needed = c.streamed.max(IPV4_HEADER_WORDS);
            let have = c.arrived.max(first_needed);
            if have < c.streamed + frag_words || self.pending_store.is_some() {
                return None;
            }
        }
        Some((
            FragTag {
                dst_mask,
                src_port: self.port,
                words: frag_words as u16,
                seq: self.seq % raw_net::frag::SEQ_MODULUS,
                first: c.streamed == 0,
                last: remaining <= self.quantum,
            },
            mode,
            None,
        ))
    }

    /// Scheduler-mode bid word: the VOQ occupancy mask (bit `j` set ⇔
    /// queue `j` has a packet to serve). 0 = nothing queued.
    fn voq_mask(&self) -> u8 {
        let mut m = 0u8;
        for (j, q) in self.voq.queues.iter().enumerate() {
            if !q.is_empty() {
                m |= 1 << j;
            }
        }
        m
    }

    /// The fragment tag for serving VOQ `q`'s head packet now. Shared by
    /// the rotating-bid planner and the scheduler-mode grant path (which
    /// learns the elected queue only when the grant word arrives).
    fn voq_head_tag(&self, q: usize) -> FragTag {
        let p = self.voq.queues[q].front().expect("serving an empty VOQ");
        let remaining = p.total_words - p.streamed;
        let frag_words = remaining.min(self.quantum);
        FragTag {
            dst_mask: p.dst_mask,
            src_port: self.port,
            words: frag_words as u16,
            seq: p.seq,
            first: p.streamed == 0,
            last: remaining <= self.quantum,
        }
    }

    /// How many wire words the intake machine wants delivered next.
    fn wire_words_wanted(&self) -> usize {
        match &self.intake {
            Intake::Idle => 1, // speculatively start the next header
            Intake::NeedHdr { have } => IPV4_HEADER_WORDS - have,
            Intake::BufferTail { need, got } => need - got,
            Intake::BufferAll { need, got, .. } => need - got,
            Intake::Drain { left } => *left,
            _ => 0,
        }
    }

    /// Accept one word delivered by an ingest routine.
    fn accept_wire_word(&mut self, w: u32) {
        self.stats.words_ingested += 1;
        match &mut self.intake {
            Intake::Idle => {
                if w == crate::devices::WIRE_IDLE {
                    return; // inter-packet idle frame
                }
                self.hdr_words[0] = w;
                self.intake = Intake::NeedHdr { have: 1 };
                self.stats.packets_started += 1;
                self.cur_id = self.next_id;
                self.next_id = self.next_id.wrapping_add(1);
                self.stamp(self.now, self.cur_id, Stage::IngressAccept);
            }
            Intake::NeedHdr { have } => {
                if w == crate::devices::WIRE_IDLE {
                    // Idles never appear inside a packet: the line went
                    // quiet mid-header, so the rest is never coming.
                    self.record_drop(DropReason::Truncated);
                    self.cur = None;
                    self.intake = Intake::Idle;
                    return;
                }
                self.hdr_words[*have] = w;
                *have += 1;
                if *have == IPV4_HEADER_WORDS {
                    self.intake = Intake::Verify {
                        left: VERIFY_CYCLES,
                    };
                }
            }
            Intake::BufferTail { need, got } => {
                if w == crate::devices::WIRE_IDLE {
                    // Truncated mid-tail (defensive: injected truncation
                    // requires VOQ mode, where this path is unused).
                    self.record_drop(DropReason::Truncated);
                    self.cur = None;
                    self.intake = Intake::Idle;
                    return;
                }
                let c = self.cur.as_mut().expect("buffering a packet");
                let addr = IG_BUF_BASE + c.arrived as u32;
                self.pending_store = Some((addr, w));
                c.arrived += 1;
                *got += 1;
                if got == need {
                    self.intake = Intake::Ready;
                }
            }
            Intake::BufferAll {
                base,
                reserved,
                need,
                got,
            } => {
                if w == crate::devices::WIRE_IDLE {
                    // The wire cut out before the claimed length: roll
                    // back the queue-region reservation (the packet was
                    // never enqueued) and count a truncation drop.
                    let rsv = *reserved;
                    let dst = {
                        let c = self.cur.as_ref().expect("buffering a packet");
                        (c.dst_mask.expect("routed").trailing_zeros() as usize) % NPORTS
                    };
                    self.voq.unalloc(dst, rsv);
                    self.record_drop(DropReason::Truncated);
                    self.cur = None;
                    self.intake = Intake::Idle;
                    return;
                }
                let c = self.cur.as_mut().expect("buffering a packet");
                let addr = *base + c.arrived as u32;
                self.pending_store = Some((addr, w));
                c.arrived += 1;
                *got += 1;
                if got == need {
                    // Whole packet buffered: enqueue it and move on to
                    // the next header immediately.
                    let pkt = VoqPkt {
                        base: *base,
                        reserved: *reserved,
                        total_words: c.total_words,
                        streamed: 0,
                        seq: self.seq % raw_net::frag::SEQ_MODULUS,
                        dst_mask: c.dst_mask.expect("routed before buffering"),
                        id: self.cur_id,
                    };
                    self.seq = self.seq.wrapping_add(1);
                    let dst = (pkt.dst_mask.trailing_zeros() as usize) % NPORTS;
                    self.voq.queues[dst].push_back(pkt);
                    self.cur = None;
                    self.intake = Intake::Idle;
                }
            }
            Intake::Drain { left } => {
                if w == crate::devices::WIRE_IDLE {
                    // Idle before the claimed length: the discarded
                    // packet's tail was itself cut short. The drop is
                    // already counted; just resynchronize.
                    self.cur = None;
                    self.intake = Intake::Idle;
                    return;
                }
                *left -= 1;
                if *left == 0 {
                    self.cur = None;
                    self.intake = Intake::Idle;
                }
            }
            st => unreachable!(
                "ingest delivered word {w:#x} while intake state {} cannot accept",
                match st {
                    Intake::Verify { .. } => "Verify",
                    Intake::LookupSend { .. } => "LookupSend",
                    Intake::LookupWait { .. } => "LookupWait",
                    Intake::Ready => "Ready",
                    Intake::AllocVoq => "AllocVoq",
                    Intake::StoreHdrVoq { .. } => "StoreHdrVoq",
                    _ => "?",
                }
            ),
        }
    }

    /// Processor-only intake work (no switch interaction): deferred
    /// stores, header verification, the lookup round trip. Returns true
    /// if a cycle was spent.
    fn proc_step(&mut self, io: &mut TileIo<'_>) -> bool {
        if let Some((addr, w)) = self.pending_store {
            if io.store(addr, w) {
                self.pending_store = None;
                self.stats.words_buffered += 1;
            }
            return true;
        }
        match &mut self.intake {
            Intake::Verify { left } => {
                io.compute();
                *left -= 1;
                if *left != 0 {
                    return true;
                }
                match Ipv4Header::from_words(&self.hdr_words) {
                    Ok(mut h) => {
                        let total_words =
                            IPV4_HEADER_WORDS + (h.total_len as usize - 20).div_ceil(4);
                        let drop = h.forward_hop().is_err();
                        if !drop {
                            self.hdr_words = h.to_words();
                        }
                        self.cur = Some(CurPkt {
                            total_words,
                            arrived: IPV4_HEADER_WORDS,
                            streamed: 0,
                            dst_mask: None,
                            drop,
                        });
                        if drop {
                            self.record_drop(DropReason::TtlExpired);
                            self.intake = Intake::Drain {
                                left: total_words - IPV4_HEADER_WORDS,
                            };
                        } else {
                            self.intake = Intake::LookupSend { stage: 0 };
                        }
                    }
                    Err(e) => {
                        // Graceful degradation: when the claimed length
                        // survived the corruption, the malformed packet is
                        // counted under its reason and its exact payload
                        // span drained, keeping the framer packet-aligned.
                        // A garbled length cannot be trusted, so those
                        // count a frame error and resynchronize on the
                        // next idle gap instead.
                        let reason = match e {
                            IpError::BadChecksum => Some(DropReason::BadChecksum),
                            IpError::BadVersion(_) => Some(DropReason::BadVersion),
                            // An IHL other than 5 claims option words the
                            // five-word wire format never carries.
                            IpError::BadIhl(_) | IpError::Truncated => Some(DropReason::BadIhl),
                            IpError::BadTotalLength | IpError::TtlExpired => None,
                        };
                        let total_len = (self.hdr_words[0] & 0xffff) as usize;
                        self.cur = None;
                        match reason {
                            Some(r) if total_len >= 20 => {
                                self.record_drop(r);
                                let payload = (total_len - 20).div_ceil(4);
                                self.intake = if payload > 0 {
                                    Intake::Drain { left: payload }
                                } else {
                                    Intake::Idle
                                };
                            }
                            _ => {
                                self.stats.frame_errors += 1;
                                self.intake = Intake::Idle;
                            }
                        }
                    }
                }
                true
            }
            Intake::LookupSend { stage } => {
                let (row, col) = self.lookup_tile;
                let word = if *stage == 0 {
                    raw_sim::pack_header(row, col, 1, self.port as u32)
                } else {
                    self.hdr_words[4] // destination address
                };
                if io.can_send_dyn(0) {
                    let ok = io.send_dyn(0, word);
                    debug_assert!(ok);
                    if *stage == 0 {
                        *stage = 1;
                        self.stamp(io.cycle, self.cur_id, Stage::LookupIssue);
                    } else {
                        self.intake = Intake::LookupWait { stage: 0 };
                    }
                    true
                } else {
                    false
                }
            }
            Intake::LookupWait { stage } if io.can_recv_dyn(0) => {
                let w = io.recv_dyn(0).expect("polled");
                if *stage == 0 {
                    *stage = 1;
                } else {
                    let c = self.cur.as_mut().expect("lookup for a packet");
                    let mask = match raw_lookup::decode_hop(w) {
                        raw_lookup::Hop::Unicast(p) => 1 << (p & 0x3),
                        raw_lookup::Hop::Multicast(m) => m & 0xf,
                    };
                    c.dst_mask = Some(mask);
                    if let Some(sink) = &self.telemetry {
                        let mut g = sink.lock().unwrap();
                        g.packet_event(io.cycle, self.port, self.cur_id, Stage::LookupComplete);
                        g.packet_dst(self.port, self.cur_id, mask);
                    }
                    if self.queueing == IngressQueueing::Voq {
                        self.intake = Intake::AllocVoq;
                    } else {
                        // Decide whether the tail needs buffering.
                        let frag_words = (c.total_words - c.streamed).min(self.quantum);
                        let pads = self.quantum - frag_words;
                        self.intake = if pads > 0 {
                            Intake::BufferTail {
                                need: c.total_words - c.arrived,
                                got: 0,
                            }
                        } else {
                            Intake::Ready
                        };
                        // Zero-length tail (packet exactly the header…)
                        if let Intake::BufferTail { need: 0, .. } = self.intake {
                            self.intake = Intake::Ready;
                        }
                    }
                }
                true
            }
            Intake::AllocVoq => {
                // Poll for queue-region space (one compute cycle per
                // attempt; full region = backpressure to the line).
                io.compute();
                let c = self.cur.as_ref().expect("routed packet");
                let mask = c.dst_mask.expect("routed");
                if let Some((base, reserved)) = self.voq.alloc(mask, c.total_words) {
                    self.intake = Intake::StoreHdrVoq {
                        base,
                        reserved,
                        i: 0,
                    };
                }
                true
            }
            Intake::StoreHdrVoq { base, reserved, i } => {
                let (b, rsv, k) = (*base, *reserved, *i);
                if io.store(b + k as u32, self.hdr_words[k]) {
                    if k + 1 == IPV4_HEADER_WORDS {
                        let c = self.cur.as_ref().expect("routed packet");
                        let need = c.total_words - c.arrived;
                        if need == 0 {
                            // Header-only packet: enqueue immediately.
                            let pkt = VoqPkt {
                                base: b,
                                reserved: rsv,
                                total_words: c.total_words,
                                streamed: 0,
                                seq: self.seq % raw_net::frag::SEQ_MODULUS,
                                dst_mask: c.dst_mask.expect("routed"),
                                id: self.cur_id,
                            };
                            self.seq = self.seq.wrapping_add(1);
                            let dst = (pkt.dst_mask.trailing_zeros() as usize) % NPORTS;
                            self.voq.queues[dst].push_back(pkt);
                            self.cur = None;
                            self.intake = Intake::Idle;
                        } else {
                            self.intake = Intake::BufferAll {
                                base: b,
                                reserved: rsv,
                                need,
                                got: 0,
                            };
                        }
                    } else {
                        self.intake = Intake::StoreHdrVoq {
                            base: b,
                            reserved: rsv,
                            i: k + 1,
                        };
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Mark fragment completion after its stream routine retired.
    fn finish_fragment(&mut self, tag: FragTag, mode: FragMode, voq_q: Option<usize>) {
        if let Some(q) = voq_q {
            // VOQ service: advance the head packet; free and dequeue on
            // completion; rotate the bid pointer for fairness.
            let done = {
                let p = self.voq.queues[q].front_mut().expect("serving");
                p.streamed += tag.words as usize;
                p.streamed >= p.total_words
            };
            if done {
                let p = self.voq.queues[q].pop_front().expect("serving");
                self.voq.free(q, p.reserved);
                self.stats.packets_completed += 1;
            }
            self.voq.rr = (q + 1) % NPORTS;
            self.stats.fragments_sent += 1;
            self.stats.proc_fragments += 1;
            return;
        }
        let mut done = false;
        if let Some(c) = &mut self.cur {
            if mode == FragMode::Wire {
                // The switch pulled these words directly off the wire.
                let wire_words = if tag.first {
                    tag.words as usize - IPV4_HEADER_WORDS
                } else {
                    tag.words as usize
                };
                c.arrived += wire_words;
                self.stats.words_cut_through += wire_words as u64;
            }
            c.streamed += tag.words as usize;
            done = c.streamed >= c.total_words;
            if !done {
                // If the next fragment is a padded tail it must be
                // processor-sourced, so its words need buffering now.
                let remaining = c.total_words - c.streamed;
                if remaining < self.quantum && matches!(self.intake, Intake::Ready) {
                    let need = c.total_words - c.arrived;
                    self.intake = if need > 0 {
                        Intake::BufferTail { need, got: 0 }
                    } else {
                        Intake::Ready
                    };
                }
            }
        }
        let s = &mut self.stats;
        s.fragments_sent += 1;
        match mode {
            FragMode::Wire => s.wire_fragments += 1,
            FragMode::Proc => s.proc_fragments += 1,
        }
        if done {
            s.packets_completed += 1;
            self.seq = self.seq.wrapping_add(1);
            self.cur = None;
            self.intake = Intake::Idle;
        }
    }

    /// Pick the next ingest chunk size index for `want` words.
    fn chunk_for(want: usize) -> (usize, usize) {
        for (i, n) in crate::codegen::INGEST_CHUNKS.iter().enumerate().rev() {
            if *n <= want {
                return (i, *n);
            }
        }
        (0, 1)
    }
}
