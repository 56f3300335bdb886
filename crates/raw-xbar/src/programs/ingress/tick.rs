//! The Ingress Processor's per-cycle step: [`TileProgram::tick`] for
//! [`IngressProgram`].

use raw_net::IPV4_HEADER_WORDS;
use raw_sim::{TileIo, TileProgram, NET0};
use raw_telemetry::Stage;

use super::super::{EMPTY_HDR, GRANT, IG_BUF_BASE};
use super::{Drive, FragMode, IngressProgram, IngressQueueing, Intake};

impl TileProgram for IngressProgram {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        self.now = io.cycle;
        match &mut self.drive {
            Drive::Idle => {
                if !io.switch_halted(NET0) {
                    // The switch is still finishing a routine: use the
                    // cycle for processor-only intake work.
                    if !self.proc_step(io) {
                        io.idle();
                    }
                    return;
                }
                // Choose the next routine. Real bids take priority; then
                // wire-word delivery for the intake machine (the line
                // always carries words — idle frames between packets —
                // so ingest routines complete promptly); an empty bid is
                // forced after two ingests so the fabric keeps rotating.
                let want = self.wire_words_wanted();
                // While a grant is outstanding, the switch is free: run
                // ingest chunks (up to a budget) before collecting it —
                // this is what lets intake overlap the crossbar quantum.
                if let Some(real) = self.grant_outstanding {
                    let budget = match self.queueing {
                        IngressQueueing::Voq => 12,
                        IngressQueueing::Fifo => 2,
                    };
                    if want > 0 && self.ingests_since_bid < budget {
                        let (i, n) = Self::chunk_for(want);
                        self.ingests_since_bid += 1;
                        io.set_switch_pc(NET0, self.ingest_pc[i]);
                        self.drive = Drive::Ingest { left: n };
                        return;
                    }
                    self.grant_outstanding = None;
                    io.set_switch_pc(NET0, self.grant_recv_pc);
                    self.drive = Drive::CollectGrant { real };
                    return;
                }
                if self.sched {
                    // Scheduler mode: bid the whole occupancy mask; which
                    // queue gets served is the arbiter's choice, learned
                    // from the grant word — no fragment is planned yet.
                    let mask = self.voq_mask();
                    if mask != 0 {
                        self.pending_tag = None;
                        self.ingests_since_bid = 0;
                        io.set_switch_pc(NET0, self.bid_send_pc);
                        self.drive = Drive::BidSend {
                            word: u32::from(mask),
                            real: true,
                        };
                        return;
                    }
                } else if let Some((tag, mode, voq_q)) = self.plan_fragment() {
                    self.pending_tag = Some((tag, mode, voq_q));
                    self.ingests_since_bid = 0;
                    io.set_switch_pc(NET0, self.bid_send_pc);
                    self.drive = Drive::BidSend {
                        word: tag.pack(),
                        real: true,
                    };
                    return;
                }
                // Bounded processor-only work (verification, the lookup
                // round trip) runs to completion before we spend a bid
                // round trip — a real bid usually follows immediately.
                if matches!(
                    self.intake,
                    Intake::Verify { .. }
                        | Intake::LookupSend { .. }
                        | Intake::LookupWait { .. }
                        | Intake::AllocVoq
                        | Intake::StoreHdrVoq { .. }
                ) || self.pending_store.is_some()
                {
                    if !self.proc_step(io) {
                        io.idle(); // lookup reply in flight
                    }
                    return;
                }
                if want > 0 && self.ingests_since_bid < 2 {
                    let (i, n) = Self::chunk_for(want);
                    self.ingests_since_bid += 1;
                    io.set_switch_pc(NET0, self.ingest_pc[i]);
                    self.drive = Drive::Ingest { left: n };
                    return;
                }
                // Keep the crossbar rotating (and clear the ingest debt).
                // Scheduler mode's empty bid is the all-zero request mask
                // (EMPTY_HDR would decode as the all-ports mask there).
                self.ingests_since_bid = 0;
                io.set_switch_pc(NET0, self.bid_send_pc);
                self.drive = Drive::BidSend {
                    word: if self.sched { 0 } else { EMPTY_HDR },
                    real: false,
                };
            }
            Drive::Ingest { left } => {
                // A deferred store must land before the next word is
                // pulled (receive + store = the 2-cycles/word buffering
                // cost of §4.4).
                if self.pending_store.is_some() {
                    self.proc_step(io);
                    return;
                }
                if io.can_recv_static(NET0) {
                    let w = io.recv_static(NET0).expect("polled");
                    let l = *left - 1;
                    self.accept_wire_word(w);
                    if l == 0 {
                        self.drive = Drive::Idle;
                    } else {
                        self.drive = Drive::Ingest { left: l };
                    }
                } else if !self.proc_step(io) {
                    io.idle();
                }
            }
            Drive::BidSend { word, real } => {
                let (w, real) = (*word, *real);
                if io.send_static(w) {
                    self.stats.bids += 1;
                    self.grant_outstanding = Some(real);
                    self.drive = Drive::Idle;
                }
            }
            Drive::CollectGrant { real } => {
                if io.can_recv_static(NET0) {
                    let g = io.recv_static(NET0).expect("polled");
                    // Scheduler-mode grant words carry the elected VOQ in
                    // bits 8.. (token mode sends bare GRANT/DENY, so the
                    // low-byte compare is equivalent there).
                    let granted = (g & 0xff) == GRANT && *real;
                    if granted {
                        self.stats.grants += 1;
                    } else if *real {
                        self.stats.denies += 1;
                    }
                    if granted && self.sched {
                        // Plan the fragment only now: the arbiter picked
                        // the queue. Sound because queues only grow
                        // between bid and grant — the bid mask's queues
                        // still have their head packets.
                        let q = ((g >> 8) & 0x3) as usize;
                        debug_assert!(
                            !self.voq.queues[q].is_empty(),
                            "arbiter granted VOQ {q} which was never bid"
                        );
                        self.pending_tag = Some((self.voq_head_tag(q), FragMode::Proc, Some(q)));
                    }
                    if granted {
                        if self.telemetry.is_some() {
                            // The granted packet: the served VOQ head, or
                            // the single in-flight FIFO packet.
                            let id = match &self.pending_tag {
                                Some((_, _, Some(q))) => self.voq.queues[*q].front().map(|p| p.id),
                                _ => Some(self.cur_id),
                            };
                            if let Some(id) = id {
                                self.stamp(io.cycle, id, Stage::CrossbarGrant);
                            }
                        }
                        self.drive = Drive::StartStream;
                    } else {
                        self.pending_tag = None;
                        self.drive = Drive::Idle;
                    }
                } else if !self.proc_step(io) {
                    // Waiting for the crossbar's grant word: this is an
                    // arbitration wait, not plain idleness — attributed
                    // to the token protocol or the slot scheduler so the
                    // head-to-head stall tables separate the two.
                    if self.sched {
                        io.hint_arb_wait();
                    } else {
                        io.hint_token_wait();
                    }
                    io.idle();
                }
            }
            Drive::StartStream => {
                if io.switch_halted(NET0) {
                    let (tag, mode, _) = self.pending_tag.expect("granted");
                    let pc = match (mode, tag.first, tag.last) {
                        (FragMode::Wire, true, true) => self.stream_wf_last_pc,
                        (FragMode::Wire, true, false) => self.stream_wf_more_pc,
                        (FragMode::Wire, false, false) => self.stream_wc_more_pc,
                        (FragMode::Wire, false, true) => self.stream_wc_last_pc,
                        (FragMode::Proc, _, _) if self.queueing == IngressQueueing::Voq => {
                            // No prefetch coda: VOQ ingestion is
                            // decoupled from streaming, so the coda
                            // words could land mid-parse.
                            self.stream_proc_nc_pc
                        }
                        (FragMode::Proc, _, _) => self.stream_proc_pc,
                    };
                    io.set_switch_pc(NET0, pc);
                    self.drive = Drive::Stream { mode, sent: 0 };
                } else if !self.proc_step(io) {
                    io.idle();
                }
            }
            Drive::Stream { mode, sent } => {
                let (tag, _, voq_q) = self.pending_tag.expect("streaming");
                let m = *mode;
                let k = *sent;
                // How many words must the processor source?
                let proc_words = match (m, tag.first) {
                    (FragMode::Wire, true) => 1 + IPV4_HEADER_WORDS,
                    (FragMode::Wire, false) => 1,
                    (FragMode::Proc, _) => 1 + self.quantum,
                };
                if k == proc_words {
                    // Final-fragment FIFO routines end with the header
                    // prefetch coda: account the fragment now and consume
                    // the coda words as next-packet intake. VOQ routines
                    // have no coda.
                    if tag.last && self.queueing == IngressQueueing::Fifo {
                        let (tag, mode, voq_q) = self.pending_tag.take().expect("streaming");
                        self.finish_fragment(tag, mode, voq_q);
                        self.drive = Drive::StreamTail {
                            left: crate::codegen::PREFETCH_WORDS,
                        };
                    } else {
                        self.drive = Drive::EndStream;
                    }
                    self.tick(io);
                    return;
                }
                let ok = if k == 0 {
                    io.send_static(tag.pack())
                } else {
                    match m {
                        FragMode::Wire => io.send_static(self.hdr_words[k - 1]),
                        FragMode::Proc if k > tag.words as usize => {
                            io.send_static(0) // padding
                        }
                        FragMode::Proc => {
                            if let Some(q) = voq_q {
                                // VOQ: stream from the buffered packet
                                // (header included at its base).
                                let pkt = self.voq.queues[q].front().expect("serving");
                                let pkt_idx = pkt.streamed + (k - 1);
                                io.load_send(pkt.base + pkt_idx as u32)
                            } else {
                                let c = self.cur.as_ref().expect("streaming");
                                let pkt_idx = c.streamed + (k - 1);
                                if pkt_idx < IPV4_HEADER_WORDS {
                                    io.send_static(self.hdr_words[pkt_idx])
                                } else {
                                    io.load_send(IG_BUF_BASE + pkt_idx as u32)
                                }
                            }
                        }
                    }
                };
                if ok {
                    *sent = k + 1;
                }
            }
            Drive::StreamTail { left } => {
                if self.pending_store.is_some() {
                    self.proc_step(io);
                    return;
                }
                if io.can_recv_static(NET0) {
                    let w = io.recv_static(NET0).expect("polled");
                    let l = *left - 1;
                    self.accept_wire_word(w);
                    self.drive = if l == 0 {
                        Drive::WaitHalt
                    } else {
                        Drive::StreamTail { left: l }
                    };
                } else if !self.proc_step(io) {
                    io.idle();
                }
            }
            Drive::WaitHalt => {
                if io.switch_halted(NET0) {
                    self.drive = Drive::Idle;
                    self.tick(io);
                } else if !self.proc_step(io) {
                    io.idle();
                }
            }
            Drive::EndStream => {
                if io.switch_halted(NET0) {
                    let (tag, mode, voq_q) = self.pending_tag.take().expect("streamed");
                    self.finish_fragment(tag, mode, voq_q);
                    self.drive = Drive::Idle;
                    // Re-enter Idle in the same tick (the WaitHalt idiom):
                    // ending the turn here would record no io action, and
                    // the fast engine would put the tile to sleep until a
                    // push or pop — which never comes when the wire FIFO
                    // is already full and every peer is blocked on this
                    // tile's next bid.
                    self.tick(io);
                } else if !self.proc_step(io) {
                    io.idle();
                }
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}
