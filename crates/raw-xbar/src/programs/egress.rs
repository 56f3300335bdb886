//! The Egress Processor (see the [module docs](super)).

use raw_net::FragTag;
use raw_sim::{TileIo, TileProgram, NET0};
use raw_telemetry::{SharedSink, Stage};

use super::{EG_BUF_BASE, EG_BUF_STRIDE};
use crate::codegen::EgressCode;
use crate::layout::NPORTS;

#[derive(Clone, Debug, Default)]
pub struct EgressStats {
    pub fragments: u64,
    pub packets: u64,
    pub words_stored: u64,
    pub words_streamed_out: u64,
    pub reasm_errors: u64,
}

/// Egress operating mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EgressMode {
    /// Bodies stream switch→line card; the processor only sees tags.
    /// Requires every packet to fit one quantum.
    CutThrough,
    /// Bodies are buffered and reassembled per source (§4.2) and then
    /// streamed out over network 1.
    StoreForward,
}

enum EgSt {
    Swpc,
    Tag,
    WaitHalt,
    // store-forward path
    RecvWord { j: usize },
    StoreWord { j: usize, word: u32 },
    Output { src: usize, i: usize, len: usize },
}

struct SrcAssembly {
    words: usize,
    expect_seq: Option<u16>,
}

pub struct EgressProgram {
    port: u8,
    mode: EgressMode,
    quantum: usize,
    cut_pc: usize,
    store_pc: usize,
    st: EgSt,
    tag: Option<FragTag>,
    asm: [SrcAssembly; NPORTS],
    label: String,
    pub stats: EgressStats,
    /// Telemetry sink for first/last-word egress stamps.
    pub telemetry: Option<SharedSink>,
}

impl EgressProgram {
    pub fn new(port: u8, code: &EgressCode, quantum: usize, mode: EgressMode) -> EgressProgram {
        EgressProgram {
            port,
            mode,
            quantum,
            cut_pc: code.cut_pc,
            store_pc: code.store_pc,
            st: EgSt::Swpc,
            tag: None,
            asm: std::array::from_fn(|_| SrcAssembly {
                words: 0,
                expect_seq: None,
            }),
            label: format!("egress{port}"),
            stats: EgressStats::default(),
            telemetry: None,
        }
    }

    fn buf_addr(src: usize, i: usize) -> u32 {
        EG_BUF_BASE + src as u32 * EG_BUF_STRIDE + i as u32
    }

    /// Record an egress-side lifecycle stamp for `src_port`'s packet.
    fn stamp(&self, cycle: u64, src_port: u8, stage: Stage) {
        if let Some(sink) = &self.telemetry {
            sink.lock()
                .unwrap()
                .egress_event(cycle, src_port, self.port, stage);
        }
    }
}

impl TileProgram for EgressProgram {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        match &mut self.st {
            EgSt::Swpc => {
                if io.switch_halted(NET0) {
                    let pc = match self.mode {
                        EgressMode::CutThrough => self.cut_pc,
                        EgressMode::StoreForward => self.store_pc,
                    };
                    io.set_switch_pc(NET0, pc);
                    self.st = EgSt::Tag;
                } else {
                    io.idle();
                }
            }
            EgSt::Tag => {
                // Blocking receive: an idle output port parks here,
                // blocked on receive (gray in Figure 7-3).
                if let Some(w) = io.recv_static(NET0) {
                    let tag = FragTag::unpack(w);
                    self.stats.fragments += 1;
                    if tag.last {
                        self.stats.packets += 1;
                    }
                    if self.mode == EgressMode::StoreForward {
                        // Reassembly protocol check, once per fragment.
                        let src = tag.src_port as usize;
                        let a = &mut self.asm[src];
                        let ok = match (a.expect_seq, tag.first) {
                            (None, true) => true,
                            (Some(sq), false) => sq == tag.seq,
                            _ => false,
                        };
                        if !ok {
                            self.stats.reasm_errors += 1;
                            a.words = 0; // resynchronize on this fragment
                        }
                        a.expect_seq = Some(tag.seq);
                    }
                    self.tag = Some(tag);
                    if self.mode == EgressMode::CutThrough && tag.first {
                        // The switch streams the body straight to the line
                        // card behind this tag: the first payload word is
                        // leaving now.
                        self.stamp(io.cycle, tag.src_port, Stage::FirstWordEgress);
                    }
                    self.st = match self.mode {
                        EgressMode::CutThrough => EgSt::WaitHalt,
                        EgressMode::StoreForward => EgSt::RecvWord { j: 0 },
                    };
                }
            }
            EgSt::WaitHalt => {
                if io.switch_halted(NET0) {
                    if let Some(tag) = self.tag.take() {
                        if tag.last {
                            self.stamp(io.cycle, tag.src_port, Stage::LastWordEgress);
                        }
                    }
                    self.st = EgSt::Swpc;
                    self.tick(io);
                } else {
                    io.idle();
                }
            }
            EgSt::RecvWord { j } => {
                let jj = *j;
                if jj == self.quantum {
                    // Fragment fully received: if it completed a packet,
                    // stream it out.
                    let tag = self.tag.take().expect("mid-fragment");
                    let src = tag.src_port as usize;
                    if tag.last {
                        let len = self.asm[src].words;
                        self.asm[src].words = 0;
                        self.asm[src].expect_seq = None;
                        self.st = EgSt::Output { src, i: 0, len };
                    } else {
                        self.st = EgSt::Swpc;
                    }
                    self.tick(io);
                    return;
                }
                if let Some(w) = io.recv_static(NET0) {
                    let tag = self.tag.expect("mid-fragment");
                    if jj < tag.words as usize {
                        self.st = EgSt::StoreWord { j: jj, word: w };
                    } else {
                        *j = jj + 1; // discard padding
                    }
                }
            }
            EgSt::StoreWord { j, word } => {
                let (jj, w) = (*j, *word);
                let tag = self.tag.expect("mid-fragment");
                let src = tag.src_port as usize;
                let _ = jj;
                let idx = self.asm[src].words;
                if io.store(Self::buf_addr(src, idx), w) {
                    self.asm[src].words += 1;
                    self.stats.words_stored += 1;
                    self.st = EgSt::RecvWord { j: jj + 1 };
                }
            }
            EgSt::Output { src, i, len } => {
                let (s, ii, l) = (*src, *i, *len);
                if ii == l {
                    self.st = EgSt::Swpc;
                    self.tick(io);
                    return;
                }
                if io.load_send(Self::buf_addr(s, ii)) {
                    *i = ii + 1;
                    self.stats.words_streamed_out += 1;
                    if ii == 0 {
                        self.stamp(io.cycle, s as u8, Stage::FirstWordEgress);
                    }
                    if ii + 1 == l {
                        self.stamp(io.cycle, s as u8, Stage::LastWordEgress);
                    }
                }
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}
