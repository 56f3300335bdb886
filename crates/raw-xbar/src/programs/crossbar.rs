//! The Crossbar Processor (see the [module docs](super)).

use raw_net::FragTag;
use raw_sim::{TileIo, TileProgram, NET0};

use super::{DENY, EMPTY_HDR, GRANT, XBAR_TABLE_BASE};
use crate::codegen::CrossbarCode;
use crate::config::{global_index, global_index_mcast, ConfigSpace, HDR_VALUES};
use crate::costs::{ARB_ROUND_CYCLES, IDX_CYCLES};
use crate::layout::NPORTS;

#[derive(Clone, Debug, Default)]
pub struct XbarStats {
    pub quanta: u64,
    pub grants_issued: u64,
    pub active_quanta: u64,
    pub token_history_check: u64,
    /// Scheduler mode only: total arbitration iterations charged (iSLIP
    /// runs up to `iters` request/grant/accept rounds per quantum).
    pub sched_iterations: u64,
    /// Scheduler mode only: total matched input/output pairs granted.
    pub sched_matched: u64,
}

enum XbSt {
    WaitHalt,
    RecvOwn,
    RingSendOwn,
    RingRecv {
        k: usize,
    },
    RingFwd {
        k: usize,
    },
    ComputeIdx {
        left: u32,
    },
    LoadEntry,
    SendGrant {
        grant: bool,
        gword: u32,
        cfg_pc: usize,
    },
    SwpcCfg {
        cfg_pc: usize,
    },
}

pub struct CrossbarProgram {
    port: u8,
    /// True when the jump table covers the multicast alphabet.
    multicast: bool,
    /// Scheduler mode (`Some`): the bid words are raw VOQ request masks
    /// and this tile's replica of the arbiter turns them into a
    /// matching, realized against the ordinary unicast jump table via
    /// `global_index(0, ..)` (see `config::schedule_matching`). All four
    /// crossbar tiles run identical replicas over identical bid vectors,
    /// so their matchings agree without extra communication — exactly
    /// how the paper replicates the token counter (§5.1).
    sched: Option<Box<dyn raw_sched::Scheduler>>,
    /// Scheduler mode: the matching the current quantum realizes.
    matching: [Option<u8>; NPORTS],
    /// Encoded headers of all four ports this quantum (unicast alphabet:
    /// 0..=3 dest + 4 empty; multicast alphabet: the destination mask;
    /// scheduler mode: the raw VOQ request mask, 0 = nothing queued).
    hdrs: [u8; NPORTS],
    /// Token weights (weighted round robin, §8.7) and the quantum count.
    weights: [u32; NPORTS],
    q: usize,
    cfg_pcs: Vec<usize>,
    st: XbSt,
    /// The header word currently being forwarded around the ring.
    ring_word: u32,
    label: String,
    pub stats: XbarStats,
}

impl CrossbarProgram {
    pub fn new(
        port: u8,
        code: &CrossbarCode,
        weights: [u32; NPORTS],
        multicast: bool,
        sched: Option<Box<dyn raw_sched::Scheduler>>,
    ) -> CrossbarProgram {
        assert!(
            sched.is_none() || !multicast,
            "scheduler arbitration is unicast-only"
        );
        let empty_code = if sched.is_some() || multicast {
            0
        } else {
            HDR_VALUES as u8 - 1
        };
        CrossbarProgram {
            port,
            multicast,
            sched,
            matching: [None; NPORTS],
            hdrs: [empty_code; NPORTS],
            weights,
            q: 0,
            cfg_pcs: code.cfg_pc.clone(),
            st: XbSt::WaitHalt,
            ring_word: 0,
            label: format!("xbar{port}"),
            stats: XbarStats::default(),
        }
    }

    /// Build the jump-table image preloaded into this tile's data memory:
    /// `entry = cfg_id | granted << 31`.
    pub fn table_image(cs: &ConfigSpace, tile: usize) -> Vec<u32> {
        cs.jump[tile]
            .iter()
            .zip(cs.grant[tile].iter())
            .map(|(&id, &g)| u32::from(id) | (u32::from(g) << 31))
            .collect()
    }

    fn hdr_code(&self, w: u32) -> u8 {
        if self.sched.is_some() {
            // Scheduler-mode bid words carry the raw VOQ request mask.
            (w & 0xf) as u8
        } else if self.multicast {
            if w == EMPTY_HDR {
                0 // empty = no destinations
            } else {
                FragTag::unpack(w).dst_mask & 0xf
            }
        } else if w == EMPTY_HDR {
            NPORTS as u8 // "empty"
        } else {
            FragTag::unpack(w).unicast_dst().unwrap_or(0) & 0x3
        }
    }

    fn table_index(&self) -> usize {
        if self.sched.is_some() {
            // The matching, re-encoded as unicast headers with the token
            // pinned at 0: the same jump-table entry on every tile (see
            // `config::schedule_matching`).
            let hdrs: [u8; NPORTS] =
                std::array::from_fn(|i| self.matching[i].unwrap_or(NPORTS as u8));
            global_index(0, hdrs)
        } else if self.multicast {
            global_index_mcast(self.token(), self.hdrs)
        } else {
            global_index(self.token(), self.hdrs)
        }
    }

    fn token(&self) -> u8 {
        weighted_token(&self.weights, self.q as u64)
    }
}

/// The token holder in quantum `q`: each rotation gives port `i` the
/// token for `max(weights[i], 1)` consecutive quanta, in port order, so
/// `q` modulo the rotation falls in exactly one port's range.
fn weighted_token(weights: &[u32; NPORTS], q: u64) -> u8 {
    let quanta = weights.map(|w| u64::from(w.max(1)));
    let mut at = q % quanta.iter().sum::<u64>();
    for (port, &n) in quanta.iter().enumerate() {
        if at < n {
            return port as u8;
        }
        at -= n;
    }
    unreachable!("q modulo the rotation lies inside it")
}

impl TileProgram for CrossbarProgram {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        let me = self.port as usize;
        match &mut self.st {
            XbSt::WaitHalt => {
                if io.switch_halted(NET0) {
                    // hdr_pc is always 1 in generated code, but carry it
                    // through cfg_pcs' sibling field for robustness.
                    io.set_switch_pc(NET0, 1);
                    self.st = XbSt::RecvOwn;
                } else {
                    io.idle();
                }
            }
            XbSt::RecvOwn => {
                if let Some(w) = io.recv_static(NET0) {
                    self.hdrs[me] = self.hdr_code(w);
                    self.ring_word = w;
                    self.st = XbSt::RingSendOwn;
                }
            }
            XbSt::RingSendOwn => {
                if io.send_static(self.ring_word) {
                    self.st = XbSt::RingRecv { k: 0 };
                }
            }
            XbSt::RingRecv { k } => {
                let kk = *k;
                if let Some(w) = io.recv_static(NET0) {
                    // k-th received word is the header of port (me-1-k).
                    let owner = (me + NPORTS - 1 - kk) % NPORTS;
                    self.hdrs[owner] = self.hdr_code(w);
                    self.ring_word = w;
                    self.st = if kk < 2 {
                        XbSt::RingFwd { k: kk }
                    } else {
                        // All four bids are in. In scheduler mode run the
                        // arbiter replica now and charge its iteration
                        // cost on top of the baseline index computation.
                        let mut left = IDX_CYCLES;
                        if let Some(s) = self.sched.as_mut() {
                            let reqs: [u16; NPORTS] =
                                std::array::from_fn(|i| u16::from(self.hdrs[i]));
                            let m = s.arbitrate(&reqs);
                            debug_assert!(raw_sched::matching_is_valid(&reqs, &m));
                            self.matching = std::array::from_fn(|i| m[i]);
                            let iters = s.last_iterations();
                            left += ARB_ROUND_CYCLES * iters;
                            self.stats.sched_iterations += u64::from(iters);
                            self.stats.sched_matched += raw_sched::matching_size(&m) as u64;
                        }
                        XbSt::ComputeIdx { left }
                    };
                }
            }
            XbSt::RingFwd { k } => {
                let kk = *k;
                if io.send_static(self.ring_word) {
                    self.st = XbSt::RingRecv { k: kk + 1 };
                }
            }
            XbSt::ComputeIdx { left } => {
                io.compute();
                *left -= 1;
                if *left == 0 {
                    self.st = XbSt::LoadEntry;
                }
            }
            XbSt::LoadEntry => {
                let gi = self.table_index();
                if let Some(entry) = io.load(XBAR_TABLE_BASE + gi as u32) {
                    let grant = entry >> 31 == 1;
                    let cfg_id = (entry & 0xffff) as usize;
                    let cfg_pc = self.cfg_pcs[cfg_id];
                    let gword = if self.sched.is_some() {
                        // Scheduler mode: the grant word also names the
                        // VOQ being served (the ingress bid a mask, not
                        // a destination). The jump table must agree with
                        // the matching — the routability property proven
                        // by `matchings_are_always_routable` / RV801.
                        debug_assert_eq!(grant, self.matching[me].is_some());
                        match self.matching[me] {
                            Some(dst) => GRANT | (u32::from(dst) << 8),
                            None => DENY,
                        }
                    } else if grant {
                        GRANT
                    } else {
                        DENY
                    };
                    self.st = XbSt::SendGrant {
                        grant,
                        gword,
                        cfg_pc,
                    };
                }
            }
            XbSt::SendGrant {
                grant,
                gword,
                cfg_pc,
            } => {
                let (g, gw, pc) = (*grant, *gword, *cfg_pc);
                if io.send_static(gw) {
                    let s = &mut self.stats;
                    s.quanta += 1;
                    if g {
                        s.grants_issued += 1;
                    }
                    if pc != 0 {
                        s.active_quanta += 1;
                    }
                    self.st = XbSt::SwpcCfg { cfg_pc: pc };
                }
            }
            XbSt::SwpcCfg { cfg_pc } => {
                let pc = *cfg_pc;
                // Even the idle configuration targets the PC-0 WaitPc, so
                // the switch returns to a known sync point.
                io.set_switch_pc(NET0, pc);
                self.q += 1; // the synchronous token counter (§5.1)
                self.st = XbSt::WaitHalt;
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The token is the expanded schedule's entry without the expansion:
    /// every weight vector in `0..=3` per port, over two full rotations.
    #[test]
    fn weighted_token_matches_the_expanded_schedule() {
        for code in 0..4u32.pow(NPORTS as u32) {
            let weights: [u32; NPORTS] = std::array::from_fn(|i| (code >> (2 * i)) & 3);
            let mut schedule = Vec::new();
            for (i, &w) in weights.iter().enumerate() {
                for _ in 0..w.max(1) {
                    schedule.push(i as u8);
                }
            }
            for q in 0..2 * schedule.len() {
                assert_eq!(
                    weighted_token(&weights, q as u64),
                    schedule[q % schedule.len()],
                    "{weights:?} q {q}"
                );
            }
        }
    }
}
