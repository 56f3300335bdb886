//! The compile-time switch-code generator (§6.4–6.5).
//!
//! The third pass of the paper's automatic scheduler: convert the
//! minimized configuration set into Raw switch programs. Each crossbar
//! tile's switch memory holds
//!
//! * a `WaitPc` sync point at PC 0 (also serving as the idle
//!   configuration),
//! * the **header-exchange routine**: take the local header from the
//!   ingress, run the three-step ring all-to-all, and return the
//!   grant/deny word (the phases of Figure 6-2), and
//! * one **body routine per distinct local configuration**: `quantum + 1`
//!   unrolled route instructions (one fragment tag plus the quantum's
//!   payload words) for each active server, ending in `WaitPc`.
//!
//! The §6.2 feasibility argument is executable here: with the minimized
//! configuration set the generated program fits the 8,192-entry switch
//! instruction memory; one routine per *global* configuration (2,500 of
//! them) would overflow it by two orders of magnitude
//! ([`unminimized_instr_count`]).

use std::sync::Arc;

use raw_sim::{Route, SwPort, SwitchCtrl, SwitchInstr, SwitchProgram, NET0, NET1};

use crate::config::{Client, ConfigSpace, LocalConfig};
use crate::layout::PortTiles;

/// Switch-code identity of a local configuration: everything the switch
/// routine depends on (the grant boolean goes to the processor instead).
pub fn switch_code_key(c: &LocalConfig) -> (Client, Client, Client, u8, u8, u8) {
    (c.out, c.cw, c.ccw, c.out_dist, c.cw_dist, c.ccw_dist)
}

/// Generated crossbar switch code for one tile.
pub struct CrossbarCode {
    pub program: Arc<SwitchProgram>,
    /// PC of the header-exchange routine.
    pub hdr_pc: usize,
    /// PC of each local configuration's body routine, indexed by the
    /// [`ConfigSpace`] configuration id (idle configurations point at the
    /// PC-0 sync point).
    pub cfg_pc: Vec<usize>,
}

/// Mesh direction of a client at this tile.
fn client_port(p: &PortTiles, c: Client) -> Option<SwPort> {
    match c {
        Client::None => None,
        Client::In => Some(SwPort::from_dir(p.x_in)),
        // Data traveling clockwise arrives from the counterclockwise
        // neighbor's direction, and vice versa.
        Client::CwPrev => Some(SwPort::from_dir(p.x_ccw)),
        Client::CcwPrev => Some(SwPort::from_dir(p.x_cw)),
    }
}

/// The full software-pipelined body routine for `lc` (§6.2's "expansion
/// numbers"): each server's route stream is skewed by its source
/// distance, so one instruction never couples word `k` of a near flow
/// with word `k` of a far flow. Without this skew, independent flows
/// crossing one tile serialize each other around the ring (the paper:
/// the switch code "needs to be carefully software-pipelined or
/// loop-unrolled in order to avoid the deadlock of Raw static
/// networks").
fn body_instrs(p: &PortTiles, lc: &LocalConfig, quantum: usize) -> Vec<SwitchInstr> {
    let servers: Vec<(Route, usize)> = [
        (lc.out, lc.out_dist, SwPort::from_dir(p.x_out)),
        (lc.cw, lc.cw_dist, SwPort::from_dir(p.x_cw)),
        (lc.ccw, lc.ccw_dist, SwPort::from_dir(p.x_ccw)),
    ]
    .into_iter()
    .filter_map(|(client, dist, dst)| {
        client_port(p, client).map(|src| (Route::new(NET0, src, dst), dist as usize))
    })
    .collect();
    let frag_len = quantum + 1; // tag + payload words
    let depth = servers.iter().map(|&(_, d)| d).max().unwrap_or(0);
    let mut instrs = Vec::with_capacity(frag_len + depth);
    for i in 0..frag_len + depth {
        // Sized exactly: the program keeps every route list for as long
        // as any router runs it.
        let live = |&&(_, d): &&(Route, usize)| i >= d && i < d + frag_len;
        let mut routes = Vec::with_capacity(servers.iter().filter(live).count());
        routes.extend(servers.iter().filter(live).map(|&(r, _)| r));
        // A far-source-only configuration has route-less prologue slots;
        // they become switch nops, preserving the pipeline alignment.
        instrs.push(SwitchInstr::new(routes, SwitchCtrl::Next));
    }
    instrs
}

/// Generate the crossbar switch program for one tile.
pub fn gen_crossbar_switch(p: &PortTiles, cs: &ConfigSpace, quantum: usize) -> CrossbarCode {
    let mut instrs = vec![SwitchInstr::wait_pc()]; // [0] sync/idle
    let hdr_pc = instrs.len();
    let in_port = SwPort::from_dir(p.x_in);
    let cw_out = SwPort::from_dir(p.x_cw);
    let cw_in = SwPort::from_dir(p.x_ccw); // from the cw-upstream tile
                                           // h1: local header from the ingress.
    instrs.push(SwitchInstr::new(
        vec![Route::new(NET0, in_port, SwPort::Proc)],
        SwitchCtrl::Next,
    ));
    // h2 x3: ring all-to-all (send own/forwarded header clockwise while
    // taking the upstream tile's header).
    for _ in 0..3 {
        instrs.push(SwitchInstr::new(
            vec![
                Route::new(NET0, SwPort::Proc, cw_out),
                Route::new(NET0, cw_in, SwPort::Proc),
            ],
            SwitchCtrl::Next,
        ));
    }
    // h3: grant/deny word back to the ingress.
    instrs.push(SwitchInstr::new(
        vec![Route::new(NET0, SwPort::Proc, in_port)],
        SwitchCtrl::Next,
    ));
    instrs.push(SwitchInstr::wait_pc());

    // Body routines, deduplicated by switch-code identity.
    let mut by_key: std::collections::BTreeMap<_, usize> = std::collections::BTreeMap::new();
    let mut cfg_pc = Vec::with_capacity(cs.configs.len());
    for lc in &cs.configs {
        if lc.is_idle() {
            cfg_pc.push(0); // the PC-0 WaitPc is the idle routine
            continue;
        }
        let key = switch_code_key(lc);
        let pc = *by_key.entry(key).or_insert_with(|| {
            let pc = instrs.len();
            instrs.extend(body_instrs(p, lc, quantum));
            instrs.push(SwitchInstr::wait_pc());
            pc
        });
        cfg_pc.push(pc);
    }

    CrossbarCode {
        program: Arc::new(SwitchProgram::new(instrs)),
        hdr_pc,
        cfg_pc,
    }
}

/// Hypothetical switch-program size with one body routine per *global*
/// configuration — the naive scheme §6.1 shows cannot fit.
pub fn unminimized_instr_count(quantum: usize) -> usize {
    // 1 sync + header routine (5 + WaitPc) + 2,500 x (quantum+1 routes + WaitPc)
    1 + 6 + crate::config::GLOBAL_SPACE * (quantum + 2)
}

/// Ingress switch code (network 0 carries the line card, the bid
/// protocol, and the crossbar-bound stream; the processor steers between
/// routines). The layout encodes the §4.3 data path:
///
/// * `ingest_pc[k]` — take `2^k` line-card words to the processor
///   (header parsing, tail-fragment buffering, bad-packet draining);
/// * `bid_pc` — one instruction carrying both the bid word out and the
///   grant word back;
/// * `stream_wire_first_pc` — fragment-tag + 5 rewritten header words
///   from the processor, then `quantum - 5` payload words cut **straight
///   from the line card into the crossbar** (the processor never touches
///   the payload — this is what lets a port approach one word per
///   cycle);
/// * `stream_wire_cont_pc` — tag from the processor, `quantum` payload
///   words cut through (continuation fragments);
/// * `stream_proc_pc` — everything from the processor (buffered tails,
///   padding).
pub struct IngressCode {
    pub program: Arc<SwitchProgram>,
    /// PCs of the 1/2/4/8-word ingest routines (index = log2 of count).
    pub ingest_pc: [usize; 4],
    pub bid_pc: usize,
    /// Fire-and-forget bid (grant collected separately, letting ingest
    /// routines run during the crossbar's quantum).
    pub bid_send_pc: usize,
    pub grant_recv_pc: usize,
    /// First fragment, wire-sourced; `_last` variants append the
    /// header-prefetch coda (five line-card words to the processor) so
    /// the next packet's header parse overlaps this stream's tail.
    pub stream_wf_last_pc: usize,
    pub stream_wf_more_pc: usize,
    pub stream_wc_more_pc: usize,
    pub stream_wc_last_pc: usize,
    /// Processor-sourced fragment (always a packet's last), with coda.
    pub stream_proc_pc: usize,
    /// Processor-sourced fragment without the prefetch coda (used by the
    /// VOQ ingress, whose intake is decoupled from streaming).
    pub stream_proc_nc_pc: usize,
}

/// Words of next-packet header prefetched at the end of a final-fragment
/// stream routine. The line always carries words (idle frames between
/// packets), so the coda never wedges.
pub const PREFETCH_WORDS: usize = raw_net::IPV4_HEADER_WORDS;

pub const INGEST_CHUNKS: [usize; 4] = [1, 2, 4, 8];

pub fn gen_ingress_switch(p: &PortTiles, quantum: usize) -> IngressCode {
    assert!(
        quantum > raw_net::IPV4_HEADER_WORDS,
        "quantum must exceed the IP header"
    );
    let to_xbar = SwPort::from_dir(p.ig_to_xbar);
    let from_wire = SwPort::from_dir(p.in_edge);
    let mut instrs = vec![SwitchInstr::wait_pc()];

    let mut ingest_pc = [0usize; 4];
    for (i, n) in INGEST_CHUNKS.iter().enumerate() {
        ingest_pc[i] = instrs.len();
        for _ in 0..*n {
            instrs.push(SwitchInstr::new(
                vec![Route::new(NET0, from_wire, SwPort::Proc)],
                SwitchCtrl::Next,
            ));
        }
        instrs.push(SwitchInstr::wait_pc());
    }

    let bid_pc = instrs.len();
    instrs.push(SwitchInstr::new(
        vec![
            Route::new(NET0, SwPort::Proc, to_xbar),
            Route::new(NET0, to_xbar, SwPort::Proc),
        ],
        SwitchCtrl::Next,
    ));
    instrs.push(SwitchInstr::wait_pc());

    // Split bid: send now, collect the grant later, so the switch is
    // free for ingest routines while the crossbar's quantum runs.
    let bid_send_pc = instrs.len();
    instrs.push(SwitchInstr::new(
        vec![Route::new(NET0, SwPort::Proc, to_xbar)],
        SwitchCtrl::Next,
    ));
    instrs.push(SwitchInstr::wait_pc());
    let grant_recv_pc = instrs.len();
    instrs.push(SwitchInstr::new(
        vec![Route::new(NET0, to_xbar, SwPort::Proc)],
        SwitchCtrl::Next,
    ));
    instrs.push(SwitchInstr::wait_pc());

    let proc_route = || {
        SwitchInstr::new(
            vec![Route::new(NET0, SwPort::Proc, to_xbar)],
            SwitchCtrl::Next,
        )
    };
    let wire_route =
        || SwitchInstr::new(vec![Route::new(NET0, from_wire, to_xbar)], SwitchCtrl::Next);
    let prefetch = || {
        SwitchInstr::new(
            vec![Route::new(NET0, from_wire, SwPort::Proc)],
            SwitchCtrl::Next,
        )
    };

    let mut stream_routine = |proc_words: usize, wire_words: usize, coda: bool| -> usize {
        let pc = instrs.len();
        for _ in 0..proc_words {
            instrs.push(proc_route());
        }
        for _ in 0..wire_words {
            instrs.push(wire_route());
        }
        if coda {
            for _ in 0..PREFETCH_WORDS {
                instrs.push(prefetch());
            }
        }
        instrs.push(SwitchInstr::wait_pc());
        pc
    };

    let hw = raw_net::IPV4_HEADER_WORDS;
    let stream_wf_last_pc = stream_routine(1 + hw, quantum - hw, true);
    let stream_wf_more_pc = stream_routine(1 + hw, quantum - hw, false);
    let stream_wc_more_pc = stream_routine(1, quantum, false);
    let stream_wc_last_pc = stream_routine(1, quantum, true);
    let stream_proc_pc = stream_routine(1 + quantum, 0, true);
    let stream_proc_nc_pc = stream_routine(1 + quantum, 0, false);

    IngressCode {
        program: Arc::new(SwitchProgram::new(instrs)),
        ingest_pc,
        bid_pc,
        bid_send_pc,
        grant_recv_pc,
        stream_wf_last_pc,
        stream_wf_more_pc,
        stream_wc_more_pc,
        stream_wc_last_pc,
        stream_proc_pc,
        stream_proc_nc_pc,
    }
}

/// Egress switch code (network 0). Two modes:
///
/// * **cut-through** (`cut_pc`): the fragment tag is duplicated to the
///   processor *and* the output line; the body words stream straight to
///   the line card without touching the processor — the configuration
///   that lets a port sustain ~1 word/cycle;
/// * **store** (`store_pc`): everything is delivered to the processor,
///   which buffers and reassembles (§4.2) and later streams the finished
///   packet out over network 1.
pub struct EgressCode {
    pub program: Arc<SwitchProgram>,
    pub cut_pc: usize,
    pub store_pc: usize,
}

pub fn gen_egress_switch(p: &PortTiles, quantum: usize) -> EgressCode {
    let from_xbar = SwPort::from_dir(p.eg_from_xbar);
    let to_edge = SwPort::from_dir(p.out_edge);
    let mut instrs = vec![SwitchInstr::wait_pc()];
    let cut_pc = instrs.len();
    // Tag: multicast to processor + line.
    instrs.push(SwitchInstr::new(
        vec![
            Route::new(NET0, from_xbar, SwPort::Proc),
            Route::new(NET0, from_xbar, to_edge),
        ],
        SwitchCtrl::Next,
    ));
    for _ in 0..quantum {
        instrs.push(SwitchInstr::new(
            vec![Route::new(NET0, from_xbar, to_edge)],
            SwitchCtrl::Next,
        ));
    }
    instrs.push(SwitchInstr::wait_pc());
    let store_pc = instrs.len();
    for _ in 0..quantum + 1 {
        instrs.push(SwitchInstr::new(
            vec![Route::new(NET0, from_xbar, SwPort::Proc)],
            SwitchCtrl::Next,
        ));
    }
    instrs.push(SwitchInstr::wait_pc());
    EgressCode {
        program: Arc::new(SwitchProgram::new(instrs)),
        cut_pc,
        store_pc,
    }
}

/// Egress network-1 switch code: a free-running processor-to-line loop
/// used by store-and-forward output streaming.
pub fn gen_egress_net1(p: &PortTiles) -> SwitchProgram {
    let to_edge = SwPort::from_dir(p.out_edge);
    SwitchProgram::new(vec![SwitchInstr::new(
        vec![Route::new(NET1, SwPort::Proc, to_edge)],
        SwitchCtrl::Jump(0),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedPolicy;
    use crate::layout::RouterLayout;

    #[test]
    fn minimized_program_fits_switch_imem() {
        let cs = ConfigSpace::enumerate(SchedPolicy::ShortestFirst);
        let l = RouterLayout::canonical();
        for quantum in [16usize, 64, 256] {
            for p in &l.ports {
                let code = gen_crossbar_switch(p, &cs, quantum);
                assert!(
                    code.program.fits_switch_imem(),
                    "quantum {quantum}: {} instructions exceed switch IMEM",
                    code.program.len()
                );
            }
        }
    }

    #[test]
    fn unminimized_program_cannot_fit() {
        // §6.1: 2,500 configurations leave ~3.3 instructions each — far
        // less than a body routine needs. The naive layout overflows for
        // every practical quantum.
        for quantum in [16usize, 64, 256] {
            assert!(
                unminimized_instr_count(quantum) > raw_sim::SWITCH_IMEM_INSTRS,
                "quantum {quantum}"
            );
        }
        // And by a huge factor at the evaluation quantum.
        assert!(unminimized_instr_count(64) > 20 * raw_sim::SWITCH_IMEM_INSTRS);
    }

    #[test]
    fn idle_config_reuses_sync_point() {
        let cs = ConfigSpace::enumerate(SchedPolicy::ShortestFirst);
        let l = RouterLayout::canonical();
        let code = gen_crossbar_switch(&l.ports[0], &cs, 16);
        let idle_id = cs
            .configs
            .iter()
            .position(|c| c.is_idle())
            .expect("an idle config exists");
        assert_eq!(code.cfg_pc[idle_id], 0);
    }

    #[test]
    fn duplicate_switch_code_is_shared() {
        let cs = ConfigSpace::enumerate(SchedPolicy::ShortestFirst);
        let l = RouterLayout::canonical();
        let code = gen_crossbar_switch(&l.ports[0], &cs, 16);
        // Configs that differ only in the blocked flag share a routine.
        use std::collections::BTreeMap;
        let mut pc_of: BTreeMap<_, usize> = BTreeMap::new();
        for (i, lc) in cs.configs.iter().enumerate() {
            let key = switch_code_key(lc);
            if let Some(&pc) = pc_of.get(&key) {
                assert_eq!(code.cfg_pc[i], pc, "config {i} must share its routine");
            } else {
                pc_of.insert(key, code.cfg_pc[i]);
            }
        }
    }

    #[test]
    fn body_routes_respect_tile_orientation_and_skew() {
        let l = RouterLayout::canonical();
        let lc = LocalConfig {
            out: Client::CwPrev,
            cw: Client::In,
            ccw: Client::None,
            out_dist: 1,
            cw_dist: 0,
            ccw_dist: 0,
            blocked: false,
        };
        let q = 8usize;
        // Port 0's crossbar tile (5): out=N, cw=E, in=W, cwprev arrives S.
        let instrs = body_instrs(&l.ports[0], &lc, q);
        // Skewed by the out server's distance 1: one prologue + one
        // epilogue instruction around q+1 steady-state ones.
        assert_eq!(instrs.len(), q + 2);
        // Prologue: only the distance-0 server (In -> cw).
        assert_eq!(
            instrs[0].routes,
            vec![Route::new(NET0, SwPort::W, SwPort::E)]
        );
        // Steady state: both servers.
        assert_eq!(instrs[1].routes.len(), 2);
        assert!(instrs[1]
            .routes
            .contains(&Route::new(NET0, SwPort::S, SwPort::N)));
        // Epilogue: only the distance-1 server.
        assert_eq!(
            instrs[q + 1].routes,
            vec![Route::new(NET0, SwPort::S, SwPort::N)]
        );
        // Port 2's crossbar tile (10) mirrors the orientation.
        let instrs = body_instrs(&l.ports[2], &lc, q);
        assert!(instrs[1]
            .routes
            .contains(&Route::new(NET0, SwPort::N, SwPort::S)));
        assert!(instrs[1]
            .routes
            .contains(&Route::new(NET0, SwPort::E, SwPort::W)));
    }

    #[test]
    fn ingress_and_egress_code_shapes() {
        let l = RouterLayout::canonical();
        let q = 16usize;
        let ic = gen_ingress_switch(&l.ports[0], q);
        // The bid instruction carries both directions.
        assert_eq!(ic.program.instrs[ic.bid_pc].routes.len(), 2);
        // Wire-first-last stream: 6 proc words, q-5 wire words, 5-word
        // header-prefetch coda, WaitPc.
        let s = ic.stream_wf_last_pc;
        assert_eq!(ic.program.instrs[s].routes[0].src, SwPort::Proc);
        assert_eq!(
            ic.program.instrs[s + 6].routes[0].src,
            SwPort::from_dir(l.ports[0].in_edge)
        );
        let coda0 = s + 6 + (q - 5);
        assert_eq!(ic.program.instrs[coda0].routes[0].dst, SwPort::Proc);
        assert_eq!(
            ic.program.instrs[coda0 + PREFETCH_WORDS].ctrl,
            SwitchCtrl::WaitPc
        );
        // Wire-first-more has no coda.
        let m = ic.stream_wf_more_pc;
        assert_eq!(ic.program.instrs[m + 6 + (q - 5)].ctrl, SwitchCtrl::WaitPc);
        // Continuation stream: tag then q wire words.
        let c = ic.stream_wc_more_pc;
        assert_eq!(ic.program.instrs[c].routes[0].src, SwPort::Proc);
        assert_eq!(ic.program.instrs[c + 1 + q].ctrl, SwitchCtrl::WaitPc);
        // Ingest chunks are 1/2/4/8 wire-to-proc routes.
        for (i, n) in INGEST_CHUNKS.iter().enumerate() {
            let pc = ic.ingest_pc[i];
            for k in 0..*n {
                assert_eq!(ic.program.instrs[pc + k].routes[0].dst, SwPort::Proc);
            }
            assert_eq!(ic.program.instrs[pc + n].ctrl, SwitchCtrl::WaitPc);
        }
        let ec = gen_egress_switch(&l.ports[0], q);
        // Cut routine starts with the tag multicast.
        assert_eq!(ec.program.instrs[ec.cut_pc].routes.len(), 2);
        assert_eq!(ec.program.instrs[ec.store_pc].routes.len(), 1);
    }
}
