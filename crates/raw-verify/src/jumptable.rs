//! Analysis 4: the jump-table model check (`RV4xx`).
//!
//! The running router never calls [`raw_xbar::config::schedule`] — it
//! indexes the minimized per-tile jump tables that `ConfigSpace`
//! enumeration produced at compile time. This analysis closes the loop
//! by replaying **every** global `(token, headers)` point (2,500 unicast,
//! 16⁴·4 multicast) against the `schedule()` oracle and checking:
//!
//! * `RV401` — the local configuration the jump table selects differs
//!   from what the oracle derives for that tile;
//! * `RV402` — the grant bit differs from the oracle's grant;
//! * `RV403` — the oracle itself grants one output to two flows;
//! * `RV404` — the token holder's non-empty bid is denied (the §5.4
//!   fairness guarantee);
//! * `RV405` — a generated body routine does not implement its local
//!   configuration (decoded instruction-by-instruction against the
//!   expansion-number pipeline model of §6.2);
//! * `RV406` — the §6.5 assembly jump-table image disagrees with the
//!   generated switch code, or the generated crossbar tile assembly
//!   fails to assemble.
//!
//! The same invariants are checked on the generalized `scale::ring_walk`
//! (n = 4 exhaustively, larger rings on systematic and pseudorandom
//! samples), so the §8.5 scaling model stays consistent with the 4-port
//! oracle.

use raw_sim::{Route, SwPort, SwitchCtrl, NET0};
use raw_xbar::asm_xbar::gen_crossbar_asm_source;
use raw_xbar::codegen::CrossbarCode;
use raw_xbar::config::{
    schedule, Bid, Client, ConfigSpace, GLOBAL_SPACE, GLOBAL_SPACE_MCAST, HDR_VALUES,
    HDR_VALUES_MCAST,
};
use raw_xbar::layout::{PortTiles, RouterLayout, NPORTS};
use raw_xbar::RouterImage;

use crate::{Analysis, Diag};

/// Diagnostics reported per space before suppression (a corrupt table
/// would otherwise flood the report with hundreds of thousands of
/// entries).
const DIAG_CAP: usize = 8;

struct Capped<'a> {
    diags: &'a mut Vec<Diag>,
    emitted: usize,
}

impl<'a> Capped<'a> {
    fn new(diags: &'a mut Vec<Diag>) -> Capped<'a> {
        Capped { diags, emitted: 0 }
    }

    fn push(&mut self, d: Diag) {
        if self.emitted < DIAG_CAP {
            self.diags.push(d);
        } else if self.emitted == DIAG_CAP {
            let mut d = d;
            d.msg = format!(
                "further diagnostics in {} suppressed after {DIAG_CAP}",
                d.program
            );
            self.diags.push(d);
        }
        self.emitted += 1;
    }
}

/// Points and space size covered by one [`check_space`] run.
pub struct SpaceCoverage {
    pub points: u64,
    pub space: u64,
}

/// The space's name in the report: `jump-table-{unicast,multicast}-`
/// and the one walk, shortest-first.
pub(crate) fn space_name(cs: &ConfigSpace) -> String {
    let alphabet = if cs.multicast { "multicast" } else { "unicast" };
    format!("jump-table-{alphabet}-ShortestFirst")
}

/// Oracle sanity invariants on one scheduling outcome, with the grant
/// vector taken as *data* so seeded-mutant tests can drive the checks:
/// no output granted twice (`RV403`), the token holder's non-empty bid
/// granted (`RV404`).
pub fn grant_invariants(
    bids: &[Bid; NPORTS],
    token: u8,
    granted: &[bool; NPORTS],
) -> Option<(&'static str, String)> {
    let mut outputs = [false; NPORTS];
    for i in 0..NPORTS {
        if !granted[i] {
            continue;
        }
        for p in bids[i].ports() {
            if outputs[p as usize] {
                return Some((
                    "RV403",
                    format!("output {p} granted to two flows (bids {bids:?}, token {token})"),
                ));
            }
            outputs[p as usize] = true;
        }
    }
    if !bids[token as usize].is_empty() && !granted[token as usize] {
        return Some((
            "RV404",
            format!(
                "token holder {token}'s bid {:?} was denied (bids {bids:?})",
                bids[token as usize]
            ),
        ));
    }
    None
}

/// Exhaustively replay every global index of `cs` against the
/// `schedule()` oracle.
pub fn check_space(cs: &ConfigSpace, diags: &mut Vec<Diag>) -> SpaceCoverage {
    let name = space_name(cs);
    let (hdr_values, space) = if cs.multicast {
        (HDR_VALUES_MCAST, GLOBAL_SPACE_MCAST)
    } else {
        (HDR_VALUES, GLOBAL_SPACE)
    };
    let mut capped = Capped::new(diags);
    let mut points = 0u64;

    for token in 0..NPORTS as u8 {
        let mut hdrs = [0u8; NPORTS];
        loop {
            let bids: [Bid; NPORTS] = std::array::from_fn(|i| {
                if cs.multicast {
                    Bid(hdrs[i])
                } else if hdrs[i] as usize == NPORTS {
                    Bid::EMPTY
                } else {
                    Bid::unicast(hdrs[i])
                }
            });
            let sched = schedule(bids, token);
            let gi = if cs.multicast {
                raw_xbar::config::global_index_mcast(token, hdrs)
            } else {
                raw_xbar::config::global_index(token, hdrs)
            };
            for t in 0..NPORTS {
                let id = cs.jump[t][gi] as usize;
                let table_lc = cs.configs[id];
                if table_lc != sched.locals[t] {
                    capped.push(
                        Diag::new(
                            "RV401",
                            Analysis::JumpTable,
                            &name,
                            format!(
                                "global index {gi} (token {token}, hdrs {hdrs:?}): table entry \
                                 {id} = {table_lc:?} but the oracle derives {:?}",
                                sched.locals[t]
                            ),
                        )
                        .at_tile(raw_sim::TileId(t as u16)),
                    );
                }
                if cs.grant[t][gi] != sched.granted[t] {
                    capped.push(
                        Diag::new(
                            "RV402",
                            Analysis::JumpTable,
                            &name,
                            format!(
                                "global index {gi} (token {token}, hdrs {hdrs:?}): table grant \
                                 {} but the oracle grants {}",
                                cs.grant[t][gi], sched.granted[t]
                            ),
                        )
                        .at_tile(raw_sim::TileId(t as u16)),
                    );
                }
            }
            if let Some((code, msg)) = grant_invariants(&bids, token, &sched.granted) {
                capped.push(Diag::new(code, Analysis::JumpTable, &name, msg));
            }
            points += 1;

            // Odometer over the header alphabet.
            let mut c = 0;
            loop {
                hdrs[c] += 1;
                if (hdrs[c] as usize) < hdr_values {
                    break;
                }
                hdrs[c] = 0;
                c += 1;
                if c == NPORTS {
                    break;
                }
            }
            if c == NPORTS {
                break;
            }
        }
    }
    SpaceCoverage {
        points,
        space: space as u64,
    }
}

/// Mesh direction a client's words arrive from at this tile (the inverse
/// of the codegen's wiring: data traveling clockwise arrives from the
/// counterclockwise neighbor's direction).
fn client_src(p: &PortTiles, c: Client) -> Option<SwPort> {
    match c {
        Client::None => None,
        Client::In => Some(SwPort::from_dir(p.x_in)),
        Client::CwPrev => Some(SwPort::from_dir(p.x_ccw)),
        Client::CcwPrev => Some(SwPort::from_dir(p.x_cw)),
    }
}

/// Decode every minimized body routine of `code` back to its
/// `LocalConfig` and compare against the §6.2 pipeline model: server
/// `(client, dist)` must occupy exactly instructions `dist ..
/// dist + quantum + 1` of its routine, and the routine must end at a
/// `WaitPc` sync point. Reports `RV405`. Returns configurations checked.
pub fn check_body_routines_code(
    p: &PortTiles,
    cs: &ConfigSpace,
    code: &CrossbarCode,
    quantum: usize,
    diags: &mut Vec<Diag>,
) -> u64 {
    let name = format!("crossbar-switch-t{}-q{quantum}", p.crossbar);
    let mut capped = Capped::new(diags);
    let frag_len = quantum + 1;
    let rv405 = |pc: usize, id: usize, msg: String| {
        Diag::new(
            "RV405",
            Analysis::JumpTable,
            &name,
            format!("config {id}: {msg}"),
        )
        .at_tile(p.crossbar)
        .at_net(NET0)
        .at_pc(pc)
    };

    for (id, lc) in cs.configs.iter().enumerate() {
        let pc = code.cfg_pc[id];
        if lc.is_idle() {
            if pc != 0 {
                let d = rv405(
                    pc,
                    id,
                    "idle configuration must reuse the PC-0 sync point".into(),
                );
                capped.push(d);
            }
            continue;
        }
        let servers: Vec<(SwPort, SwPort, usize)> = [
            (lc.out, lc.out_dist, SwPort::from_dir(p.x_out)),
            (lc.cw, lc.cw_dist, SwPort::from_dir(p.x_cw)),
            (lc.ccw, lc.ccw_dist, SwPort::from_dir(p.x_ccw)),
        ]
        .into_iter()
        .filter_map(|(client, dist, dst)| {
            client_src(p, client).map(|src| (src, dst, dist as usize))
        })
        .collect();
        let depth = servers.iter().map(|&(_, _, d)| d).max().unwrap_or(0);
        let total = frag_len + depth;
        if pc + total >= code.program.len() {
            let d = rv405(
                pc,
                id,
                format!("routine truncated: needs {total} instructions",),
            );
            capped.push(d);
            continue;
        }
        for i in 0..total {
            let mut expected: Vec<Route> = servers
                .iter()
                .filter(|&&(_, _, d)| i >= d && i < d + frag_len)
                .map(|&(src, dst, _)| Route::new(NET0, src, dst))
                .collect();
            let mut actual = code.program.instrs[pc + i].routes.clone();
            expected.sort_by_key(|r| (r.src, r.dst));
            actual.sort_by_key(|r| (r.src, r.dst));
            if expected != actual || code.program.instrs[pc + i].ctrl != SwitchCtrl::Next {
                let d = rv405(
                    pc + i,
                    id,
                    format!(
                        "instruction {i} routes {actual:?} do not implement the pipeline's \
                         {expected:?}"
                    ),
                );
                capped.push(d);
            }
        }
        if code.program.instrs[pc + total].ctrl != SwitchCtrl::WaitPc {
            let d = rv405(
                pc + total,
                id,
                "routine does not end at a WaitPc sync point".into(),
            );
            capped.push(d);
        }
    }
    cs.configs.len() as u64
}

/// Decode the body routines of every crossbar tile of `image`, whose
/// quantum is `quantum` words.
pub fn check_body_routines(image: &RouterImage, quantum: usize, diags: &mut Vec<Diag>) -> u64 {
    let mut n = 0;
    for (p, code) in RouterLayout::canonical().ports.iter().zip(&image.ports) {
        n = check_body_routines_code(p, &image.cs, &code.crossbar, quantum, diags);
    }
    n
}

/// Compare an assembly jump-table image against the generated switch
/// code: entry `gi` must be `cfg_pc[jump[tile][gi]] | grant << 31`.
/// Reports `RV406`. Returns entries checked.
pub fn check_table_image(
    cs: &ConfigSpace,
    tile: usize,
    code: &CrossbarCode,
    img: &[u32],
    diags: &mut Vec<Diag>,
) -> u64 {
    let name = format!("asm-crossbar-port{tile}");
    let mut capped = Capped::new(diags);
    if img.len() != cs.jump[tile].len() {
        capped.push(Diag::new(
            "RV406",
            Analysis::JumpTable,
            &name,
            format!(
                "table image has {} entries; the global space has {}",
                img.len(),
                cs.jump[tile].len()
            ),
        ));
        return 0;
    }
    for (gi, &entry) in img.iter().enumerate() {
        let id = cs.jump[tile][gi] as usize;
        let expected = code.cfg_pc[id] as u32 | (u32::from(cs.grant[tile][gi]) << 31);
        if entry != expected {
            capped.push(Diag::new(
                "RV406",
                Analysis::JumpTable,
                &name,
                format!("table entry {gi} is {entry:#x}; switch code expects {expected:#x}"),
            ));
        }
    }
    img.len() as u64
}

/// The §6.5 assembly crossbar of `image` (an assembly-crossbar image):
/// the jump table each crossbar tile loads must agree with its switch
/// code, and the generated tile assembly must assemble with every
/// instruction passing ISA validation.
pub fn check_asm_crossbar(image: &RouterImage, diags: &mut Vec<Diag>) -> u64 {
    let mut n = 0;
    for (port, code) in image.ports.iter().enumerate() {
        n += check_table_image(&image.cs, port, &code.crossbar, &code.table, diags);
        let src = gen_crossbar_asm_source(port, code.crossbar.hdr_pc);
        if let Err(e) = raw_isa::assemble(&src) {
            diags.push(Diag::new(
                "RV406",
                Analysis::JumpTable,
                &format!("asm-crossbar-port{port}"),
                format!("generated crossbar assembly fails to assemble: {e}"),
            ));
        }
    }
    n
}

/// Tiny deterministic PRNG for the large-ring samples (the verifier must
/// be reproducible run to run).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Ring-walk invariants with the grant vector as data (the generalized
/// form of [`grant_invariants`] for arbitrary ring sizes).
pub fn ring_walk_invariants(
    bids: &[Option<usize>],
    token: usize,
    granted: &[bool],
) -> Option<(&'static str, String)> {
    let n = bids.len();
    let mut outputs = vec![false; n];
    for i in 0..n {
        if !granted[i] {
            continue;
        }
        let Some(dst) = bids[i] else {
            return Some((
                "RV403",
                format!("input {i} granted with no bid (bids {bids:?}, token {token})"),
            ));
        };
        if outputs[dst] {
            return Some((
                "RV403",
                format!("output {dst} granted twice (bids {bids:?}, token {token})"),
            ));
        }
        outputs[dst] = true;
    }
    if bids[token].is_some() && !granted[token] {
        return Some((
            "RV404",
            format!("token holder {token}'s bid denied (bids {bids:?})"),
        ));
    }
    None
}

/// Check `scale::ring_walk`: n = 4 exhaustively (including equivalence
/// with the 4-port `schedule()` oracle), the requested larger ring sizes
/// on shifted-permutation and pseudorandom bid patterns. Returns points
/// checked.
pub fn check_ring_walk(ns: &[usize], diags: &mut Vec<Diag>) -> u64 {
    let name = "scale-ring-walk";
    let mut capped = Capped::new(diags);
    let mut points = 0u64;

    // n = 4: exhaustive over {empty, 0..3}^4 x token, cross-checked
    // against the unicast oracle (shortest-first is what ring_walk
    // implements).
    let mut bids4 = [None::<usize>; 4];
    for enc in 0..5u32.pow(4) {
        let mut e = enc;
        for b in bids4.iter_mut() {
            let v = e % 5;
            *b = if v == 4 { None } else { Some(v as usize) };
            e /= 5;
        }
        for token in 0..4usize {
            let g = raw_xbar::scale::ring_walk(&bids4, token);
            if let Some((code, msg)) = ring_walk_invariants(&bids4, token, &g) {
                capped.push(Diag::new(code, Analysis::JumpTable, name, msg));
            }
            let sched = schedule(
                std::array::from_fn(|i| match bids4[i] {
                    Some(d) => Bid::unicast(d as u8),
                    None => Bid::EMPTY,
                }),
                token as u8,
            );
            if g != sched.granted {
                capped.push(Diag::new(
                    "RV402",
                    Analysis::JumpTable,
                    name,
                    format!(
                        "ring_walk grants {g:?} but the 4-port oracle grants {:?} \
                         (bids {bids4:?}, token {token})",
                        sched.granted
                    ),
                ));
            }
            points += 1;
        }
    }

    // Larger rings: shifted permutations (every input to input+k) and
    // pseudorandom samples.
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for &n in ns {
        for token in 0..n {
            for k in 0..n {
                let bids: Vec<Option<usize>> = (0..n).map(|i| Some((i + k) % n)).collect();
                let g = raw_xbar::scale::ring_walk(&bids, token);
                if let Some((code, msg)) = ring_walk_invariants(&bids, token, &g) {
                    capped.push(Diag::new(code, Analysis::JumpTable, name, msg));
                }
                points += 1;
            }
        }
        for _ in 0..256 {
            let bids: Vec<Option<usize>> = (0..n)
                .map(|_| {
                    if rng.below(8) == 0 {
                        None
                    } else {
                        Some(rng.below(n))
                    }
                })
                .collect();
            let token = rng.below(n);
            let g = raw_xbar::scale::ring_walk(&bids, token);
            if let Some((code, msg)) = ring_walk_invariants(&bids, token, &g) {
                capped.push(Diag::new(code, Analysis::JumpTable, name, msg));
            }
            points += 1;
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_xbar::config::SchedPolicy;
    use std::sync::Arc;

    fn clone_space(cs: &ConfigSpace) -> ConfigSpace {
        ConfigSpace {
            configs: cs.configs.clone(),
            jump: cs.jump.clone(),
            grant: cs.grant.clone(),
            multicast: cs.multicast,
        }
    }

    #[test]
    fn pristine_unicast_space_passes() {
        let cs = ConfigSpace::enumerate(SchedPolicy::ShortestFirst);
        let mut diags = Vec::new();
        let c = check_space(&cs, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(c.points, GLOBAL_SPACE as u64);
        assert_eq!(c.space, GLOBAL_SPACE as u64);
    }

    #[test]
    fn corrupted_jump_entry_is_rv401() {
        let base = ConfigSpace::enumerate(SchedPolicy::ShortestFirst);
        let mut cs = clone_space(&base);
        // Point one entry at a different (existing) configuration.
        let gi = raw_xbar::config::global_index(0, [2, 3, 0, 1]);
        let cur = cs.jump[1][gi];
        cs.jump[1][gi] = if cur == 0 { 1 } else { 0 };
        let mut diags = Vec::new();
        check_space(&cs, &mut diags);
        assert!(diags.iter().any(|d| d.code == "RV401"), "{diags:?}");
    }

    #[test]
    fn flipped_grant_bit_is_rv402() {
        let base = ConfigSpace::enumerate(SchedPolicy::ShortestFirst);
        let mut cs = clone_space(&base);
        let gi = raw_xbar::config::global_index(2, [0, 1, 2, 3]);
        cs.grant[3][gi] = !cs.grant[3][gi];
        let mut diags = Vec::new();
        check_space(&cs, &mut diags);
        assert!(diags.iter().any(|d| d.code == "RV402"), "{diags:?}");
    }

    #[test]
    fn doctored_grants_trip_the_oracle_invariants() {
        // Two flows granted the same output.
        let bids = [Bid::unicast(1), Bid::unicast(1), Bid::EMPTY, Bid::EMPTY];
        let (code, _) = grant_invariants(&bids, 0, &[true, true, false, false]).expect("caught");
        assert_eq!(code, "RV403");
        // Token holder with a bid denied.
        let (code, _) = grant_invariants(&bids, 0, &[false, true, false, false]).expect("caught");
        assert_eq!(code, "RV404");
        // The real oracle outcome passes.
        let s = schedule(bids, 0);
        assert!(grant_invariants(&bids, 0, &s.granted).is_none());
    }

    #[test]
    fn generated_body_routines_decode_cleanly() {
        let image = RouterImage::of(16, false, false).unwrap();
        let mut diags = Vec::new();
        let n = check_body_routines(&image, 16, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(n, image.cs.configs.len() as u64);
    }

    #[test]
    fn mutated_body_routine_is_rv405() {
        let image = RouterImage::of(16, false, false).unwrap();
        let cs = &image.cs;
        let p = &RouterLayout::canonical().ports[0];
        let xb = &image.ports[0].crossbar;
        // A copy of port 0's crossbar code; the image is left as it is.
        let mut code = CrossbarCode {
            program: Arc::clone(&xb.program),
            hdr_pc: xb.hdr_pc,
            cfg_pc: xb.cfg_pc.clone(),
        };
        // Reroute one instruction of the first non-idle routine.
        let id = (0..cs.configs.len())
            .find(|&i| !cs.configs[i].is_idle())
            .unwrap();
        let pc = code.cfg_pc[id];
        let prog = Arc::make_mut(&mut code.program);
        let routed = (pc..prog.len())
            .find(|&i| !prog.instrs[i].routes.is_empty())
            .unwrap();
        let r = &mut prog.instrs[routed].routes[0];
        r.src = if r.src == SwPort::Proc {
            SwPort::N
        } else {
            SwPort::Proc
        };
        let mut diags = Vec::new();
        check_body_routines_code(p, cs, &code, 16, &mut diags);
        assert!(diags.iter().any(|d| d.code == "RV405"), "{diags:?}");
    }

    #[test]
    fn asm_table_checks_pass_and_catch_corruption() {
        let image = RouterImage::of(16, true, true).unwrap();
        let mut diags = Vec::new();
        let n = check_asm_crossbar(&image, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(n, 4 * GLOBAL_SPACE_MCAST as u64);

        // Corrupt one entry of a copy of the table tile 0 loads: RV406.
        let code = &image.ports[0];
        let mut img = code.table.clone();
        img[42] ^= 1;
        let mut diags = Vec::new();
        check_table_image(&image.cs, 0, &code.crossbar, &img, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RV406");
    }

    #[test]
    fn ring_walk_invariants_hold_and_mutants_are_caught() {
        let mut diags = Vec::new();
        let points = check_ring_walk(&[6, 8], &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(points > 4 * 625, "{points} points");

        // Doctored grant vectors trip the generalized invariants.
        let bids = vec![Some(2), Some(2), None, Some(0)];
        let (code, _) =
            ring_walk_invariants(&bids, 0, &[true, true, false, false]).expect("caught");
        assert_eq!(code, "RV403");
        let (code, _) =
            ring_walk_invariants(&bids, 0, &[false, false, false, true]).expect("caught");
        assert_eq!(code, "RV404");
    }

    #[test]
    fn diagnostics_are_capped_per_space() {
        let base = ConfigSpace::enumerate(SchedPolicy::ShortestFirst);
        let mut cs = clone_space(&base);
        // Corrupt every grant bit of tile 0: tens of thousands of
        // violations must collapse to the cap plus one summary line.
        for g in cs.grant[0].iter_mut() {
            *g = !*g;
        }
        let mut diags = Vec::new();
        check_space(&cs, &mut diags);
        assert_eq!(diags.len(), DIAG_CAP + 1, "{}", diags.len());
    }
}
