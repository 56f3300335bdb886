//! Analyses 2 and 3: the abstract lockstep interpreter (`RV2xx`) and
//! deadlock-freedom (`RV3xx`).
//!
//! Steps every switch program of a [`FabricModel`] together, one abstract
//! cycle at a time, mirroring the machine's semantics exactly where they
//! matter for dataflow:
//!
//! * routes of one instruction that share a source fire **together**
//!   (one pop, one push per destination — the crossbar's multicast
//!   duplication);
//! * an instruction **completes** only when all of its routes have
//!   fired; the switch stalls in place until then;
//! * a word pushed into a link FIFO at step *s* becomes visible at
//!   *s*+1;
//! * a processor-loaded PC takes effect the step after the switch halts
//!   at its `WaitPc` (each slot's `script` lists the routine PCs its
//!   processor loads over one schedule period).
//!
//! The abstraction: link FIFOs have **infinite capacity** and record
//! their high-water mark. If the high-water mark stays within the
//! hardware depth ([`LINK_FIFO_DEPTH`]), backpressure never engages in
//! the real machine, so the capped machine's behavior coincides with the
//! abstract run and every property proven here transfers; if it
//! exceeds the depth, the schedule *requires* more buffering than the
//! hardware has (`RV204`). Tile processors are always-ready sources and
//! sinks (the maximal-rate abstraction) unless a slot declares a finite
//! `proc_words` budget. Declared external input ports supply words on
//! demand; declared external outputs always accept.
//!
//! At the end of a period (every scripted switch halted with its script
//! exhausted) the interpreter checks that no wire holds residual words
//! (`RV201` — every send matched by a receive) and that the FIFO bound
//! held (`RV204`). A step in which no switch makes progress is a stall:
//! the wait-for graph (blocked switch → producer of its empty source
//! wire) is extracted, and a cycle in it is the §5.5 static-network
//! deadlock (`RV301`); a stall with no cycle means a switch waits on a
//! producer that can never fire again (`RV302`). A run that exceeds the
//! step budget without completing reports `RV202`.

use std::collections::BTreeMap;

use raw_sim::{Dir, SwPort, SwitchCtrl, TileId, NET0, NET1};
use raw_xbar::config::Client;
use raw_xbar::layout::RouterLayout;
use raw_xbar::RouterImage;

use crate::{Analysis, Diag, FabricModel, SwitchSlot};

/// Link FIFO depth of the Raw prototype (words per static-network input
/// buffer): the machine's own [`raw_sim::LINK_FIFO_CAPACITY`].
pub const LINK_FIFO_DEPTH: u64 = raw_sim::LINK_FIFO_CAPACITY as u64;

/// Abstract steps before a run is declared livelocked (`RV202`).
pub const STEP_BUDGET: u64 = 10_000;

/// Result of one abstract run.
pub struct RunOutcome {
    pub steps: u64,
    pub max_high_water: u64,
}

#[derive(Default)]
struct WireState {
    /// Words visible to the consumer this step.
    avail: u64,
    /// Words pushed this step, visible next step.
    fresh: u64,
    /// Maximum end-of-step occupancy seen.
    hw: u64,
    pushed: u64,
    popped: u64,
}

struct SlotState {
    pc: usize,
    halted: bool,
    script_pos: usize,
    fired: Vec<bool>,
    proc_left: Option<usize>,
}

/// Input-FIFO key: words entering `tile` on `net` from direction `dir`.
type WireKey = (TileId, usize, Dir);

fn wire_label(w: &WireKey) -> String {
    format!("{}:{}:{}", w.0, w.1, w.2)
}

/// Run the abstract interpreter over one schedule period of `model`.
pub fn run(model: &FabricModel, diags: &mut Vec<Diag>) -> RunOutcome {
    let slots: Vec<&SwitchSlot> = model.slots.iter().filter(|s| !s.free_running).collect();
    let by_loc: BTreeMap<(TileId, usize), usize> = slots
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.tile, s.net), i))
        .collect();
    let mut st: Vec<SlotState> = slots
        .iter()
        .map(|s| SlotState {
            pc: 0,
            halted: false,
            script_pos: 0,
            fired: Vec::new(),
            proc_left: s.proc_words,
        })
        .collect();
    let mut wires: BTreeMap<WireKey, WireState> = BTreeMap::new();
    let mut max_hw = 0u64;
    let mut overran = vec![false; slots.len()];

    let diag = |code, analysis, msg: String| Diag::new(code, analysis, &model.name, msg);

    let mut step = 0u64;
    loop {
        if step >= STEP_BUDGET {
            diags.push(
                diag(
                    "RV202",
                    Analysis::Lockstep,
                    format!("schedule period did not complete within {STEP_BUDGET} abstract steps"),
                )
                .at_step(step as usize),
            );
            break;
        }

        // Phase 1: processor PC loads (one step after the halt).
        for (i, s) in slots.iter().enumerate() {
            let t = &mut st[i];
            if t.halted && !overran[i] && t.script_pos < s.script.len() {
                t.pc = s.script[t.script_pos];
                t.script_pos += 1;
                t.halted = false;
                t.fired.clear();
            }
        }

        // Phase 2: execute one abstract cycle of every live switch.
        let mut progress = false;
        for (i, s) in slots.iter().enumerate() {
            if st[i].halted || overran[i] {
                continue;
            }
            if st[i].pc >= s.program.len() {
                diags.push(
                    diag(
                        "RV203",
                        Analysis::Lockstep,
                        "switch ran off the end of its program without re-synchronizing at a \
                         WaitPc"
                            .into(),
                    )
                    .at_tile(s.tile)
                    .at_net(s.net)
                    .at_pc(st[i].pc)
                    .at_step(step as usize),
                );
                overran[i] = true;
                st[i].halted = true;
                progress = true;
                continue;
            }
            let instr = &s.program.instrs[st[i].pc];
            if st[i].fired.len() != instr.routes.len() {
                st[i].fired = vec![false; instr.routes.len()];
            }
            // Group-fire: all unfired routes sharing (net, src) fire
            // together once the source is visible (destinations always
            // have space in the abstract domain).
            let mut groups: BTreeMap<(usize, SwPort), Vec<usize>> = BTreeMap::new();
            for (r, route) in instr.routes.iter().enumerate() {
                if !st[i].fired[r] {
                    groups.entry((route.net, route.src)).or_default().push(r);
                }
            }
            for ((net, src), members) in groups {
                let available = match src {
                    SwPort::Proc => st[i].proc_left.map(|k| k > 0).unwrap_or(true),
                    _ => {
                        let d = src.dir().unwrap();
                        if model.dim.neighbor(s.tile, d).is_some() {
                            wires
                                .get(&(s.tile, net, d))
                                .map(|w| w.avail > 0)
                                .unwrap_or(false)
                        } else {
                            // Declared device: words on demand. Undeclared:
                            // nothing will ever arrive.
                            model.ext_in.contains(&(s.tile, net, d))
                        }
                    }
                };
                if !available {
                    continue;
                }
                // Pop the source once.
                match src {
                    SwPort::Proc => {
                        if let Some(k) = &mut st[i].proc_left {
                            *k -= 1;
                        }
                    }
                    _ => {
                        let d = src.dir().unwrap();
                        if model.dim.neighbor(s.tile, d).is_some() {
                            let w = wires.get_mut(&(s.tile, net, d)).unwrap();
                            w.avail -= 1;
                            w.popped += 1;
                        }
                    }
                }
                // Push to every destination in the group.
                for &r in &members {
                    let dst = instr.routes[r].dst;
                    if let Some(d) = dst.dir() {
                        if let Some(nb) = model.dim.neighbor(s.tile, d) {
                            let w = wires.entry((nb, net, d.opposite())).or_default();
                            w.fresh += 1;
                            w.pushed += 1;
                        }
                        // Off-grid: external sink (or dropped; conflict
                        // analysis flags the undeclared case).
                    }
                    // Proc destination: the csti FIFO, an abstract sink.
                    st[i].fired[r] = true;
                }
                progress = true;
            }
            if st[i].fired.iter().all(|&f| f) {
                match instr.ctrl {
                    SwitchCtrl::Next => st[i].pc += 1,
                    SwitchCtrl::Jump(t) => st[i].pc = t,
                    SwitchCtrl::WaitPc => st[i].halted = true,
                }
                st[i].fired.clear();
                progress = true;
            }
        }

        // Phase 3: merge fresh words and track the high-water mark.
        for w in wires.values_mut() {
            w.avail += w.fresh;
            w.fresh = 0;
            w.hw = w.hw.max(w.avail);
            max_hw = max_hw.max(w.hw);
        }

        let done = st
            .iter()
            .enumerate()
            .all(|(i, t)| t.halted && t.script_pos >= slots[i].script.len());
        if done {
            // Period-end checks: matched send/recv and the FIFO bound.
            for (key, w) in &wires {
                if w.avail > 0 {
                    diags.push(
                        diag(
                            "RV201",
                            Analysis::Lockstep,
                            format!(
                                "{} word(s) left unconsumed ({} pushed, {} popped)",
                                w.avail, w.pushed, w.popped
                            ),
                        )
                        .at_tile(key.0)
                        .at_net(key.1)
                        .at_wire(wire_label(key))
                        .at_step(step as usize),
                    );
                }
                if w.hw > LINK_FIFO_DEPTH {
                    diags.push(
                        diag(
                            "RV204",
                            Analysis::Lockstep,
                            format!(
                                "schedule requires {} buffered words; the link FIFO holds \
                                 {LINK_FIFO_DEPTH}",
                                w.hw
                            ),
                        )
                        .at_tile(key.0)
                        .at_net(key.1)
                        .at_wire(wire_label(key))
                        .at_step(step as usize),
                    );
                }
            }
            break;
        }

        if !progress {
            report_stall(model, &slots, &st, &by_loc, &wires, step, diags);
            break;
        }
        step += 1;
    }

    RunOutcome {
        steps: step,
        max_high_water: max_hw,
    }
}

/// A stalled step can never un-stall (the abstract state is a fixed
/// point), so classify it: a cycle in the wait-for graph is the static
/// deadlock of §5.5 (`RV301`); otherwise some switch waits on a producer
/// that is gone for good (`RV302`).
#[allow(clippy::too_many_arguments)]
fn report_stall(
    model: &FabricModel,
    slots: &[&SwitchSlot],
    st: &[SlotState],
    by_loc: &BTreeMap<(TileId, usize), usize>,
    wires: &BTreeMap<WireKey, WireState>,
    step: u64,
    diags: &mut Vec<Diag>,
) {
    // Blocked-on edges: slot index -> producer slot index.
    let mut edges: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut terminal: Vec<(usize, String)> = Vec::new();
    for (i, s) in slots.iter().enumerate() {
        if st[i].halted || st[i].pc >= s.program.len() {
            continue;
        }
        let instr = &s.program.instrs[st[i].pc];
        for (r, route) in instr.routes.iter().enumerate() {
            if *st[i].fired.get(r).unwrap_or(&false) {
                continue;
            }
            match route.src {
                SwPort::Proc => {
                    if st[i].proc_left == Some(0) {
                        terminal.push((
                            i,
                            "waiting on $csto but the processor's word budget is exhausted".into(),
                        ));
                    }
                }
                src => {
                    let d = src.dir().unwrap();
                    if wires
                        .get(&(s.tile, route.net, d))
                        .map(|w| w.avail > 0)
                        .unwrap_or(false)
                    {
                        continue; // a different unfired route is the blocker
                    }
                    match model.dim.neighbor(s.tile, d) {
                        Some(nb) => match by_loc.get(&(nb, route.net)) {
                            Some(&j) if !st[j].halted => edges.entry(i).or_default().push(j),
                            _ => terminal.push((
                                i,
                                format!(
                                    "waiting on wire {} whose producer (tile {nb}) has halted \
                                     for the period",
                                    wire_label(&(s.tile, route.net, d))
                                ),
                            )),
                        },
                        None => {
                            if !model.ext_in.contains(&(s.tile, route.net, d)) {
                                terminal.push((
                                    i,
                                    format!(
                                        "waiting on off-grid link {d} where no device is declared"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    // Cycle detection over the wait-for edges.
    if let Some(cycle) = find_cycle(&edges) {
        let path: Vec<String> = cycle
            .iter()
            .map(|&i| format!("tile {} net {}", slots[i].tile, slots[i].net))
            .collect();
        let first = cycle[0];
        diags.push(
            Diag::new(
                "RV301",
                Analysis::Deadlock,
                &model.name,
                format!("cyclic wait-for among switches: {}", path.join(" -> ")),
            )
            .at_tile(slots[first].tile)
            .at_net(slots[first].net)
            .at_pc(st[first].pc)
            .at_step(step as usize),
        );
        return;
    }
    if terminal.is_empty() {
        // Defensive: a stall with neither a cycle nor a dead producer
        // should be impossible; report it rather than loop.
        terminal.push((0, "stalled with no identifiable blocker".into()));
    }
    for (i, why) in terminal {
        diags.push(
            Diag::new("RV302", Analysis::Deadlock, &model.name, why)
                .at_tile(slots[i].tile)
                .at_net(slots[i].net)
                .at_pc(st[i].pc)
                .at_step(step as usize),
        );
    }
}

/// First cycle found in the wait-for graph, as a slot-index path.
fn find_cycle(edges: &BTreeMap<usize, Vec<usize>>) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<usize, Color> = BTreeMap::new();
    let mut stack: Vec<usize> = Vec::new();

    fn dfs(
        u: usize,
        edges: &BTreeMap<usize, Vec<usize>>,
        color: &mut BTreeMap<usize, Color>,
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color.insert(u, Color::Gray);
        stack.push(u);
        if let Some(next) = edges.get(&u) {
            for &v in next {
                match color.get(&v).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        let start = stack.iter().position(|&x| x == v).unwrap();
                        return Some(stack[start..].to_vec());
                    }
                    Color::White => {
                        if let Some(c) = dfs(v, edges, color, stack) {
                            return Some(c);
                        }
                    }
                    Color::Black => {}
                }
            }
        }
        stack.pop();
        color.insert(u, Color::Black);
        None
    }

    for &u in edges.keys() {
        if color.get(&u).copied().unwrap_or(Color::White) == Color::White {
            if let Some(c) = dfs(u, edges, &mut color, &mut stack) {
                return Some(c);
            }
            stack.clear();
        }
    }
    None
}

/// The router a [`RouterImage`] describes: every switch program the
/// image holds — the very `Arc`s a router built on it runs — at its
/// Figure 7-2 tile, with no steering scripts. Slot `4p + k` is port `p`'s
/// ingress, crossbar, egress and (free-running) egress network-1
/// program, for `k` = 0, 1, 2, 3.
pub fn router_model(image: &RouterImage, name: &str) -> FabricModel {
    let layout = RouterLayout::canonical();
    let mut m = FabricModel::new(name, layout.dim);
    for (p, code) in layout.ports.iter().zip(&image.ports) {
        m.slots.extend([
            SwitchSlot::new(p.ingress, NET0, code.ingress.program.clone(), vec![]),
            SwitchSlot::new(p.crossbar, NET0, code.crossbar.program.clone(), vec![]),
            SwitchSlot::new(p.egress, NET0, code.egress.program.clone(), vec![]),
            SwitchSlot {
                free_running: true,
                ..SwitchSlot::new(p.egress, NET1, code.egress_net1.clone(), vec![])
            },
        ]);
        m.ext_in.push((p.ingress, NET0, p.in_edge));
        m.ext_out.push((p.egress, NET0, p.out_edge));
        m.ext_out.push((p.egress, NET1, p.out_edge));
    }
    m
}

/// Visit one lockstep scenario per *reachable joint configuration* of
/// the image's router: scan the jump table for distinct signatures (the
/// four tiles' local-config ids plus the four grant flags) and script
/// one schedule period for each — every ingress runs the bid/grant
/// exchange (granted ports then stream one fragment), every crossbar
/// runs the header exchange (non-idle tiles then run their body
/// routine), and every egress whose output is driven runs the
/// cut-through routine. Returns the number of distinct joint
/// configurations visited.
///
/// The callback form reuses one [`router_model`] (programs are shared
/// across scenarios; only the steering scripts differ), so sweeping the
/// multicast space does not materialize thousands of program copies.
pub fn for_each_router_scenario(
    image: &RouterImage,
    name: &str,
    mut f: impl FnMut(&FabricModel),
) -> u64 {
    let cs = &image.cs;
    let mut m = router_model(image, name);
    let mut seen = std::collections::BTreeSet::new();
    let mut count = 0u64;
    for gi in 0..cs.jump[0].len() {
        let sig: ([u16; 4], [bool; 4]) = (
            std::array::from_fn(|t| cs.jump[t][gi]),
            std::array::from_fn(|t| cs.grant[t][gi]),
        );
        if !seen.insert(sig) {
            continue;
        }
        let (ids, grants) = sig;
        m.name = format!("{name}/joint{count}");
        for (t, code) in image.ports.iter().enumerate() {
            let lc = cs.configs[ids[t] as usize];
            let ig = &code.ingress;
            m.slots[4 * t].script = vec![ig.bid_send_pc, ig.grant_recv_pc];
            if grants[t] {
                m.slots[4 * t].script.push(ig.stream_wc_more_pc);
            }
            let xb = &code.crossbar;
            m.slots[4 * t + 1].script = vec![xb.hdr_pc];
            if !lc.is_idle() {
                m.slots[4 * t + 1].script.push(xb.cfg_pc[ids[t] as usize]);
            }
            m.slots[4 * t + 2].script = if lc.out != Client::None {
                vec![code.egress.cut_pc]
            } else {
                vec![]
            };
        }
        f(&m);
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FabricModel;
    use raw_sim::{GridDim, Route, SwitchInstr, SwitchProgram};
    use std::sync::Arc;

    fn relay_pair(t0: Vec<SwitchInstr>, t1: Vec<SwitchInstr>) -> FabricModel {
        let mut m = FabricModel::new("pair", GridDim::new(1, 2));
        m.slots.push(SwitchSlot::new(
            TileId(0),
            NET0,
            SwitchProgram::new(t0),
            vec![],
        ));
        m.slots.push(SwitchSlot::new(
            TileId(1),
            NET0,
            SwitchProgram::new(t1),
            vec![],
        ));
        m.ext_in.push((TileId(0), NET0, Dir::West));
        m.ext_out.push((TileId(1), NET0, Dir::East));
        m
    }

    fn fwd(src: SwPort, dst: SwPort) -> SwitchInstr {
        SwitchInstr::new(vec![Route::new(NET0, src, dst)], SwitchCtrl::Next)
    }

    fn run_codes(m: &FabricModel) -> (Vec<&'static str>, RunOutcome) {
        let mut diags = Vec::new();
        let out = run(m, &mut diags);
        (diags.iter().map(|d| d.code).collect(), out)
    }

    #[test]
    fn clean_relay_passes() {
        let k = 5;
        let mut t0: Vec<_> = (0..k).map(|_| fwd(SwPort::W, SwPort::E)).collect();
        t0.push(SwitchInstr::wait_pc());
        let mut t1: Vec<_> = (0..k).map(|_| fwd(SwPort::W, SwPort::E)).collect();
        t1.push(SwitchInstr::wait_pc());
        let (codes, out) = run_codes(&relay_pair(t0, t1));
        assert!(codes.is_empty(), "{codes:?}");
        assert!(out.max_high_water <= 2, "hw {}", out.max_high_water);
    }

    #[test]
    fn unmatched_send_is_rv201() {
        // Producer pushes two words, consumer takes one.
        let t0 = vec![
            fwd(SwPort::Proc, SwPort::E),
            fwd(SwPort::Proc, SwPort::E),
            SwitchInstr::wait_pc(),
        ];
        let t1 = vec![fwd(SwPort::W, SwPort::Proc), SwitchInstr::wait_pc()];
        let (codes, _) = run_codes(&relay_pair(t0, t1));
        assert_eq!(codes, vec!["RV201"]);
    }

    #[test]
    fn overfull_fifo_is_rv204() {
        // Producer streams 8 words while the consumer burns 8 cycles on
        // nops before draining all 8 — a schedule needing depth ~7.
        let n = 8;
        let mut t0: Vec<_> = (0..n).map(|_| fwd(SwPort::Proc, SwPort::E)).collect();
        t0.push(SwitchInstr::wait_pc());
        let mut t1: Vec<_> = (0..n).map(|_| SwitchInstr::nop()).collect();
        t1.extend((0..n).map(|_| fwd(SwPort::W, SwPort::Proc)));
        t1.push(SwitchInstr::wait_pc());
        let (codes, out) = run_codes(&relay_pair(t0, t1));
        assert_eq!(codes, vec!["RV204"]);
        assert!(out.max_high_water > LINK_FIFO_DEPTH);
    }

    #[test]
    fn program_overrun_is_rv203() {
        // No terminating WaitPc: the switch runs off the program's end.
        let t0 = vec![fwd(SwPort::W, SwPort::E)];
        let t1 = vec![fwd(SwPort::W, SwPort::Proc), SwitchInstr::wait_pc()];
        let (codes, _) = run_codes(&relay_pair(t0, t1));
        assert!(codes.contains(&"RV203"), "{codes:?}");
    }

    #[test]
    fn crossed_waits_are_rv301() {
        // Each tile's first instruction waits for a word only the other
        // tile's *second* instruction would send: the §5.5 deadlock.
        let t0 = vec![
            fwd(SwPort::E, SwPort::Proc),
            fwd(SwPort::Proc, SwPort::E),
            SwitchInstr::wait_pc(),
        ];
        let t1 = vec![
            fwd(SwPort::W, SwPort::Proc),
            fwd(SwPort::Proc, SwPort::W),
            SwitchInstr::wait_pc(),
        ];
        let (codes, _) = run_codes(&relay_pair(t0, t1));
        assert_eq!(codes, vec!["RV301"]);
    }

    #[test]
    fn waiting_on_halted_producer_is_rv302() {
        let t0 = vec![fwd(SwPort::E, SwPort::Proc), SwitchInstr::wait_pc()];
        let t1 = vec![SwitchInstr::wait_pc()];
        let (codes, _) = run_codes(&relay_pair(t0, t1));
        assert_eq!(codes, vec!["RV302"]);
    }

    #[test]
    fn exhausted_proc_budget_is_rv302() {
        let mut m = relay_pair(
            vec![fwd(SwPort::Proc, SwPort::E), SwitchInstr::wait_pc()],
            vec![fwd(SwPort::W, SwPort::Proc), SwitchInstr::wait_pc()],
        );
        m.slots[0].proc_words = Some(0);
        let (codes, _) = run_codes(&m);
        assert_eq!(codes, vec!["RV302"]);
    }

    #[test]
    fn livelock_is_rv202() {
        // A free jump loop that always fires never completes the period.
        let t0 = vec![SwitchInstr::new(
            vec![Route::new(NET0, SwPort::Proc, SwPort::E)],
            SwitchCtrl::Jump(0),
        )];
        let t1 = vec![SwitchInstr::new(
            vec![Route::new(NET0, SwPort::W, SwPort::Proc)],
            SwitchCtrl::Jump(0),
        )];
        let (codes, _) = run_codes(&relay_pair(t0, t1));
        assert_eq!(codes, vec!["RV202"]);
    }

    #[test]
    fn scripted_steering_follows_the_script() {
        // Tile 0's program has two routines behind WaitPc sync points;
        // the script runs the second then the first.
        let t0 = vec![
            SwitchInstr::wait_pc(),
            fwd(SwPort::Proc, SwPort::E), // routine A at pc 1
            SwitchInstr::wait_pc(),
            fwd(SwPort::Proc, SwPort::E), // routine B at pc 3
            fwd(SwPort::Proc, SwPort::E),
            SwitchInstr::wait_pc(),
        ];
        let t1 = vec![
            SwitchInstr::wait_pc(),
            fwd(SwPort::W, SwPort::Proc),
            fwd(SwPort::W, SwPort::Proc),
            fwd(SwPort::W, SwPort::Proc),
            SwitchInstr::wait_pc(),
        ];
        let mut m = relay_pair(t0, t1);
        m.slots[0].script = vec![3, 1];
        m.slots[1].script = vec![1];
        let (codes, _) = run_codes(&m);
        assert!(codes.is_empty(), "{codes:?}");
    }

    /// The centerpiece positive test: every reachable joint configuration
    /// of the generated router fabric completes its period with matched
    /// dataflow inside the hardware FIFO bound.
    #[test]
    fn all_router_joint_configs_verify() {
        let image = RouterImage::of(16, false, false).unwrap();
        let mut max_hw = 0;
        let n = for_each_router_scenario(&image, "router-q16", |sc| {
            let mut diags = Vec::new();
            let out = run(sc, &mut diags);
            assert!(diags.is_empty(), "{}: {diags:?}", sc.name);
            max_hw = max_hw.max(out.max_high_water);
        });
        assert!(n > 10, "only {n} scenarios");
        assert!(max_hw <= LINK_FIFO_DEPTH, "hw {max_hw}");
    }

    /// Seeded-mutant negative test for the whole pipeline: rerouting one
    /// body-routine instruction of one crossbar tile must be caught.
    #[test]
    fn mutated_crossbar_body_is_flagged() {
        let image = RouterImage::of(16, false, false).unwrap();
        // Pick a scenario where tile 0 forwards (non-trivial script).
        let mut found = None;
        for_each_router_scenario(&image, "router-q16", |sc| {
            if found.is_none() && sc.slots[1].script.len() == 2 {
                found = Some(sc.clone());
            }
        });
        let mut sc = found.expect("a non-idle crossbar scenario");
        let pc = sc.slots[1].script[1];
        // Drop the body routine's first routed instruction (a copy: the
        // image's program is left as it is).
        let prog = Arc::make_mut(&mut sc.slots[1].program);
        let routed = (pc..prog.len())
            .find(|&i| !prog.instrs[i].routes.is_empty())
            .unwrap();
        prog.instrs[routed].routes.clear();
        let mut diags = Vec::new();
        run(&sc, &mut diags);
        assert!(
            !diags.is_empty(),
            "dropping a body route must break matched dataflow"
        );
    }
}
