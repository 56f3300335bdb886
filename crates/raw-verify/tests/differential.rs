//! Differential property test: the static verifier against the cycle
//! simulator (satellite S3).
//!
//! Start from a known-good relay schedule — two switches on a 1×2 grid
//! forwarding `K` words from a west-edge line card to an east-edge line
//! card — and apply a random mutation: drop an instruction, duplicate
//! one, or reroute one endpoint. The soundness property: either the
//! verifier flags the mutant, or the real machine runs it cleanly
//! (reaches quiescence with every switch halted at its sync point and no
//! blocked processor). A mutant the verifier passes but the simulator
//! chokes on would be a verifier soundness hole.

use std::sync::Arc;

use proptest::prelude::*;
use raw_sim::{
    Dir, EdgePort, GridDim, RawConfig, RawMachine, Route, SwPort, SwitchCtrl, SwitchInstr,
    SwitchProgram, TileId, WordSink, WordSource, NET0,
};
use raw_verify::{conflict, lockstep, FabricModel, SwitchSlot};
use raw_xbar::{port_table, RawRouter, RouterConfig, RouterImage};

/// Words the relay forwards per period. Small enough that a mutant
/// rerouting words into an unread `$csti` queue cannot fill it and
/// stall the switch (the verifier's processor model treats pushes to
/// the processor as always accepted).
const K: usize = 3;

fn relay(k: usize) -> SwitchProgram {
    let mut instrs: Vec<SwitchInstr> = (0..k)
        .map(|_| {
            SwitchInstr::new(
                vec![Route::new(NET0, SwPort::W, SwPort::E)],
                SwitchCtrl::Next,
            )
        })
        .collect();
    instrs.push(SwitchInstr::wait_pc());
    SwitchProgram::new(instrs)
}

#[derive(Clone, Copy, Debug)]
enum Mutation {
    Drop(usize),
    Dup(usize),
    RerouteDst(usize, SwPort),
    RerouteSrc(usize, SwPort),
}

fn port(i: usize) -> SwPort {
    [SwPort::N, SwPort::E, SwPort::S, SwPort::W, SwPort::Proc][i % 5]
}

/// Apply through the public fields — the validating constructors would
/// reject some of these, which is exactly the point.
fn apply(prog: &SwitchProgram, m: Mutation) -> SwitchProgram {
    let mut p = prog.clone();
    let len = p.instrs.len();
    match m {
        Mutation::Drop(i) => {
            p.instrs.remove(i % len);
        }
        Mutation::Dup(i) => {
            let ins = p.instrs[i % len].clone();
            p.instrs.insert(i % len, ins);
        }
        Mutation::RerouteDst(i, to) => {
            if let Some(r) = p.instrs[i % len].routes.first_mut() {
                r.dst = to;
            }
        }
        Mutation::RerouteSrc(i, to) => {
            if let Some(r) = p.instrs[i % len].routes.first_mut() {
                r.src = to;
            }
        }
    }
    p
}

/// Run the conflict and lockstep analyses on the two-switch fabric.
fn verifier_flags(p0: &SwitchProgram, p1: &SwitchProgram) -> bool {
    let mut m = FabricModel::new("differential-relay", GridDim::new(1, 2));
    for (t, p) in [(0u16, p0), (1u16, p1)] {
        let mut slot = SwitchSlot::new(TileId(t), NET0, p.clone(), vec![]);
        // The relay's processors push nothing: a mutant that reads
        // `$csto` must be reported as a dead-producer stall, matching
        // the real machine where the idle processor never writes it.
        slot.proc_words = Some(0);
        m.slots.push(slot);
    }
    m.ext_in.push((TileId(0), NET0, Dir::West));
    m.ext_out.push((TileId(1), NET0, Dir::East));
    let mut diags = Vec::new();
    conflict::check_fabric(&m, &mut diags);
    lockstep::run(&m, &mut diags);
    !diags.is_empty()
}

fn build_machine(p0: &SwitchProgram, p1: &SwitchProgram) -> (RawMachine, raw_sim::SinkHandle) {
    let cfg = RawConfig {
        dim: GridDim::new(1, 2),
        ..RawConfig::default()
    };
    let mut m = RawMachine::new(cfg);
    m.set_switch_program(TileId(0), NET0, p0.clone());
    m.set_switch_program(TileId(1), NET0, p1.clone());
    m.bind_device(
        EdgePort::new(TileId(0), Dir::West, NET0),
        Box::new(WordSource::new((0..K as u32).map(|w| 0xbeef_0000 + w))),
    );
    let (sink, handle) = WordSink::new();
    m.bind_device(EdgePort::new(TileId(1), Dir::East, NET0), Box::new(sink));
    (m, handle)
}

/// "Cleanly" = quiescent within the budget, no blocked processor, and
/// both switches halted at their WaitPc sync points.
fn sim_runs_cleanly(p0: &SwitchProgram, p1: &SwitchProgram) -> bool {
    let (mut m, _handle) = build_machine(p0, p1);
    let rep = m.run_until_quiescent(64, 20_000);
    let halted = (0..2).all(|t| m.switch_status(TileId(t), NET0).1);
    rep.quiescent && rep.blocked_tiles.is_empty() && halted
}

#[test]
fn pristine_relay_verifies_and_delivers() {
    let p = relay(K);
    assert!(!verifier_flags(&p, &p), "clean relay must verify");
    let (mut m, handle) = build_machine(&p, &p);
    let rep = m.run_until_quiescent(64, 20_000);
    assert!(rep.quiescent && rep.blocked_tiles.is_empty());
    let got = handle.lock().unwrap().len();
    assert_eq!(got, K, "sink must receive every relayed word");
}

/// The verifier proves properties of the switch code a router runs, not
/// of a copy: the image it reads is the one a router holds, and every
/// program of its router model is the program the router's machine has
/// installed at that tile and network.
#[test]
fn the_verified_programs_are_the_ones_a_router_runs() {
    for q in [16, 64] {
        let cfg = RouterConfig {
            quantum_words: q,
            ..RouterConfig::default()
        };
        let r = RawRouter::new(cfg, port_table());
        let image = RouterImage::of(q, false, false).unwrap();
        assert!(Arc::ptr_eq(&image, &r.image), "q{q}: one image");
        let model = lockstep::router_model(&image, "router");
        assert_eq!(model.slots.len(), 16);
        for slot in &model.slots {
            assert!(
                Arc::ptr_eq(&slot.program, r.machine.switch_program(slot.tile, slot.net)),
                "q{q}: {} net {} verifies a program the router does not run",
                slot.tile,
                slot.net
            );
        }
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0usize..4, 0usize..K + 1, 0usize..5).prop_map(|(kind, idx, p)| match kind {
        0 => Mutation::Drop(idx),
        1 => Mutation::Dup(idx),
        2 => Mutation::RerouteDst(idx, port(p)),
        _ => Mutation::RerouteSrc(idx, port(p)),
    })
}

proptest! {
    /// The S3 soundness property.
    #[test]
    fn mutants_are_flagged_or_run_cleanly(
        which in 0usize..2,
        m in arb_mutation(),
    ) {
        let good = relay(K);
        let (p0, p1) = if which == 0 {
            (apply(&good, m), good.clone())
        } else {
            (good.clone(), apply(&good, m))
        };
        prop_assert!(
            verifier_flags(&p0, &p1) || sim_runs_cleanly(&p0, &p1),
            "verifier passed mutant {m:?} of switch {which} but the simulator does not run it cleanly"
        );
    }
}
