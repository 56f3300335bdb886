//! Differential proptest: randomly generated switch schedules, device
//! bindings, and fault windows must execute bit-identically on both
//! engines (per-cycle interpreter, compiled): [`first_divergence`] and,
//! for chunked runs, [`lockstep`] find no step and no component where
//! their digests differ.

use proptest::prelude::*;

use raw_sim::{
    first_divergence, lockstep, Dir, EdgePort, EngineMode, GridDim, RawConfig, RawMachine, Route,
    SwPort, SwitchCtrl, SwitchInstr, SwitchProgram, TileId, WordSink, WordSource, NUM_STATIC_NETS,
};

/// Tiny deterministic generator so one drawn seed reproduces the whole
/// scenario.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random but structurally valid switch program for `net`: random
/// routes (duplicate sources allowed — multicast groups — but each
/// destination driven at most once), random control flow with in-bounds
/// jumps, optional trailing WaitPc.
fn random_program(r: &mut Lcg, net: usize) -> SwitchProgram {
    let len = 1 + r.below(4) as usize;
    let mut instrs = Vec::with_capacity(len);
    for pc in 0..len {
        if r.chance(15) {
            instrs.push(SwitchInstr::wait_pc());
            continue;
        }
        let mut routes = Vec::new();
        let mut used_dst = Vec::new();
        for _ in 0..r.below(4) {
            let src = SwPort::ALL[r.below(5) as usize];
            let dst = SwPort::ALL[r.below(5) as usize];
            if used_dst.contains(&dst) {
                continue;
            }
            used_dst.push(dst);
            routes.push(Route::new(net, src, dst));
        }
        let ctrl = match r.below(3) {
            0 => SwitchCtrl::Next,
            1 => SwitchCtrl::Jump(r.below(len as u64) as usize),
            _ => {
                if pc + 1 == len {
                    // Loop somewhere instead of running off the end
                    // every time.
                    SwitchCtrl::Jump(r.below(len as u64) as usize)
                } else {
                    SwitchCtrl::Next
                }
            }
        };
        instrs.push(SwitchInstr::new(routes, ctrl));
    }
    let prog = SwitchProgram::new(instrs);
    prog.validate().expect("generated program must be valid");
    prog
}

fn build_machine(seed: u64, engine: EngineMode) -> RawMachine {
    let mut r = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
    let dim = GridDim { rows: 2, cols: 3 };
    let mut m = RawMachine::new(RawConfig { dim, engine });
    for t in 0..dim.tiles() {
        for net in 0..NUM_STATIC_NETS {
            if r.chance(80) {
                m.set_switch_program(TileId(t as u16), net, random_program(&mut r, net));
            }
        }
        if r.chance(30) {
            m.schedule_stall(TileId(t as u16), r.below(120), 1 + r.below(60));
        }
    }
    // Random sources/sinks on edge ports.
    for t in 0..dim.tiles() {
        let tile = TileId(t as u16);
        for dir in [Dir::North, Dir::East, Dir::South, Dir::West] {
            if dim.neighbor(tile, dir).is_some() {
                continue;
            }
            for net in 0..NUM_STATIC_NETS {
                if r.chance(35) {
                    let n = 8 + r.below(48) as u32;
                    m.bind_device(
                        EdgePort::new(tile, dir, net),
                        Box::new(WordSource::new(0..n)),
                    );
                } else if r.chance(30) {
                    let interval = 1 + r.below(4);
                    m.bind_device(
                        EdgePort::new(tile, dir, net),
                        Box::new(WordSink::rate_limited(interval).0),
                    );
                }
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// compiled == per-cycle on arbitrary schedules.
    #[test]
    fn engines_agree_on_random_schedules(seed in any::<u64>(), span in 50u64..400) {
        let found = first_divergence(
            || build_machine(seed, EngineMode::PerCycle),
            || build_machine(seed, EngineMode::Compiled),
            |m, n| m.run(n),
            RawMachine::digests,
            span,
        );
        prop_assert_eq!(found, None);
    }

    /// ...and stay in lockstep however the run is cut up: every `run`
    /// returns with each sleeping tile and switch credited to date. A
    /// step is one run call of 1, 7 or 13 cycles, and [`lockstep`]
    /// compares the machines after each of the 60.
    #[test]
    fn engines_agree_after_every_chunk(seed in any::<u64>()) {
        let found = lockstep(
            &mut build_machine(seed, EngineMode::PerCycle),
            &mut build_machine(seed, EngineMode::Compiled),
            |m, i| m.run([1, 7, 13][i as usize % 3]),
            RawMachine::digests,
            60,
        );
        prop_assert_eq!(found, None);
    }
}
