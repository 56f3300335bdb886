//! The lowered switch step: pre-resolved switch programs and the switch
//! step that runs them under `EngineMode::Compiled`.
//!
//! The interpreter in [`machine`][crate::machine] re-derives, every cycle
//! and for every switch, facts that are fixed once the programs and
//! devices are installed: which FIFO each `SwPort` names, whether a mesh
//! direction crosses to a neighbor tile or leaves the chip, and which
//! edge device (if any) sits on an off-grid link. [`RawMachine::lower`]
//! hoists all of that out of the inner loop: each route becomes a
//! [`CompiledRoute`] of four `u32`s — the arena slots of the ring it pops
//! and the ring it pushes, and the sweep slots of the two components its
//! move concerns — so a fired route is integer work: a visibility check,
//! a space check, a pop, a push and two bit sets. Every program's
//! instructions sit in one `Vec` of the plan, every route in another.
//!
//! The lowered form is derived state of the machine, never a caller's
//! decision: `set_switch_program` / `bind_device` drop it, and the next
//! cycle stepped under `EngineMode::Compiled` rebuilds it, so the fast
//! engine is never in a state without it.
//!
//! It is also a pure function of what it is lowered from (`PlanKey`):
//! the grid, the bound ports in bind order with whether each injects,
//! and which `Arc<SwitchProgram>` every switch runs. Nothing writes a plan
//! once it is built, so machines alike in all three — a fabric's routers,
//! every bare machine — share one through a process-wide weak memo, on
//! the pattern of `raw_xbar::RouterImage::of`. A plan holds the programs
//! whose addresses key it, so no address in a live key can be reused.
//!
//! ## Why bit-identity holds
//!
//! The lowered switch step performs the *same state transitions in the
//! same order* as the interpreter — it only skips re-deriving constants,
//! and the machine loop (`step_cycle`) is one function for both:
//!
//! * Both read and write the same rings: the interpreter names them
//!   through `ring_slot` each cycle, the lowering once. A `dst` past the
//!   arena is the edge the interpreter finds through its device table: a
//!   bound device or a drop.
//! * Route *grouping* is not precomputed, because it cannot be: the
//!   interpreter forms a group from the not-yet-fired routes at and after
//!   the scan point, so a multicast group refused on one cycle may fire a
//!   strict subset on the next scan position. Instructions whose routes
//!   share no source and no destination (every group a singleton, and no
//!   move can change another route's check within the step — the common
//!   case for generated schedules) are checked in full, then committed;
//!   the rest replay the interpreter's exact dynamic-subgroup scan.
//! * Stall accounting (the switch's ledger row, credited to the
//!   first-refused group's cause), control transitions (resolved at
//!   lowering to the next PC and whether it halts), PC wraparound halts,
//!   and pending PC application copy the interpreter's logic.
//! * The injector fast path only skips devices whose `pull_in` is
//!   statically `None` (`EdgeDevice::is_injector`).
//! * A switch left out of the sweep is one whose skipped steps would
//!   each have stalled as its last one did, or done nothing at all. A
//!   halted switch with no PC load pending is parked: only a PC load
//!   can move it, and that wakes it for the cycle the load can first
//!   apply. A stalled one sleeps until a FIFO it reads is pushed or one
//!   it writes is popped. A pop wakes the producer at once (the space is
//!   usable this cycle); a push wakes the consumer on the next cycle,
//!   the first on which the word is visible to it — which is why a
//!   source word still aging is no reason to stay awake. The slots come
//!   from the lowering (`src_producer` / `dst_consumer`),
//!   `TileIo::wake_now` / `wake_next`, and the injector poll. The cycles
//!   a switch is not stepped on are credited as stalls, for the same
//!   cause, when it next steps or the run entry returns.
//!
//! None of this is taken on trust: the determinism suite, the random
//! schedule differential (`tests/differential.rs`), the mid-run
//! mutation rows in `tests/machine_tests.rs` and the one-test-per-edge
//! battery in `tests/sleep.rs` hold the two engines to bit-identical
//! digests, and builds with `debug_assertions` check every skipped
//! switch on every cycle against the interpreter's own refusals
//! (`assert_switch_may_skip`). The mutants below show both have teeth.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use crate::device::{EdgeDevice, EdgePort};
use crate::fifo::Ring;
use crate::geom::{GridDim, TileId};
use crate::machine::{ring_slot, src_ring, RawMachine, SlotSet, StaticFifo};
use crate::switch::{Route, SwitchCtrl, SwitchProgram, NUM_STATIC_NETS};
use raw_telemetry::SwitchStallCause;

/// One switch route lowered to integers: pop ring `src` of the arena,
/// push ring `dst`, and wake the [`RawMachine::awake`] slots of
/// `src_producer` (the pop freed it space; the spare slot when that is
/// an edge device) and `dst_consumer` (the push gave it a word; the
/// spare slot for an edge). A `dst` past the arena is an edge: [`DROP`],
/// or bound device `dst - rings`. Routes sharing `src` within one
/// instruction form a multicast group, exactly as interpreter routes
/// sharing `(net, src)` do.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CompiledRoute {
    pub src: u32,
    pub dst: u32,
    pub src_producer: u32,
    pub dst_consumer: u32,
}

/// `dst` of a route off an unbound edge: the word leaves the chip and is
/// counted in `edge_drops`.
const DROP: u32 = u32::MAX;

/// Why a route group did not fire, and whether time alone can lift the
/// refusal without a wake: an edge device pushing back. A switch stalled
/// only on refusals that are not `timed` — an empty source, a full
/// destination FIFO, a source word still aging (its push queued the
/// switch's wake for the cycle it turns visible) — cannot move until a
/// wake it is owed.
#[derive(Clone, Copy)]
struct Refusal {
    cause: SwitchStallCause,
    timed: bool,
}

/// One lowered switch instruction.
#[derive(Debug)]
pub(crate) struct CompiledInstr {
    /// Its routes are `CompiledPlan::routes[start..start + len]`, in the
    /// interpreter's route-list order (bit *i* of `fired` ↔ route *i*).
    start: u32,
    len: u32,
    /// True when no two routes share a source or a destination: every
    /// multicast group is a singleton and no route's move can change
    /// another's check this step, so all are checked, then all that
    /// passed are committed.
    independent: bool,
    /// `fired == all_mask` completes the instruction
    /// (`(1 << len) - 1`; 0 for a route-less instruction).
    all_mask: u32,
    /// Its control operation, resolved against the program: the PC once
    /// it completes, and whether the switch then halts (`WaitPc`, or
    /// falling off the end).
    next_pc: usize,
    halts: bool,
}

/// An edge device polled for injection, with its input ring and the
/// switch that ring wakes pre-resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InjectorSlot {
    /// Index into the machine's device list (bind order).
    pub device: u32,
    pub ring: u32,
    /// [`RawMachine::awake`] slot of the edge switch routing `ring`.
    pub consumer: u32,
}

impl InjectorSlot {
    /// The slot for `m`'s device `device`.
    pub fn new(m: &RawMachine, device: usize) -> InjectorSlot {
        let port = m.bound_device_ports()[device];
        let edge = StaticFifo::In {
            net: port.net,
            dir: port.dir.index(),
        };
        InjectorSlot {
            device: device as u32,
            ring: ring_slot(port.tile.index(), edge) as u32,
            consumer: m.switch_slot(port.tile.index(), port.net) as u32,
        }
    }
}

/// The lowered form of one machine, built by [`RawMachine::lower`] and
/// consumed by `EngineMode::Compiled`: every switch program's
/// instructions in one `Vec`, all their routes in another.
#[derive(Debug)]
pub(crate) struct CompiledPlan {
    /// Per switch (`tile * NUM_STATIC_NETS + net`), its program's
    /// `(start, len)` in `instrs`.
    programs: Vec<(u32, u32)>,
    instrs: Vec<CompiledInstr>,
    routes: Vec<CompiledRoute>,
    /// Devices polled for injection each cycle, in device-index order
    /// (the interpreter's poll order). Pure sinks are omitted.
    pub injectors: Vec<InjectorSlot>,
    /// The switch programs lowered, held so that the addresses in the
    /// plan's memo key stay theirs while the plan lives.
    _lowered: Vec<Arc<SwitchProgram>>,
}

/// Everything a [`CompiledPlan`] is lowered from.
#[derive(PartialEq, Eq, Hash)]
struct PlanKey {
    dim: GridDim,
    /// Every bound port in bind order (a port's device index), and
    /// whether its device injects.
    devices: Vec<(EdgePort, bool)>,
    /// The address of the program each switch runs, by
    /// `tile * NUM_STATIC_NETS + net`.
    programs: Vec<usize>,
}

impl PlanKey {
    fn of(m: &RawMachine) -> PlanKey {
        PlanKey {
            dim: m.dim(),
            devices: (m.bound_device_ports().iter().zip(&m.devices))
                .map(|(&port, dev)| (port, dev.is_injector()))
                .collect(),
            programs: (m.tiles.iter().flat_map(|t| &t.switch_prog))
                .map(|p| Arc::as_ptr(p) as usize)
                .collect(),
        }
    }
}

/// The live plans by what they were lowered from. Entries are weak: a
/// plan lives as long as a machine steps it.
fn plans() -> MutexGuard<'static, HashMap<PlanKey, Weak<CompiledPlan>>> {
    static PLANS: OnceLock<Mutex<HashMap<PlanKey, Weak<CompiledPlan>>>> = OnceLock::new();
    // The map is written only after a plan is built, so a lock that a
    // panicking build poisoned still guards a sound map.
    PLANS
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

impl CompiledPlan {
    /// The lowered program of switch `s` (`tile * NUM_STATIC_NETS + net`).
    #[inline]
    fn program(&self, s: usize) -> &[CompiledInstr] {
        let (start, len) = self.programs[s];
        &self.instrs[start as usize..][..len as usize]
    }

    #[inline]
    fn routes(&self, i: &CompiledInstr) -> &[CompiledRoute] {
        &self.routes[i.start as usize..][..i.len as usize]
    }
}

/// Lower one route of the switch for `r.net` at tile `t` to slots.
fn lower_route(m: &RawMachine, t: usize, r: Route) -> CompiledRoute {
    let tile = TileId(t as u16);
    let nobody = m.spare_slot();
    let src_producer = match r.src.dir() {
        None => t,
        Some(d) => m
            .dim()
            .neighbor(tile, d)
            .map_or(nobody, |nb| m.switch_slot(nb.index(), r.net)),
    };
    let (dst, dst_consumer) = match r.dst.dir() {
        None => (ring_slot(t, StaticFifo::Csti(r.net)), t),
        Some(d) => match m.dim().neighbor(tile, d) {
            Some(nb) => {
                let into = StaticFifo::In {
                    net: r.net,
                    dir: d.opposite().index(),
                };
                (
                    ring_slot(nb.index(), into),
                    m.switch_slot(nb.index(), r.net),
                )
            }
            None => match m.device_at(t, r.net, d.index()) {
                Some(i) => (m.rings.len() + i, nobody),
                None => (DROP as usize, nobody),
            },
        },
    };
    CompiledRoute {
        src: src_ring(t, r) as u32,
        dst: dst as u32,
        src_producer: src_producer as u32,
        dst_consumer: dst_consumer as u32,
    }
}

impl RawMachine {
    /// Lower every installed switch program and the injecting-device
    /// poll list into the form `EngineMode::Compiled` steps, or take the
    /// plan a live machine alike in what it is lowered from already
    /// holds. Stepping calls this itself whenever a structural mutation
    /// has dropped the lowered form; it is public only so a harness can
    /// time a lowering.
    pub fn lower(&mut self) {
        let key = PlanKey::of(self);
        // Built under the lock, so machines lowering alike at once (a
        // sharded fabric's routers) build one plan between them.
        let mut plans = plans();
        if let Some(plan) = plans.get(&key).and_then(Weak::upgrade) {
            self.plan = Some(plan);
            return;
        }
        let plan = Arc::new(self.lower_plan());
        plans.retain(|_, held| held.strong_count() > 0);
        plans.insert(key, Arc::downgrade(&plan));
        self.plan = Some(plan);
    }

    /// The lowered form of this machine, built afresh.
    fn lower_plan(&self) -> CompiledPlan {
        let mut plan = CompiledPlan {
            programs: Vec::with_capacity(self.tiles.len() * NUM_STATIC_NETS),
            instrs: Vec::new(),
            routes: Vec::new(),
            injectors: Vec::new(),
            _lowered: Vec::with_capacity(self.tiles.len() * NUM_STATIC_NETS),
        };
        for (t, tile) in self.tiles.iter().enumerate() {
            for (net, prog) in tile.switch_prog.iter().enumerate() {
                let start = plan.instrs.len() as u32;
                for (pc, i) in prog.instrs.iter().enumerate() {
                    let routes: Vec<CompiledRoute> = i
                        .routes
                        .iter()
                        .map(|&r| {
                            debug_assert_eq!(r.net, net);
                            lower_route(self, t, r)
                        })
                        .collect();
                    let independent = routes.iter().enumerate().all(|(j, a)| {
                        routes[j + 1..]
                            .iter()
                            .all(|b| b.src != a.src && (b.dst != a.dst || a.dst == DROP))
                    });
                    plan.instrs.push(CompiledInstr {
                        start: plan.routes.len() as u32,
                        len: routes.len() as u32,
                        independent,
                        all_mask: ((1u64 << routes.len()) - 1) as u32,
                        next_pc: match i.ctrl {
                            SwitchCtrl::Next => pc + 1,
                            SwitchCtrl::Jump(to) => to,
                            SwitchCtrl::WaitPc => pc,
                        },
                        halts: match i.ctrl {
                            SwitchCtrl::Next => pc + 1 >= prog.len(),
                            SwitchCtrl::Jump(_) => false,
                            SwitchCtrl::WaitPc => true,
                        },
                    });
                    plan.routes.extend(routes);
                }
                plan.programs.push((start, prog.instrs.len() as u32));
                plan._lowered.push(Arc::clone(prog));
            }
        }
        plan.injectors = (0..self.devices.len())
            .filter(|&i| self.devices[i].is_injector())
            .map(|i| InjectorSlot::new(self, i))
            .collect();
        plan
    }

    /// One lowered switch tick: whether any route fired. Mirrors
    /// `step_switch` exactly: pending-PC application, halt handling,
    /// PC-overflow halt, firing, completion, control flow, stall
    /// accounting, and first-refused-group cause attribution.
    ///
    /// On top of that it takes the switch out of the sweep when nothing
    /// but a wake it is owed can change what its next step would do:
    /// parked when halted with no PC load pending, asleep when stalled
    /// with no refusal that time alone lifts. It wakes its tile when it
    /// halts (`TileIo::switch_halted`).
    #[inline(always)]
    pub(crate) fn step_switch_compiled(
        &mut self,
        t: usize,
        net: usize,
        plan: &CompiledPlan,
        cycle: u64,
    ) -> bool {
        let slot = self.switch_slot(t, net);
        let tiles = self.tiles.len();
        let st = &mut self.tiles[t].switch_state[net];
        st.apply_pending_pc(cycle);
        if st.halted {
            if st.pending_pc.is_none() {
                self.park(slot);
            }
            return false;
        }
        let program = plan.program(t * NUM_STATIC_NETS + net);
        let Some(instr) = program.get(st.pc) else {
            st.halted = true;
            self.halted(t, net);
            return false;
        };
        let mut wires = Wires {
            rings: &mut self.rings,
            awake: &mut self.awake,
            woken_next: &mut self.woken_next,
            devices: &mut self.devices,
            tiles,
            routes_fired: 0,
            edge_drops: 0,
        };
        let before = st.fired;
        let (fired, stall) = wires.fire(plan.routes(instr), instr.independent, before, cycle);
        self.routes_fired += wires.routes_fired;
        self.edge_drops += wires.edge_drops;
        let any_fired = fired != before;
        st.fired = fired;
        if fired == instr.all_mask {
            st.fired = 0;
            st.pc = instr.next_pc;
            if instr.halts {
                st.halted = true;
                self.halted(t, net);
            }
            return any_fired;
        }
        if !any_fired {
            let refusal = stall.expect("an incomplete instruction has a refused group");
            if !refusal.timed {
                self.awake.remove(slot);
            }
            self.switch_stalled(t, net, refusal.cause);
        }
        any_fired
    }

    /// The switch for `net` at tile `t` just halted: wake its tile (its
    /// program may wait on `TileIo::switch_halted`) and, unless a PC load
    /// is already pending, park the switch until one comes.
    fn halted(&mut self, t: usize, net: usize) {
        self.awake.insert(t);
        if self.tiles[t].switch_state[net].pending_pc.is_none() {
            self.park(self.switch_slot(t, net));
        }
    }
}

/// What firing lowered routes reads and writes, borrowed out of the
/// machine field by field, so the route loop runs over plain slices.
struct Wires<'a> {
    rings: &'a mut [Ring],
    awake: &'a mut SlotSet,
    woken_next: &'a mut SlotSet,
    devices: &'a mut [Box<dyn EdgeDevice>],
    /// Slots below this are tile processors.
    tiles: usize,
    routes_fired: u64,
    edge_drops: u64,
}

impl Wires<'_> {
    /// Fire what can fire of `routes` not yet in `fired`, in the
    /// interpreter's scan order: the new `fired` mask, and the first
    /// refusal (with `timed` set if any refusal was) when a group did not
    /// fire.
    #[inline]
    fn fire(
        &mut self,
        routes: &[CompiledRoute],
        independent: bool,
        mut fired: u32,
        cycle: u64,
    ) -> (u32, Option<Refusal>) {
        let mut stall: Option<Refusal> = None;
        let refused = |stall: &mut Option<Refusal>, r: Refusal| match stall {
            Some(first) => first.timed |= r.timed,
            None => *stall = Some(r),
        };
        if independent {
            // Check every not-yet-fired route, in list order, then commit
            // the ones that passed.
            let mut ready = 0u32;
            for (j, r) in routes.iter().enumerate() {
                if fired & (1 << j) == 0 {
                    match self.src_refusal(r.src, cycle) {
                        None => match self.dst_refusal(r.dst, cycle) {
                            None => ready |= 1 << j,
                            Some(refusal) => refused(&mut stall, refusal),
                        },
                        Some(refusal) => refused(&mut stall, refusal),
                    }
                }
            }
            let mut bits = ready;
            while bits != 0 {
                let r = &routes[bits.trailing_zeros() as usize];
                bits &= bits - 1;
                let word = self.pop_src(r);
                self.push_dst(r, word, cycle);
            }
            fired |= ready;
        } else {
            // Dynamic-subgroup scan, replayed exactly as the interpreter
            // forms groups: at each unfired position, the group is every
            // not-yet-fired route *at or after* it with the same source.
            for gi in 0..routes.len() {
                if fired & (1 << gi) != 0 {
                    continue;
                }
                let lead = routes[gi];
                let mut group: u32 = 0;
                for (j, r) in routes.iter().enumerate().skip(gi) {
                    if fired & (1 << j) == 0 && r.src == lead.src {
                        group |= 1 << j;
                    }
                }
                match self.group_refusal(routes, group, cycle) {
                    None => {
                        let word = self.pop_src(&lead);
                        let mut bits = group;
                        while bits != 0 {
                            let j = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            self.push_dst(&routes[j], word, cycle);
                        }
                        fired |= group;
                    }
                    Some(refusal) => refused(&mut stall, refusal),
                }
            }
        }
        (fired, stall)
    }

    /// Why the word at ring `src` cannot move this cycle, if it cannot.
    #[inline]
    fn src_refusal(&self, src: u32, cycle: u64) -> Option<Refusal> {
        (!self.rings[src as usize].has_visible(cycle, 0)).then_some(Refusal {
            cause: SwitchStallCause::FifoEmpty,
            timed: false,
        })
    }

    /// Why `dst` would not take a word this cycle, if it would not, with
    /// the interpreter's stall cause.
    #[inline]
    fn dst_refusal(&self, dst: u32, cycle: u64) -> Option<Refusal> {
        match self.rings.get(dst as usize) {
            Some(ring) => (!ring.has_space()).then_some(Refusal {
                cause: SwitchStallCause::FifoFull,
                timed: false,
            }),
            None if dst == DROP => None,
            None => {
                let device = &self.devices[dst as usize - self.rings.len()];
                (!device.can_push(cycle)).then_some(Refusal {
                    cause: SwitchStallCause::DeviceBackpressure,
                    timed: true,
                })
            }
        }
    }

    /// A multicast group's refusal (`group` is a bitmask over `routes`,
    /// all sharing a source): the shared source, then each member
    /// destination in list order.
    fn group_refusal(&self, routes: &[CompiledRoute], group: u32, cycle: u64) -> Option<Refusal> {
        let lead = routes[group.trailing_zeros() as usize];
        self.src_refusal(lead.src, cycle).or_else(|| {
            let mut bits = group;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(refusal) = self.dst_refusal(routes[j].dst, cycle) {
                    return Some(refusal);
                }
            }
            None
        })
    }

    /// Pop the route's (visible) source word, waking whoever fills that
    /// ring. A `$csto` pop — the one source a tile fills — also changes
    /// the front word the other network's switch sees, so it wakes both
    /// of the tile's switches.
    #[inline]
    fn pop_src(&mut self, r: &CompiledRoute) -> u32 {
        let producer = r.src_producer as usize;
        self.awake.insert(producer);
        if producer < self.tiles {
            // Its switches' slots, as `RawMachine::switch_slot` places them.
            for net in 0..NUM_STATIC_NETS {
                self.awake
                    .insert(self.tiles + producer * NUM_STATIC_NETS + net);
            }
        }
        self.rings[r.src as usize].pop()
    }

    /// Push `word` into the route's destination, waking whoever drains it
    /// on the next cycle, when the word turns visible.
    #[inline]
    fn push_dst(&mut self, r: &CompiledRoute, word: u32, cycle: u64) {
        self.woken_next.insert(r.dst_consumer as usize);
        match self.rings.get_mut(r.dst as usize) {
            Some(ring) => {
                let ok = ring.push(word, cycle);
                debug_assert!(ok);
            }
            None if r.dst == DROP => self.edge_drops += 1,
            None => {
                let device = r.dst as usize - self.rings.len();
                self.devices[device].push_out(word, cycle);
            }
        }
        self.routes_fired += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{EdgePort, WordSink, WordSource};
    use crate::digest::{first_divergence, lockstep, Component};
    use crate::geom::{Dir, GridDim};
    use crate::machine::EngineMode;
    use crate::machine::RawConfig;
    use crate::switch::{SwPort, SwitchInstr, SwitchProgram, NET0};

    /// Where the compiled engine first leaves the interpreter on the
    /// machine `build` makes, within `cycles`.
    fn divergence(build: fn(EngineMode) -> RawMachine, cycles: u64) -> Option<(u64, Component)> {
        first_divergence(
            || build(EngineMode::PerCycle),
            || build(EngineMode::Compiled),
            |m, n| m.run(n),
            RawMachine::digests,
            cycles,
        )
    }

    /// A switch program forwarding west to east forever.
    fn pass_through() -> Arc<SwitchProgram> {
        Arc::new(SwitchProgram::new(vec![SwitchInstr::new(
            vec![Route::new(NET0, SwPort::W, SwPort::E)],
            SwitchCtrl::Jump(0),
        )]))
    }

    /// West-to-east pass-through on the top row, fed by a source and
    /// drained by a throttled sink (exercises device backpressure).
    fn build(engine: EngineMode) -> RawMachine {
        build_running(engine, &pass_through())
    }

    /// [`build`]'s machine, its two switches running `prog`.
    fn build_running(engine: EngineMode, prog: &Arc<SwitchProgram>) -> RawMachine {
        let mut m = RawMachine::new(RawConfig {
            dim: GridDim { rows: 2, cols: 2 },
            engine,
        });
        for t in [0usize, 1] {
            m.set_switch_program(TileId(t as u16), NET0, Arc::clone(prog));
        }
        let words: Vec<u32> = (0..64).collect();
        m.bind_device(
            EdgePort {
                tile: TileId(0),
                dir: Dir::West,
                net: NET0,
            },
            Box::new(WordSource::new(words)),
        );
        m.bind_device(
            EdgePort {
                tile: TileId(1),
                dir: Dir::East,
                net: NET0,
            },
            Box::new(WordSink::rate_limited(2).0),
        );
        m
    }

    #[test]
    fn compiled_matches_interpreter_on_passthrough() {
        assert_eq!(divergence(build, 400), None);
    }

    /// Whether a seeded defect in the lowering — `mutate` applied to every
    /// lowered route of `build`'s machine, given the spare slot — is
    /// caught within 400 cycles: by the switch replay assertion where it
    /// runs (builds with `debug_assertions`), else by `first_divergence`
    /// against the interpreter.
    fn caught(mutate: fn(&mut CompiledRoute, u32)) -> bool {
        let mutant = || {
            let mut m = build(EngineMode::Compiled);
            let mut plan = m.lower_plan();
            let spare = m.spare_slot() as u32;
            plan.routes.iter_mut().for_each(|r| mutate(r, spare));
            m.plan = Some(Arc::new(plan));
            m
        };
        let found = std::panic::catch_unwind(|| {
            first_divergence(
                || build(EngineMode::PerCycle),
                mutant,
                |m, n| m.run(n),
                RawMachine::digests,
                400,
            )
        });
        match found {
            Ok(found) => found.is_some(),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map_or("", |m| m.as_str())
                    .to_owned();
                cfg!(debug_assertions) && msg.contains("asleep since cycle")
            }
        }
    }

    /// A push that wakes nobody: the downstream switch sleeps through the
    /// words it should route.
    #[test]
    fn mutant_push_waking_the_spare_slot_is_caught() {
        assert!(caught(|r, spare| r.dst_consumer = spare));
    }

    /// A route popping the ring next to its own.
    #[test]
    fn mutant_src_slot_off_by_one_is_caught() {
        assert!(caught(|r, _| r.src += 1));
    }

    #[test]
    fn structural_mutation_invalidates_plan_and_the_next_step_rebuilds_it() {
        let mut m = build(EngineMode::Compiled);
        m.step();
        assert!(m.plan.is_some());
        m.set_switch_program(TileId(3), NET0, SwitchProgram::idle());
        assert!(m.plan.is_none());
        m.step();
        assert!(m.plan.is_some());
    }

    /// The plan `m` steps.
    fn plan_of(m: &RawMachine) -> &Arc<CompiledPlan> {
        m.plan.as_ref().expect("the machine has lowered")
    }

    #[test]
    fn machines_running_the_same_programs_share_one_plan() {
        let prog = pass_through();
        let mut a = build_running(EngineMode::Compiled, &prog);
        let mut b = build_running(EngineMode::Compiled, &prog);
        a.step();
        b.step();
        assert!(Arc::ptr_eq(plan_of(&a), plan_of(&b)));
        // Other programs alike in every route are another key.
        let mut c = build(EngineMode::Compiled);
        c.step();
        assert!(!Arc::ptr_eq(plan_of(&a), plan_of(&c)));
    }

    #[test]
    fn a_new_switch_program_lowers_that_machine_alone_again() {
        let prog = pass_through();
        let mut a = build_running(EngineMode::Compiled, &prog);
        let mut b = build_running(EngineMode::Compiled, &prog);
        a.step();
        b.step();
        let shared = Arc::clone(plan_of(&b));
        a.set_switch_program(TileId(3), NET0, SwitchProgram::idle());
        a.step();
        assert!(!Arc::ptr_eq(plan_of(&a), &shared));
        assert!(Arc::ptr_eq(plan_of(&b), &shared));
    }

    #[test]
    fn dropping_every_machine_empties_the_memo_entry() {
        let prog = pass_through();
        let mut a = build_running(EngineMode::Compiled, &prog);
        let mut b = build_running(EngineMode::Compiled, &prog);
        a.step();
        b.step();
        let key = PlanKey::of(&a);
        let memoized = || plans().get(&key).and_then(Weak::upgrade);
        assert!(Arc::ptr_eq(&memoized().unwrap(), plan_of(&a)));
        drop(a);
        assert!(memoized().is_some(), "b still holds the plan");
        drop(b);
        assert!(memoized().is_none());
    }

    /// A machine stepping the memo's plan keeps digest for digest in step
    /// with one stepping a plan it lowered alone, and with the
    /// interpreter, over run calls of 1, 7 and 13 cycles.
    #[test]
    fn a_memoized_plan_steps_as_a_plan_lowered_alone() {
        let prog = pass_through();
        let mut twin = build_running(EngineMode::Compiled, &prog);
        twin.lower();
        let mut memo = build_running(EngineMode::Compiled, &prog);
        memo.lower();
        assert!(Arc::ptr_eq(plan_of(&memo), plan_of(&twin)));
        let mut alone = build_running(EngineMode::Compiled, &prog);
        alone.plan = Some(Arc::new(alone.lower_plan()));
        let chunked = |m: &mut RawMachine, i: u64| m.run([1, 7, 13][i as usize % 3]);
        assert_eq!(
            lockstep(&mut memo, &mut alone, chunked, RawMachine::digests, 60),
            None
        );
        assert!(memo.routes_fired > 0);
        let mut memo = build_running(EngineMode::Compiled, &prog);
        memo.lower();
        assert!(Arc::ptr_eq(plan_of(&memo), plan_of(&twin)));
        let mut interpreter = build_running(EngineMode::PerCycle, &prog);
        assert_eq!(
            lockstep(
                &mut memo,
                &mut interpreter,
                chunked,
                RawMachine::digests,
                60
            ),
            None
        );
    }

    /// Multicast with one destination backpressured: the interpreter
    /// fires the unblocked subset from a later scan position, and the
    /// compiled grouped scan must reproduce that exactly.
    #[test]
    fn multicast_partial_block_matches_interpreter() {
        let build = |engine: EngineMode| {
            let cfg = RawConfig {
                dim: GridDim { rows: 1, cols: 2 },
                engine,
            };
            let mut m = RawMachine::new(cfg);
            // Tile 0 duplicates each westbound word to east (tile 1) and
            // to its own processor csti. Nothing drains csti, so it fills
            // and blocks that branch while the east branch keeps going.
            m.set_switch_program(
                TileId(0),
                NET0,
                SwitchProgram::new(vec![SwitchInstr::new(
                    vec![
                        Route::new(NET0, SwPort::W, SwPort::Proc),
                        Route::new(NET0, SwPort::W, SwPort::E),
                    ],
                    SwitchCtrl::Jump(0),
                )]),
            );
            // Tile 1 forwards east off-grid (unbound: drops).
            m.set_switch_program(
                TileId(1),
                NET0,
                SwitchProgram::new(vec![SwitchInstr::new(
                    vec![Route::new(NET0, SwPort::W, SwPort::E)],
                    SwitchCtrl::Jump(0),
                )]),
            );
            m.bind_device(
                EdgePort {
                    tile: TileId(0),
                    dir: Dir::West,
                    net: NET0,
                },
                Box::new(WordSource::new(0u32..32)),
            );
            m
        };
        assert_eq!(divergence(build, 200), None);
        // The blocked csti branch must have left residue: proves the
        // partial-block path actually ran.
        let mut reference = build(EngineMode::PerCycle);
        reference.run(200);
        let (_, csti0, _) = reference.proc_queue_occupancy(TileId(0));
        assert!(csti0 > 0);
    }
}
