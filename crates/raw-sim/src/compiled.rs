//! The lowered switch step: pre-resolved switch programs and the switch
//! step that runs them under `EngineMode::Compiled`.
//!
//! The interpreter in [`machine`][crate::machine] re-derives, every cycle
//! and for every switch, facts that are fixed once the programs and
//! devices are installed: which FIFO each `SwPort` names, whether a mesh
//! direction crosses to a neighbor tile or leaves the chip, and which
//! edge device (if any) sits on an off-grid link. [`RawMachine::lower`]
//! hoists all of that out of the inner loop: each switch instruction
//! becomes a list of [`CompiledRoute`]s whose source and destination are
//! direct FIFO/device coordinates, and the per-cycle work reduces to
//! visibility checks, space checks, and word moves.
//!
//! The lowered form is derived state of the machine, never a caller's
//! decision: `set_switch_program` / `bind_device` drop it, and the next
//! cycle stepped under `EngineMode::Compiled` rebuilds it, so the fast
//! engine is never in a state without it.
//!
//! ## Why bit-identity holds
//!
//! The lowered switch step performs the *same state transitions in the
//! same order* as the interpreter — it only skips re-deriving constants,
//! and the machine loop (`step_cycle`) is one function for both:
//!
//! * Route endpoints are resolved once, against the same `GridDim` /
//!   device-table lookups the interpreter performs per cycle.
//! * Route *grouping* is not precomputed, because it cannot be: the
//!   interpreter forms a group from the not-yet-fired routes at and after
//!   the scan point, so a multicast group refused on one cycle may fire a
//!   strict subset on the next scan position. Instructions whose sources
//!   are pairwise distinct (every group a singleton — the common case for
//!   generated schedules) take a straight scan; the rest replay the
//!   interpreter's exact dynamic-subgroup scan over pre-resolved routes.
//! * Stall accounting (`switch_stall_cycles`, first-refused-group cause
//!   attribution), control transitions, PC wraparound halts, and pending
//!   PC application copy the interpreter's logic line for line.
//! * The injector fast path only skips devices whose `pull_in` is
//!   statically `None` (`EdgeDevice::is_injector`).
//! * A switch the step puts to sleep is one whose next step, and every
//!   step after it, would stall exactly as this one did until a FIFO it
//!   reads is pushed, a FIFO it writes is popped, or its PC is loaded —
//!   and each of those wakes it (the `src_producer` / `dst_consumer`
//!   slots resolved here, `TileIo::touched_switches`, the injector
//!   poll). The cycles it is not stepped on are credited as stalls, for
//!   the same cause, when it next steps or the run entry returns.
//!
//! None of this is taken on trust: the determinism suite, the random
//! schedule differential (`tests/differential.rs`), the mid-run
//! mutation rows in `tests/machine_tests.rs` and the one-test-per-edge
//! battery in `tests/sleep.rs` hold the two engines to bit-identical
//! fingerprints.

use crate::device::EdgePort;
use crate::geom::TileId;
use crate::machine::RawMachine;
use crate::program::BOTH_SWITCHES;
use crate::switch::{SwPort, SwitchCtrl, SwitchProgram, NUM_STATIC_NETS};
use raw_telemetry::SwitchStallCause;

/// A pre-resolved route source: the exact FIFO the word is popped from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CompiledSrc {
    /// The processor's shared `$csto` FIFO at `tile`.
    Csto { tile: u16 },
    /// `link_in[tile][net][dir]`.
    Link { tile: u16, net: u8, dir: u8 },
}

/// A pre-resolved route destination: the exact FIFO or device the word is
/// pushed into.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CompiledDst {
    /// The processor-facing `$csti` FIFO for `net` at `tile`.
    Csti { tile: u16, net: u8 },
    /// The neighbor tile's link input FIFO `link_in[tile][net][dir]`.
    Link { tile: u16, net: u8, dir: u8 },
    /// A bound edge device (index into the machine's device list).
    Device { index: u16 },
    /// An unbound edge: the word leaves the chip and is counted in
    /// `edge_drops`.
    Drop,
}

/// One switch route with both endpoints resolved. Routes sharing a
/// `CompiledSrc` within one instruction form a multicast group, exactly
/// as interpreter routes sharing `(net, src)` do.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CompiledRoute {
    pub src: CompiledSrc,
    pub dst: CompiledDst,
    /// [`RawMachine::awake`] slot of the component that fills `src`: the
    /// pop frees it space. The spare slot when that is an edge device.
    pub src_producer: u32,
    /// [`RawMachine::awake`] slot of the component that drains `dst`: the
    /// push gives it a word. The spare slot for a device or a drop.
    pub dst_consumer: u32,
}

/// Why a route group did not fire, and whether time alone can lift the
/// refusal: a source word still aging into visibility, or an edge device
/// pushing back. A switch stalled only on refusals that are not `timed`
/// — an empty source, a full destination FIFO — cannot move until a
/// push or pop it is woken by.
#[derive(Clone, Copy)]
struct Refusal {
    cause: SwitchStallCause,
    timed: bool,
}

/// One lowered switch instruction.
#[derive(Debug)]
pub(crate) struct CompiledInstr {
    /// Routes in the interpreter's route-list order (the `fired` bitmask
    /// indexes this list, bit *i* ↔ `routes[i]`).
    pub routes: Vec<CompiledRoute>,
    /// True when every route's source is distinct — every multicast group
    /// is a singleton, so the executor can scan routes independently
    /// without forming groups.
    pub distinct_sources: bool,
    /// `fired == all_mask` completes the instruction
    /// (`(1 << routes.len()) - 1`; 0 for a route-less instruction).
    pub all_mask: u32,
    pub ctrl: SwitchCtrl,
}

/// A whole switch program lowered for one `(tile, net)`.
#[derive(Debug)]
pub(crate) struct CompiledSwitch {
    pub instrs: Vec<CompiledInstr>,
}

/// An edge device polled for injection, with its input FIFO coordinates
/// pre-resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InjectorSlot {
    /// Index into the machine's device list (bind order).
    pub device: u16,
    pub tile: u16,
    pub net: u8,
    pub dir: u8,
}

impl InjectorSlot {
    /// The slot for device `device` bound at `port`.
    pub fn new(device: usize, port: EdgePort) -> InjectorSlot {
        InjectorSlot {
            device: device as u16,
            tile: port.tile.index() as u16,
            net: port.net as u8,
            dir: port.dir.index() as u8,
        }
    }
}

/// The lowered form of one machine, built by [`RawMachine::lower`] and
/// consumed by `EngineMode::Compiled`.
#[derive(Debug)]
pub(crate) struct CompiledPlan {
    /// Indexed by `tile * NUM_STATIC_NETS + net`.
    pub switches: Vec<CompiledSwitch>,
    /// Devices polled for injection each cycle, in device-index order
    /// (the interpreter's poll order). Pure sinks are omitted.
    pub injectors: Vec<InjectorSlot>,
}

/// Lower one switch program: the only lowering there is.
fn lower_switch_program(
    m: &RawMachine,
    tile: TileId,
    net: usize,
    prog: &SwitchProgram,
) -> CompiledSwitch {
    let t = tile.index();
    let nobody = m.awake.len() - 1;
    let instrs = prog
        .instrs
        .iter()
        .map(|i| {
            let routes: Vec<CompiledRoute> = i
                .routes
                .iter()
                .map(|r| {
                    debug_assert_eq!(r.net, net);
                    let src = match r.src {
                        SwPort::Proc => CompiledSrc::Csto { tile: t as u16 },
                        p => CompiledSrc::Link {
                            tile: t as u16,
                            net: r.net as u8,
                            dir: p.dir().unwrap().index() as u8,
                        },
                    };
                    let dst = match r.dst {
                        SwPort::Proc => CompiledDst::Csti {
                            tile: t as u16,
                            net: r.net as u8,
                        },
                        p => {
                            let d = p.dir().unwrap();
                            match m.dim().neighbor(tile, d) {
                                Some(nb) => CompiledDst::Link {
                                    tile: nb.index() as u16,
                                    net: r.net as u8,
                                    dir: d.opposite().index() as u8,
                                },
                                None => match m.device_at(t, r.net, d.index()) {
                                    Some(i) => CompiledDst::Device { index: i as u16 },
                                    None => CompiledDst::Drop,
                                },
                            }
                        }
                    };
                    let src_producer = match r.src {
                        SwPort::Proc => t,
                        p => match m.dim().neighbor(tile, p.dir().unwrap()) {
                            Some(nb) => m.switch_slot(nb.index(), net),
                            None => nobody,
                        },
                    };
                    let dst_consumer = match dst {
                        CompiledDst::Csti { .. } => t,
                        CompiledDst::Link { tile, .. } => m.switch_slot(tile as usize, net),
                        CompiledDst::Device { .. } | CompiledDst::Drop => nobody,
                    };
                    CompiledRoute {
                        src,
                        dst,
                        src_producer: src_producer as u32,
                        dst_consumer: dst_consumer as u32,
                    }
                })
                .collect();
            let distinct_sources = routes
                .iter()
                .enumerate()
                .all(|(j, a)| routes[j + 1..].iter().all(|b| b.src != a.src));
            CompiledInstr {
                all_mask: ((1u64 << routes.len()) - 1) as u32,
                distinct_sources,
                routes,
                ctrl: i.ctrl,
            }
        })
        .collect();
    CompiledSwitch { instrs }
}

impl RawMachine {
    /// Lower every installed switch program and the injecting-device
    /// poll list into the form `EngineMode::Compiled` steps. Stepping
    /// calls this itself whenever a structural mutation has dropped the
    /// lowered form; it is public only so a harness can time a lowering.
    pub fn lower(&mut self) {
        let n = self.tiles.len();
        let mut switches = Vec::with_capacity(n * NUM_STATIC_NETS);
        for (t, tile) in self.tiles.iter().enumerate() {
            for (net, prog) in tile.switch_prog.iter().enumerate() {
                switches.push(lower_switch_program(self, TileId(t as u16), net, prog));
            }
        }
        let injectors = self
            .bound_device_ports()
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.devices[i].is_injector())
            .map(|(i, &p)| InjectorSlot::new(i, p))
            .collect();
        self.plan = Some(Box::new(CompiledPlan {
            switches,
            injectors,
        }));
    }

    /// One lowered switch tick. Mirrors `step_switch` exactly:
    /// pending-PC application, halt handling, PC-overflow halt as a
    /// control transition, firing, completion, control flow, stall
    /// accounting, and first-refused-group cause attribution.
    ///
    /// On top of that it puts the switch to sleep when nothing but a
    /// wake edge can change what the next step would do — halted with no
    /// PC load pending, or stalled with no refusal that time lifts — and
    /// wakes its tile when it halts (`TileIo::switch_halted`).
    pub(crate) fn step_switch_compiled(
        &mut self,
        t: usize,
        net: usize,
        cs: &CompiledSwitch,
        cycle: u64,
    ) -> (bool, bool) {
        let slot = self.switch_slot(t, net);
        self.tiles[t].switch_state[net].apply_pending_pc(cycle);
        if self.tiles[t].switch_state[net].halted {
            self.awake[slot] = self.tiles[t].switch_state[net].pending_pc.is_some();
            return (false, false);
        }
        let pc = self.tiles[t].switch_state[net].pc;
        if pc >= cs.instrs.len() {
            self.tiles[t].switch_state[net].halted = true;
            self.awake[t] = true;
            return (false, true);
        }
        let instr = &cs.instrs[pc];
        let mut fired = self.tiles[t].switch_state[net].fired;
        let mut any_fired = false;
        let attribute = self.active_sink().is_some();
        let mut block_cause: Option<SwitchStallCause> = None;
        let mut timed = false;
        if instr.distinct_sources {
            // Every group is a singleton: scan each not-yet-fired route
            // once, in list order (the interpreter's scan order).
            for (j, r) in instr.routes.iter().enumerate() {
                if fired & (1 << j) != 0 {
                    continue;
                }
                match self.try_fire_single(r, cycle) {
                    Ok(()) => {
                        fired |= 1 << j;
                        any_fired = true;
                    }
                    Err(refusal) => {
                        timed |= refusal.timed;
                        if attribute && block_cause.is_none() {
                            block_cause = Some(refusal.cause);
                        }
                    }
                }
            }
        } else {
            // Dynamic-subgroup scan, replayed exactly as the interpreter
            // forms groups: at each unfired position, the group is every
            // not-yet-fired route *at or after* it with the same source.
            let routes = instr.routes.as_slice();
            let nroutes = routes.len();
            let mut gi = 0;
            while gi < nroutes {
                if fired & (1 << gi) != 0 {
                    gi += 1;
                    continue;
                }
                let lead_src = routes[gi].src;
                let mut group: u32 = 0;
                for (j, r) in routes.iter().enumerate().skip(gi) {
                    if fired & (1 << j) == 0 && r.src == lead_src {
                        group |= 1 << j;
                    }
                }
                match self.try_fire_group_compiled(routes, group, cycle) {
                    Ok(()) => {
                        fired |= group;
                        any_fired = true;
                    }
                    Err(refusal) => {
                        timed |= refusal.timed;
                        if attribute && block_cause.is_none() {
                            block_cause = Some(refusal.cause);
                        }
                    }
                }
                gi += 1;
            }
        }
        self.tiles[t].switch_state[net].fired = fired;
        let complete = fired == instr.all_mask;
        let mut ctrl_transition = false;
        if complete {
            let prog_len = cs.instrs.len();
            let st = &mut self.tiles[t].switch_state[net];
            st.fired = 0;
            match instr.ctrl {
                SwitchCtrl::Next => {
                    st.pc += 1;
                    if st.pc >= prog_len {
                        st.halted = true;
                    }
                }
                SwitchCtrl::Jump(pc) => st.pc = pc,
                SwitchCtrl::WaitPc => st.halted = true,
            }
            if st.halted {
                self.awake[t] = true;
            }
            ctrl_transition = !any_fired;
        } else if !any_fired {
            self.awake[slot] = timed;
            self.tiles[t].switch_stall_cycles[net] += 1;
            if let Some(cause) = block_cause {
                self.last_switch_cause[t][net] = cause;
                if let Some(sink) = self.active_sink() {
                    sink.lock()
                        .unwrap()
                        .switch_stalls(t as u16, net as u8, cause, 1);
                }
            }
        }
        (any_fired, ctrl_transition)
    }

    /// Is the word at `src` visible to the switch this cycle? If not,
    /// the refusal is timed exactly when a word is there, still aging.
    #[inline]
    fn src_visible(&self, src: CompiledSrc, cycle: u64) -> Result<(), Refusal> {
        let fifo = match src {
            CompiledSrc::Csto { tile } => &self.tiles[tile as usize].csto,
            CompiledSrc::Link { tile, net, dir } => {
                &self.link_in[tile as usize][net as usize][dir as usize]
            }
        };
        if fifo.has_visible(cycle, 0) {
            Ok(())
        } else {
            Err(Refusal {
                cause: SwitchStallCause::FifoEmpty,
                timed: fifo.is_aging(cycle, 0),
            })
        }
    }

    /// Would `dst` accept a word this cycle? On refusal, the stall cause
    /// in the interpreter's attribution order.
    #[inline]
    fn dst_accepts(&self, dst: CompiledDst, cycle: u64) -> Result<(), Refusal> {
        let has_space = match dst {
            CompiledDst::Csti { tile, net } => {
                self.tiles[tile as usize].csti[net as usize].has_space()
            }
            CompiledDst::Link { tile, net, dir } => {
                self.link_in[tile as usize][net as usize][dir as usize].has_space()
            }
            CompiledDst::Device { index } => {
                return if self.devices[index as usize].can_push(cycle) {
                    Ok(())
                } else {
                    Err(Refusal {
                        cause: SwitchStallCause::DeviceBackpressure,
                        timed: true,
                    })
                };
            }
            CompiledDst::Drop => true,
        };
        if has_space {
            Ok(())
        } else {
            Err(Refusal {
                cause: SwitchStallCause::FifoFull,
                timed: false,
            })
        }
    }

    /// Pop the route's source word, waking whoever fills that FIFO. A
    /// `$csto` pop also changes the front word the other network's
    /// switch sees, so it wakes both of the tile's switches.
    #[inline]
    fn pop_src(&mut self, r: &CompiledRoute, cycle: u64) -> u32 {
        self.awake[r.src_producer as usize] = true;
        match r.src {
            CompiledSrc::Csto { tile } => {
                self.wake_switches(tile as usize, BOTH_SWITCHES);
                self.tiles[tile as usize]
                    .csto
                    .pop_visible(cycle, 0)
                    .unwrap()
            }
            CompiledSrc::Link { tile, net, dir } => self.link_in[tile as usize][net as usize]
                [dir as usize]
                .pop_visible(cycle, 0)
                .unwrap(),
        }
    }

    /// Push `word` into the route's destination, waking whoever drains it.
    #[inline]
    fn push_dst(&mut self, r: &CompiledRoute, word: u32, cycle: u64) {
        self.awake[r.dst_consumer as usize] = true;
        match r.dst {
            CompiledDst::Csti { tile, net } => {
                let ok = self.tiles[tile as usize].csti[net as usize].push(word, cycle);
                debug_assert!(ok);
            }
            CompiledDst::Link { tile, net, dir } => {
                let ok = self.link_in[tile as usize][net as usize][dir as usize].push(word, cycle);
                debug_assert!(ok);
            }
            CompiledDst::Device { index } => self.devices[index as usize].push_out(word, cycle),
            CompiledDst::Drop => self.edge_drops += 1,
        }
        self.routes_fired += 1;
    }

    /// Check-and-fire for a singleton group: source visible and the one
    /// destination willing, or the refusal cause.
    #[inline]
    fn try_fire_single(&mut self, r: &CompiledRoute, cycle: u64) -> Result<(), Refusal> {
        self.src_visible(r.src, cycle)?;
        self.dst_accepts(r.dst, cycle)?;
        let word = self.pop_src(r, cycle);
        self.push_dst(r, word, cycle);
        Ok(())
    }

    /// Check-and-fire for a multicast group (`group` is a bitmask over
    /// `routes`, all sharing a source): the shared source must be visible
    /// and every member destination willing; the popped word is
    /// duplicated across members in list order.
    fn try_fire_group_compiled(
        &mut self,
        routes: &[CompiledRoute],
        group: u32,
        cycle: u64,
    ) -> Result<(), Refusal> {
        let lead = routes[group.trailing_zeros() as usize];
        self.src_visible(lead.src, cycle)?;
        let mut bits = group;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.dst_accepts(routes[j].dst, cycle)?;
        }
        let word = self.pop_src(&lead, cycle);
        let mut bits = group;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.push_dst(&routes[j], word, cycle);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{WordSink, WordSource};
    use crate::digest::{first_divergence, Component};
    use crate::geom::{Dir, GridDim};
    use crate::machine::EngineMode;
    use crate::machine::RawConfig;
    use crate::switch::{Route, SwitchInstr, NET0};

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

    /// West-to-east pass-through on the top row, fed by a source and
    /// drained by a throttled sink (exercises device backpressure).
    fn build(engine: EngineMode) -> RawMachine {
        let mut m = RawMachine::new(RawConfig {
            dim: GridDim { rows: 2, cols: 2 },
            engine,
        });
        for t in [0usize, 1] {
            m.set_switch_program(
                TileId(t as u16),
                NET0,
                SwitchProgram::new(vec![SwitchInstr::new(
                    vec![Route::new(NET0, SwPort::W, SwPort::E)],
                    SwitchCtrl::Jump(0),
                )]),
            );
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
