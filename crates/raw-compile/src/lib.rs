//! # raw-compile — schedule specialization for the Raw simulator
//!
//! The paper's router is *compile-time scheduled*: every static-network
//! crossbar setting is known before the machine runs (§5.3, §6.2). This
//! crate exploits that the same way a match-action pipeline compiler
//! does — it consumes the switch programs installed in a constructed
//! [`RawMachine`] and emits the pre-resolved step structures
//! ([`raw_sim::compiled`]) that the [`EngineMode::Compiled`] engine
//! executes: route endpoints resolved to concrete FIFO/device
//! coordinates, multicast grouping classified per instruction, idle
//! tiles and pure-sink devices dropped from the per-cycle polls.
//!
//! Two independent implementations of the lowering exist on purpose:
//! this crate compiles through the machine's *public* introspection
//! surface ([`RawMachine::switch_program`], [`RawMachine::dim`],
//! [`RawMachine::bound_device_ports`]), and
//! `RawMachine::install_compiled_plan` re-lowers every program with
//! raw-sim's private reference and rejects any disagreement. A plan that
//! installs therefore cannot change machine-observable behavior; the
//! differential proptests in this crate and the fingerprint golden tests
//! in raw-bench check the executed result is bit-identical anyway.
//!
//! Compilation is conservative: a switch program this pass declines
//! (see [`CompileOptions`]) simply stays on the interpreter — the
//! compiled engine falls back per switch, and on any structural
//! mutation the whole plan is dropped and execution degrades to the
//! interpreter transparently.

use raw_sim::compiled::{
    CompiledDst, CompiledInstr, CompiledPlan, CompiledRoute, CompiledSrc, CompiledSwitch,
    InjectorSlot,
};
use raw_sim::{EngineMode, RawMachine, SwPort, TileId, NUM_STATIC_NETS, SWITCH_IMEM_INSTRS};

/// Knobs for [`compile_machine`]. The defaults compile everything
/// compilable.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Decline programs longer than this many instructions (they stay on
    /// the interpreter). Defaults to the switch instruction-memory bound;
    /// lower it to force per-switch fallback paths in tests.
    pub max_instrs: usize,
    /// Explicitly decline these `(tile, net)` switches — test hook for
    /// exercising mixed compiled/interpreted execution.
    pub skip: Vec<(TileId, usize)>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            max_instrs: SWITCH_IMEM_INSTRS,
            skip: Vec::new(),
        }
    }
}

/// What the compiler did, for logs and experiment records.
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    /// Switches lowered to specialized programs.
    pub compiled_switches: usize,
    /// Switches left on the interpreter, with the reason.
    pub fallbacks: Vec<(TileId, usize, String)>,
    /// Total routes across all compiled instructions.
    pub routes_lowered: usize,
    /// Compiled instructions whose sources are pairwise distinct (the
    /// straight-scan fast path).
    pub distinct_instrs: usize,
    /// Compiled instructions requiring the dynamic multicast-group scan.
    pub grouped_instrs: usize,
    /// Tiles given the idle fast path.
    pub idle_tiles: usize,
    /// Devices polled for injection (pure sinks are dropped).
    pub injector_devices: usize,
    /// Devices dropped from the injection poll.
    pub skipped_sinks: usize,
}

impl CompileReport {
    /// Every switch compiled, nothing interpreted.
    pub fn full_coverage(&self) -> bool {
        self.fallbacks.is_empty()
    }
}

/// Resolve one `SwPort` source at `(tile, net)` to its FIFO.
fn lower_src(tile: TileId, net: usize, src: SwPort) -> CompiledSrc {
    match src {
        SwPort::Proc => CompiledSrc::Csto {
            tile: tile.index() as u16,
        },
        p => CompiledSrc::Link {
            tile: tile.index() as u16,
            net: net as u8,
            dir: p.dir().unwrap().index() as u8,
        },
    }
}

/// Resolve one `SwPort` destination at `(tile, net)`: a local `$csti`,
/// a neighbor's link FIFO, a bound edge device, or an off-chip drop.
fn lower_dst(m: &RawMachine, tile: TileId, net: usize, dst: SwPort) -> CompiledDst {
    match dst {
        SwPort::Proc => CompiledDst::Csti {
            tile: tile.index() as u16,
            net: net as u8,
        },
        p => {
            let d = p.dir().unwrap();
            match m.dim().neighbor(tile, d) {
                Some(nb) => CompiledDst::Link {
                    tile: nb.index() as u16,
                    net: net as u8,
                    dir: d.opposite().index() as u8,
                },
                None => {
                    let found = m
                        .bound_device_ports()
                        .iter()
                        .position(|ep| ep.tile == tile && ep.net == net && ep.dir == d);
                    match found {
                        Some(i) => CompiledDst::Device { index: i as u16 },
                        None => CompiledDst::Drop,
                    }
                }
            }
        }
    }
}

/// Lower the switch program installed at `(tile, net)`, or explain why
/// it stays on the interpreter.
pub fn compile_switch(
    m: &RawMachine,
    tile: TileId,
    net: usize,
    opts: &CompileOptions,
) -> Result<CompiledSwitch, String> {
    if opts.skip.contains(&(tile, net)) {
        return Err("declined by options".into());
    }
    let prog = m.switch_program(tile, net);
    if prog.instrs.len() > opts.max_instrs {
        return Err(format!(
            "{} instructions exceed the compile bound of {}",
            prog.instrs.len(),
            opts.max_instrs
        ));
    }
    prog.validate()?;
    let instrs = prog
        .instrs
        .iter()
        .map(|i| {
            let routes: Vec<CompiledRoute> = i
                .routes
                .iter()
                .map(|r| CompiledRoute {
                    src: lower_src(tile, net, r.src),
                    dst: lower_dst(m, tile, net, r.dst),
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
    Ok(CompiledSwitch { instrs })
}

/// Compile every switch program and poll list of `machine` into a
/// [`CompiledPlan`] and install it. Switches the compiler declines stay
/// on the interpreter (recorded in the report); the plan as a whole is
/// revalidated by raw-sim at install time, so a successful return
/// guarantees bit-identical execution under [`EngineMode::Compiled`].
pub fn compile_machine(
    machine: &mut RawMachine,
    opts: &CompileOptions,
) -> Result<CompileReport, String> {
    let n = machine.dim().tiles();
    let mut report = CompileReport::default();
    let mut switches = Vec::with_capacity(n * NUM_STATIC_NETS);
    let mut idle_tiles = Vec::with_capacity(n);
    for t in 0..n {
        let tile = TileId(t as u16);
        for net in 0..NUM_STATIC_NETS {
            match compile_switch(machine, tile, net, opts) {
                Ok(cs) => {
                    report.compiled_switches += 1;
                    for i in &cs.instrs {
                        report.routes_lowered += i.routes.len();
                        if i.routes.is_empty() {
                            // Route-less control instructions count as
                            // neither scan flavor.
                        } else if i.distinct_sources {
                            report.distinct_instrs += 1;
                        } else {
                            report.grouped_instrs += 1;
                        }
                    }
                    switches.push(Some(cs));
                }
                Err(reason) => {
                    report.fallbacks.push((tile, net, reason));
                    switches.push(None);
                }
            }
        }
        let idle = machine.program_is_idle(tile);
        report.idle_tiles += idle as usize;
        idle_tiles.push(idle);
    }
    let mut injectors = Vec::new();
    for (i, p) in machine.bound_device_ports().iter().enumerate() {
        if machine.device_is_injector(i) {
            injectors.push(InjectorSlot {
                device: i as u16,
                tile: p.tile.index() as u16,
                net: p.net as u8,
                dir: p.dir.index() as u8,
            });
        } else {
            report.skipped_sinks += 1;
        }
    }
    report.injector_devices = injectors.len();
    machine.install_compiled_plan(CompiledPlan {
        switches,
        injectors,
        idle_tiles,
    })?;
    Ok(report)
}

/// Compile `machine` if (and only if) its engine is
/// [`EngineMode::Compiled`] (the default) — the hook harness
/// constructors call unconditionally. Returns the report when
/// compilation ran.
pub fn compile_if_enabled(machine: &mut RawMachine) -> Result<Option<CompileReport>, String> {
    if machine.config().engine == EngineMode::Compiled {
        compile_machine(machine, &CompileOptions::default()).map(Some)
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_sim::{
        Dir, EdgePort, GridDim, RawConfig, Route, SwitchCtrl, SwitchInstr, SwitchProgram, WordSink,
        WordSource, NET0,
    };

    fn machine(engine: EngineMode) -> RawMachine {
        let mut m = RawMachine::new(RawConfig {
            dim: GridDim { rows: 2, cols: 2 },
            engine,
            ..RawConfig::default()
        });
        for t in [0u16, 1] {
            m.set_switch_program(
                TileId(t),
                NET0,
                SwitchProgram::new(vec![SwitchInstr::new(
                    vec![Route::new(NET0, SwPort::W, SwPort::E)],
                    SwitchCtrl::Jump(0),
                )]),
            );
        }
        m.bind_device(
            EdgePort::new(TileId(0), Dir::West, NET0),
            Box::new(WordSource::new(0u32..128)),
        );
        m.bind_device(
            EdgePort::new(TileId(1), Dir::East, NET0),
            Box::new(WordSink::rate_limited(3).0),
        );
        m
    }

    #[test]
    fn compiles_and_reports() {
        let mut m = machine(EngineMode::Compiled);
        let report = compile_machine(&mut m, &CompileOptions::default()).unwrap();
        assert!(report.full_coverage());
        assert_eq!(report.compiled_switches, 8);
        assert_eq!(report.routes_lowered, 2);
        assert_eq!(report.idle_tiles, 4);
        assert_eq!(report.injector_devices, 1);
        assert_eq!(report.skipped_sinks, 1);
        assert!(m.has_compiled_plan());
    }

    #[test]
    fn skip_option_forces_fallback() {
        let mut m = machine(EngineMode::Compiled);
        let opts = CompileOptions {
            skip: vec![(TileId(0), NET0)],
            ..CompileOptions::default()
        };
        let report = compile_machine(&mut m, &opts).unwrap();
        assert_eq!(report.fallbacks.len(), 1);
        assert!(!report.full_coverage());
        assert!(m.has_compiled_plan());
    }

    #[test]
    fn compile_if_enabled_respects_engine() {
        let mut m = machine(EngineMode::PerCycle);
        assert!(compile_if_enabled(&mut m).unwrap().is_none());
        assert!(!m.has_compiled_plan());
        let mut m = machine(EngineMode::Compiled);
        assert!(compile_if_enabled(&mut m).unwrap().is_some());
        assert!(m.has_compiled_plan());
    }

    /// The independent lowering here must agree with raw-sim's reference
    /// (install_compiled_plan revalidates); run the machine to make sure
    /// the installed plan also executes identically.
    #[test]
    fn compiled_run_matches_interpreter() {
        let mut reference = machine(EngineMode::PerCycle);
        reference.run(600);
        let mut m = machine(EngineMode::Compiled);
        compile_machine(&mut m, &CompileOptions::default()).unwrap();
        m.run(600);
        assert_eq!(m.routes_fired, reference.routes_fired);
        assert_eq!(m.edge_drops, reference.edge_drops);
        for t in 0..4 {
            let tile = TileId(t);
            assert_eq!(m.stats(tile).counts, reference.stats(tile).counts);
            assert_eq!(
                m.switch_stall_cycles(tile),
                reference.switch_stall_cycles(tile)
            );
        }
    }
}
