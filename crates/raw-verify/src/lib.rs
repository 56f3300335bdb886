//! # raw-verify — static verification of Rotating Crossbar schedules
//!
//! The paper's fabric is *compile-time scheduled*: whether the static
//! network deadlocks, overflows a 4-deep link FIFO, or misroutes a word
//! is a property of the generated switch programs and jump tables, not of
//! runtime arbitration (§5.5, §6.2). This crate proves those properties
//! without running the simulator, over four analyses:
//!
//! 1. **Route conflict & geometry** ([`conflict`], `RV1xx`) — per switch
//!    instruction, no crossbar output is driven twice on one net, `WaitPc`
//!    carries no routes, every route on an off-grid link uses a declared
//!    external port, programs fit switch instruction memory.
//! 2. **Lockstep channel dataflow** ([`lockstep`], `RV2xx`) — an abstract
//!    interpreter steps every switch program of a fabric together over one
//!    schedule period, tracking symbolic FIFO occupancies, and proves the
//!    schedule needs at most the hardware's 4-deep link FIFOs, that every
//!    inter-tile wire's sends match its receives, and that every switch
//!    re-synchronizes at its `WaitPc` join.
//! 3. **Deadlock freedom** ([`lockstep`], `RV3xx`) — when the abstract
//!    machine stalls, the blocking wait-for graph (switch waiting on the
//!    producer of its empty source wire) is extracted; a cycle is the
//!    static signature of the §5.5 static-network deadlock.
//! 4. **Jump-table model check** ([`jumptable`], `RV4xx`) — every global
//!    `(token, hdrs)` index (2,500 unicast, 16⁴·4 multicast) is replayed
//!    against the [`raw_xbar::config::schedule`] oracle: the minimized
//!    per-tile entries must route identically, no output may be
//!    double-granted, the token holder's bid must win, and every
//!    minimized body routine must decode back to its local
//!    configuration.
//!
//! The analyses read the [`raw_xbar::RouterImage`] a router holds
//! ([`raw_xbar::RouterImage::of`]): the switch programs are the very
//! `Arc`s the routers install ([`lockstep::router_model`]), the scenarios
//! come from the image's configuration space, and the assembly crossbar's
//! jump tables are the ones its tiles load. [`verify_all`] takes no
//! options: it checks the unicast images at quanta 16 and 64, and the
//! multicast and assembly-crossbar images at 16.
//!
//! One level up, the whole-fabric analyses (`RV5xx` channel-dependency
//! deadlock, `RV6xx` routing soundness) live with the fabric they read,
//! in `raw_fabric::verify`: they walk the `TopologyPlan` the executor
//! runs and the forwarding tables its routers hold, and report through
//! this crate's [`Diag`], [`Analysis`] and [`AnalysisReport`].
//!
//! ## Abstract domain
//!
//! The lockstep interpreter mirrors the machine's group-fire semantics
//! (routes sharing a source fire together, an instruction completes when
//! all routes fired, words pushed at step *s* become visible at *s*+1)
//! but gives every wire **infinite capacity** and records the high-water
//! mark instead. Soundness: if the high-water mark never exceeds the real
//! capacity, backpressure never engages in the capped machine, so the
//! capped machine's dataflow is identical to the abstract one; if it does
//! exceed the capacity the schedule is reported (`RV204`) as requiring
//! more buffering than the hardware has. Tile processors are modeled as
//! always-ready sources/sinks (the maximal-rate abstraction) unless a
//! slot declares a finite `proc_words` budget; devices on declared
//! external ports are always-ready.

pub mod conflict;
pub mod jumptable;
pub mod lockstep;
pub mod sched;

use std::sync::Arc;

use serde::Serialize;

use raw_sim::{Dir, GridDim, SwitchProgram, TileId};
use raw_xbar::RouterImage;

/// Which analysis produced a diagnostic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Analysis {
    RouteConflict,
    Lockstep,
    Deadlock,
    JumpTable,
    /// Fabric-level channel-dependency deadlock analysis (`RV5xx`).
    FabricDeadlock,
    /// Fabric-level routing soundness (`RV6xx`).
    FabricRouting,
    /// Scheduler matching validity & ring routability (`RV801`).
    SchedMatching,
    /// Scheduler starvation freedom / bounded wait (`RV802`).
    SchedStarvation,
    /// Scheduler crosspoint occupancy bound (`RV803`).
    SchedOccupancy,
}

// The vendored serde shim only derives on structs; serialize the enum as
// its variant name by hand.
impl Serialize for Analysis {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(format!("{self:?}"))
    }
}

/// One structured violation, with a stable error code.
///
/// Codes: `RV101` double-driven output, `RV102` undeclared off-grid port,
/// `RV103` `WaitPc` carrying routes, `RV104` program exceeds switch IMEM,
/// `RV105` route/net slot mismatch, `RV106` route count exceeds the fired
/// mask, `RV107` jump target out of bounds; `RV201` unmatched send/recv
/// (residual words at period end), `RV202` step budget exceeded
/// (livelock), `RV203` switch not re-synchronized at a `WaitPc` at period
/// end, `RV204` schedule requires FIFO depth beyond the hardware's;
/// `RV301` cyclic wait-for (deadlock), `RV302` stalled on a producer that
/// can never fire; `RV401` jump-table entry routes differently from the
/// oracle, `RV402` grant bit differs from the oracle, `RV403` output
/// granted twice, `RV404` token priority violated, `RV405` body routine
/// does not implement its local configuration, `RV406` assembly jump
/// table / generated tile program inconsistent.
///
/// Fabric-level codes (`raw_fabric::verify`): `RV501` structural channel-dependency
/// cycle (independent of the escape valves), `RV502` FIFO-ingress
/// head-of-line coupling closes a cycle (VOQ breaks it); `RV601` LPM
/// table does not cover the fabric address space, `RV602` routing loop,
/// `RV603` misdelivery, `RV604` route exits a port that is neither a
/// link nor a declared external output, `RV605` ingress table disagrees
/// with the declared spray uplink map. The `RV7xx` link-sizing codes are
/// `raw_fabric::FabricConfigError::code`'s: `RV701` link capacity below
/// the stall threshold plus progress room, `RV704` store-and-forward
/// egress has no emission bound, `RV705` zero-length epoch.
///
/// Scheduler codes ([`sched`]): `RV801` invalid or non-ring-routable
/// matching (port conflict, unrequested grant), `RV802` a persistently
/// requesting input starves past the wait bound, `RV803` a crosspoint
/// buffer exceeds its declared capacity.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Diag {
    pub code: &'static str,
    pub analysis: Analysis,
    /// Program or fabric the violation was found in.
    pub program: String,
    /// Tile, if the violation is localized to one.
    pub tile: Option<u16>,
    /// Static network, if relevant.
    pub net: Option<usize>,
    /// Switch program counter, if relevant.
    pub pc: Option<usize>,
    /// Wire (as `tile:net:dir` or a port name), if relevant.
    pub wire: Option<String>,
    /// Abstract lockstep step, if relevant.
    pub step: Option<usize>,
    pub msg: String,
}

impl Diag {
    pub fn new(code: &'static str, analysis: Analysis, program: &str, msg: String) -> Diag {
        Diag {
            code,
            analysis,
            program: program.to_string(),
            tile: None,
            net: None,
            pc: None,
            wire: None,
            step: None,
            msg,
        }
    }

    pub fn at_tile(mut self, tile: TileId) -> Diag {
        self.tile = Some(tile.0);
        self
    }

    pub fn at_net(mut self, net: usize) -> Diag {
        self.net = Some(net);
        self
    }

    pub fn at_pc(mut self, pc: usize) -> Diag {
        self.pc = Some(pc);
        self
    }

    pub fn at_wire(mut self, wire: String) -> Diag {
        self.wire = Some(wire);
        self
    }

    pub fn at_step(mut self, step: usize) -> Diag {
        self.step = Some(step);
        self
    }
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.code, self.program)?;
        if let Some(t) = self.tile {
            write!(f, " tile {t}")?;
        }
        if let Some(n) = self.net {
            write!(f, " net {n}")?;
        }
        if let Some(pc) = self.pc {
            write!(f, " pc {pc}")?;
        }
        if let Some(w) = &self.wire {
            write!(f, " wire {w}")?;
        }
        if let Some(s) = self.step {
            write!(f, " step {s}")?;
        }
        write!(f, ": {}", self.msg)
    }
}

/// One switch processor in a fabric under verification.
#[derive(Clone, Debug)]
pub struct SwitchSlot {
    pub tile: TileId,
    pub net: usize,
    pub program: Arc<SwitchProgram>,
    /// Routine start PCs the tile processor steers the switch through
    /// during one schedule period (§6.5 `swpc`), in order. Empty means the
    /// switch free-runs from PC 0 until it halts.
    pub script: Vec<usize>,
    /// Words the tile processor will push into `$csto` over the period,
    /// or `None` for the always-ready abstraction.
    pub proc_words: Option<usize>,
    /// Free-running service loops (e.g. the egress network-1
    /// processor-to-line loop) never halt; they get conflict and geometry
    /// checks but are excluded from the lockstep completion criteria.
    pub free_running: bool,
}

impl SwitchSlot {
    pub fn new(
        tile: TileId,
        net: usize,
        program: impl Into<Arc<SwitchProgram>>,
        script: Vec<usize>,
    ) -> SwitchSlot {
        SwitchSlot {
            tile,
            net,
            program: program.into(),
            script,
            proc_words: None,
            free_running: false,
        }
    }
}

/// A fabric: switch programs plus the geometry and external-port context
/// the analyses check against.
#[derive(Clone, Debug)]
pub struct FabricModel {
    pub name: String,
    pub dim: GridDim,
    pub slots: Vec<SwitchSlot>,
    /// Declared off-grid ports words may legitimately *enter* through
    /// (line-card receive sides): `(tile, net, dir)`.
    pub ext_in: Vec<(TileId, usize, Dir)>,
    /// Declared off-grid ports words may legitimately *leave* through.
    pub ext_out: Vec<(TileId, usize, Dir)>,
}

impl FabricModel {
    pub fn new(name: &str, dim: GridDim) -> FabricModel {
        FabricModel {
            name: name.to_string(),
            dim,
            slots: Vec::new(),
            ext_in: Vec::new(),
            ext_out: Vec::new(),
        }
    }
}

/// Per-analysis outcome in the machine-readable report.
#[derive(Clone, Debug, Serialize)]
pub struct AnalysisReport {
    pub name: &'static str,
    pub code_prefix: &'static str,
    pub pass: bool,
    /// Units checked, analysis-specific (instructions, scenarios, global
    /// indices, body routines).
    pub checked: u64,
    pub detail: String,
}

/// The full verification report (`results/verify.json`).
#[derive(Clone, Debug, Serialize)]
pub struct VerifyReport {
    pub pass: bool,
    /// Every program/fabric the analyses covered.
    pub programs_checked: Vec<String>,
    pub analyses: Vec<AnalysisReport>,
    /// Config-space coverage counters.
    pub coverage: Coverage,
    pub diagnostics: Vec<Diag>,
}

#[derive(Clone, Debug, Default, Serialize)]
pub struct Coverage {
    /// Unicast global indices model-checked, and the space size (must be
    /// 2500/2500).
    pub unicast_points: u64,
    pub unicast_space: u64,
    /// Multicast global indices model-checked (16⁴·4).
    pub multicast_points: u64,
    pub multicast_space: u64,
    /// Minimized body routines decoded back to their configurations, and
    /// the minimized-set size (the paper's "32/32").
    pub body_routines: u64,
    pub body_routine_space: u64,
    /// Distinct lockstep scenarios interpreted (deduplicated by joint
    /// per-tile configuration signature).
    pub lockstep_scenarios: u64,
    /// Highest abstract FIFO occupancy any verified schedule requires.
    pub max_fifo_high_water: u64,
    /// Fabric topologies statically verified (RV5xx–RV6xx).
    pub fabric_topologies: u64,
    /// Channel-dependency-graph nodes across all verified fabrics.
    pub fabric_cdg_nodes: u64,
    /// Channel-dependency-graph edges across all verified fabrics.
    pub fabric_cdg_edges: u64,
    /// `(source, destination, spray)` routing walks executed.
    pub fabric_route_walks: u64,
    /// Router × fabric-address coverage points checked.
    pub fabric_coverage_points: u64,
    /// Scheduler matchings checked for validity/routability (RV801).
    pub sched_matchings: u64,
    /// Persistent-demand trace slots driven over the arbiters
    /// (RV802/RV803).
    pub sched_trace_slots: u64,
}

/// Unicast quanta whose router images are verified: 16 words (64-byte
/// packets, the peak point) and 64 (the default).
const QUANTA: [usize; 2] = [16, 64];

/// Ring sizes beyond 4 whose `scale::ring_walk` invariants are sampled
/// (n = 4 is always exhaustive).
const SCALE_NS: [usize; 2] = [6, 8];

/// The router image of a quantum and alphabet, as a router holds it.
fn image(quantum: usize, multicast: bool, asm_crossbar: bool) -> Arc<RouterImage> {
    RouterImage::of(quantum, multicast, asm_crossbar).expect("a verified quantum builds")
}

/// Run every analysis over the router images the routers run: the
/// crossbar / ingress / egress switch code of the unicast image at each
/// of `QUANTA` and of the multicast image at the smallest, one schedule
/// period per reachable joint configuration, the full jump-table spaces,
/// the assembly crossbar's jump tables and generated tile assembly, and
/// the generalized `scale` ring walk.
pub fn verify_all() -> VerifyReport {
    let mut diags: Vec<Diag> = Vec::new();
    let mut programs: Vec<String> = Vec::new();
    let mut cov = Coverage::default();
    let mut conflict_instrs = 0u64;
    let mut lockstep_steps = 0u64;

    let unicast = QUANTA.map(|q| image(q, false, false));
    let multicast = image(QUANTA[0], true, false);
    let sweeps = (QUANTA.iter().zip(&unicast))
        .map(|(q, img)| (format!("router-fabric-ShortestFirst-q{q}"), img))
        .chain([(
            format!("router-fabric-mcast-ShortestFirst-q{}", QUANTA[0]),
            &multicast,
        )]);
    for (name, img) in sweeps {
        programs.push(name.clone());
        // Conflict/geometry checks over the full installed programs
        // (scenario scripts reference only routine subsets; this pass
        // walks every instruction of every program once, including the
        // free-running egress network-1 loop).
        conflict_instrs += conflict::check_fabric(&lockstep::router_model(img, &name), &mut diags);
        // Lockstep + deadlock over each reachable joint configuration.
        cov.lockstep_scenarios += lockstep::for_each_router_scenario(img, &name, |scenario| {
            let out = lockstep::run(scenario, &mut diags);
            cov.max_fifo_high_water = cov.max_fifo_high_water.max(out.max_high_water);
            lockstep_steps += out.steps;
        });
    }
    let (cs, csm) = (&unicast[0].cs, &multicast.cs);

    // Analysis 4: exhaustive jump-table model check over both alphabets,
    // plus body-routine decode and the assembly table image.
    programs.push(jumptable::space_name(cs));
    let c = jumptable::check_space(cs, &mut diags);
    cov.unicast_points = c.points;
    cov.unicast_space = c.space;

    programs.push(jumptable::space_name(csm));
    let c = jumptable::check_space(csm, &mut diags);
    cov.multicast_points = c.points;
    cov.multicast_space = c.space;

    for (&quantum, img) in QUANTA.iter().zip(&unicast) {
        let b = jumptable::check_body_routines(img, quantum, &mut diags);
        cov.body_routines = cov.body_routines.max(b);
    }
    cov.body_routine_space = cs.configs.len() as u64;

    // The §6.5 generated tile assembly: the jump tables its tiles load
    // agree with the switch code, and the program assembles with every
    // instruction validating.
    programs.push("asm-crossbar".into());
    jumptable::check_asm_crossbar(&image(QUANTA[0], true, true), &mut diags);

    // The generalized scale.rs ring walk: oracle invariants, n=4
    // exhaustive, larger rings sampled.
    programs.push("scale-ring-walk".into());
    jumptable::check_ring_walk(&SCALE_NS, &mut diags);

    let fail = |a: Analysis| diags.iter().filter(|d| d.analysis == a).count();
    let analyses = vec![
        AnalysisReport {
            name: "route-conflict",
            code_prefix: "RV1",
            pass: fail(Analysis::RouteConflict) == 0,
            checked: conflict_instrs,
            detail: "switch instructions checked for output conflicts, WaitPc purity, \
                     geometry, and IMEM fit"
                .into(),
        },
        AnalysisReport {
            name: "lockstep-dataflow",
            code_prefix: "RV2",
            pass: fail(Analysis::Lockstep) == 0,
            checked: lockstep_steps,
            detail: format!(
                "abstract steps over {} scenarios; max FIFO high-water {} (hardware depth {})",
                cov.lockstep_scenarios,
                cov.max_fifo_high_water,
                lockstep::LINK_FIFO_DEPTH
            ),
        },
        AnalysisReport {
            name: "deadlock-freedom",
            code_prefix: "RV3",
            pass: fail(Analysis::Deadlock) == 0,
            checked: cov.lockstep_scenarios,
            detail: "wait-for graph acyclic at every stalled abstract step".into(),
        },
        AnalysisReport {
            name: "jump-table-model-check",
            code_prefix: "RV4",
            pass: fail(Analysis::JumpTable) == 0,
            checked: cov.unicast_points + cov.multicast_points,
            detail: format!(
                "global indices vs the schedule() oracle; {}/{} body routines decoded",
                cov.body_routines, cov.body_routine_space
            ),
        },
    ];

    VerifyReport {
        pass: diags.is_empty(),
        programs_checked: programs,
        analyses,
        coverage: cov,
        diagnostics: diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_verification_passes_end_to_end() {
        let report = verify_all();
        assert!(report.pass, "{:?}", report.diagnostics);
        assert!(report.diagnostics.is_empty());
        // Exhaustive coverage: 2,500 unicast and 16^4*4 multicast global
        // indices.
        assert_eq!(report.coverage.unicast_points, 2_500);
        assert_eq!(
            report.coverage.unicast_points,
            report.coverage.unicast_space
        );
        assert_eq!(report.coverage.multicast_points, 4 * 16u64.pow(4));
        assert_eq!(
            report.coverage.multicast_points,
            report.coverage.multicast_space
        );
        assert!(report.coverage.lockstep_scenarios > 100);
        assert!(report.coverage.max_fifo_high_water <= lockstep::LINK_FIFO_DEPTH);
        assert_eq!(report.analyses.len(), 4);
        assert!(report.analyses.iter().all(|a| a.pass && a.checked > 0));
        // The report must serialize (results/verify.json is part of the
        // repro pipeline).
        let v = serde::Serialize::to_value(&report);
        assert!(matches!(v, serde::Value::Object(_)));
    }
}
