//! Golden determinism tests.
//!
//! Two guarantees, both load-bearing for every number in `results/`:
//! 1. Reproducibility — the same experiment run twice produces
//!    byte-identical metrics and Figure 7-3 plots (no hidden
//!    host-dependent state).
//! 2. Engine equivalence — the compiled engine produces results
//!    bit-identical to per-cycle stepping, on the Figure 7-1 corners and
//!    under an active chaos fault plan.
//!
//! Every router comparison is [`first_divergence`] (or, per run call,
//! [`lockstep`]) over the machine's digests — the cycle ledger, switch
//! state and every FIFO — so a failure names the first cycle and the
//! component where the two runs part; what the line cards hold, which the
//! digests leave out, is compared besides.

use raw_chaos::{run_chaos, ChaosRouter, FaultPlan};
use raw_sim::{first_divergence, lockstep, EngineMode};
use raw_telemetry::{shared, Recorder, SharedSink};
use raw_workloads::{generate, Workload};
use raw_xbar::{RawRouter, RouterConfig};

const ALL_ENGINES: [EngineMode; 2] = [EngineMode::PerCycle, EngineMode::Compiled];

/// A fig7-1-peak-style router offered `w`.
fn offered_router(w: &Workload, engine: EngineMode, telemetry: Option<SharedSink>) -> RawRouter {
    let mut cfg = RouterConfig {
        quantum_words: w.packet_bytes / 4,
        cut_through: true,
        ..RouterConfig::default()
    };
    cfg.raw.engine = engine;
    let mut r = RawRouter::try_new_with_telemetry(cfg, raw_xbar::port_table(), telemetry)
        .expect("router builds");
    for sp in generate(w) {
        r.offer(sp.port, sp.release, &sp.packet);
    }
    r
}

/// Asserts that two routers agree over `cycles`: [`first_divergence`]
/// finds no cycle and component where their machines differ, and after
/// the last cycle what the line cards hold — which the digests do not
/// see — reads the same: throughput and packet rate from cycle 10,000,
/// deliveries and parse errors.
fn assert_routers_agree(
    a: impl Fn() -> RawRouter,
    b: impl Fn() -> RawRouter,
    cycles: u64,
    what: &str,
) {
    let found = first_divergence(&a, &b, |r, n| r.run(n), |r| r.machine.digests(), cycles);
    assert_eq!(
        found, None,
        "{what}: (cycle, component) where the runs part"
    );
    let line_cards = |mut r: RawRouter| {
        r.run(cycles);
        format!(
            "gbps={:.9} mpps={:.9} delivered={} errors={}",
            r.throughput_gbps(10_000, cycles),
            r.pps(10_000, cycles) / 1e6,
            r.delivered_count(),
            r.parse_errors()
        )
    };
    assert_eq!(line_cards(b()), line_cards(a()), "{what}");
}

#[test]
fn peak_run_is_reproducible() {
    let w = Workload::peak(256, 800);
    let run = || offered_router(&w, EngineMode::Compiled, None);
    assert_routers_agree(run, run, 40_000, "identical runs");
}

#[test]
fn compiled_engine_matches_per_cycle_reference() {
    // The Figure 7-1 corners: the peak permutation and the uniform
    // "average" traffic, at the smallest and largest packet sizes.
    for w in [
        Workload::peak(64, 800),
        Workload::peak(256, 800),
        Workload::peak(1024, 800),
        Workload::average(64, 400, 7),
        Workload::average(1024, 400, 7),
    ] {
        assert_routers_agree(
            || offered_router(&w, EngineMode::PerCycle, None),
            || offered_router(&w, EngineMode::Compiled, None),
            40_000,
            &format!("compiled vs per-cycle, {w:?}"),
        );
    }
}

/// The compiled engine leaves stalled tiles and switches unstepped and
/// credits their cycles in bulk; every `run` must still return with each
/// counter where per-cycle stepping puts it. [`lockstep`] compares the
/// machines after each of 900 run calls of 1, 7 or 13 cycles, which land
/// the run boundaries on every phase of the saturated router's
/// sleep/wake pattern.
#[test]
fn engines_stay_in_lockstep_after_every_run_chunk() {
    let w = Workload::peak(64, 300);
    let mut reference = offered_router(&w, EngineMode::PerCycle, None);
    let found = lockstep(
        &mut reference,
        &mut offered_router(&w, EngineMode::Compiled, None),
        |r, i| r.run([1, 7, 13][i as usize % 3]),
        |r| r.machine.digests(),
        900,
    );
    assert_eq!(found, None, "(run call, component) where the engines part");
    assert!(reference.delivered_count() > 100);
}

/// Figure 7-3 reads each tile's ledger one cycle at a time over 800
/// cycles, so the engines must agree on it after every one of them, not
/// only at the end of a run: [`lockstep`] compares the machines after a
/// 10,000-cycle warm-up (step 1) and after each of 800 single-cycle run
/// calls, at the smallest and the largest packet size.
#[test]
fn engines_agree_on_every_cycle_of_the_figure_7_3_window() {
    for w in [Workload::peak(64, 800), Workload::peak(1024, 800)] {
        let found = lockstep(
            &mut offered_router(&w, EngineMode::PerCycle, None),
            &mut offered_router(&w, EngineMode::Compiled, None),
            |r, i| r.run(if i == 0 { 10_000 } else { 1 }),
            |r| r.machine.digests(),
            801,
        );
        assert_eq!(
            found, None,
            "{w:?}: (run call, component) where the engines part"
        );
    }
}

#[test]
fn telemetry_sink_never_changes_the_golden_run() {
    // The instrumentation must be observation-only: detached and a full
    // Recorder yield identical runs, in every engine mode.
    let w = Workload::peak(256, 800);
    for engine in ALL_ENGINES {
        assert_routers_agree(
            || offered_router(&w, engine, None),
            || {
                let sink = shared(Recorder::new(16, raw_sim::NUM_STATIC_NETS));
                offered_router(&w, engine, Some(sink))
            },
            40_000,
            &format!("Recorder perturbed the run ({engine:?})"),
        );
    }
}

#[test]
fn engines_agree_under_an_active_fault_plan() {
    // The compiled engine must remain bit-identical to the interpreter
    // when a chaos fault plan is live: corrupted packets, forced lookup
    // misses, scheduled tile stalls, and input pauses all hit the
    // fallback-free compiled path. The machines agree cycle by cycle up
    // to the cycle the reference campaign drains at, and each engine's
    // campaign drains cleanly with the same outcome.
    let sched = generate(&Workload::average(128, 120, 11));
    let cfg = |engine: EngineMode| {
        let mut cfg = RouterConfig {
            quantum_words: 32,
            cut_through: true,
            ..RouterConfig::default()
        };
        cfg.raw.engine = engine;
        cfg
    };
    let plan = FaultPlan::reference();
    let outcome = |engine: EngineMode| {
        let out = run_chaos(cfg(engine), raw_xbar::port_table(), &plan, &sched, 400_000)
            .expect("chaos campaign runs");
        assert!(out.drained, "{engine:?}: campaign wedged");
        assert!(
            out.errors.is_empty(),
            "{engine:?}: conservation errors {:?}",
            out.errors
        );
        (
            out.fingerprint,
            out.delivered,
            out.dropped,
            out.drops,
            out.cycles,
        )
    };
    let reference = outcome(EngineMode::PerCycle);
    let chaos = |engine: EngineMode| {
        let mut cr = ChaosRouter::try_new(cfg(engine), raw_xbar::port_table(), plan.clone(), None)
            .expect("chaos router builds");
        for sp in &sched {
            cr.offer(sp.port, sp.release, &sp.packet);
        }
        cr
    };
    let found = first_divergence(
        || chaos(EngineMode::PerCycle),
        || chaos(EngineMode::Compiled),
        |cr, n| cr.router.run(n),
        |cr| cr.router.machine.digests(),
        reference.4,
    );
    assert_eq!(found, None, "(cycle, component) where the engines part");
    assert_eq!(
        outcome(EngineMode::Compiled),
        reference,
        "compiled diverged from per-cycle under faults"
    );
}

#[test]
fn fig7_3_is_reproducible() {
    let (ascii_a, csv_a) = raw_bench::fig7_3(64);
    let (ascii_b, csv_b) = raw_bench::fig7_3(64);
    assert_eq!(ascii_a, ascii_b);
    assert_eq!(csv_a, csv_b);
}

#[test]
fn parallel_sweeps_are_reproducible() {
    // The fanned-out sweeps must return the same rows in the same order
    // every time (each point is a self-contained simulator instance).
    let a = raw_bench::scaling_study();
    let b = raw_bench::scaling_study();
    let key = |rows: &[raw_bench::ScalingRow]| -> Vec<(usize, String)> {
        rows.iter()
            .map(|r| {
                (
                    r.ports,
                    format!("{:.9}/{:.9}", r.ring_throughput, r.mesh_throughput),
                )
            })
            .collect()
    };
    assert_eq!(key(&a), key(&b));
}
