//! Golden determinism tests.
//!
//! Two guarantees, both load-bearing for every number in `results/`:
//! 1. Reproducibility — the same experiment run twice produces
//!    byte-identical metrics and traces (no hidden host-dependent state).
//! 2. Engine equivalence — the compiled engine produces results
//!    bit-identical to per-cycle stepping:
//!    throughput, per-tile activity statistics, switch stalls, the full
//!    Figure 7-3 trace, and chaos-campaign fingerprints under an active
//!    fault plan.

use raw_sim::{EngineMode, TileId};
use raw_telemetry::{shared, NullSink, Recorder, SharedSink};
use raw_workloads::{generate, Workload};
use raw_xbar::{RawRouter, RouterConfig};

const ALL_ENGINES: [EngineMode; 2] = [EngineMode::PerCycle, EngineMode::Compiled];

/// A fig7-1-peak-style run at one packet size with a fig7-3-style trace
/// window, distilled to two strings: a metrics fingerprint and the full
/// per-cycle trace CSV.
fn traced_peak(bytes: usize, engine: EngineMode) -> (String, String) {
    traced_peak_with(bytes, engine, None)
}

fn traced_peak_with(
    bytes: usize,
    engine: EngineMode,
    telemetry: Option<SharedSink>,
) -> (String, String) {
    run_traced(
        peak_router(bytes, engine, telemetry),
        &Workload::peak(bytes, 800),
    )
}

fn peak_router(bytes: usize, engine: EngineMode, telemetry: Option<SharedSink>) -> RawRouter {
    let quantum = bytes / 4;
    let mut cfg = RouterConfig {
        quantum_words: quantum,
        cut_through: true,
        ..RouterConfig::default()
    };
    cfg.raw.engine = engine;
    RawRouter::try_new_with_telemetry(cfg, raw_xbar::port_table(), telemetry)
        .expect("router builds")
}

fn run_traced(mut r: RawRouter, w: &Workload) -> (String, String) {
    for sp in generate(w) {
        r.offer(sp.port, sp.release, &sp.packet);
    }
    r.start_trace(10_000, 800);
    r.run(40_000);

    let mut metrics = format!(
        "gbps={:.9} mpps={:.9} delivered={} errors={}",
        r.throughput_gbps(10_000, 40_000),
        r.pps(10_000, 40_000) / 1e6,
        r.delivered_count(),
        r.parse_errors()
    );
    for t in 0..16u16 {
        let tile = TileId(t);
        metrics.push_str(&format!(
            " t{t}={:?}/{}",
            r.machine.stats(tile).counts,
            r.machine.switch_stall_cycles(tile)
        ));
    }
    let trace = r
        .take_trace()
        .expect("trace complete")
        .to_activity_trace()
        .to_csv();
    (metrics, trace)
}

#[test]
fn peak_run_is_reproducible() {
    assert_eq!(
        traced_peak(256, EngineMode::Compiled),
        traced_peak(256, EngineMode::Compiled),
        "identical runs diverged"
    );
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
        let run = |engine| run_traced(peak_router(w.packet_bytes, engine, None), &w);
        let (m_ref, t_ref) = run(EngineMode::PerCycle);
        let (m, t) = run(EngineMode::Compiled);
        assert_eq!(m, m_ref, "metrics diverged (compiled vs per-cycle, {w:?})");
        assert_eq!(t, t_ref, "trace diverged (compiled vs per-cycle, {w:?})");
    }
}

/// The compiled engine leaves stalled tiles and switches unstepped and
/// credits their cycles in bulk; every `run` must still return with each
/// counter where per-cycle stepping puts it. Chunks of 1, 7 and 13
/// cycles land the run boundaries on every phase of the saturated
/// router's sleep/wake pattern.
#[test]
fn engines_stay_in_lockstep_after_every_run_chunk() {
    let w = Workload::peak(64, 300);
    let mut routers = ALL_ENGINES.map(|engine| {
        let mut r = peak_router(64, engine, None);
        for sp in generate(&w) {
            r.offer(sp.port, sp.release, &sp.packet);
        }
        r
    });
    let observe = |r: &RawRouter| {
        let m = &r.machine;
        let tiles: Vec<_> = (0..16u16)
            .map(|t| (m.stats(TileId(t)).counts, m.switch_stall_cycles(TileId(t))))
            .collect();
        (tiles, m.last_activities().to_vec(), m.routes_fired)
    };
    for chunk in [1, 7, 13].into_iter().cycle().take(900) {
        let [reference, compiled] = &mut routers;
        reference.run(chunk);
        compiled.run(chunk);
        assert_eq!(
            observe(compiled),
            observe(reference),
            "diverged by cycle {}",
            reference.machine.cycle()
        );
    }
    assert!(routers[0].delivered_count() > 100);
}

#[test]
fn telemetry_sink_never_changes_the_golden_run() {
    // The instrumentation must be observation-only: detached, a no-op
    // NullSink, and a full Recorder all yield byte-identical metrics and
    // traces, in every engine mode.
    for engine in ALL_ENGINES {
        let detached = traced_peak_with(256, engine, None);
        let null = traced_peak_with(256, engine, Some(shared(NullSink)));
        let recorded = traced_peak_with(
            256,
            engine,
            Some(shared(Recorder::new(16, raw_sim::NUM_STATIC_NETS))),
        );
        assert_eq!(detached, null, "NullSink perturbed the run ({engine:?})");
        assert_eq!(
            detached, recorded,
            "Recorder perturbed the run ({engine:?})"
        );
    }
}

#[test]
fn engines_agree_under_an_active_fault_plan() {
    // The compiled engine must remain bit-identical to the interpreter
    // when a chaos fault plan is live: corrupted packets, forced lookup
    // misses, scheduled tile stalls, and input pauses all hit the
    // fallback-free compiled path.
    use raw_chaos::{run_chaos, FaultPlan};

    let sched = generate(&Workload::average(128, 120, 11));
    let mut results = Vec::new();
    for engine in ALL_ENGINES {
        let mut cfg = RouterConfig {
            quantum_words: 32,
            cut_through: true,
            ..RouterConfig::default()
        };
        cfg.raw.engine = engine;
        let out = run_chaos(
            cfg,
            raw_xbar::port_table(),
            &FaultPlan::reference(),
            &sched,
            400_000,
        )
        .expect("chaos campaign runs");
        assert!(out.drained, "{engine:?}: campaign wedged");
        assert!(
            out.errors.is_empty(),
            "{engine:?}: conservation errors {:?}",
            out.errors
        );
        results.push((
            out.fingerprint,
            out.delivered,
            out.dropped,
            out.drops,
            out.cycles,
        ));
    }
    assert_eq!(
        results[0], results[1],
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
