//! The adversarial battery: random fault campaigns against the full
//! router, checking graceful degradation (count-and-drop, never panic,
//! never wedge) against the functional reference — per port and per
//! drop reason, byte for byte and in order — conservation of the
//! recorder's cycle accounting, and bit-identical replay in both engine
//! modes.

use proptest::prelude::*;

use raw_chaos::*;
use raw_fabric::{Executor, FabricConfig, Topology};
use raw_net::{CorruptRng, Packet};
use raw_sim::{first_divergence, lockstep, EngineMode, RawConfig, NUM_STATIC_NETS};
use raw_telemetry::{shared, DropReason, Recorder, SharedSink};
use raw_workloads::{generate, generate_n, Arrivals, Pattern, ScheduledPacket, Workload};
use raw_xbar::{audit, port_table, IngressQueueing, RawRouter, RouterConfig, NPORTS};

/// VOQ ingress (so truncation faults are legal) on the 64-byte quantum.
fn voq_cfg(engine: EngineMode) -> RouterConfig {
    RouterConfig {
        quantum_words: 16,
        cut_through: true,
        queueing: IngressQueueing::Voq,
        raw: RawConfig {
            engine,
            ..RawConfig::default()
        },
        ..RouterConfig::default()
    }
}

/// Derive a full random-but-valid [`FaultPlan`] from one seed, so the
/// proptest signature stays one draw and the plan replays exactly.
fn random_plan(seed: u64) -> FaultPlan {
    let mut r = CorruptRng::new(seed ^ 0x7b5e_55ed);
    let mut plan = FaultPlan::zero(r.next_u64());
    plan.header_flip_ppm = r.below(60_000);
    plan.payload_flip_ppm = r.below(60_000);
    plan.bad_checksum_ppm = r.below(60_000);
    plan.ttl_expire_ppm = r.below(60_000);
    plan.bad_version_ppm = r.below(60_000);
    plan.bad_ihl_ppm = r.below(60_000);
    plan.truncate_ppm = r.below(60_000);
    plan.lookup_miss_ppm = r.below(40_000);
    plan.lookup_penalty_cycles = r.below(64);
    for _ in 0..r.below(4) {
        plan.tile_stalls.push(StallSpec {
            port: r.below(4) as usize,
            element: r.below(4) as u8,
            start: 200 + u64::from(r.below(4_000)),
            len: 1 + u64::from(r.below(700)),
        });
    }
    if r.chance_ppm(500_000) {
        plan.input_pauses.push(WindowSpec {
            port: r.below(4) as usize,
            start: u64::from(r.below(4_000)),
            len: 1 + u64::from(r.below(500)),
        });
    }
    if r.chance_ppm(500_000) {
        plan.output_stalls.push(WindowSpec {
            port: r.below(4) as usize,
            start: u64::from(r.below(4_000)),
            len: 1 + u64::from(r.below(300)),
        });
    }
    plan
}

/// A chaos router under `plan`, a recorder attached, `sched` offered.
fn offered_router(cfg: RouterConfig, plan: &FaultPlan, sched: &[ScheduledPacket]) -> ChaosRouter {
    let sink: SharedSink = shared(Recorder::new(16, NUM_STATIC_NETS));
    let mut cr = ChaosRouter::try_new(cfg, port_table(), plan.clone(), Some(sink)).unwrap();
    for sp in sched {
        cr.offer(sp.port, sp.release, &sp.packet);
    }
    cr
}

/// Every output port's delivered stream: arrival cycles and packets.
fn streams(r: &RawRouter) -> Vec<Vec<(u64, Packet)>> {
    (0..NPORTS).map(|p| r.delivered(p)).collect()
}

/// Run a chaos campaign and return the full delivered streams alongside
/// the fingerprint (for byte-level comparisons).
fn chaos_streams(
    cfg: RouterConfig,
    plan: &FaultPlan,
    sched: &[ScheduledPacket],
) -> (u64, Vec<Vec<(u64, Packet)>>) {
    let mut cr = offered_router(cfg, plan, sched);
    assert!(cr.router.run_until_drained(4_000_000), "wedged");
    (fingerprint(&cr.router), streams(&cr.router))
}

/// The unwrapped baseline with the identical telemetry arrangement.
fn plain_streams(cfg: RouterConfig, sched: &[ScheduledPacket]) -> (u64, Vec<Vec<(u64, Packet)>>) {
    let sink: SharedSink = shared(Recorder::new(16, NUM_STATIC_NETS));
    let mut r = RawRouter::try_new_with_telemetry(cfg, port_table(), Some(sink)).unwrap();
    for sp in sched {
        r.offer(sp.port, sp.release, &sp.packet);
    }
    assert!(r.run_until_drained(4_000_000), "wedged");
    let streams = (0..NPORTS).map(|p| r.delivered(p)).collect();
    (fingerprint(&r), streams)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any random fault plan over uniform traffic — all seven corruption
    /// classes, VOQ truncation, stall and pause windows, forced lookup
    /// misses: zero disagreements with the reference (every survivor out
    /// of the right port intact and in order, every drop under the
    /// reference's reason at its input), the per-tile cycle conservation
    /// holds, and the run drains.
    #[test]
    fn random_fault_plans_degrade_gracefully(
        seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let plan = random_plan(seed);
        let sched = generate(&Workload::average(64, 40, wl_seed));
        let res = run_chaos(
            voq_cfg(EngineMode::Compiled), port_table(), &plan, &sched, 4_000_000,
        ).unwrap();
        prop_assert!(res.errors.is_empty(), "plan seed {seed:#x}: {:?}", res.errors);
        prop_assert!(res.drained, "plan seed {seed:#x} wedged");
        prop_assert_eq!(res.offered, sched.len() as u64);
        prop_assert_eq!(res.dropped, res.injected.expected_drops());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The same plan and traffic replay bit-identically. The per-cycle
    /// and compiled engines stay in [`lockstep`] over the machine's
    /// digests — cycle ledger and stall attribution included — after
    /// every 256-cycle run call up to where a first compiled run drained,
    /// so a divergence is reported as `(call, component)`. Then both
    /// deliver the same words at the same cycles and count the same
    /// drops (line-card and program state, which digests leave out), and
    /// the compiled side, a rerun of the first, has its fingerprint
    /// (deliveries, drop counters, final cycle).
    #[test]
    fn same_seed_reruns_are_bit_identical_in_every_engine_mode(
        seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let plan = random_plan(seed);
        let sched = generate(&Workload::average(64, 30, wl_seed));
        let mut first = offered_router(voq_cfg(EngineMode::Compiled), &plan, &sched);
        prop_assert!(first.router.run_until_drained(4_000_000), "wedged");
        let [mut pc, mut co] = [EngineMode::PerCycle, EngineMode::Compiled]
            .map(|engine| offered_router(voq_cfg(engine), &plan, &sched));
        let found = lockstep(
            &mut pc,
            &mut co,
            |cr, _| cr.router.run(256),
            |cr| cr.router.machine.digests(),
            first.router.machine.cycle() / 256,
        );
        prop_assert_eq!(found, None, "(run call, component) where the engines part (seed {:#x})", seed);
        prop_assert_eq!(
            (streams(&co.router), co.router.drop_reasons()),
            (streams(&pc.router), pc.router.drop_reasons())
        );
        prop_assert_eq!(
            fingerprint(&co.router), fingerprint(&first.router),
            "compiled rerun diverged (seed {:#x})", seed
        );
    }
}

/// Satellite: a zero-rate plan is a no-op wrapper — byte-identical
/// delivered streams versus the unwrapped router on the fig7-1 peak and
/// average workloads, in every engine mode.
#[test]
fn zero_rate_plan_is_byte_identical_to_unwrapped_router() {
    let peak = generate(&Workload::peak(64, 60));
    let avg = generate(&Workload::average(64, 60, 42));
    for (name, sched) in [("fig7-1-peak", &peak), ("fig7-1-avg", &avg)] {
        for engine in [EngineMode::PerCycle, EngineMode::Compiled] {
            let plan = FaultPlan::zero(0xC4A0);
            let (cf, cs) = chaos_streams(voq_cfg(engine), &plan, sched);
            let (pf, ps) = plain_streams(voq_cfg(engine), sched);
            assert_eq!(cs, ps, "{name} {engine:?}: delivered streams differ");
            assert_eq!(cf, pf, "{name} {engine:?}: fingerprints differ");
        }
    }
}

/// Acceptance: the reference plan (seed 0xC4A0, 1% header corruption,
/// one 500-cycle stall window per tile, 0.5% lookup misses) completes
/// the fig7-1 peak workload at both packet-size corners with full
/// accounting, and replays identically.
#[test]
fn reference_plan_completes_fig7_1_peak_at_both_corners() {
    for bytes in [64usize, 1024] {
        let cfg = || RouterConfig::for_packet_bytes(bytes);
        let packets = if bytes == 64 { 200 } else { 40 };
        let sched = generate(&Workload::peak(bytes, packets));
        let plan = FaultPlan::reference();
        let run = || run_chaos(cfg(), port_table(), &plan, &sched, 8_000_000).unwrap();
        let a = run();
        assert!(a.errors.is_empty(), "{bytes}B: {:?}", a.errors);
        assert!(a.drained, "{bytes}B: reference plan wedged the router");
        assert_eq!(a.delivered + a.dropped, a.offered);
        let b = run();
        assert_eq!(a.fingerprint, b.fingerprint, "{bytes}B: rerun diverged");
        assert_eq!(a.drops, b.drops);
    }
}

/// Satellite: seeded mutants of the drop accounting. Breaking any one
/// [`DropReason`] counter — alone, or with a sympathetic total bump —
/// must trip the audit against the functional reference. This is what
/// makes the invariants trustworthy.
#[test]
fn broken_drop_counters_are_caught_by_the_audit() {
    let sched = generate(&Workload::peak(64, 10));
    let offered = || sched.iter().map(|sp| (sp.port, sp.packet.to_words()));
    for i in 0..DropReason::COUNT {
        let mut r = RawRouter::try_new(voq_cfg(EngineMode::Compiled), port_table()).unwrap();
        for sp in &sched {
            r.offer(sp.port, sp.release, &sp.packet);
        }
        assert!(r.run_until_drained(1_000_000));
        assert!(audit(&r, offered(), true).is_empty(), "clean run");

        // Mutant A: a classified bucket bumped without the total.
        let port = i % NPORTS;
        r.ingress_stats_mut(port).drops[i] += 1;
        let found = audit(&r, offered(), true);
        assert!(
            found.iter().any(|e| e.contains("classified drop sum")),
            "mutant A on bucket {i} escaped: {found:?}"
        );

        // Mutant B: the total bumped in sympathy — the per-port sums now
        // agree, but the reference dropped nothing.
        r.ingress_stats_mut(port).packets_dropped += 1;
        let found = audit(&r, offered(), true);
        assert!(
            found.len() == 1 && found[0].contains("the reference has 0"),
            "mutant B on bucket {i} escaped the audit: {found:?}"
        );
    }
}

/// The all-classes matrix and the forced-lookup-miss campaign agree with
/// the reference per port and per reason: every corruption class alone at
/// a rate that fires, then all of them together with forced misses on
/// top — zero disagreements, and what each class must do is visible in
/// the buckets.
#[test]
fn every_class_and_forced_misses_agree_with_the_reference() {
    let sched = generate(&Workload::average(64, 60, 17));
    let class = |f: &dyn Fn(&mut FaultPlan)| {
        let mut plan = FaultPlan::zero(0x5eed);
        f(&mut plan);
        plan
    };
    let rows: [(&str, FaultPlan, Option<DropReason>); 8] = [
        ("header flip", class(&|p| p.header_flip_ppm = 200_000), None),
        (
            "bad checksum",
            class(&|p| p.bad_checksum_ppm = 200_000),
            Some(DropReason::BadChecksum),
        ),
        (
            "bad version",
            class(&|p| p.bad_version_ppm = 200_000),
            Some(DropReason::BadVersion),
        ),
        (
            "bad ihl",
            class(&|p| p.bad_ihl_ppm = 200_000),
            Some(DropReason::BadIhl),
        ),
        (
            "ttl expire",
            class(&|p| p.ttl_expire_ppm = 200_000),
            Some(DropReason::TtlExpired),
        ),
        (
            "truncate",
            class(&|p| p.truncate_ppm = 200_000),
            Some(DropReason::Truncated),
        ),
        (
            "payload flip",
            class(&|p| p.payload_flip_ppm = 200_000),
            None,
        ),
        (
            "everything + forced misses",
            FaultPlan {
                header_flip_ppm: 60_000,
                payload_flip_ppm: 60_000,
                bad_checksum_ppm: 60_000,
                ttl_expire_ppm: 60_000,
                bad_version_ppm: 60_000,
                bad_ihl_ppm: 60_000,
                truncate_ppm: 60_000,
                lookup_miss_ppm: 150_000,
                lookup_penalty_cycles: 40,
                ..FaultPlan::zero(0x5eed)
            },
            None,
        ),
    ];
    for (name, plan, only) in rows {
        let res = run_chaos(
            voq_cfg(EngineMode::Compiled),
            port_table(),
            &plan,
            &sched,
            4_000_000,
        )
        .unwrap();
        assert!(res.errors.is_empty(), "{name}: {:?}", res.errors);
        assert!(res.drained, "{name} wedged");
        assert!(res.injected.total() > 0, "{name} never fired");
        assert_eq!(res.dropped, res.injected.expected_drops(), "{name}");
        if let Some(reason) = only {
            assert_eq!(
                res.drops[reason.index()],
                res.dropped,
                "{name}: {:?}",
                res.drops
            );
        }
        assert_eq!(res.lookup_misses > 0, plan.lookup_miss_ppm > 0, "{name}");
    }
}

/// A random-but-valid fabric fault campaign from one seed: external
/// packet corruption, inter-router link stalls, and external line-card
/// windows. Single-router window classes (tile stalls, per-port
/// pauses) stay empty — their port indices mean internal ports.
fn random_fabric_plan(seed: u64) -> FabricFaultPlan {
    let mut r = CorruptRng::new(seed ^ 0xfa6b_71c0_c105_0000);
    let mut plan = FabricFaultPlan::zero(r.next_u64());
    plan.packet.header_flip_ppm = r.below(40_000);
    plan.packet.payload_flip_ppm = r.below(40_000);
    plan.packet.bad_checksum_ppm = r.below(40_000);
    plan.packet.ttl_expire_ppm = r.below(40_000);
    plan.packet.bad_version_ppm = r.below(40_000);
    plan.packet.bad_ihl_ppm = r.below(40_000);
    plan.packet.truncate_ppm = r.below(40_000);
    // Arm lookup faults only half the time, so the other half checks
    // the flow-order invariant (a forced miss legally splits a flow
    // across two middle stages).
    if r.chance_ppm(500_000) {
        plan.packet.lookup_miss_ppm = r.below(20_000);
        plan.packet.lookup_penalty_cycles = r.below(64);
    }
    for _ in 0..r.below(4) {
        plan.link_stalls.push(LinkStallSpec {
            link: r.below(32) as usize,
            start_epoch: u64::from(r.below(16)),
            epochs: 1 + u64::from(r.below(6)),
        });
    }
    if r.chance_ppm(500_000) {
        plan.ext_input_pauses.push(WindowSpec {
            port: r.below(16) as usize,
            start: u64::from(r.below(4_000)),
            len: 1 + u64::from(r.below(600)),
        });
    }
    if r.chance_ppm(500_000) {
        plan.ext_output_stalls.push(WindowSpec {
            port: r.below(16) as usize,
            start: u64::from(r.below(4_000)),
            len: 1 + u64::from(r.below(600)),
        });
    }
    plan
}

/// Epochs any fabric drain here may take before it counts as wedged.
const FABRIC_BUDGET: u64 = 50_000;

/// A fabric chaos campaign, built and offered its workload.
fn chaos_fabric(plan: &FabricFaultPlan, wl_seed: u64) -> ChaosFabric {
    let cfg = FabricConfig {
        topology: Topology::Clos16,
        epoch_cycles: 256,
        router: RouterConfig {
            queueing: IngressQueueing::Voq,
            ..FabricConfig::default().router
        },
        ..FabricConfig::default()
    };
    let w = Workload {
        pattern: Pattern::FabricUniform,
        arrivals: Arrivals::Saturation,
        packet_bytes: 64,
        packets_per_port: 10,
        seed: wl_seed,
        ttl: 64,
    };
    let mut cf = ChaosFabric::try_new(cfg, plan.clone()).unwrap();
    for sp in generate_n(&w, 16) {
        cf.offer(sp.port, sp.release, &sp.packet);
    }
    cf
}

/// Run a fresh campaign `n` epochs on `exec`, one epoch a call,
/// stopping early once it drains; a drained run is audited (the
/// per-router reference hop by hop; the count planes when lookup faults
/// are armed), and a run the full budget did not drain is wedged.
fn drain_chaos(cf: &mut ChaosFabric, n: u64, exec: Executor) {
    while cf.fabric.epochs_run() < n {
        let e = cf.fabric.epochs_run();
        if cf.fabric.run_until_drained_with(e + 1, exec) {
            let errs = raw_fabric::audit(&cf.fabric, true);
            assert!(errs.is_empty(), "{errs:#?}");
            return;
        }
    }
    assert!(n < FABRIC_BUDGET, "wedged");
}

/// One full fabric chaos campaign on `exec`, drained and audited.
fn run_chaos_fabric(plan: &FabricFaultPlan, wl_seed: u64, exec: Executor) -> ChaosFabric {
    let mut cf = chaos_fabric(plan, wl_seed);
    drain_chaos(&mut cf, FABRIC_BUDGET, exec);
    cf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Graceful degradation scales to the fabric: any random fault
    /// campaign against the 16-port Clos never wedges, passes the audit
    /// and replays bit-identically on both executors —
    /// [`first_divergence`] over [`RawFabric::digests`](raw_fabric::RawFabric::digests),
    /// an epoch being a step, finds no epoch and no component where the
    /// sharded run leaves the reference — with the same faults injected,
    /// the same drops and the same packets delivered at every output.
    #[test]
    fn random_fabric_fault_plans_degrade_gracefully(
        seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let plan = random_fabric_plan(seed);
        let sharded = Executor::Sharded { shards: 4 };
        let found = first_divergence(
            || (chaos_fabric(&plan, wl_seed), Executor::Reference),
            || (chaos_fabric(&plan, wl_seed), sharded),
            |(cf, exec), n| drain_chaos(cf, n, *exec),
            |(cf, _)| cf.fabric.digests(),
            FABRIC_BUDGET,
        );
        prop_assert_eq!(found, None, "plan seed {:#x} diverged between executors", seed);
        let cf = run_chaos_fabric(&plan, wl_seed, Executor::Reference);
        prop_assert_eq!(cf.fabric.offered(), 160);
        let replay = run_chaos_fabric(&plan, wl_seed, sharded);
        prop_assert_eq!(replay.injected, cf.injected);
        prop_assert_eq!(replay.fabric.drop_reasons(), cf.fabric.drop_reasons());
        for p in 0..16 {
            prop_assert_eq!(replay.fabric.delivered(p), cf.fabric.delivered(p), "output {}", p);
        }
    }
}
