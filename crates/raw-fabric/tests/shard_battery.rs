//! Differential battery for the sharded executor: on every topology,
//! shard count, spray policy, and seed, the sharded coordinators must
//! produce a [`RawFabric::fingerprint`] bit-identical to the
//! single-threaded reference — and each seeded sharding bug (a boundary
//! link exchanged an epoch late, a partition that splits one router's
//! links across shards, a missing phase barrier) must break that
//! identity, proving the differential actually has teeth.

use proptest::prelude::*;

use raw_fabric::{Executor, FabricConfig, RawFabric, ShardMutant, SprayMode, Topology};
use raw_workloads::{generate_n, Arrivals, Pattern, Workload};

fn workload(pattern: Pattern, seed: u64, packets_per_port: usize) -> Workload {
    Workload {
        pattern,
        arrivals: Arrivals::Saturation,
        packet_bytes: 64,
        packets_per_port,
        seed,
        ttl: 64,
    }
}

fn cfg(topology: Topology, spray: SprayMode, epoch_cycles: u64) -> FabricConfig {
    FabricConfig {
        topology,
        epoch_cycles,
        spray,
        ..FabricConfig::default()
    }
}

fn build(cfg: FabricConfig, w: &Workload) -> RawFabric {
    let nports = cfg.topology.ext_ports();
    let mut fab = RawFabric::try_new(cfg).expect("valid config");
    for s in generate_n(w, nports) {
        fab.offer(s.port, s.release, &s.packet);
    }
    fab
}

/// Run a fixed horizon (epochs equal on both sides by construction) on
/// one executor, with an optional seeded mutant, and fingerprint it.
fn horizon_fingerprint(
    cfg: &FabricConfig,
    w: &Workload,
    exec: Executor,
    mutant: ShardMutant,
    epochs: u64,
) -> u64 {
    let mut fab = build(cfg.clone(), w);
    fab.set_shard_mutant(mutant);
    fab.run_epochs_with(epochs, exec);
    assert_eq!(fab.epochs_run(), epochs);
    fab.fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole differential: sharded == reference, bit for bit,
    /// across topology x shard count x spray policy x seed.
    #[test]
    fn sharded_fingerprint_matches_reference(
        topo_sel in any::<u8>(),
        shard_sel in any::<u8>(),
        spray_sel in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let topology =
            [Topology::Folded8, Topology::Clos16, Topology::Clos64][(topo_sel % 3) as usize];
        let shards = 2 + (shard_sel % 7) as usize;
        let spray = if spray_sel.is_multiple_of(2) {
            SprayMode::Hash
        } else {
            SprayMode::LeastOccupancy
        };
        // Keep debug-build time sane: light load on the 80-router Clos.
        let ppp = if topology == Topology::Clos64 { 3 } else { 8 };
        let c = cfg(topology, spray, 256);
        let w = workload(Pattern::FabricUniform, seed, ppp);

        let mut reference = build(c.clone(), &w);
        prop_assert!(reference.run_until_drained_with(50_000, Executor::Reference));
        let mut sharded = build(c.clone(), &w);
        prop_assert!(sharded.run_until_drained_with(50_000, Executor::Sharded { shards }));

        prop_assert_eq!(reference.epochs_run(), sharded.epochs_run());
        prop_assert_eq!(reference.fingerprint(), sharded.fingerprint(),
            "sharded executor diverged: {:?} shards={} spray={} seed={}",
            topology, shards, spray.name(), seed);
        prop_assert!(sharded.conservation_errors().is_empty());
    }
}

/// The one deterministic Clos64 case: the 80-router, 5-stage recursive
/// Clos on the reference, on `Threaded` (80 shards, the widest layout
/// `run_sharded` is asked for) and on four shards.
#[test]
fn all_three_executors_agree_on_clos64() {
    let c = cfg(Topology::Clos64, SprayMode::Hash, 256);
    let w = workload(Pattern::FabricUniform, 7, 4);
    let fps: Vec<u64> = [
        Executor::Reference,
        Executor::Threaded,
        Executor::Sharded { shards: 4 },
    ]
    .into_iter()
    .map(|exec| {
        let mut fab = build(c.clone(), &w);
        assert!(
            fab.run_until_drained_with(50_000, exec),
            "{} wedged",
            exec.name()
        );
        assert_eq!(fab.delivered_count(), fab.offered(), "{}", exec.name());
        fab.fingerprint()
    })
    .collect();
    assert_eq!(fps[0], fps[1], "threaded diverged from reference");
    assert_eq!(fps[0], fps[2], "sharded diverged from reference");
}

/// The collapsed executor shape: `Threaded` is `Sharded` with one shard
/// per router, both match the reference, and the reference runs
/// unmutated whatever seeded bug the test hook installed (the mutant
/// battery below compares against it).
#[test]
fn threaded_is_one_shard_per_router_and_the_reference_ignores_mutants() {
    for topology in [Topology::Clos16, Topology::Folded8] {
        let c = cfg(topology, SprayMode::Hash, 256);
        let w = workload(Pattern::FabricUniform, 7, 8);
        let routers = topology.routers();
        let run = |exec: Executor, mutant: ShardMutant| {
            let mut fab = build(c.clone(), &w);
            fab.set_shard_mutant(mutant);
            assert!(
                fab.run_until_drained_with(50_000, exec),
                "{topology:?} wedged on {}",
                exec.name()
            );
            assert_eq!(fab.delivered_count(), fab.offered(), "{}", exec.name());
            fab.fingerprint()
        };
        let reference = run(Executor::Reference, ShardMutant::None);
        assert_eq!(
            run(Executor::Threaded, ShardMutant::None),
            reference,
            "{topology:?}: threaded diverged from reference"
        );
        assert_eq!(
            run(Executor::Sharded { shards: routers }, ShardMutant::None),
            reference,
            "{topology:?}: one shard per router diverged from reference"
        );
        for mutant in [
            ShardMutant::DelayBoundaryLink(0),
            ShardMutant::SplitRouter(0),
            ShardMutant::SkipBarrier,
        ] {
            assert_eq!(
                run(Executor::Reference, mutant),
                reference,
                "{topology:?}: the reference ran {mutant:?}"
            );
        }
    }
}

#[test]
fn shards_zero_uses_available_parallelism_and_still_matches() {
    let c = cfg(Topology::Clos16, SprayMode::Hash, 256);
    let w = workload(Pattern::FabricUniform, 11, 8);
    let mut reference = build(c.clone(), &w);
    assert!(reference.run_until_drained_with(50_000, Executor::Reference));
    let mut sharded = build(c.clone(), &w);
    assert!(sharded.run_until_drained_with(50_000, Executor::Sharded { shards: 0 }));
    assert_eq!(reference.fingerprint(), sharded.fingerprint());
}

#[test]
fn one_shard_degenerates_to_the_reference() {
    let c = cfg(Topology::Folded8, SprayMode::LeastOccupancy, 256);
    let w = workload(Pattern::FabricUniform, 3, 10);
    let mut reference = build(c.clone(), &w);
    assert!(reference.run_until_drained_with(50_000, Executor::Reference));
    let mut sharded = build(c.clone(), &w);
    assert!(sharded.run_until_drained_with(50_000, Executor::Sharded { shards: 1 }));
    assert_eq!(reference.fingerprint(), sharded.fingerprint());
}

#[test]
fn more_shards_than_routers_clamps_and_matches() {
    let c = cfg(Topology::Clos16, SprayMode::Hash, 256);
    let w = workload(Pattern::FabricUniform, 5, 6);
    let mut reference = build(c.clone(), &w);
    assert!(reference.run_until_drained_with(50_000, Executor::Reference));
    let mut sharded = build(c.clone(), &w);
    assert!(sharded.run_until_drained_with(50_000, Executor::Sharded { shards: 64 }));
    assert_eq!(reference.fingerprint(), sharded.fingerprint());
}

// ---------------------------------------------------------------------
// Mutant battery: each seeded sharding bug must be caught by the
// fingerprint differential. Fixed-horizon runs keep `epochs_run` equal
// on both sides so any divergence is in the observable streams, not an
// artifact of one side stopping earlier.
// ---------------------------------------------------------------------

const MUTANT_EPOCHS: u64 = 30;

fn mutant_cfg() -> FabricConfig {
    cfg(Topology::Clos16, SprayMode::Hash, 256)
}

fn mutant_workload() -> Workload {
    workload(Pattern::FabricUniform, 42, 12)
}

#[test]
fn mutant_boundary_link_delayed_one_epoch_is_caught() {
    let c = mutant_cfg();
    let w = mutant_workload();
    // The seeded bug delays link 0's phase-A collect by one epoch; make
    // sure the healthy run actually moves traffic over link 0, so the
    // test cannot silently pass on an idle link.
    let mut healthy = build(c.clone(), &w);
    healthy.run_epochs_with(MUTANT_EPOCHS, Executor::Sharded { shards: 4 });
    assert!(
        healthy.summary().links[0].packets > 0,
        "link 0 carried no traffic; the mutant would be unobservable"
    );
    let reference = horizon_fingerprint(
        &c,
        &w,
        Executor::Reference,
        ShardMutant::None,
        MUTANT_EPOCHS,
    );
    assert_eq!(
        healthy.fingerprint(),
        reference,
        "healthy sharded run must match the reference"
    );
    let mutated = horizon_fingerprint(
        &c,
        &w,
        Executor::Sharded { shards: 4 },
        ShardMutant::DelayBoundaryLink(0),
        MUTANT_EPOCHS,
    );
    assert_ne!(
        mutated, reference,
        "a boundary link exchanged one epoch late must break fingerprint identity"
    );
}

#[test]
fn mutant_partition_splitting_a_routers_links_is_caught() {
    let c = mutant_cfg();
    let w = mutant_workload();
    let reference = horizon_fingerprint(
        &c,
        &w,
        Executor::Reference,
        ShardMutant::None,
        MUTANT_EPOCHS,
    );
    // Router 0 claimed by two shards: it advances two epochs of cycles
    // per barrier, so its timing runs ahead of the fabric clock.
    let mutated = horizon_fingerprint(
        &c,
        &w,
        Executor::Sharded { shards: 4 },
        ShardMutant::SplitRouter(0),
        MUTANT_EPOCHS,
    );
    assert_ne!(
        mutated, reference,
        "a router split across two shards must break fingerprint identity"
    );
}

#[test]
fn mutant_skipped_barrier_is_caught() {
    let c = mutant_cfg();
    let w = mutant_workload();
    let reference = horizon_fingerprint(
        &c,
        &w,
        Executor::Reference,
        ShardMutant::None,
        MUTANT_EPOCHS,
    );
    // Without the phase-A/phase-B barrier, an early shard drains links
    // whose sender lives in a later shard before that shard collected.
    let mutated = horizon_fingerprint(
        &c,
        &w,
        Executor::Sharded { shards: 4 },
        ShardMutant::SkipBarrier,
        MUTANT_EPOCHS,
    );
    assert_ne!(
        mutated, reference,
        "a missing phase barrier must break fingerprint identity"
    );
}
