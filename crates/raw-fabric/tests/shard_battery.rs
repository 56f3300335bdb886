//! Differential battery for the executors: on every topology, shard
//! count, spray policy, and seed, routers run on partitioned worker
//! threads must produce a [`RawFabric::fingerprint`] bit-identical to
//! the single-threaded reference, and every run ends in
//! [`raw_fabric::audit`]. The differential is shown to have
//! teeth through the public fault API: one link exchanged one epoch
//! late moves the fingerprint, identically on every executor.

use proptest::prelude::*;

use raw_fabric::{audit, Executor, FabricConfig, RawFabric, SprayMode, Topology};
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

/// Run an offered fabric dry on `exec` and audit it.
fn drain(mut fab: RawFabric, exec: Executor) -> RawFabric {
    assert!(
        fab.run_until_drained_with(50_000, exec),
        "{:?} wedged on {}",
        fab.cfg.topology,
        exec.name()
    );
    let errs = audit(&fab, true);
    assert!(errs.is_empty(), "{errs:#?}");
    fab
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

        let reference = drain(build(c.clone(), &w), Executor::Reference);
        let sharded = drain(build(c, &w), Executor::Sharded { shards });

        prop_assert_eq!(reference.epochs_run(), sharded.epochs_run());
        prop_assert_eq!(reference.fingerprint(), sharded.fingerprint(),
            "sharded executor diverged: {:?} shards={} spray={} seed={}",
            topology, shards, spray.name(), seed);
    }
}

/// The one deterministic Clos64 case: the 80-router, 5-stage recursive
/// Clos on the reference, on `Threaded` (80 shards, 79 of them worker
/// threads: the widest layout any test asks for) and on four shards.
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
    .map(|exec| drain(build(c.clone(), &w), exec).fingerprint())
    .collect();
    assert_eq!(fps[0], fps[1], "threaded diverged from reference");
    assert_eq!(fps[0], fps[2], "sharded diverged from reference");
}

/// `Threaded` is `Sharded` with one shard per router, and both match
/// the reference.
#[test]
fn threaded_is_one_shard_per_router() {
    for topology in [Topology::Clos16, Topology::Folded8] {
        let c = cfg(topology, SprayMode::Hash, 256);
        let w = workload(Pattern::FabricUniform, 7, 8);
        let routers = topology.routers();
        let run = |exec: Executor| drain(build(c.clone(), &w), exec).fingerprint();
        let reference = run(Executor::Reference);
        assert_eq!(
            run(Executor::Threaded),
            reference,
            "{topology:?}: threaded diverged from reference"
        );
        assert_eq!(
            run(Executor::Sharded { shards: routers }),
            reference,
            "{topology:?}: one shard per router diverged from reference"
        );
    }
}

#[test]
fn shards_zero_uses_available_parallelism_and_still_matches() {
    let c = cfg(Topology::Clos16, SprayMode::Hash, 256);
    let w = workload(Pattern::FabricUniform, 11, 8);
    let reference = drain(build(c.clone(), &w), Executor::Reference);
    let sharded = drain(build(c, &w), Executor::Sharded { shards: 0 });
    assert_eq!(reference.fingerprint(), sharded.fingerprint());
}

#[test]
fn one_shard_degenerates_to_the_reference() {
    let c = cfg(Topology::Folded8, SprayMode::LeastOccupancy, 256);
    let w = workload(Pattern::FabricUniform, 3, 10);
    let reference = drain(build(c.clone(), &w), Executor::Reference);
    let sharded = drain(build(c, &w), Executor::Sharded { shards: 1 });
    assert_eq!(reference.fingerprint(), sharded.fingerprint());
}

#[test]
fn more_shards_than_routers_clamps_and_matches() {
    let c = cfg(Topology::Clos16, SprayMode::Hash, 256);
    let w = workload(Pattern::FabricUniform, 5, 6);
    let reference = drain(build(c.clone(), &w), Executor::Reference);
    let sharded = drain(build(c, &w), Executor::Sharded { shards: 64 });
    assert_eq!(reference.fingerprint(), sharded.fingerprint());
}

/// Teeth without a hook: the fingerprint differential notices a single
/// link exchanged a single epoch late. Link 0 carries traffic, and
/// freezing its drain for one epoch in which it holds packets — through
/// the public fault API — moves the fingerprint, to the same value on
/// the reference and on four shards. Fixed-horizon runs keep
/// `epochs_run` equal on all sides, so the divergence is in the
/// observable streams.
#[test]
fn one_link_one_epoch_late_moves_the_fingerprint_on_every_executor() {
    const EPOCHS: u64 = 30;
    let c = cfg(Topology::Clos16, SprayMode::Hash, 256);
    let w = workload(Pattern::FabricUniform, 42, 12);
    // Find an epoch whose boundary drains link 0 with packets queued:
    // `packets` counts pushes, so it moving across epoch `e` means that
    // boundary's collect put packets in front of its drain.
    let mut probe = build(c.clone(), &w);
    let mut busy = None;
    for e in 0..EPOCHS {
        let before = probe.summary().links[0].packets;
        probe.run_epochs_with(1, Executor::Reference);
        if busy.is_none() && probe.summary().links[0].packets > before {
            busy = Some(e);
        }
    }
    let busy = busy.expect("link 0 carried no traffic; a late exchange would be unobservable");
    let healthy = probe.fingerprint();

    let run = |exec: Executor, stall: bool| {
        let mut fab = build(c.clone(), &w);
        if stall {
            fab.stall_link(0, busy, 1);
        }
        fab.run_epochs_with(EPOCHS, exec);
        assert_eq!(fab.epochs_run(), EPOCHS);
        assert_eq!(audit(&fab, false), Vec::<String>::new());
        (fab.fingerprint(), fab.summary().links[0].stalled_epochs)
    };
    let sharded = Executor::Sharded { shards: 4 };
    assert_eq!(run(sharded, false), (healthy, 0));
    let late = run(Executor::Reference, true);
    assert_eq!(late.1, 1, "the stall window froze exactly one drain");
    assert_ne!(
        late.0, healthy,
        "a link exchanged one epoch late must break fingerprint identity"
    );
    assert_eq!(run(sharded, true), late);
}

/// One fabric may change executor between calls: every executor leaves
/// the same state behind at an epoch boundary.
#[test]
fn switching_executors_mid_run_matches_an_all_reference_run() {
    for (topology, spray) in [
        (Topology::Folded8, SprayMode::LeastOccupancy),
        (Topology::Clos16, SprayMode::Hash),
    ] {
        let c = cfg(topology, spray, 256);
        let w = workload(Pattern::FabricUniform, 9, 24);
        let reference = drain(build(c.clone(), &w), Executor::Reference);
        assert!(
            reference.epochs_run() > 20,
            "{topology:?} drained before the last switch"
        );
        let mut mixed = build(c, &w);
        mixed.run_epochs_with(10, Executor::Reference);
        mixed.run_epochs_with(10, Executor::Sharded { shards: 3 });
        let mixed = drain(mixed, Executor::Threaded);
        assert_eq!(mixed.epochs_run(), reference.epochs_run(), "{topology:?}");
        assert_eq!(mixed.fingerprint(), reference.fingerprint(), "{topology:?}");
    }
}
