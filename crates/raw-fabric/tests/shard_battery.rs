//! Differential battery for the executors: on every topology, shard
//! count, spray policy, epoch length and seed, routers run on partitioned worker
//! threads must leave the fabric in exactly the state the
//! single-threaded reference does — [`raw_sim::first_divergence`] over
//! [`RawFabric::digests`] finds no epoch and no link, router component
//! or external output where they differ — and every drained run ends in
//! [`raw_fabric::audit`]. The differential is shown to have teeth
//! through the public fault API: one link exchanged one epoch late is
//! located, at the same epoch and link, on every executor.

use proptest::prelude::*;

use raw_fabric::{audit, Executor, FabricComponent, FabricConfig, RawFabric, SprayMode, Topology};
use raw_workloads::{generate_n, Arrivals, Pattern, Workload};
use raw_xbar::raw_sim::first_divergence;

/// Epochs any drain here may take before it counts as wedged.
const BUDGET: u64 = 50_000;

/// A fabric built from `cfg` and offered `w`.
fn build(cfg: &FabricConfig, w: &Workload) -> RawFabric {
    let nports = cfg.topology.ext_ports();
    let mut fab = RawFabric::try_new(cfg.clone()).expect("valid config");
    for s in generate_n(w, nports) {
        fab.offer(s.port, s.release, &s.packet);
    }
    fab
}

/// Run a fresh fabric `n` epochs on the executor `exec(epoch)` picks for
/// each, stopping early once it drains; a drained run is audited, and a
/// run the full budget did not drain is wedged.
fn drain(fab: &mut RawFabric, n: u64, exec: impl Fn(u64) -> Executor) {
    while fab.epochs_run() < n {
        let e = fab.epochs_run();
        if fab.run_until_drained_with(e + 1, exec(e)) {
            let errs = audit(fab, true);
            assert!(errs.is_empty(), "{errs:#?}");
            return;
        }
    }
    assert!(n < BUDGET, "{:?} wedged", fab.cfg.topology);
}

/// Where the fabric drained on `exec` first leaves the one drained on
/// the reference, an epoch being a step.
fn divergence(
    c: &FabricConfig,
    w: &Workload,
    exec: impl Fn(u64) -> Executor,
) -> Option<(u64, FabricComponent)> {
    first_divergence(
        || (build(c, w), true),
        || (build(c, w), false),
        |(fab, reference), n| match reference {
            true => drain(fab, n, |_| Executor::Reference),
            false => drain(fab, n, &exec),
        },
        |(fab, _)| fab.digests(),
        BUDGET,
    )
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole differential: sharded == reference, bit for bit,
    /// across topology x shard count x spray policy x epoch length x
    /// seed.
    #[test]
    fn sharded_fingerprint_matches_reference(
        topo_sel in any::<u8>(),
        shard_sel in any::<u8>(),
        spray_sel in any::<u8>(),
        epoch_sel in any::<u8>(),
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
        let epoch_cycles = [128u64, 256, 512][(epoch_sel % 3) as usize];
        // Keep debug-build time sane: light load on the 80-router Clos.
        let ppp = if topology == Topology::Clos64 { 3 } else { 8 };
        let c = cfg(topology, spray, epoch_cycles);
        let w = workload(Pattern::FabricUniform, seed, ppp);
        let found = divergence(&c, &w, |_| Executor::Sharded { shards });
        prop_assert_eq!(found, None,
            "sharded executor diverged: {:?} shards={} spray={} epoch={} seed={}",
            topology, shards, spray.name(), epoch_cycles, seed);
    }
}

/// The curated rows of the same differential: Clos16 on four shards,
/// seeds 11, 22 and 33 on both spray modes.
#[test]
fn sharded_execution_is_bit_identical_to_the_reference() {
    for seed in [11u64, 22, 33] {
        for spray in [SprayMode::Hash, SprayMode::LeastOccupancy] {
            let c = cfg(Topology::Clos16, spray, 256);
            let w = workload(Pattern::FabricUniform, seed, 12);
            let found = divergence(&c, &w, |_| Executor::Sharded { shards: 4 });
            assert_eq!(found, None, "seed {seed} spray {}", spray.name());
        }
    }
}

/// The one deterministic Clos64 case: the 80-router, 5-stage recursive
/// Clos on the reference, on `Threaded` (80 shards, 79 of them worker
/// threads: the widest layout any test asks for) and on four shards.
#[test]
fn all_three_executors_agree_on_clos64() {
    let c = cfg(Topology::Clos64, SprayMode::Hash, 256);
    let w = workload(Pattern::FabricUniform, 7, 4);
    assert_eq!(divergence(&c, &w, |_| Executor::Threaded), None, "threaded");
    let four = |_| Executor::Sharded { shards: 4 };
    assert_eq!(divergence(&c, &w, four), None, "four shards");
}

/// `Threaded` is `Sharded` with one shard per router, and both match
/// the reference.
#[test]
fn threaded_is_one_shard_per_router() {
    for topology in [Topology::Clos16, Topology::Folded8] {
        let c = cfg(topology, SprayMode::Hash, 256);
        let w = workload(Pattern::FabricUniform, 7, 8);
        let shards = topology.routers();
        let found = divergence(&c, &w, |_| Executor::Threaded);
        assert_eq!(found, None, "{topology:?}: threaded");
        let found = divergence(&c, &w, |_| Executor::Sharded { shards });
        assert_eq!(found, None, "{topology:?}: one shard per router");
    }
}

/// The two-chip composition (§8.5) on two shards, one chip each: its
/// trunks cross between the shards at every boundary, in both
/// directions, on both spray modes.
#[test]
fn two_chips_on_two_shards_match_the_reference() {
    for spray in [SprayMode::Hash, SprayMode::LeastOccupancy] {
        let c = cfg(Topology::TwoChip6, spray, 256);
        let w = workload(Pattern::FabricUniform, 19, 12);
        let found = divergence(&c, &w, |_| Executor::Sharded { shards: 2 });
        assert_eq!(found, None, "spray {}", spray.name());
    }
}

#[test]
fn shards_zero_uses_available_parallelism_and_still_matches() {
    let c = cfg(Topology::Clos16, SprayMode::Hash, 256);
    let w = workload(Pattern::FabricUniform, 11, 8);
    let found = divergence(&c, &w, |_| Executor::Sharded { shards: 0 });
    assert_eq!(found, None);
}

#[test]
fn one_shard_degenerates_to_the_reference() {
    let c = cfg(Topology::Folded8, SprayMode::LeastOccupancy, 256);
    let w = workload(Pattern::FabricUniform, 3, 10);
    let found = divergence(&c, &w, |_| Executor::Sharded { shards: 1 });
    assert_eq!(found, None);
}

#[test]
fn more_shards_than_routers_clamps_and_matches() {
    let c = cfg(Topology::Clos16, SprayMode::Hash, 256);
    let w = workload(Pattern::FabricUniform, 5, 6);
    let found = divergence(&c, &w, |_| Executor::Sharded { shards: 64 });
    assert_eq!(found, None);
}

/// Teeth without a hook: the differential locates a single link
/// exchanged a single epoch late. Link 0 carries traffic; freezing its
/// drain at the boundary that opens epoch `busy`, while it holds
/// packets, is first seen after `busy + 1` epochs — that boundary runs
/// in the `busy + 1`-th — and first at link 0, which still holds the
/// packets it should have handed on. (Its receiver, fed one boundary
/// late, differs from the same epoch too, but links come first in the
/// digest order for exactly this reason.) Both the reference and four
/// shards report it so, and stalled runs on the two agree.
#[test]
fn one_link_one_epoch_late_moves_the_fingerprint_on_every_executor() {
    const EPOCHS: u64 = 30;
    let c = cfg(Topology::Clos16, SprayMode::Hash, 256);
    let w = workload(Pattern::FabricUniform, 42, 12);
    // Find an epoch whose boundary drains link 0 with packets queued:
    // `packets` counts pushes, so it moving across epoch `e` means that
    // boundary's collect put packets in front of its drain.
    let mut probe = build(&c, &w);
    let mut busy = None;
    for e in 0..EPOCHS {
        let before = probe.summary().links[0].packets;
        probe.run_epochs_with(1, Executor::Reference);
        if busy.is_none() && probe.summary().links[0].packets > before {
            busy = Some(e);
        }
    }
    let busy = busy.expect("link 0 carried no traffic; a late exchange would be unobservable");

    let run = |exec: Executor, stall: bool| {
        let mut fab = build(&c, &w);
        if stall {
            fab.stall_link(0, busy, 1);
        }
        (fab, exec)
    };
    let advance = |(fab, exec): &mut (RawFabric, Executor), n: u64| {
        fab.run_epochs_with(n, *exec);
        assert_eq!(audit(fab, false), Vec::<String>::new());
    };
    let digests = |(fab, _): &(RawFabric, Executor)| fab.digests();
    let sharded = Executor::Sharded { shards: 4 };
    for exec in [Executor::Reference, sharded] {
        let found = first_divergence(
            || run(exec, false),
            || run(exec, true),
            advance,
            digests,
            EPOCHS,
        );
        assert_eq!(
            found,
            Some((busy + 1, FabricComponent::Link(0))),
            "{}",
            exec.name()
        );
    }
    let found = first_divergence(
        || run(Executor::Reference, true),
        || run(sharded, true),
        advance,
        digests,
        EPOCHS,
    );
    assert_eq!(found, None);
    let (mut late, _) = run(Executor::Reference, true);
    late.run_epochs_with(EPOCHS, Executor::Reference);
    assert_eq!(
        late.summary().links[0].stalled_epochs,
        1,
        "the stall window froze exactly one drain"
    );
}

/// One fabric may change executor between calls: every executor leaves
/// the same state behind at an epoch boundary. The mixed run takes ten
/// epochs on the reference, ten on three shards, then drains threaded.
#[test]
fn switching_executors_mid_run_matches_an_all_reference_run() {
    for (topology, spray) in [
        (Topology::Folded8, SprayMode::LeastOccupancy),
        (Topology::Clos16, SprayMode::Hash),
    ] {
        let c = cfg(topology, spray, 256);
        let w = workload(Pattern::FabricUniform, 9, 24);
        let mut reference = build(&c, &w);
        drain(&mut reference, BUDGET, |_| Executor::Reference);
        assert!(
            reference.epochs_run() > 20,
            "{topology:?} drained before the last switch"
        );
        let mixed = |e: u64| match e {
            0..10 => Executor::Reference,
            10..20 => Executor::Sharded { shards: 3 },
            _ => Executor::Threaded,
        };
        assert_eq!(divergence(&c, &w, mixed), None, "{topology:?}");
    }
}
