//! The executor differential the fabric test files share.

use raw_fabric::{audit, Executor, FabricComponent, FabricConfig, RawFabric};
use raw_workloads::{generate_n, Workload};
use raw_xbar::raw_sim::first_divergence;

/// Epochs any drain here may take before it counts as wedged.
pub const BUDGET: u64 = 50_000;

/// A fabric built from `cfg` and offered `w`.
pub fn build(cfg: &FabricConfig, w: &Workload) -> RawFabric {
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
pub fn drain(fab: &mut RawFabric, n: u64, exec: impl Fn(u64) -> Executor) {
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
pub fn divergence(
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
