//! The one experiment runner: build the router — or the fabric — offer the
//! schedule, run, and hold what came out to the functional reference
//! ([`raw_xbar::reference`]; hop by hop through a fabric,
//! [`raw_fabric::audit`]) before anything is measured. A disagreement
//! panics with the list — those are bugs, not measurements.

use std::sync::Arc;

use raw_fabric::{Executor, FabricConfig, RawFabric};
use raw_lookup::ForwardingTable;
use raw_telemetry::SharedSink;
use raw_workloads::ScheduledPacket;
use raw_xbar::reference::Expected;
use raw_xbar::{RawRouter, RouterConfig};

/// How long a [`run_router`] run lasts.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// Exactly this many cycles (the saturated sweeps: what was delivered
    /// by then must be a prefix of what is due).
    Cycles(u64),
    /// Until every copy the reference expects is out (a multicast packet
    /// once per member port) and every packet it rejects is counted; not
    /// getting there within this many cycles is a failure, not a short row.
    Drained(u64),
}

fn expected_of(r: &RawRouter, sched: &[ScheduledPacket]) -> Expected {
    let offered = sched.iter().map(|sp| (sp.port, sp.packet.to_words()));
    Expected::of(&r.table, r.cfg.lookup_fault, offered)
}

fn settled(r: &RawRouter, e: &Expected) -> bool {
    r.delivered_count() + r.dropped_count() >= e.copies() + e.dropped()
}

fn assert_expected(r: &RawRouter, e: &Expected) {
    let errs = e.check(r, settled(r, e));
    let cycle = r.machine.cycle();
    assert!(
        errs.is_empty(),
        "the run disagrees with the reference datapath at cycle {cycle}:\n{}",
        errs.join("\n")
    );
}

/// Audit `r`, which was offered exactly `sched`, where it stands now (for
/// a caller that keeps running a router [`run_router`] handed back).
pub fn assert_audit(r: &RawRouter, sched: &[ScheduledPacket]) {
    assert_expected(r, &expected_of(r, sched));
}

/// Build a router, offer `sched`, run `until`, audit, and hand the router
/// back for measurement.
pub fn run_router(
    cfg: RouterConfig,
    table: Arc<ForwardingTable>,
    sched: &[ScheduledPacket],
    until: Until,
    telemetry: Option<SharedSink>,
) -> RawRouter {
    let mut r = match RawRouter::try_new_with_telemetry(cfg, table, telemetry) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    };
    for sp in sched {
        r.offer(sp.port, sp.release, &sp.packet);
    }
    let expected = expected_of(&r, sched);
    match until {
        Until::Cycles(n) => r.run(n),
        Until::Drained(max_cycles) => {
            // `RawRouter::run_until_drained`'s poll, on the reference's count.
            while !settled(&r, &expected) && r.machine.cycle() < max_cycles {
                r.run(256);
            }
            let (got, due) = (r.delivered_count(), expected.copies());
            assert!(
                settled(&r, &expected),
                "run did not drain within {max_cycles} cycles: {got} of {due} copies delivered"
            );
        }
    }
    assert_expected(&r, &expected);
    r
}

/// The epoch budget of every [`run_fabric`] run: not draining within it
/// is a failure, not a short row.
const MAX_FABRIC_EPOCHS: u64 = 500_000;

/// Build a fabric, offer `sched` (`port` names an external input), run it
/// dry on `exec`, audit, and hand it back for measurement.
pub fn run_fabric(cfg: FabricConfig, sched: &[ScheduledPacket], exec: Executor) -> RawFabric {
    let mut fab = match RawFabric::try_new(cfg) {
        Ok(fab) => fab,
        Err(e) => panic!("{e}"),
    };
    for sp in sched {
        fab.offer(sp.port, sp.release, &sp.packet);
    }
    let drained = fab.run_until_drained_with(MAX_FABRIC_EPOCHS, exec);
    let (epochs, got, offered) = (fab.epochs_run(), fab.delivered_count(), fab.offered());
    assert!(
        drained,
        "{} did not drain within {epochs} epochs: {got} of {offered} packets delivered",
        fab.plan.topology.name()
    );
    let errs = raw_fabric::audit(&fab, true);
    assert!(
        errs.is_empty(),
        "the fabric run disagrees with the reference datapath at epoch {epochs}:\n{}",
        errs.join("\n")
    );
    fab
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_lookup::{encode_multicast, RouteEntry};
    use raw_net::Packet;
    use raw_xbar::reference::port_routes;

    fn multicast_setup() -> (RouterConfig, Arc<ForwardingTable>, Vec<ScheduledPacket>) {
        let mut routes = port_routes();
        routes.push(RouteEntry::new(0xe000_0000, 4, encode_multicast(0b1110)));
        let cfg = RouterConfig::for_packet_bytes(256);
        let sched = (0..24)
            .map(|k| ScheduledPacket {
                port: 0,
                release: 0,
                packet: Packet::synthetic(0x0a0a_0000, 0xe000_0005, 256, 64, k),
            })
            .collect();
        (cfg, Arc::new(ForwardingTable::build(&routes)), sched)
    }

    #[test]
    fn drained_waits_for_every_multicast_copy() {
        let (cfg, table, sched) = multicast_setup();
        // The router's own drain poll compares copies with offers: it
        // returns once 24 of the 72 copies are out.
        let mut r = RawRouter::new(cfg.clone(), Arc::clone(&table));
        for sp in &sched {
            r.offer(sp.port, sp.release, &sp.packet);
        }
        assert!(r.run_until_drained(6_000_000));
        assert!(
            (24..72).contains(&r.delivered_count()),
            "{}",
            r.delivered_count()
        );

        let r = run_router(cfg, table, &sched, Until::Drained(6_000_000), None);
        assert_eq!(r.delivered_count(), 72);
    }

    #[test]
    #[should_panic(expected = "did not drain")]
    fn a_run_that_cannot_drain_in_time_fails() {
        let (cfg, table, sched) = multicast_setup();
        run_router(cfg, table, &sched, Until::Drained(512), None);
    }

    #[test]
    #[should_panic(expected = "disagrees with the reference")]
    fn a_router_that_disagrees_with_the_reference_fails() {
        // A packet the schedule never contained turns up at an output.
        let (cfg, table, mut sched) = multicast_setup();
        let stray = sched.pop().unwrap();
        let mut r = run_router(cfg, table, &sched, Until::Cycles(40_000), None);
        let mut stray = stray.packet;
        stray.header.forward_hop().unwrap();
        r.collected_mut(1).packets.push((0, stray));
        assert_audit(&r, &sched);
    }
}
