//! Sharded coordinators: partitioning the fabric's link graph for the
//! [`Executor::Sharded`] executor.
//!
//! The reference executor funnels every cross-router transfer through
//! one sequential boundary on the caller's thread. The sharded executor
//! splits that boundary: routers are partitioned
//! into router-disjoint shards balanced by incident link count, and each
//! shard's worker performs the boundary link work it owns — collecting
//! its routers' egress collectors into link queues (phase A, keyed by
//! the link's *sender*) and draining link queues into its routers' input
//! line cards (phase B, keyed by the link's *receiver*) — with epoch
//! barriers between the phases. Only boundary-link state crosses shards,
//! and it does so exactly at those barriers.
//!
//! Why fingerprints stay bit-identical to the reference: every per-link
//! boundary operation touches resources no other link shares — the
//! sender's per-port collector, the link's own queue, and the receiver's
//! per-port line card (the wiring validator guarantees each router port
//! appears on at most one link). Operations on *different* links
//! therefore commute, so any partition of the links — including the
//! degenerate one-shard partition, which is literally the reference
//! boundary — produces the same fabric state. The order-sensitive work
//! (latency accounting against the shared life map, external delivery
//! accounting, injection with spray selection, and the credit check)
//! never runs on a worker: phase B buffers latency events per shard and
//! a sequential coordinator tail applies them and runs the rest, exactly
//! as the reference does.

use crate::topology::TopologyPlan;

/// Which executor advances the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Executor {
    /// Single-threaded: boundary and routers on the caller's thread, in
    /// fixed order. The semantic reference everything else must match.
    Reference,
    /// One shard per router: `Sharded { shards: routers }` under the
    /// name of the historical per-router-thread executor. Kept because
    /// the repo benchmark (`benchmark/src/workloads.rs`) matches on it.
    /// Like every `Sharded` layout it honours the `ShardMutant` test
    /// hook; only `Reference` ignores it.
    Threaded,
    /// Partitioned coordinators (see module docs). `shards == 0` picks
    /// the machine's available parallelism, capped by the router count.
    Sharded { shards: usize },
}

impl Executor {
    pub fn name(&self) -> &'static str {
        match self {
            Executor::Reference => "reference",
            Executor::Threaded => "threaded",
            Executor::Sharded { .. } => "sharded",
        }
    }
}

/// Deterministic router partition: router-disjoint, balanced by
/// incident link count (links, not routers, are what the boundary pays
/// for). Greedy longest-processing-time: heaviest router first, onto
/// the lightest shard, ties toward lower indices — no randomness, no
/// iteration-order dependence, so the same plan and shard count always
/// produce the same partition.
pub fn partition_routers(plan: &TopologyPlan, shards: usize) -> Vec<usize> {
    let n = plan.routers.len();
    let s = shards.clamp(1, n.max(1));
    let mut weight = vec![1usize; n];
    for l in &plan.links {
        weight[l.from.0] += 1;
        weight[l.to.0] += 1;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&r| (std::cmp::Reverse(weight[r]), r));
    let mut load = vec![0usize; s];
    let mut assign = vec![0usize; n];
    for r in order {
        let sh = (0..s).min_by_key(|&i| (load[i], i)).expect("s >= 1");
        assign[r] = sh;
        load[sh] += weight[r];
    }
    assign
}

/// Seeded executor bugs for the differential battery: each one is a
/// real mistake a sharded-coordinator implementation could make, wired
/// behind a test hook so a named test can prove the fingerprint
/// differential catches it. Not part of the public API.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShardMutant {
    #[default]
    None,
    /// Boundary link `li`'s phase-A collect runs one epoch late: the
    /// packets a sender completed in epoch `e` enter the link queue at
    /// the `e+1` boundary instead of `e` — the classic stale-exchange
    /// bug when a shard reads a neighbor's state before the barrier.
    DelayBoundaryLink(usize),
    /// Router `r` is claimed by two shards: both run it every epoch, so
    /// it advances two epochs of cycles per barrier — the partition
    /// failed to keep one router's work on one worker.
    SplitRouter(usize),
    /// The phase-A/phase-B barrier is missing. Emulated
    /// deterministically: shards execute phase A then phase B
    /// back-to-back in shard order, so shard 0 drains links whose
    /// sender lives in a later shard before that shard has collected —
    /// exactly what the lost barrier would allow, without the
    /// nondeterminism of a real race.
    SkipBarrier,
}

/// One link's phase-B (receiver-side) work item.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkB {
    pub li: usize,
    pub to_r: usize,
    pub to_p: usize,
    /// Stage of the *sending* router — the stage whose traversal
    /// latency the drain records.
    pub stage: usize,
}

/// The precomputed per-shard work lists the sharded executor runs from.
pub(crate) struct ShardPlan {
    /// Routers each shard advances intra-epoch.
    pub routers_of: Vec<Vec<usize>>,
    /// Links collected by each shard in phase A (sender-owned).
    pub sender_links: Vec<Vec<usize>>,
    /// Links drained by each shard in phase B (receiver-owned).
    pub recv_links: Vec<Vec<LinkB>>,
}

impl ShardPlan {
    pub(crate) fn build(plan: &TopologyPlan, assign: &[usize], mutant: ShardMutant) -> ShardPlan {
        let s = assign.iter().copied().max().unwrap_or(0) + 1;
        let mut routers_of: Vec<Vec<usize>> = vec![Vec::new(); s];
        for (r, &sh) in assign.iter().enumerate() {
            routers_of[sh].push(r);
        }
        if let ShardMutant::SplitRouter(r) = mutant {
            if s > 1 {
                routers_of[(assign[r] + 1) % s].push(r);
            }
        }
        let mut sender_links: Vec<Vec<usize>> = vec![Vec::new(); s];
        let mut recv_links: Vec<Vec<LinkB>> = vec![Vec::new(); s];
        for (li, l) in plan.links.iter().enumerate() {
            sender_links[assign[l.from.0]].push(li);
            recv_links[assign[l.to.0]].push(LinkB {
                li,
                to_r: l.to.0,
                to_p: l.to.1,
                stage: plan.routers[l.from.0].stage,
            });
        }
        ShardPlan {
            routers_of,
            sender_links,
            recv_links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{plan, Topology};

    const ALL: [Topology; 5] = [
        Topology::Single4,
        Topology::Folded8,
        Topology::Clos16,
        Topology::Clos64,
        Topology::Clos256,
    ];

    #[test]
    fn partition_is_a_router_disjoint_cover_at_every_shard_count() {
        for t in ALL {
            let p = plan(t);
            for s in [1, 2, 3, 5, 8, 64, 1000] {
                let assign = partition_routers(&p, s);
                assert_eq!(assign.len(), p.routers.len());
                let eff = s.clamp(1, p.routers.len());
                assert!(assign.iter().all(|&sh| sh < eff), "{t:?} s={s}");
                // Every router appears in exactly one shard list.
                let sp = ShardPlan::build(&p, &assign, ShardMutant::None);
                let mut seen = vec![0usize; p.routers.len()];
                for rs in &sp.routers_of {
                    for &r in rs {
                        seen[r] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "{t:?} s={s}");
                // Every link is collected once and drained once.
                let collected: usize = sp.sender_links.iter().map(Vec::len).sum();
                let drained: usize = sp.recv_links.iter().map(Vec::len).sum();
                assert_eq!(collected, p.links.len());
                assert_eq!(drained, p.links.len());
            }
        }
    }

    #[test]
    fn partition_balances_incident_links() {
        // On the symmetric Clos fabrics every router weighs the same,
        // so shard loads may differ by at most one router's weight.
        for t in [Topology::Clos16, Topology::Clos64, Topology::Clos256] {
            let p = plan(t);
            let mut weight = vec![1usize; p.routers.len()];
            for l in &p.links {
                weight[l.from.0] += 1;
                weight[l.to.0] += 1;
            }
            for s in [2, 4, 8] {
                let assign = partition_routers(&p, s);
                let mut load = vec![0usize; s];
                for (r, &sh) in assign.iter().enumerate() {
                    load[sh] += weight[r];
                }
                let (min, max) = (*load.iter().min().unwrap(), *load.iter().max().unwrap());
                let per_router = weight[0];
                assert!(
                    max - min <= per_router,
                    "{t:?} s={s}: loads {load:?} spread more than one router"
                );
            }
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let p = plan(Topology::Clos64);
        assert_eq!(partition_routers(&p, 6), partition_routers(&p, 6));
    }

    #[test]
    fn split_router_mutant_duplicates_exactly_one_router() {
        let p = plan(Topology::Clos16);
        let assign = partition_routers(&p, 4);
        let sp = ShardPlan::build(&p, &assign, ShardMutant::SplitRouter(7));
        let total: usize = sp.routers_of.iter().map(Vec::len).sum();
        assert_eq!(total, p.routers.len() + 1);
    }
}
