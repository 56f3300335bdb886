//! Executors and the router partition they run on.
//!
//! The epoch boundary is sequential on every executor (see
//! [`crate::fabric`]); an executor only chooses how many threads run
//! the routers between two boundaries. The routers are split into
//! router-disjoint shards balanced by incident link count; the caller
//! runs one shard and a scoped worker thread each of the others, every
//! one holding `&mut` borrows of its own routers and nothing else.
//! Routers share no state inside an epoch, so the shard count cannot
//! change what any of them computes.

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
    Threaded,
    /// The routers partitioned over `shards` threads (see module docs),
    /// the caller's included. `shards == 0` picks the machine's
    /// available parallelism; any count is capped by the router count.
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
/// incident link count (a router's epoch costs what the traffic on its
/// links makes it do). Greedy longest-processing-time: heaviest router
/// first, onto the lightest shard, ties toward lower indices — no
/// randomness, no iteration-order dependence, so the same plan and
/// shard count always produce the same partition.
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
                // Every shard below the effective count gets a router.
                let mut size = vec![0usize; eff];
                for &sh in &assign {
                    size[sh] += 1;
                }
                assert!(size.iter().all(|&n| n > 0), "{t:?} s={s}: {size:?}");
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
}
