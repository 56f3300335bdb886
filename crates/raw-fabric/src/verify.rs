//! Bridge from this crate's concrete `TopologyPlan` + [`FabricConfig`]
//! to `raw-verify`'s abstract [`FabricSpec`], plus the entry points the
//! rest of the repo uses to run the whole-fabric static analyses
//! (`RV5xx` deadlock, `RV6xx` routing). Link sizing is not among them:
//! [`FabricConfig::validate`] is its one check.
//!
//! [`RawFabric::try_new`](crate::RawFabric::try_new) calls
//! [`verify_spec`] before instantiating any router, so every fabric that
//! exists has a standing static proof behind it; `repro -- verify` calls
//! [`verify_topology`] over the shipped topologies to publish the same
//! verdicts into `results/verify.json`.

use raw_verify::fabric::{FabricSpec, FabricVerdict, LinkEdge, RouterNode};

use crate::fabric::FabricConfig;
use crate::topology::{self, fabric_addr, Topology, TopologyPlan};

/// Lower a concrete plan + config into the abstract spec the static
/// verifier analyzes. Pure translation — no judgment calls live here,
/// so a mutant plan (a truncated table, a rewired link) flows through
/// unlaundered and the verifier sees exactly what the executor would.
pub fn build_spec(plan: &TopologyPlan, cfg: &FabricConfig) -> FabricSpec {
    let ext = plan.ext_out.len();
    let spray = plan.topology.spray_width();
    FabricSpec {
        name: plan.topology.name().to_string(),
        ext_ports: ext,
        spray_width: spray,
        routers: plan
            .routers
            .iter()
            .map(|r| RouterNode {
                stage: r.stage,
                routes: r.routes.clone(),
            })
            .collect(),
        links: plan
            .links
            .iter()
            .map(|l| LinkEdge {
                from: l.from,
                to: l.to,
            })
            .collect(),
        ext_in: plan.ext_in.clone(),
        ext_out: plan.ext_out.clone(),
        uplinks: plan.uplinks.clone(),
        dest_addrs: (0..ext)
            .map(|d| (0..spray).map(|m| fabric_addr(d as u8, m as u8)).collect())
            .collect(),
        voq_ingress: cfg.router.queueing.is_voq(),
    }
}

/// Statically verify a concrete plan under a config.
pub fn verify_spec(plan: &TopologyPlan, cfg: &FabricConfig) -> FabricVerdict {
    raw_verify::fabric::verify_fabric(&build_spec(plan, cfg))
}

/// Statically verify one shipped topology under a config (the config's
/// own `topology` field is ignored in favor of `t`).
pub fn verify_topology(t: Topology, cfg: &FabricConfig) -> FabricVerdict {
    verify_spec(&topology::plan(t), cfg)
}

/// Statically verify the fabric a config describes — the same gate
/// [`RawFabric::try_new`](crate::RawFabric::try_new) applies.
pub fn verify_fabric(cfg: &FabricConfig) -> FabricVerdict {
    verify_topology(cfg.topology, cfg)
}
