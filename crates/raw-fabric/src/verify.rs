//! Whole-fabric static verification (`RV5xx`–`RV6xx`): channel-dependency
//! deadlock proofs and routing soundness for a [`TopologyPlan`] under a
//! [`FabricConfig`], before any simulation runs. The analyses read the
//! plan the executor runs and resolve every address through the
//! forwarding tables the routers are built with
//! (`router_tables`, looked up with `cfg.router.engine`), so
//! [`RawFabric::try_new`](crate::RawFabric::try_new), which verifies
//! those tables and then hands them to the routers, proves exactly what
//! it builds. `repro -- verify` publishes the same verdicts over the
//! shipped topologies into `results/verify.json`. Two analyses:
//!
//! 1. **Routing soundness** (`RV6xx`): every distinct table covers the
//!    full fabric address space (`RV601`), every `(source, destination,
//!    spray)` walk terminates without revisiting a router (`RV602`), lands
//!    on exactly the right external output (`RV603`), never exits through
//!    a port that is neither a link nor a declared external output
//!    (`RV604`), and ingress tables agree with the declared uplink map, so
//!    a stamped middle octet always lands on a router whose table can
//!    complete delivery (`RV605`). The walks double as a reachability
//!    analysis: they record exactly which output ports traffic arriving on
//!    each router input can target, and that arrival-accurate target set
//!    is what keeps the deadlock analysis below sharp (an
//!    any-address-anywhere abstraction would manufacture cycles that no
//!    routed packet can drive).
//!
//! 2. **Channel-dependency deadlock freedom** (`RV5xx`): a
//!    channel-dependency graph in the Dally/Seitz tradition, built over
//!    link queues, router input line cards, and link-feeding egress
//!    ports. An edge means "this resource's progress waits on that one":
//!    egress emission waits on link credits (the per-epoch credit check
//!    stalls a sender whose link cannot absorb one emission burst), a
//!    link's packets wait on its receiver line card draining, and a line
//!    card's head waits on the egress its packet targets (a full VOQ
//!    blocks admission; a FIFO head blocks the whole queue). The
//!    historical escape fix is modeled *explicitly* as edges that appear
//!    when it is absent: without VOQ ingress, a blocked head holds its
//!    cut-through transfer on the shared crossbar ring, so every input of
//!    the router transitively waits on every blockable egress (`RV502`
//!    when that closes a cycle). A cycle in the base graph alone — one
//!    the escape valve cannot break — is `RV501`. (The other historical
//!    fix, a receive window that never closes below one packet per
//!    epoch, is the executor's constant
//!    [`MIN_RECEIVE_WINDOW`](crate::fabric::MIN_RECEIVE_WINDOW), so no
//!    configuration can remove it.)
//!
//! Link sizing — the credit threshold and queue capacity — is not
//! re-derived here: [`FabricConfig::validate`] is its one check.

use std::sync::Arc;

use raw_lookup::{Engine, ForwardingTable};
use raw_verify::{Analysis, AnalysisReport, Diag};
use raw_xbar::NPORTS;

use crate::fabric::{router_tables, FabricConfig};
use crate::topology::{self, fabric_addr, TopologyPlan};

/// The outcome of verifying one fabric.
#[derive(Clone, Debug, PartialEq)]
pub struct FabricVerdict {
    pub name: String,
    pub diags: Vec<Diag>,
    /// Channel-dependency graph size (nodes / edges, escape edges
    /// included when the fix is absent).
    pub cdg_nodes: u64,
    pub cdg_edges: u64,
    /// `(source, destination, spray)` routing walks executed.
    pub route_walks: u64,
    /// Table × address coverage points checked for `RV601`.
    pub coverage_points: u64,
}

/// Statically verify the fabric a config describes — the gate
/// [`RawFabric::try_new`](crate::RawFabric::try_new) applies.
pub fn verify_fabric(cfg: &FabricConfig) -> FabricVerdict {
    verify_plan(&topology::plan(cfg.topology), cfg)
}

/// Statically verify a plan under a config (the config's own `topology`
/// field is not read), building its tables as the fabric would. A mutant
/// plan — a truncated table, a rewired link — is analyzed as it stands.
pub fn verify_plan(plan: &TopologyPlan, cfg: &FabricConfig) -> FabricVerdict {
    verify_tables(plan, &router_tables(&plan.routers), cfg)
}

/// Run both analyses over a plan whose router `r` forwards with
/// `tables[r]` (shared between routers exactly when `router_tables`
/// shares it).
pub(crate) fn verify_tables(
    plan: &TopologyPlan,
    tables: &[Arc<ForwardingTable>],
    cfg: &FabricConfig,
) -> FabricVerdict {
    let name = plan.topology.name();
    let mut diags = Vec::new();
    let (targets, route_walks, coverage_points) =
        check_routing(plan, tables, cfg.router.engine, name, &mut diags);
    let voq = cfg.router.queueing.is_voq();
    let (cdg_nodes, cdg_edges) = check_deadlock(plan, &targets, voq, name, &mut diags);
    FabricVerdict {
        name: name.to_string(),
        diags,
        cdg_nodes,
        cdg_edges,
        route_walks,
        coverage_points,
    }
}

// ---------------------------------------------------------------------
// RV6xx — routing soundness (and arrival-set extraction for RV5xx)
// ---------------------------------------------------------------------

/// Per router, per input port: the output ports that routed traffic
/// arriving there can target. Ext-input ports are included.
type TargetSets = Vec<[Vec<usize>; NPORTS]>;

fn check_routing(
    plan: &TopologyPlan,
    tables: &[Arc<ForwardingTable>],
    engine: Engine,
    name: &str,
    diags: &mut Vec<Diag>,
) -> (TargetSets, u64, u64) {
    let (ext_ports, spray) = (plan.ext_out.len(), plan.topology.spray_width());
    // Distinct tables, by the router that first holds each: routers
    // sharing a table share its verdict.
    let mut reps: Vec<usize> = Vec::new();
    let class_of: Vec<usize> = tables
        .iter()
        .enumerate()
        .map(|(r, t)| {
            reps.iter()
                .position(|&c| Arc::ptr_eq(&tables[c], t))
                .unwrap_or_else(|| {
                    reps.push(r);
                    reps.len() - 1
                })
        })
        .collect();
    // RV601: full address-space coverage of every distinct table.
    // `resolved[class][d][m]`: the table's answer for every fabric
    // address, memoized so the walks below never re-run a lookup.
    let mut coverage_points = 0u64;
    let mut resolved: Vec<Vec<Vec<Option<u32>>>> = Vec::with_capacity(reps.len());
    for (c, &ri) in reps.iter().enumerate() {
        let mut per_d = Vec::with_capacity(ext_ports);
        for d in 0..ext_ports {
            let mut per_m = Vec::with_capacity(spray);
            for m in 0..spray {
                coverage_points += 1;
                let addr = fabric_addr(d as u8, m as u8);
                let hit = tables[ri].lookup(engine, addr).0;
                if hit.is_none() {
                    let members = class_of.iter().filter(|&&k| k == c).count();
                    diags.push(
                        Diag::new(
                            "RV601",
                            Analysis::FabricRouting,
                            name,
                            format!(
                                "router {ri} table (shared by {members} router(s)) has no route \
                                 for fabric address {addr:#010x} (dst {d} via middle {m}); the \
                                 address space is not covered"
                            ),
                        )
                        .at_net(ri),
                    );
                }
                per_m.push(hit);
            }
            per_d.push(per_m);
        }
        resolved.push(per_d);
    }

    // Walks: every (source ext, destination, spray) triple, deduped
    // over external ports sharing an ingress router — the path is a
    // function of the router, not the entry port, so one walk per
    // (ingress router, destination, spray) marks the arrival sets for
    // every co-located source port.
    let mut groups: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
    for (src, &(r0, p0)) in plan.ext_in.iter().enumerate() {
        match groups.iter_mut().find(|g| g.0 == r0) {
            Some(g) => g.1.push((src, p0)),
            None => groups.push((r0, vec![(src, p0)])),
        }
    }
    let mut targets: TargetSets = vec![Default::default(); plan.routers.len()];
    let mark = |targets: &mut TargetSets, r: usize, p: usize, out: usize| {
        if !targets[r][p].contains(&out) {
            targets[r][p].push(out);
        }
    };
    let mut walks = 0u64;
    let hop_limit = plan.routers.len() + 1;
    let mut visited = vec![u64::MAX; plan.routers.len()];
    let mut stamp = 0u64;
    for (r0, srcs) in &groups {
        let (r0, src) = (*r0, srcs[0].0);
        // `d` and `m` name a fabric address, not a row of `resolved`
        // (that lookup goes through `class_of[r]` first).
        #[allow(clippy::needless_range_loop)]
        for d in 0..ext_ports {
            let ms = if plan.is_local(r0, d) { 1 } else { spray };
            for m in 0..ms {
                walks += 1;
                let (mut r, mut p) = (r0, srcs[0].1);
                stamp += 1;
                let mut first_hop = true;
                let mut hops = 0;
                loop {
                    if visited[r] == stamp {
                        diags.push(
                            Diag::new(
                                "RV602",
                                Analysis::FabricRouting,
                                name,
                                format!(
                                    "routing loop: walk src {src} -> dst {d} via middle {m} \
                                     revisits router {r}"
                                ),
                            )
                            .at_net(r),
                        );
                        break;
                    }
                    visited[r] = stamp;
                    hops += 1;
                    if hops > hop_limit {
                        break; // visited[] already reported the loop
                    }
                    let Some(out) = resolved[class_of[r]][d][m] else {
                        break; // RV601 covers the hole; walk cannot proceed
                    };
                    let out = out as usize;
                    if first_hop {
                        // The first hop is shared by every external port
                        // of this ingress router; mark each entry port.
                        for &(_, p0) in srcs {
                            mark(&mut targets, r, p0, out);
                        }
                        // Ingress spray agreement: the table must steer a
                        // non-local (d, m) out the declared uplink for m,
                        // or the stamped middle octet lies about the path.
                        if !plan.is_local(r, d) && plan.uplinks[r].len() == spray {
                            let want = plan.links[plan.uplinks[r][m]].from.1;
                            if out != want {
                                diags.push(
                                    Diag::new(
                                        "RV605",
                                        Analysis::FabricRouting,
                                        name,
                                        format!(
                                            "ingress router {r} routes dst {d} via middle {m} \
                                             out port {out}, but the declared uplink for spray \
                                             {m} is port {want}"
                                        ),
                                    )
                                    .at_net(r),
                                );
                            }
                        }
                        first_hop = false;
                    } else {
                        mark(&mut targets, r, p, out);
                    }
                    if let Some(li) = plan.link_out_of(r, out) {
                        (r, p) = plan.links[li].to;
                        continue;
                    }
                    if plan.ext_out[d] != (r, out) {
                        match plan.ext_out.iter().position(|&e| e == (r, out)) {
                            Some(ext) => diags.push(
                                Diag::new(
                                    "RV603",
                                    Analysis::FabricRouting,
                                    name,
                                    format!(
                                        "misdelivery: walk src {src} -> dst {d} via middle {m} \
                                         terminates at external output {ext}"
                                    ),
                                )
                                .at_net(r),
                            ),
                            None => diags.push(
                                Diag::new(
                                    "RV604",
                                    Analysis::FabricRouting,
                                    name,
                                    format!(
                                        "dangling egress: router {r} routes dst {d} via middle \
                                         {m} out port {out}, which feeds neither a link nor a \
                                         declared external output"
                                    ),
                                )
                                .at_net(r)
                                .at_wire(format!("r{r}:p{out}")),
                            ),
                        }
                    }
                    break;
                }
            }
        }
    }
    (targets, walks, coverage_points)
}

// ---------------------------------------------------------------------
// RV5xx — channel-dependency graph deadlock analysis
// ---------------------------------------------------------------------

/// CDG node: a resource whose progress another resource can wait on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Node {
    /// A bounded link queue.
    Lnk(usize),
    /// The egress port feeding link `li` (emission waits on credits).
    Out(usize),
    /// The line card at link `li`'s receiving input.
    LnkIn(usize),
    /// The line card at external input `e`.
    ExtIn(usize),
}

struct Cdg {
    nodes: Vec<Node>,
    edges: Vec<Vec<usize>>,
}

impl Cdg {
    fn node_name(&self, n: usize, plan: &TopologyPlan) -> String {
        match self.nodes[n] {
            Node::Lnk(li) => {
                let l = &plan.links[li];
                format!(
                    "link{li}(r{}:p{}→r{}:p{})",
                    l.from.0, l.from.1, l.to.0, l.to.1
                )
            }
            Node::Out(li) => {
                let l = &plan.links[li];
                format!("out r{}:p{}", l.from.0, l.from.1)
            }
            Node::LnkIn(li) => {
                let l = &plan.links[li];
                format!("in r{}:p{}", l.to.0, l.to.1)
            }
            Node::ExtIn(e) => {
                let (r, p) = plan.ext_in[e];
                format!("ext-in{e}(r{r}:p{p})")
            }
        }
    }

    /// First directed cycle, as a node path `a → b → … → a`, or None.
    fn find_cycle(&self) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.nodes.len();
        let mut color = vec![Color::White; n];
        let mut parent = vec![usize::MAX; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            // Iterative DFS with an explicit edge cursor per frame.
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = Color::Gray;
            while let Some(&mut (u, ref mut cursor)) = stack.last_mut() {
                if *cursor < self.edges[u].len() {
                    let v = self.edges[u][*cursor];
                    *cursor += 1;
                    match color[v] {
                        Color::White => {
                            color[v] = Color::Gray;
                            parent[v] = u;
                            stack.push((v, 0));
                        }
                        Color::Gray => {
                            // Back edge u → v closes the cycle.
                            let mut path = vec![u];
                            let mut w = u;
                            while w != v {
                                w = parent[w];
                                path.push(w);
                            }
                            path.reverse();
                            path.push(v);
                            return Some(path);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[u] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Build the channel-dependency graph; `fifo_jam` adds the FIFO
/// crossbar-jam coupling (absent when VOQ ingress is on).
fn build_cdg(plan: &TopologyPlan, targets: &TargetSets, fifo_jam: bool) -> Cdg {
    let nlinks = plan.links.len();
    let mut nodes = Vec::new();
    for li in 0..nlinks {
        nodes.push(Node::Lnk(li));
        nodes.push(Node::Out(li));
        nodes.push(Node::LnkIn(li));
    }
    for e in 0..plan.ext_in.len() {
        nodes.push(Node::ExtIn(e));
    }
    let lnk = |li: usize| 3 * li;
    let out = |li: usize| 3 * li + 1;
    let lnk_in = |li: usize| 3 * li + 2;
    let ext_in = |e: usize| 3 * nlinks + e;

    let mut edges = vec![Vec::new(); nodes.len()];
    let push = |edges: &mut Vec<Vec<usize>>, a: usize, b: usize| {
        if !edges[a].contains(&b) {
            edges[a].push(b);
        }
    };
    // Link-feeding outputs per router, by link index.
    let mut feeding: Vec<Vec<usize>> = vec![Vec::new(); plan.routers.len()];
    for (li, l) in plan.links.iter().enumerate() {
        feeding[l.from.0].push(li);
    }

    for li in 0..nlinks {
        // E1 — credit return: emission onto the link waits on credits.
        push(&mut edges, out(li), lnk(li));
        // E2 — drain: the link's packets wait on the receiving line
        // card making progress.
        push(&mut edges, lnk(li), lnk_in(li));
    }
    // E3 — admission: an input's head (FIFO) or targeted VOQ waits on
    // the egress its routed traffic targets, when that egress can block
    // (feeds a link; external egresses always drain).
    let admission = |edges: &mut Vec<Vec<usize>>, node: usize, r: usize, p: usize| {
        for &o in &targets[r][p] {
            if let Some(lj) = plan.link_out_of(r, o) {
                push(edges, node, out(lj));
            }
        }
        // E4 — crossbar jam (FIFO only): a blocked head's cut-through
        // transfer holds the shared rotating-crossbar ring, so any
        // input of the router can wait on any blockable egress.
        if fifo_jam {
            for &lj in &feeding[r] {
                push(edges, node, out(lj));
            }
        }
    };
    for (li, l) in plan.links.iter().enumerate() {
        admission(&mut edges, lnk_in(li), l.to.0, l.to.1);
    }
    for (e, &(r, p)) in plan.ext_in.iter().enumerate() {
        admission(&mut edges, ext_in(e), r, p);
    }
    Cdg { nodes, edges }
}

fn check_deadlock(
    plan: &TopologyPlan,
    targets: &TargetSets,
    voq: bool,
    name: &str,
    diags: &mut Vec<Diag>,
) -> (u64, u64) {
    let render = |cdg: &Cdg, cycle: &[usize]| {
        cycle
            .iter()
            .map(|&n| cdg.node_name(n, plan))
            .collect::<Vec<_>>()
            .join(" → ")
    };

    // The base graph models only waits that exist with the escape fix in
    // place; a cycle here is structural and unfixable by the valve.
    let base = build_cdg(plan, targets, false);
    let base_cyclic = if let Some(cycle) = base.find_cycle() {
        diags.push(Diag::new(
            "RV501",
            Analysis::FabricDeadlock,
            name,
            format!(
                "channel-dependency cycle independent of the escape valves: {}",
                render(&base, &cycle)
            ),
        ));
        true
    } else {
        false
    };

    // Escape-edge modeling: without VOQ ingress the FIFO coupling edges
    // join the base graph, so a cycle they close names the fix whose
    // removal re-arms the deadlock. The stats reflect the graph as
    // configured.
    let full = if voq {
        base
    } else {
        build_cdg(plan, targets, true)
    };
    if !base_cyclic && !voq {
        if let Some(cycle) = full.find_cycle() {
            diags.push(Diag::new(
                "RV502",
                Analysis::FabricDeadlock,
                name,
                format!(
                    "FIFO-ingress head-of-line coupling closes a channel-dependency cycle \
                     (VOQ ingress breaks it): {}",
                    render(&full, &cycle)
                ),
            ));
        }
    }
    let nedges: usize = full.edges.iter().map(Vec::len).sum();
    (full.nodes.len() as u64, nedges as u64)
}

/// Fold per-fabric verdicts into the two report rows `repro -- verify`
/// appends to `results/verify.json`.
pub fn fabric_reports(verdicts: &[FabricVerdict]) -> Vec<AnalysisReport> {
    let count = |prefix: &str| {
        verdicts
            .iter()
            .flat_map(|v| &v.diags)
            .filter(|d| d.code.starts_with(prefix))
            .count()
    };
    let walks: u64 = verdicts.iter().map(|v| v.route_walks).sum();
    let cov: u64 = verdicts.iter().map(|v| v.coverage_points).sum();
    let nodes: u64 = verdicts.iter().map(|v| v.cdg_nodes).sum();
    let edges: u64 = verdicts.iter().map(|v| v.cdg_edges).sum();
    vec![
        AnalysisReport {
            name: "fabric-deadlock",
            code_prefix: "RV5",
            pass: count("RV5") == 0,
            checked: nodes,
            detail: format!(
                "channel-dependency graphs over {} fabrics ({nodes} nodes, {edges} edges), \
                 VOQ-ingress escape edges modeled explicitly",
                verdicts.len()
            ),
        },
        AnalysisReport {
            name: "fabric-routing",
            code_prefix: "RV6",
            pass: count("RV6") == 0,
            checked: walks,
            detail: format!(
                "{walks} (src, dst, spray) walks over per-router LPM tables (deduped over \
                 co-located source ports); {cov} address-coverage points over distinct tables"
            ),
        },
    ]
}
