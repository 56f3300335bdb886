//! Whole-fabric static verification (`RV5xx`–`RV6xx`): channel-dependency
//! deadlock proofs and routing soundness for a multi-router fabric,
//! before any simulation runs.
//!
//! The input is a [`FabricSpec`] — an abstract description of a fabric's
//! wiring, per-router LPM tables, and ingress queueing that `raw-fabric`
//! derives from its `TopologyPlan` + `FabricConfig`. Two analyses run
//! over it:
//!
//! 1. **Routing soundness** (`RV6xx`): every per-router table covers the
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
//!    epoch, is the executor's constant `MIN_RECEIVE_WINDOW`, so no
//!    configuration can remove it.)
//!
//! Link sizing — the credit threshold and queue capacity — is not
//! re-derived here: `FabricConfig::validate` is its one check.

use std::collections::HashMap;

use raw_lookup::{mask, RouteEntry};

use crate::{Analysis, AnalysisReport, Diag};

/// One unidirectional inter-router link.
#[derive(Clone, Copy, Debug)]
pub struct LinkEdge {
    /// Sending `(router, output port)`.
    pub from: (usize, usize),
    /// Receiving `(router, input port)`.
    pub to: (usize, usize),
}

/// One router's place in the fabric: pipeline stage and LPM table.
#[derive(Clone, Debug)]
pub struct RouterNode {
    /// 0 = ingress/leaf, 1 = middle/spine, 2 = egress.
    pub stage: usize,
    pub routes: Vec<RouteEntry>,
}

/// Abstract description of a fabric: everything the two static
/// analyses need, and nothing executor-specific.
#[derive(Clone, Debug)]
pub struct FabricSpec {
    pub name: String,
    pub ext_ports: usize,
    /// Middle-stage choices stamped at injection (1 = no spray).
    pub spray_width: usize,
    pub routers: Vec<RouterNode>,
    pub links: Vec<LinkEdge>,
    /// External input `e` attaches at router input `ext_in[e]`.
    pub ext_in: Vec<(usize, usize)>,
    /// External output `d` drains from router output `ext_out[d]`.
    pub ext_out: Vec<(usize, usize)>,
    /// For each router, the link index carrying spray choice `m`
    /// (empty when the router is not an ingress or there is no spray).
    pub uplinks: Vec<Vec<usize>>,
    /// `dest_addrs[d][m]` is the stamped address for destination `d`
    /// via middle `m` — the full fabric address space.
    pub dest_addrs: Vec<Vec<u32>>,
    /// Per-output virtual queues at ingress (the HOL-cycle fix).
    pub voq_ingress: bool,
}

/// The outcome of verifying one fabric.
#[derive(Clone, Debug)]
pub struct FabricVerdict {
    pub name: String,
    pub diags: Vec<Diag>,
    /// Channel-dependency graph size (nodes / edges, escape edges
    /// included when the fix is absent).
    pub cdg_nodes: u64,
    pub cdg_edges: u64,
    /// `(source, destination, spray)` routing walks executed.
    pub route_walks: u64,
    /// Router × address coverage points checked for `RV601`.
    pub coverage_points: u64,
}

// ---------------------------------------------------------------------
// RV6xx — routing soundness (and arrival-set extraction for RV5xx)
// ---------------------------------------------------------------------

/// Len-bucketed exact-match index over one route table. Semantics are
/// identical to [`reference_lpm`] — the strictly-longer match wins, and
/// the *last* entry wins among duplicates of equal length and prefix, as
/// in both lookup engines — proven by a differential test below. Lookup cost is O(distinct
/// prefix lengths) instead of O(table size), which is what makes full
/// address-space coverage of the 16K-entry Clos256 ascending-stage
/// tables tractable.
struct LpmIndex {
    /// Distinct prefix lengths, descending.
    lens: Vec<u8>,
    /// Parallel to `lens`: masked prefix → next hop (last entry wins).
    buckets: Vec<HashMap<u32, u32>>,
}

impl LpmIndex {
    fn build(routes: &[RouteEntry]) -> LpmIndex {
        let mut lens: Vec<u8> = routes.iter().map(|r| r.len).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        lens.dedup();
        let mut buckets = vec![HashMap::new(); lens.len()];
        for r in routes {
            let i = lens.iter().position(|&l| l == r.len).unwrap();
            // Keep the raw stored prefix as the key: a non-canonical
            // entry (host bits set below its mask) never matches in the
            // reference scan, and a masked address can never equal it
            // here either.
            buckets[i].insert(r.prefix, r.next_hop);
        }
        LpmIndex { lens, buckets }
    }

    fn lookup(&self, addr: u32) -> Option<u32> {
        for (&l, b) in self.lens.iter().zip(&self.buckets) {
            if let Some(&h) = b.get(&mask(addr, l)) {
                return Some(h);
            }
        }
        None
    }
}

/// Group routers by identical route tables. Every router of a Clos
/// stage shares one table, so the recursive fabrics collapse from
/// hundreds of tables to `2k-1` classes; a mutant router becomes its
/// own singleton class and is analyzed exactly as before.
/// Returns `(class_of_router, representative_router_per_class)`.
fn table_classes(spec: &FabricSpec) -> (Vec<usize>, Vec<usize>) {
    let mut class_of = vec![0usize; spec.routers.len()];
    let mut reps: Vec<usize> = Vec::new();
    let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
    for (ri, node) in spec.routers.iter().enumerate() {
        let mut h = raw_net::Fnv1a::default();
        for r in &node.routes {
            for x in [u64::from(r.prefix), u64::from(r.len), u64::from(r.next_hop)] {
                h.mix(x);
            }
        }
        let ids = by_hash.entry(h.finish()).or_default();
        let found = ids
            .iter()
            .copied()
            .find(|&c| spec.routers[reps[c]].routes == node.routes);
        class_of[ri] = match found {
            Some(c) => c,
            None => {
                reps.push(ri);
                ids.push(reps.len() - 1);
                reps.len() - 1
            }
        };
    }
    (class_of, reps)
}

/// Per-router, per-input-port set of output ports that routed traffic
/// arriving there can target. Ext-input ports are included.
type TargetSets = Vec<Vec<Vec<usize>>>;

struct PortMaps {
    /// `(router, out port)` → link index.
    out_link: Vec<Vec<Option<usize>>>,
    /// `(router, out port)` → external output index.
    ext_out: Vec<Vec<Option<usize>>>,
}

fn port_maps(spec: &FabricSpec) -> PortMaps {
    let nports = |r: usize| {
        // Ports are dense and small; size each router's map to the
        // largest port index any wiring references, so a mutant route
        // to an absurd port is reported (RV604), not an index panic.
        let mut n = 1;
        for l in &spec.links {
            if l.from.0 == r {
                n = n.max(l.from.1 + 1);
            }
            if l.to.0 == r {
                n = n.max(l.to.1 + 1);
            }
        }
        for &(er, ep) in spec.ext_in.iter().chain(&spec.ext_out) {
            if er == r {
                n = n.max(ep + 1);
            }
        }
        n
    };
    let mut out_link = Vec::with_capacity(spec.routers.len());
    let mut ext_out = Vec::with_capacity(spec.routers.len());
    for r in 0..spec.routers.len() {
        out_link.push(vec![None; nports(r)]);
        ext_out.push(vec![None; nports(r)]);
    }
    for (li, l) in spec.links.iter().enumerate() {
        out_link[l.from.0][l.from.1] = Some(li);
    }
    for (d, &(r, p)) in spec.ext_out.iter().enumerate() {
        ext_out[r][p] = Some(d);
    }
    PortMaps { out_link, ext_out }
}

/// Is destination `d` local to router `r` (delivered without spray)?
fn is_local(spec: &FabricSpec, r: usize, d: usize) -> bool {
    spec.ext_out[d].0 == r
}

fn check_routing(
    spec: &FabricSpec,
    maps: &PortMaps,
    diags: &mut Vec<Diag>,
) -> (TargetSets, u64, u64) {
    let name = &spec.name;
    // RV601: full address-space coverage of every table, checked once
    // per distinct table (routers sharing a table share the verdict).
    let (class_of, reps) = table_classes(spec);
    let indexes: Vec<LpmIndex> = reps
        .iter()
        .map(|&ri| LpmIndex::build(&spec.routers[ri].routes))
        .collect();
    let mut members = vec![0usize; reps.len()];
    for &c in &class_of {
        members[c] += 1;
    }
    let mut coverage_points = 0u64;
    // `resolved[class][d][m]`: the table's answer for every fabric
    // address, memoized so the walks below never re-run a lookup.
    let mut resolved: Vec<Vec<Vec<Option<u32>>>> = Vec::with_capacity(reps.len());
    for (c, idx) in indexes.iter().enumerate() {
        let ri = reps[c];
        let mut per_d = Vec::with_capacity(spec.dest_addrs.len());
        for (d, ms) in spec.dest_addrs.iter().enumerate() {
            let mut per_m = Vec::with_capacity(ms.len());
            for (m, &addr) in ms.iter().enumerate() {
                coverage_points += 1;
                let hit = idx.lookup(addr);
                if hit.is_none() {
                    diags.push(
                        Diag::new(
                            "RV601",
                            Analysis::FabricRouting,
                            name,
                            format!(
                                "router {ri} table (shared by {} router(s)) has no route for \
                                 fabric address {addr:#010x} (dst {d} via middle {m}); the \
                                 address space is not covered",
                                members[c]
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
    for (src, &(r0, p0)) in spec.ext_in.iter().enumerate() {
        match groups.iter_mut().find(|g| g.0 == r0) {
            Some(g) => g.1.push((src, p0)),
            None => groups.push((r0, vec![(src, p0)])),
        }
    }
    let mut targets: TargetSets = maps
        .out_link
        .iter()
        .map(|ports| vec![Vec::new(); ports.len().max(crate::fabric::MAX_PORT_HINT)])
        .collect();
    let mut walks = 0u64;
    let hop_limit = spec.routers.len() + 1;
    let mut visited = vec![u64::MAX; spec.routers.len()];
    let mut stamp = 0u64;
    for (r0, srcs) in &groups {
        let (r0, src) = (*r0, srcs[0].0);
        // `d` is a fabric destination, not an index into `resolved`
        // (that lookup goes through `class_of[r]` first).
        #[allow(clippy::needless_range_loop)]
        for d in 0..spec.ext_ports {
            let ms: Vec<usize> = if is_local(spec, r0, d) {
                vec![0]
            } else {
                (0..spec.spray_width).collect()
            };
            for m in ms {
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
                            if out < targets[r].len() && !targets[r][p0].contains(&out) {
                                targets[r][p0].push(out);
                            }
                        }
                    } else if out < targets[r].len() && !targets[r][p].contains(&out) {
                        targets[r][p].push(out);
                    }
                    // Ingress spray agreement: the table must steer a
                    // non-local (d, m) out the declared uplink for m,
                    // or the stamped middle octet lies about the path.
                    if first_hop
                        && !is_local(spec, r, d)
                        && spec.uplinks[r].len() == spec.spray_width
                    {
                        let want = spec.links[spec.uplinks[r][m]].from.1;
                        if out != want {
                            diags.push(
                                Diag::new(
                                    "RV605",
                                    Analysis::FabricRouting,
                                    name,
                                    format!(
                                        "ingress router {r} routes dst {d} via middle {m} out \
                                         port {out}, but the declared uplink for spray {m} is \
                                         port {want}"
                                    ),
                                )
                                .at_net(r),
                            );
                        }
                    }
                    first_hop = false;
                    let (linked, exted) = (
                        maps.out_link[r].get(out).copied().flatten(),
                        maps.ext_out[r].get(out).copied().flatten(),
                    );
                    match (linked, exted) {
                        (Some(li), _) => {
                            let l = &spec.links[li];
                            r = l.to.0;
                            p = l.to.1;
                        }
                        (None, Some(ext)) => {
                            if ext != d {
                                diags.push(
                                    Diag::new(
                                        "RV603",
                                        Analysis::FabricRouting,
                                        name,
                                        format!(
                                            "misdelivery: walk src {src} -> dst {d} via middle \
                                             {m} terminates at external output {ext}"
                                        ),
                                    )
                                    .at_net(r),
                                );
                            }
                            break;
                        }
                        (None, None) => {
                            diags.push(
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
                            );
                            break;
                        }
                    }
                }
            }
        }
    }
    (targets, walks, coverage_points)
}

// Router input/target vectors are sized to the wiring; routed ports can
// exceed that (mutants), so give every router this many slots minimum.
const MAX_PORT_HINT: usize = 8;

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
    fn node_name(&self, n: usize, spec: &FabricSpec) -> String {
        match self.nodes[n] {
            Node::Lnk(li) => {
                let l = &spec.links[li];
                format!(
                    "link{li}(r{}:p{}→r{}:p{})",
                    l.from.0, l.from.1, l.to.0, l.to.1
                )
            }
            Node::Out(li) => {
                let l = &spec.links[li];
                format!("out r{}:p{}", l.from.0, l.from.1)
            }
            Node::LnkIn(li) => {
                let l = &spec.links[li];
                format!("in r{}:p{}", l.to.0, l.to.1)
            }
            Node::ExtIn(e) => {
                let (r, p) = spec.ext_in[e];
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
fn build_cdg(spec: &FabricSpec, targets: &TargetSets, maps: &PortMaps, fifo_jam: bool) -> Cdg {
    let nlinks = spec.links.len();
    let mut nodes = Vec::new();
    for li in 0..nlinks {
        nodes.push(Node::Lnk(li));
        nodes.push(Node::Out(li));
        nodes.push(Node::LnkIn(li));
    }
    for e in 0..spec.ext_in.len() {
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
    let mut feeding: Vec<Vec<usize>> = vec![Vec::new(); spec.routers.len()];
    for (li, l) in spec.links.iter().enumerate() {
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
        if p < targets[r].len() {
            for &o in &targets[r][p] {
                if let Some(&Some(lj)) = maps.out_link[r].get(o) {
                    push(edges, node, out(lj));
                }
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
    for (li, l) in spec.links.iter().enumerate() {
        admission(&mut edges, lnk_in(li), l.to.0, l.to.1);
    }
    for (e, &(r, p)) in spec.ext_in.iter().enumerate() {
        admission(&mut edges, ext_in(e), r, p);
    }
    Cdg { nodes, edges }
}

fn check_deadlock(
    spec: &FabricSpec,
    targets: &TargetSets,
    maps: &PortMaps,
    diags: &mut Vec<Diag>,
) -> (u64, u64) {
    let name = &spec.name;
    let render = |cdg: &Cdg, cycle: &[usize]| {
        cycle
            .iter()
            .map(|&n| cdg.node_name(n, spec))
            .collect::<Vec<_>>()
            .join(" → ")
    };

    // The base graph models only waits that exist with the escape fix in
    // place; a cycle here is structural and unfixable by the valve.
    let base = build_cdg(spec, targets, maps, false);
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
    let full = if spec.voq_ingress {
        base
    } else {
        build_cdg(spec, targets, maps, true)
    };
    if !base_cyclic && !spec.voq_ingress {
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

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Run both fabric analyses over one spec.
pub fn verify_fabric(spec: &FabricSpec) -> FabricVerdict {
    let mut diags = Vec::new();
    let maps = port_maps(spec);
    let (targets, walks, coverage_points) = check_routing(spec, &maps, &mut diags);
    let (cdg_nodes, cdg_edges) = check_deadlock(spec, &targets, &maps, &mut diags);
    FabricVerdict {
        name: spec.name.clone(),
        diags,
        cdg_nodes,
        cdg_edges,
        route_walks: walks,
        coverage_points,
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use raw_lookup::{reference_lpm, Engine, ForwardingTable, PatriciaTable};

    /// A hand-built 2-router, 2-external-port fabric: router 0 owns ext
    /// port 0, router 1 owns ext port 1, one link each way. Port 0 is
    /// the external port, port 1 the link port, on both routers.
    fn toy(routes0: Vec<RouteEntry>, routes1: Vec<RouteEntry>) -> FabricSpec {
        FabricSpec {
            name: "toy".into(),
            ext_ports: 2,
            spray_width: 1,
            routers: vec![
                RouterNode {
                    stage: 0,
                    routes: routes0,
                },
                RouterNode {
                    stage: 0,
                    routes: routes1,
                },
            ],
            links: vec![
                LinkEdge {
                    from: (0, 1),
                    to: (1, 1),
                },
                LinkEdge {
                    from: (1, 1),
                    to: (0, 1),
                },
            ],
            ext_in: vec![(0, 0), (1, 0)],
            ext_out: vec![(0, 0), (1, 0)],
            uplinks: vec![Vec::new(), Vec::new()],
            dest_addrs: vec![vec![0x0a00_0001], vec![0x0a01_0001]],
            voq_ingress: true,
        }
    }

    fn d16(d: u8, port: u32) -> RouteEntry {
        RouteEntry::new(0x0a00_0000 | (u32::from(d) << 16), 16, port)
    }

    #[test]
    fn sound_toy_fabric_verifies_clean() {
        let v = verify_fabric(&toy(
            vec![d16(0, 0), d16(1, 1), RouteEntry::new(0, 0, 0)],
            vec![d16(0, 1), d16(1, 0), RouteEntry::new(0, 0, 0)],
        ));
        assert!(v.diags.is_empty(), "{:?}", v.diags);
        assert_eq!(v.route_walks, 4);
        assert!(v.cdg_nodes > 0 && v.cdg_edges > 0);
    }

    #[test]
    fn mutual_forwarding_is_a_structural_rv501_cycle_and_a_routing_loop() {
        // Both routers bounce destination 1 at each other: the walk
        // revisits a router (RV602) and the arrival sets close a
        // link0 -> in -> out -> link1 -> in -> out -> link0 cycle that
        // no escape valve can break (RV501).
        let v = verify_fabric(&toy(
            vec![d16(0, 0), d16(1, 1), RouteEntry::new(0, 0, 0)],
            vec![d16(0, 1), d16(1, 1), RouteEntry::new(0, 0, 0)],
        ));
        let codes: Vec<&str> = v.diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"RV501"), "{codes:?}");
        assert!(codes.contains(&"RV602"), "{codes:?}");
    }

    #[test]
    fn coverage_holes_and_dangling_ports_get_specific_codes() {
        // Router 1 has no rule at all for destination 0 (RV601), and
        // router 0 sends destination 1 to port 3, which is unwired
        // (RV604).
        let v = verify_fabric(&toy(vec![d16(0, 0), d16(1, 3)], vec![d16(1, 0)]));
        let codes: Vec<&str> = v.diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"RV601"), "{codes:?}");
        assert!(codes.contains(&"RV604"), "{codes:?}");
    }

    /// The len-bucketed index is only usable because it is *provably*
    /// the same function as `reference_lpm` — pseudo-random tables and
    /// probes, including addresses adjacent to real prefixes.
    #[test]
    fn lpm_index_agrees_with_the_reference_scan() {
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let n = (rnd() % 24) as usize;
            let routes: Vec<RouteEntry> = (0..n)
                .map(|_| {
                    let len = [0u8, 8, 12, 16, 20, 24, 28, 32][(rnd() % 8) as usize];
                    RouteEntry::new(rnd() as u32, len, (rnd() % 8) as u32)
                })
                .collect();
            let idx = LpmIndex::build(&routes);
            for _ in 0..64 {
                let addr = if routes.is_empty() || rnd() % 2 == 0 {
                    rnd() as u32
                } else {
                    routes[(rnd() as usize) % routes.len()].prefix ^ ((rnd() as u32) & 0x1ff)
                };
                assert_eq!(
                    idx.lookup(addr),
                    reference_lpm(&routes, addr),
                    "addr {addr:#010x}"
                );
            }
        }
    }

    #[test]
    fn lpm_index_keeps_last_entry_on_equal_len_and_prefix() {
        let routes = [
            RouteEntry::new(0x0a00_0000, 16, 1),
            RouteEntry::new(0x0a00_0000, 16, 2),
        ];
        assert_eq!(LpmIndex::build(&routes).lookup(0x0a00_0001), Some(2));
        assert_eq!(reference_lpm(&routes, 0x0a00_0001), Some(2));
    }

    /// One tie-break everywhere: a table that repeats prefixes with
    /// different hops means the same function to both oracles (the
    /// reference scan and the index RV6xx proves with) and to both
    /// engines the routers forward with — the last entry wins.
    #[test]
    fn duplicated_routes_resolve_alike_in_oracles_and_engines() {
        let routes = [
            RouteEntry::new(0, 0, 1),
            RouteEntry::new(0x0a00_0000, 8, 2),
            RouteEntry::new(0x0a01_0000, 16, 3),
            RouteEntry::new(0x0a00_0000, 8, 4),
            RouteEntry::new(0, 0, 5),
            RouteEntry::new(0x0a01_0280, 25, 6),
            RouteEntry::new(0x0a01_0000, 16, 7),
            RouteEntry::new(0x0a01_0280, 25, 8),
            RouteEntry::new(0x0a01_0000, 16, 9),
        ];
        let idx = LpmIndex::build(&routes);
        let mut inserted = PatriciaTable::new();
        for r in &routes {
            inserted.insert(*r);
        }
        let table = ForwardingTable::build_with_l1_bits(&routes, 16);
        for (addr, want) in [
            (0x0b00_0000, 5),
            (0x0a02_0000, 4),
            (0x0a01_0001, 9),
            (0x0a01_02ff, 8),
        ] {
            let all = [
                reference_lpm(&routes, addr),
                idx.lookup(addr),
                inserted.lookup(addr),
                table.lookup(Engine::Patricia, addr).0,
                table.lookup(Engine::Dir24_8, addr).0,
            ];
            assert_eq!(all, [Some(want); 5], "addr {addr:#010x}");
        }
    }

    #[test]
    fn table_classes_group_identical_tables_only() {
        let spec = toy(
            vec![d16(0, 0), d16(1, 1), RouteEntry::new(0, 0, 0)],
            vec![d16(0, 0), d16(1, 1), RouteEntry::new(0, 0, 0)],
        );
        let (class_of, reps) = table_classes(&spec);
        assert_eq!(class_of, vec![0, 0]);
        assert_eq!(reps, vec![0]);
        let spec = toy(
            vec![d16(0, 0), d16(1, 1), RouteEntry::new(0, 0, 0)],
            vec![d16(0, 1), d16(1, 0), RouteEntry::new(0, 0, 0)],
        );
        let (class_of, reps) = table_classes(&spec);
        assert_eq!(class_of, vec![0, 1]);
        assert_eq!(reps, vec![0, 1]);
    }
}
