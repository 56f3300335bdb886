//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p raw-bench --bin repro -- all
//! cargo run --release -p raw-bench --bin repro -- fig7-1-peak
//! ```
//!
//! Each subcommand prints the paper-formatted table (with the paper's
//! reported values beside ours) and writes `results/<exp>.json`.

use std::path::{Path, PathBuf};

use raw_bench::*;

fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Write `results/<file>` with `write`. An unwritable `results/` is the
/// user's environment, not a bug: name the file and exit 1, never panic.
fn save_with(file: &str, write: impl FnOnce(&Path) -> std::io::Result<()>) {
    if let Err(e) = write(&results_dir()) {
        eprintln!("cannot write results/{file}: {e}");
        std::process::exit(1);
    }
}

fn save<T: serde::Serialize>(name: &str, value: &T) {
    save_with(&format!("{name}.json"), |dir| write_json(dir, name, value));
}

fn save_text(file: &str, text: &str) {
    save_with(file, |dir| {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(file), text)
    });
}

fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// A malformed subcommand argument: say what is wrong and print the
/// subcommand's usage line on stderr, then exit 2 — what an unknown
/// experiment name does.
fn usage_exit(problem: &str, usage: &str) -> ! {
    eprintln!("{problem}\nusage: repro -- {usage}");
    std::process::exit(2);
}

/// The one optional argument after the experiment name (`main` rejects
/// any the [`EXPERIMENTS`] usage line does not list), with that usage
/// line for a malformed one to print.
struct Args<'a> {
    usage: &'a str,
    arg: Option<&'a str>,
}

impl Args<'_> {
    /// `[--smoke]`.
    fn smoke(&self) -> bool {
        match self.arg {
            None => false,
            Some("--smoke") => true,
            Some(s) => usage_exit(&format!("unknown argument '{s}'"), self.usage),
        }
    }

    /// An optional number (`default` when absent).
    fn num<T: std::str::FromStr>(&self, default: T, what: &str) -> T {
        match self.arg {
            None => default,
            Some(s) => s
                .parse()
                .unwrap_or_else(|_| usage_exit(&format!("'{s}' is not a {what}"), self.usage)),
        }
    }
}

/// Print one aligned table row per item.
fn print_table<T>(
    headers: &[&str],
    items: impl IntoIterator<Item = T>,
    row: impl Fn(T) -> Vec<String>,
) {
    let rows: Vec<Vec<String>> = items.into_iter().map(row).collect();
    println!("{}", table(headers, &rows));
}

fn run_fig7_1_peak(_: &Args) {
    println!("== Figure 7-1 (top): peak throughput vs packet size ==");
    let pts = peak_sweep();
    print_table(
        &["bytes", "Gbps", "Mpps", "paper Gbps", "paper/ours"],
        &pts,
        |p| {
            vec![
                p.bytes.to_string(),
                fmt2(p.gbps),
                fmt2(p.mpps),
                fmt2(p.paper_gbps),
                format!("{:.2}x", p.paper_gbps / p.gbps),
            ]
        },
    );
    let click = click_baseline();
    println!(
        "Click baseline (64 B): {:.2} Gbps (paper bar: {:.2} Gbps); Raw/Click at 1024 B: {:.0}x",
        click[0].gbps,
        PAPER_CLICK_GBPS,
        pts.last().unwrap().gbps / click[0].gbps
    );
    save("fig7_1_peak", &pts);
    save("click_baseline", &click);
}

fn run_fig7_1_avg(_: &Args) {
    println!("== Figure 7-1 (bottom): average throughput (uniform traffic) ==");
    let pts = avg_sweep();
    let peak = peak_sweep();
    print_table(
        &["bytes", "Gbps", "paper Gbps", "avg/peak"],
        pts.iter().zip(&peak),
        |(p, pk)| {
            vec![
                p.bytes.to_string(),
                fmt2(p.gbps),
                fmt2(p.paper_gbps),
                format!("{:.0}%", 100.0 * p.gbps / pk.gbps),
            ]
        },
    );
    println!("(the paper reports average ≈ 69% of peak)");
    save("fig7_1_avg", &pts);
}

fn run_fig7_2(_: &Args) {
    println!("== Figure 7-2: mapping of router elements to Raw tiles ==");
    use raw_xbar::RouterLayout;
    let l = RouterLayout::canonical();
    let mut roles = vec![String::new(); 16];
    for (i, p) in l.ports.iter().enumerate() {
        roles[p.ingress.index()] = format!("Ig{i}");
        roles[p.lookup.index()] = format!("Lk{i}");
        roles[p.crossbar.index()] = format!("Xb{i}");
        roles[p.egress.index()] = format!("Eg{i}");
    }
    println!("        Out0    Out1");
    for r in 0..4 {
        let row: Vec<String> = (0..4)
            .map(|c| format!("{:>4}({:>2})", roles[r * 4 + c], r * 4 + c))
            .collect();
        let side = match r {
            1 => "In0 >  ",
            2 => "In3 >  ",
            _ => "       ",
        };
        let end = match r {
            1 => "  < In1",
            2 => "  < In2",
            _ => "",
        };
        println!("{side}{}{end}", row.join(" "));
    }
    println!("        Out3    Out2");
    println!("(Xb tiles 5-6-10-9 form the rotating ring, clockwise 0->1->2->3)");
}

fn run_fig7_3(_: &Args) {
    println!("== Figure 7-3: per-tile utilization, 800 cycles ==");
    for bytes in [64usize, 1024] {
        let (ascii, csv) = fig7_3(bytes);
        println!(
            "--- {bytes}-byte packets ('#' busy, '.' blocked, ' ' idle; bucket = 8 cycles) ---"
        );
        println!("{ascii}");
        save_text(&format!("fig7_3_{bytes}.csv"), &csv);
    }
    println!("CSV traces written to results/fig7_3_*.csv");
}

fn run_table6_1(_: &Args) {
    println!("== §6.1-6.2 / Table 6.1: configuration-space minimization ==");
    let t = table6_1();
    println!("global configuration space (5^4 x 4):  {}", t.global_space);
    println!(
        "distinct switch-code configurations:   {} (paper: {})",
        t.switch_code_configs, t.paper_minimized
    );
    println!(
        "  + ingress-blocked boolean:           {}",
        t.with_grant_flag
    );
    println!("  clients only (Table 6.1 alphabet):   {}", t.clients_only);
    println!(
        "reduction factor:                      {:.1}x (paper: ~{:.0}x)",
        t.reduction_factor, t.paper_reduction
    );
    println!(
        "switch program @ quantum 64:           {} instrs (IMEM: {}) -> fits",
        t.program_instrs_q64, t.switch_imem
    );
    println!(
        "unminimized program @ quantum 64:      {} instrs -> {:.0}x over IMEM",
        t.unminimized_instrs_q64,
        t.unminimized_instrs_q64 as f64 / t.switch_imem as f64
    );
    save("table6_1", &t);
}

fn run_fig3_2(_: &Args) {
    println!("== Figure 3-2: tile-to-tile send timing ==");
    let f = fig3_2();
    println!(
        "total cycles: {} (paper: {}), send-to-use: {} (paper: {})",
        f.total_cycles, f.paper_total, f.send_to_use, f.paper_send_to_use
    );
    save("fig3_2", &f);
}

fn run_ch2(_: &Args) {
    println!("== §2.2.2 claims: HOL blocking, VOQ+iSLIP, cells vs packets ==");
    let c = ch2_claims();
    print_table(&["load", "FIFO", "VOQ+iSLIP"], &c.rows, |r| {
        vec![
            fmt2(r.load),
            format!("{:.3}", r.fifo_delivered),
            format!("{:.3}", r.voq_delivered),
        ]
    });
    println!(
        "saturation: FIFO {:.3} (paper ~{:.3}), VOQ {:.3} (paper ~{:.1})",
        c.fifo_saturation, c.paper_fifo, c.voq_saturation, c.paper_voq
    );
    println!(
        "cells vs variable packets: {:.3} vs {:.3} (paper: ~1.0 vs ~0.6)",
        c.cells_throughput, c.packets_throughput
    );
    save("ch2_claims", &c);
}

fn run_fairness(_: &Args) {
    println!("== §5.4 fairness + §8.7 weighted-token QoS (all->port0 hotspot) ==");
    for weights in [[1u32, 1, 1, 1], [4, 1, 1, 1]] {
        let f = fairness(weights);
        println!(
            "weights {:?}: per-source deliveries {:?}, Jain index {:.3}",
            f.weights, f.per_source, f.jain_index
        );
        save(&format!("fairness_w{}", weights[0]), &f);
    }
}

fn run_net2(_: &Args) {
    println!("== §5.3: sufficiency of a single static network ==");
    let u = ring_utilization();
    println!(
        "output-link words/cycle: {:.3}; busiest ring link words/cycle: {:.3}; ring capacity: {:.1}",
        u.out_words_per_cycle, u.ring_words_per_cycle, u.ring_capacity
    );
    println!(
        "ring headroom at peak: {:.0}% -> a second static network adds idle capacity only",
        100.0 * (u.ring_capacity - u.ring_words_per_cycle)
    );
    save("ring_utilization", &u);
}

fn run_deadlock(_: &Args) {
    println!("== §5.5: randomized deadlock sweep ==");
    let d = deadlock_sweep(12);
    println!(
        "{}/{} random workloads drained completely ({} packets total, zero corruption)",
        d.drained, d.trials, d.packets_total
    );
    assert_eq!(d.drained, d.trials, "deadlock or loss detected!");
    save("deadlock_sweep", &d);
}

fn run_multicast(_: &Args) {
    println!("== §8.6: multicast fanout in the fabric (end to end) ==");
    let m = multicast_demo();
    println!(
        "{} fanout-3 copies delivered: {} cycles with fabric multicast vs {} with \
         input replication ({:.2}x speedup)",
        m.copies,
        m.cycles_with_fanout,
        m.cycles_with_replication,
        m.cycles_with_replication as f64 / m.cycles_with_fanout as f64
    );
    println!(
        "multicast configuration space: {} global points minimized to {} local configurations",
        m.mcast_global_space, m.mcast_minimized
    );
    save("multicast", &m);
}

fn run_scaling(_: &Args) {
    println!("== §8.5: scalability (ring vs mesh-of-4-port-routers) ==");
    let rows = scaling_study();
    print_table(&["ports", "ring tput", "mesh tput"], &rows, |r| {
        vec![
            r.ports.to_string(),
            format!("{:.3}", r.ring_throughput),
            format!("{:.3}", r.mesh_throughput),
        ]
    });
    save("scaling", &rows);
}

fn run_quantum(_: &Args) {
    println!("== ablation: quantum size & the fragmentation path (1024 B packets) ==");
    let rows = quantum_ablation();
    print_table(&["quantum", "egress", "Gbps"], &rows, |r| {
        vec![
            r.quantum_words.to_string(),
            if r.cut_through {
                "cut-through"
            } else {
                "store-fwd"
            }
            .into(),
            fmt2(r.gbps),
        ]
    });
    save("quantum_ablation", &rows);
}

fn run_asm(_: &Args) {
    println!("== §6.5: Crossbar Processors in generated Raw assembly ==");
    let a = asm_crossbar_study();
    println!(
        "512 B peak (quantum 128): native state machines {:.2} Gbps, \
         interpreted assembly {:.2} Gbps",
        a.native_gbps_512, a.asm_gbps_512
    );
    println!(
        "({}-instruction tile program: header exchange, ring all-to-all, jump-table \
         index, lw, grant, swpcr)",
        a.asm_program_instrs
    );
    save("asm_crossbar", &a);
}

fn run_voq(_: &Args) {
    println!("== §4.4 ingress queueing: FIFO (the paper's design) vs VOQ extension ==");
    let v = voq_study();
    println!(
        "HOL victim completion:  FIFO {} cycles, VOQ {} cycles ({:.2}x earlier)",
        v.fifo_victim_cycle,
        v.voq_victim_cycle,
        v.fifo_victim_cycle as f64 / v.voq_victim_cycle as f64
    );
    println!(
        "whole-workload drain:   FIFO {} cycles, VOQ {} cycles",
        v.fifo_total_cycle, v.voq_total_cycle
    );
    println!(
        "(VOQ un-blocks the victims at the cost of store-and-forward buffering — \
         the Chapter-2 trade, measured on the Raw fabric)"
    );
    save("voq_study", &v);
}

fn run_latency(_: &Args) {
    println!("== latency vs offered load (256 B packets, uniform destinations) ==");
    let rows = latency_sweep();
    print_table(&["load", "mean cyc", "p95 cyc", "delivered"], &rows, |r| {
        vec![
            format!("{}%", r.load_pct),
            format!("{:.0}", r.mean_cycles),
            r.p95_cycles.to_string(),
            r.delivered.to_string(),
        ]
    });
    println!("(queueing delay grows with load — the MGR §2.2.1 trade-off)");
    save("latency", &rows);
}

fn run_lookup(_: &Args) {
    println!("== ablation: lookup engine (§8.2 direction) ==");
    let rows = lookup_ablation();
    print_table(&["engine", "64B Gbps", "lookup cyc"], &rows, |r| {
        vec![
            r.engine.clone(),
            fmt2(r.gbps_64b),
            fmt2(r.mean_lookup_cycles),
        ]
    });
    save("lookup_ablation", &rows);
}

fn run_telemetry(args: &Args) {
    // A smaller span makes a smoke test (CI); the default matches the
    // Figure 7-1 measurement span.
    let cycles: u64 = args.num(220_000, "cycle count");
    println!("== telemetry: per-stage latency breakdown & stall attribution ({cycles} cycles) ==");
    let (rep, trace) = telemetry_report(cycles);
    for run in &rep.runs {
        println!(
            "--- {} ({} packets completed, {:.2} Gbps) ---",
            run.name, run.summary.packets_completed, run.gbps
        );
        print_table(
            &["stage", "mean", "p50", "p90", "p99", "p999", "max"],
            &run.summary.stages,
            |s| {
                vec![
                    s.stage.clone(),
                    format!("{:.1}", s.mean_cycles),
                    s.p50.to_string(),
                    s.p90.to_string(),
                    s.p99.to_string(),
                    s.p999.to_string(),
                    s.max.to_string(),
                ]
            },
        );
        let tiles = &run.summary.tiles;
        let stalled: Vec<_> = tiles.iter().filter(|t| t.top_stall != "none").collect();
        if !stalled.is_empty() {
            print_table(
                &[
                    "tile",
                    "busy",
                    "fifo-full",
                    "fifo-empty",
                    "token-wait",
                    "lookup-stall",
                    "top stall",
                ],
                stalled,
                |t| {
                    vec![
                        t.tile.to_string(),
                        format!("{:.0}%", 100.0 * t.busy as f64 / t.total.max(1) as f64),
                        t.fifo_full.to_string(),
                        t.fifo_empty.to_string(),
                        t.token_wait.to_string(),
                        t.lookup_stall.to_string(),
                        t.top_stall.clone(),
                    ]
                },
            );
        }
    }
    save("telemetry", &rep);
    save_text("telemetry_trace.json", &trace);
    println!(
        "wrote results/telemetry.json; results/telemetry_trace.json loads in chrome://tracing"
    );
}

fn run_chaos(args: &Args) {
    // A smaller span makes a smoke test (CI); the default matches the
    // Figure 7-1 measurement span.
    let cycles: u64 = args.num(220_000, "cycle count");
    println!("== chaos: reference fault plan, graceful degradation soak ({cycles} cycles) ==");
    let rep = chaos_report(cycles);
    println!(
        "plan: seed {:#06x}, header corruption {}ppm, lookup misses {}ppm (+{} cycles), \
         {} tile stall windows of {} cycles",
        rep.plan.seed,
        rep.plan.header_flip_ppm,
        rep.plan.lookup_miss_ppm,
        rep.plan.lookup_penalty_cycles,
        rep.plan.tile_stalls.len(),
        rep.plan.tile_stalls.first().map_or(0, |s| s.len),
    );
    print_table(
        &[
            "scenario",
            "offered",
            "delivered",
            "dropped",
            "lk-miss",
            "lat p50",
            "lat p99",
            "fingerprint",
        ],
        &rep.runs,
        |r| {
            vec![
                r.name.clone(),
                r.offered.to_string(),
                r.delivered.to_string(),
                r.dropped.to_string(),
                r.lookup_misses.to_string(),
                r.latency_p50.to_string(),
                r.latency_p99.to_string(),
                r.fingerprint.clone(),
            ]
        },
    );
    for r in &rep.runs {
        let buckets: Vec<String> = r
            .drops
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        println!("{:>18} drops: {}", r.name, buckets.join(" "));
        assert_eq!(r.delivered + r.dropped, r.offered, "accounting must close");
    }
    println!(
        "zero-rate plan vs unwrapped router: {}",
        if rep.zero_plan_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    assert!(rep.zero_plan_identical);
    save("chaos", &rep);
    println!("wrote results/chaos.json (two runs per scenario, fingerprints verified equal)");
}

fn run_fabric(args: &Args) {
    // The smoke run shrinks the per-cell run length for CI; the default
    // is long enough to amortize the epoch-boundary pipeline fill that
    // the aggregate-bandwidth headline depends on.
    let smoke = args.arg == Some("--smoke");
    let ppp: usize = if smoke {
        120
    } else {
        args.num(1_000, "packet count")
    };
    let fp = |ok: bool| if ok { "ok" } else { "DIVERGED" }.to_string();
    println!(
        "== fabric: Clos composition of 4-port routers, sharded vs reference \
         ({ppp} packets/port) =="
    );
    let rep = fabric_study(ppp);
    print_table(
        &[
            "topology",
            "spray",
            "epoch",
            "routers",
            "offered",
            "dropped",
            "Mpps",
            "Gb/s",
            "bp-epochs",
            "fp",
        ],
        &rep.cells,
        |c| {
            vec![
                c.topology.clone(),
                c.spray.clone(),
                c.epoch_cycles.to_string(),
                c.routers.to_string(),
                c.offered.to_string(),
                c.dropped.to_string(),
                format!("{:.3}", c.mpps),
                format!("{:.2}", c.gbps),
                c.backpressure_epochs.to_string(),
                fp(c.fingerprints_match),
            ]
        },
    );
    print_table(
        &[
            "ports",
            "ring/port (norm)",
            "clos/port (norm)",
            "clos Mpps",
            "speedup",
        ],
        &rep.ring_vs_clos,
        |r| {
            vec![
                r.ports.to_string(),
                format!("{:.3}", r.ring_norm),
                format!("{:.3}", r.fabric_norm),
                format!("{:.3}", r.fabric_mpps),
                format!("{:.2}x", r.fabric_speedup),
            ]
        },
    );
    println!(
        "16-port Clos aggregate: {:.3} Mpps = {:.2}x the single 4-port router",
        rep.clos16_mpps, rep.clos_over_single
    );
    // Per-port scaling curve, 4 -> 256 external ports.
    print_table(
        &[
            "topology",
            "routers",
            "ports",
            "offered",
            "sim Mpps",
            "sim Mpps/port",
            "fp",
        ],
        &rep.scaling,
        |c| {
            vec![
                c.topology.clone(),
                c.routers.to_string(),
                c.ext_ports.to_string(),
                c.offered.to_string(),
                format!("{:.3}", c.mpps),
                format!("{:.4}", c.mpps / c.ext_ports as f64),
                fp(c.fingerprints_match),
            ]
        },
    );
    assert!(
        rep.all_fingerprints_match,
        "the sharded executor diverged from the single-threaded reference"
    );
    // Golden scaling smoke: aggregate throughput is nonzero at every
    // scale (`run_fabric` audited each run).
    for c in &rep.scaling {
        assert!(c.mpps > 0.0, "{}: zero aggregate throughput", c.topology);
    }
    let floor = if smoke { 1.5 } else { 3.0 };
    assert!(
        rep.clos_over_single >= floor,
        "Clos16 only {:.2}x a single router (acceptance floor is {floor}x)",
        rep.clos_over_single
    );
    save("fabric", &rep);
    println!("wrote results/fabric.json (every cell fingerprint-verified on both executors)");
}

fn run_sched(args: &Args) {
    // The E19 scheduler head-to-head. The smoke run halves the per-cell
    // span for CI; both lengths keep the measured window (the second
    // half of the run) in steady state.
    let (cycles, ppp) = if args.smoke() {
        (120_000u64, 4_000usize)
    } else {
        (240_000, 10_000)
    };
    println!(
        "== sched: rotating token vs iSLIP vs crosspoint-queued, {} patterns x {} arbiters \
         ({cycles} cycles/cell) ==",
        sched_patterns().len(),
        raw_xbar::SchedKind::all().len()
    );
    let rep = sched_report(cycles, ppp);
    print_table(
        &[
            "pattern",
            "arbiter",
            "gbps",
            "delivered",
            "p50",
            "p99",
            "p999",
            "jain",
            "arb-wait",
            "matched",
        ],
        &rep.cells,
        |c| {
            vec![
                c.pattern.clone(),
                c.scheduler.clone(),
                format!("{:.3}", c.gbps),
                c.delivered.to_string(),
                c.p50.to_string(),
                c.p99.to_string(),
                c.p999.to_string(),
                format!("{:.3}", c.input_fairness),
                (c.arb_wait_cycles + c.token_wait_cycles).to_string(),
                c.sched_matched.to_string(),
            ]
        },
    );
    print_table(
        &["pattern", "islip/token", "cq/token"],
        &rep.speedups,
        |s| {
            vec![
                s.pattern.clone(),
                format!("{:.2}x", s.islip_over_token),
                format!("{:.2}x", s.cq_over_token),
            ]
        },
    );
    save("sched", &rep);
    let adv = rep
        .speedups
        .iter()
        .find(|s| s.pattern == "adversary")
        .expect("adversary row");
    for (nm, x) in [("islip", adv.islip_over_token), ("cq", adv.cq_over_token)] {
        assert!(
            x >= 2.0,
            "{nm} at {x:.2}x the token on the adversary — below the 2.0x floor"
        );
    }
    println!(
        "adversary floor met: islip {:.2}x, cq {:.2}x over the FIFO token (>= 2.0x)",
        adv.islip_over_token, adv.cq_over_token
    );
}

fn run_verify(_: &Args) {
    println!(
        "== static verification: conflict / lockstep / deadlock / jump-table / fabric / sched =="
    );
    let mut report = raw_verify::verify_all(&raw_verify::VerifyOptions::default());

    // Whole-fabric analyses (RV5xx–RV6xx) over every shipped topology,
    // merged into the same report so results/verify.json carries one
    // unified verdict.
    let verdicts = raw_bench::fabric_verify_verdicts();
    for v in &verdicts {
        report.programs_checked.push(format!("fabric-{}", v.name));
        report.coverage.fabric_topologies += 1;
        report.coverage.fabric_cdg_nodes += v.cdg_nodes;
        report.coverage.fabric_cdg_edges += v.cdg_edges;
        report.coverage.fabric_route_walks += v.route_walks;
        report.coverage.fabric_coverage_points += v.coverage_points;
        report.diagnostics.extend(v.diags.iter().cloned());
    }
    report
        .analyses
        .extend(raw_verify::fabric::fabric_reports(&verdicts));

    // Scheduler analyses (RV8xx): drive the executable arbiters over the
    // exhaustive request space and persistent-demand traces.
    let sched_verdicts =
        raw_verify::sched::sched_verdicts(&raw_verify::sched::SchedVerifyOptions::default());
    for v in &sched_verdicts {
        report.programs_checked.push(format!("sched-{}", v.name));
        report.coverage.sched_matchings += v.matchings_checked;
        report.coverage.sched_trace_slots += v.trace_slots;
        report.diagnostics.extend(v.diags.iter().cloned());
    }
    report
        .analyses
        .extend(raw_verify::sched::sched_reports(&sched_verdicts));
    report.pass = report.diagnostics.is_empty();

    print_table(
        &["analysis", "codes", "verdict", "checked", "detail"],
        &report.analyses,
        |a| {
            vec![
                a.name.to_string(),
                a.code_prefix.to_string(),
                if a.pass { "pass" } else { "FAIL" }.into(),
                a.checked.to_string(),
                a.detail.clone(),
            ]
        },
    );
    let cov = &report.coverage;
    println!(
        "coverage: {}/{} unicast and {}/{} multicast global indices, {} body routines, \
         {} lockstep scenarios (max FIFO high-water {} of 4)",
        cov.unicast_points,
        cov.unicast_space,
        cov.multicast_points,
        cov.multicast_space,
        cov.body_routines,
        cov.lockstep_scenarios,
        cov.max_fifo_high_water
    );
    println!(
        "fabric coverage: {} topologies, {} CDG nodes / {} edges, {} routing walks, \
         {} address-coverage points",
        cov.fabric_topologies,
        cov.fabric_cdg_nodes,
        cov.fabric_cdg_edges,
        cov.fabric_route_walks,
        cov.fabric_coverage_points
    );
    println!(
        "sched coverage: {} matchings validity/routability-checked, {} persistent-demand slots",
        cov.sched_matchings, cov.sched_trace_slots
    );
    for d in &report.diagnostics {
        println!("  {d}");
    }
    save("verify", &report);
    assert!(
        report.pass,
        "static verification failed with {} diagnostic(s)",
        report.diagnostics.len()
    );
    println!("all generated switch schedules verify");
}

fn run_fib(args: &Args) {
    // The full study sweeps table size {1K, 64K, 1M} x flow count
    // {10K, 1M}; smoke runs the 64K x 10K cell CI exercises.
    let rep = fib_study(args.smoke());

    println!(
        "FIB study: BGP-shaped tables vs flow churn ({}B packets, Pareto alpha {:.1})",
        rep.packet_bytes,
        rep.alpha_milli as f64 / 1000.0
    );
    print_table(
        &[
            "prefixes", "flows", "MiB", "B/pfx", "l2blks", "l2%", "cyc/lkp", "stall%",
        ],
        &rep.cells,
        |c| {
            vec![
                c.prefixes.to_string(),
                c.flows.to_string(),
                format!("{:.1}", c.dir_memory_bytes as f64 / (1 << 20) as f64),
                format!("{:.1}", c.dir_bytes_per_prefix),
                c.dir_l2_blocks.to_string(),
                format!(
                    "{:.2}",
                    100.0 * c.lookup.l2 as f64 / c.lookup.lookups.max(1) as f64
                ),
                format!("{:.1}", c.lookup.avg_cycles),
                format!("{:.1}", 100.0 * c.lookup.stall_frac),
            ]
        },
    );

    println!("simulated window per cell (lookup memory model armed, Dir24-8):");
    print_table(
        &[
            "prefixes",
            "simflows",
            "delivered",
            "lkp-stall",
            "lat-p50",
            "lat-p99",
            "lat-p999",
            "fct-p99",
            "fct-p999",
            "completed",
        ],
        &rep.cells,
        |c| {
            vec![
                c.prefixes.to_string(),
                c.sim.sim_flows.to_string(),
                c.sim.delivered.to_string(),
                c.sim.lookup_stall_cycles.to_string(),
                c.sim.slo.latency.p50.to_string(),
                c.sim.slo.latency.p99.to_string(),
                c.sim.slo.latency.p999.to_string(),
                c.sim.slo.fct.p99.to_string(),
                c.sim.slo.fct.p999.to_string(),
                c.sim.slo.flows_completed.to_string(),
            ]
        },
    );
    for c in &rep.cells {
        if c.sim.sim_flows < c.flows {
            println!(
                "  note: {} prefixes / {} flows: simulated the first {} flows; the other {} \
                 are covered by the descriptor-level model columns",
                c.prefixes,
                c.flows,
                c.sim.sim_flows,
                c.flows - c.sim.sim_flows
            );
        }
    }

    if let Some(big) = rep.cells.iter().max_by_key(|c| c.prefixes) {
        println!("miss-cost sensitivity at {} prefixes:", big.prefixes);
        print_table(&["l2-cyc", "cyc/lkp", "stall%"], &big.sensitivity, |b| {
            vec![
                b.l2_cycles.to_string(),
                format!("{:.2}", b.avg_cycles),
                format!("{:.1}", 100.0 * b.stall_frac),
            ]
        });
    }

    println!(
        "fabric point: {} flows through {} -> {}/{} delivered",
        rep.fabric.flows, rep.fabric.topology, rep.fabric.delivered, rep.fabric.offered
    );

    save("fib", &rep);
    println!("wrote results/fib.json");
}

/// An experiment: its name, the arguments its usage line lists after
/// the name, and its runner.
type Experiment = (&'static str, &'static str, fn(&Args));

/// `main`, `all`, the unknown-experiment message and every usage error
/// are generated from this table.
const EXPERIMENTS: &[Experiment] = &[
    ("fig3-2", "", run_fig3_2),
    ("table6-1", "", run_table6_1),
    ("fig7-2", "", run_fig7_2),
    ("fig7-1-peak", "", run_fig7_1_peak),
    ("fig7-1-avg", "", run_fig7_1_avg),
    ("fig7-3", "", run_fig7_3),
    ("ch2-claims", "", run_ch2),
    ("fairness", "", run_fairness),
    ("ablation-net2", "", run_net2),
    ("deadlock-sweep", "", run_deadlock),
    ("multicast", "", run_multicast),
    ("scaling", "", run_scaling),
    ("ablation-quantum", "", run_quantum),
    ("ablation-lookup", "", run_lookup),
    ("ablation-voq", "", run_voq),
    ("asm-crossbar", "", run_asm),
    ("latency", "", run_latency),
    ("telemetry", "[cycles]", run_telemetry),
    ("chaos", "[cycles]", run_chaos),
    ("fabric", "[--smoke | <packets/port>]", run_fabric),
    ("sched", "[--smoke]", run_sched),
    ("fib", "[--smoke]", run_fib),
    ("verify", "", run_verify),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map_or("all", String::as_str);
    let rest = argv.get(1..).unwrap_or(&[]);
    let all = name == "all";
    let mut matched = false;
    for (exp, takes, run) in EXPERIMENTS.iter().filter(|(n, ..)| all || name == *n) {
        matched = true;
        // `all` runs every entry with no arguments.
        let own = format!("{exp} {takes}");
        let usage = if all { "all" } else { own.trim_end() };
        if let Some(extra) = rest.get(usize::from(!all && !takes.is_empty())) {
            usage_exit(&format!("unexpected argument '{extra}'"), usage);
        }
        let arg = rest.first().map(String::as_str);
        run(&Args { usage, arg });
        println!();
    }
    if !matched {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, ..)| *n).collect();
        eprintln!(
            "unknown experiment '{name}'. Available: all {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
}
