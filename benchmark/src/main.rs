//! `raw-router-benchmark`: the one command behind `BENCHMARK.json`.
//!
//! ```text
//! raw-router-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! raw-router-benchmark --self-check [--seconds <s>]
//! ```
//!
//! The parent re-executes itself as a fresh child per (workload, round),
//! so every row is what a user pays from process start and `VmHWM` is
//! per round. With several workloads the rounds interleave round-robin.
//! The last stdout line is the result object; everything for people
//! goes to stderr and `benchmark/out/`.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use raw_router_benchmark::alloc::CountingAlloc;
use raw_router_benchmark::host::{self, HostInfo};
use raw_router_benchmark::layers;
use raw_router_benchmark::report::{self, Reduced, Row};
use raw_router_benchmark::spans::{chrome_trace, Span, Tracer};
use raw_router_benchmark::workloads::{prepare, run_round, Kind, RunOpts, Scale};
use serde::Serialize;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fewest rounds per workload whatever `--seconds` says.
const MIN_ROUNDS: u32 = 3;
const MIN_TRACED_ROUNDS: u32 = 2;
const DEFAULT_SEED: u64 = 2003;
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Clone, Debug)]
struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    self_check: bool,
    child: Option<String>,
    round: u32,
    corrupt: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: raw-router-benchmark [--workload <{}|all>] [--seed <u64>] [--seconds <s>] \
         [--trace <0|1>] [--scale <full|smoke>] [--self-check]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Kind::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        self_check: false,
        child: None,
        round: 0,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads = if v == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(&v).ok_or(format!("unknown workload `{v}`"))?]
                };
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--scale" => {
                a.smoke = match value()?.as_str() {
                    "full" => false,
                    "smoke" => true,
                    v => return Err(format!("--scale takes full or smoke, got `{v}`")),
                }
            }
            "--self-check" => a.self_check = true,
            // Internal: how the parent starts its children.
            "--child" => a.child = Some(value()?),
            "--round" => a.round = value()?.parse().map_err(|e| format!("--round: {e}"))?,
            // Tests only: move one delivery to the wrong port.
            "--corrupt" => a.corrupt = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(a)
}

fn scale_of(a: &Args) -> Scale {
    if a.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    }
}

/// One round (or the layers measurement) in this fresh process; prints
/// the row as JSON.
fn child(a: &Args, mode: &str, epoch: Instant) -> ExitCode {
    let kind = a.workloads[0];
    let scale = scale_of(a);
    let row = if mode == "layers" {
        let (values, agree) = layers::measure(kind, &scale, a.seed);
        Row::of_layers(kind, a.seed, values, agree)
    } else {
        let traced = mode == "traced";
        let opts = if traced {
            RunOpts::traced()
        } else {
            RunOpts::default()
        };
        let mut tr = Tracer::new(traced, epoch, kind.name(), a.round);
        let root = tr.begin("workload");
        let inputs = prepare(kind, &scale, a.seed, &mut tr);
        let out = run_round(&inputs, &opts, epoch, &mut tr, a.corrupt);
        tr.end(root);
        Row::of_round(
            kind,
            mode,
            a.round,
            a.seed,
            out,
            tr.finish(),
            host::peak_rss_mb(),
        )
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&row).expect("rows serialize")
    );
    ExitCode::SUCCESS
}

fn spawn_child(a: &Args, kind: Kind, mode: &str, round: u32) -> Result<Row, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", kind.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--round", &round.to_string()])
        .args(["--scale", if a.smoke { "smoke" } else { "full" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.corrupt {
        cmd.arg("--corrupt");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} {mode} round {round}: child ended with {}",
            kind.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(&text).map_err(|e| format!("{} {mode} round {round}: {e}", kind.name()))
}

/// What one invocation measured for one workload.
struct Series {
    kind: Kind,
    rows: Vec<Row>,
}

/// Run rounds of every workload, interleaved round-robin, until the
/// next pass would overrun `seconds` per workload.
fn run_series(a: &Args) -> Result<(Vec<Series>, f64), String> {
    let mut all: Vec<Series> = a
        .workloads
        .iter()
        .map(|&kind| Series {
            kind,
            rows: Vec::new(),
        })
        .collect();
    let budget = a.seconds * all.len() as f64;
    let t0 = Instant::now();
    if a.trace {
        for s in &mut all {
            s.rows.push(spawn_child(a, s.kind, "layers", 0)?);
        }
    }
    let min_rounds = if a.trace {
        MIN_TRACED_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let mut round = 0;
    loop {
        let pass = Instant::now();
        for s in &mut all {
            s.rows.push(spawn_child(a, s.kind, "plain", round)?);
            if a.trace {
                s.rows.push(spawn_child(a, s.kind, "traced", round)?);
            }
        }
        round += 1;
        let next_end = t0.elapsed().as_secs_f64() + pass.elapsed().as_secs_f64();
        if round >= min_rounds && next_end > budget {
            break;
        }
    }
    Ok((all, t0.elapsed().as_secs_f64()))
}

fn reduce(a: &Args, s: &Series) -> Reduced {
    if a.trace {
        report::per_layer(s.kind, &s.rows)
    } else {
        report::end_to_end(s.kind, &s.rows)
    }
}

#[derive(Serialize)]
struct MetricOut {
    name: String,
    value: f64,
    unit: String,
    better: String,
    exact: bool,
}

#[derive(Serialize)]
struct WorkloadOut {
    workload: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    fingerprint: String,
    rounds: usize,
    problems: Vec<String>,
    metrics: Vec<MetricOut>,
    rows: Vec<Row>,
}

/// The result file: every number with the host and build it came from.
#[derive(Serialize)]
struct ResultFile {
    host: HostInfo,
    seed: u64,
    seconds_per_workload: f64,
    traced: bool,
    scale: String,
    /// Wall span of the interleaved series.
    span_s: f64,
    /// The benchmark records a baseline; it claims no gain.
    claim: Option<String>,
    workloads: Vec<WorkloadOut>,
}

fn write_outputs(a: &Args, series: &[Series], reduced: &[Reduced], span_s: f64) {
    let dir = host::out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let workloads = series
        .iter()
        .zip(reduced)
        .map(|(s, r)| {
            let mut rows = s.rows.clone();
            // Spans go to the trace file; the result file stays small.
            rows.iter_mut().for_each(|row| row.spans.clear());
            WorkloadOut {
                workload: s.kind.name().to_string(),
                correct: r.correct,
                attempted: r.attempted,
                failed: r.failed,
                fingerprint: r.fingerprint.clone(),
                rounds: s.rows.iter().filter(|row| row.mode == "plain").count(),
                problems: r.problems.clone(),
                metrics: r
                    .metrics
                    .iter()
                    .map(|(m, v)| MetricOut {
                        name: m.name.to_string(),
                        value: *v,
                        unit: m.unit.to_string(),
                        better: m.better.name().to_string(),
                        exact: m.exact,
                    })
                    .collect(),
                rows,
            }
        })
        .collect();
    let file = ResultFile {
        host: HostInfo::collect(),
        seed: a.seed,
        seconds_per_workload: a.seconds,
        traced: a.trace,
        scale: if a.smoke { "smoke" } else { "full" }.to_string(),
        span_s,
        claim: None,
        workloads,
    };
    let which = if a.workloads.len() == 1 {
        a.workloads[0].name()
    } else {
        "all"
    };
    let suffix = if a.trace { "layers" } else { "end-to-end" };
    let path = dir.join(format!("result-{which}-{suffix}.json"));
    let text = serde_json::to_string_pretty(&file).expect("result files serialize");
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
    }
    if a.trace {
        for s in series {
            let spans: Vec<Span> = s.rows.iter().flat_map(|r| r.spans.clone()).collect();
            let path = dir.join(format!("trace-{}.json", s.kind.name()));
            if let Err(e) = std::fs::write(&path, chrome_trace(&spans)) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
    }
}

fn parent(a: &Args) -> ExitCode {
    let (series, span_s) = match run_series(a) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reduced: Vec<Reduced> = series.iter().map(|s| reduce(a, s)).collect();
    for (s, r) in series.iter().zip(&reduced) {
        eprint!("{}", report::table(s.kind, r));
    }
    write_outputs(a, &series, &reduced, span_s);
    // One workload: the contract's result object. Several: one object
    // per workload under its name, and no claim.
    if let [r] = reduced.as_slice() {
        println!("{}", report::result_line(r));
    } else {
        let parts: Vec<String> = series
            .iter()
            .zip(&reduced)
            .map(|(s, r)| format!("\"{}\": {}", s.kind.name(), report::result_line(r)))
            .collect();
        println!("{{\"claim\": null, {}}}", parts.join(", "));
    }
    if reduced.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Bounds of the end-to-end metrics, from `../BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = host::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: serde::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let Some(serde::Value::Array(items)) = v.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("bound")) {
            (Some(serde::Value::Str(n)), Some(serde::Value::Float(b))) => Ok((n.clone(), *b)),
            (Some(serde::Value::Str(n)), Some(serde::Value::UInt(b))) => Ok((n.clone(), *b as f64)),
            _ => Err("end_to_end entry without name and bound".to_string()),
        })
        .collect()
}

/// Two full sets of the same build, side by side; fails unless they
/// agree within the benchmark's own bounds and exactly on every exact
/// metric and fingerprint.
fn self_check(a: &Args) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("self-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sets = Vec::new();
    for set in 0..2 {
        eprintln!("self-check: set {set}");
        match run_series(a) {
            Ok((series, _)) => sets.push(
                series
                    .iter()
                    .map(|s| (s.kind, report::end_to_end(s.kind, &s.rows)))
                    .collect::<Vec<_>>(),
            ),
            Err(e) => {
                eprintln!("self-check: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut agree = true;
    println!(
        "{:<12} {:<22} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set 0", "set 1", "worse by", "bound"
    );
    for ((kind, first), (_, second)) in sets[0].iter().zip(&sets[1]) {
        let mut ok = first.correct && second.correct && first.fingerprint == second.fingerprint;
        for ((m, x), (_, y)) in first.metrics.iter().zip(&second.metrics) {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == m.name)
                .map_or(0.0, |(_, b)| *b);
            // How much worse the worse set is, as a share of the better.
            let worse = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            let within = if m.exact { x == y } else { worse <= bound };
            ok &= within;
            println!(
                "{:<12} {:<22} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}%{}",
                kind.name(),
                m.name,
                x,
                y,
                worse * 100.0,
                if m.exact { 0.0 } else { bound * 100.0 },
                if within { "" } else { "  DISAGREE" }
            );
        }
        println!(
            "{:<12} fingerprint {} {}",
            kind.name(),
            first.fingerprint,
            second.fingerprint
        );
        agree &= ok;
    }
    if agree {
        println!("self-check: the two sets agree");
        ExitCode::SUCCESS
    } else {
        println!("self-check: the two sets DISAGREE");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &args.child {
        Some(mode) => child(&args, mode, epoch),
        None if args.self_check => self_check(&args),
        None => parent(&args),
    }
}
