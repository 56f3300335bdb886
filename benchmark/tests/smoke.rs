//! Every workload at smoke scale: it drains and checks clean, repeats
//! bit for bit, and the checker, the tracer and the command's exit code
//! do what the benchmark relies on.

use std::process::Command;
use std::time::Instant;

use raw_router_benchmark::metrics::{END_TO_END, PER_LAYER};
use raw_router_benchmark::spans::{self_times_ns, Span, Tracer};
use raw_router_benchmark::workloads::{
    check_deliveries, prepare, run_round, Kind, RoundResult, RunOpts, Scale,
};

fn round(kind: Kind, seed: u64, opts: RunOpts, traced: bool) -> (RoundResult, Vec<Span>) {
    let epoch = Instant::now();
    let mut tr = Tracer::new(traced, epoch, kind.name(), 0);
    let root = tr.begin("workload");
    let inputs = prepare(kind, &Scale::SMOKE, seed, &mut tr);
    let out = run_round(&inputs, &opts, epoch, &mut tr, false);
    tr.end(root);
    (out, tr.finish())
}

fn exact_values(out: &RoundResult) -> Vec<(String, f64)> {
    let exact = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .any(|m| m.exact && m.name == name)
    };
    out.values
        .0
        .iter()
        .filter(|(n, _)| exact(n))
        .cloned()
        .collect()
}

#[test]
fn every_workload_drains_clean_and_repeats() {
    for kind in Kind::ALL {
        let (a, _) = round(kind, 7, RunOpts::default(), false);
        assert!(a.drained, "{} did not drain", kind.name());
        assert_eq!(a.verdict.failed_frac(), 0.0, "{}", kind.name());
        assert!(a.verdict.attempted > 0 && a.verdict.delivered == a.verdict.attempted);
        assert!(a.run_s <= 0.2 || cfg!(debug_assertions), "{}", kind.name());

        let (b, _) = round(kind, 7, RunOpts::default(), false);
        assert_eq!(
            a.verdict.fingerprint,
            b.verdict.fingerprint,
            "{}",
            kind.name()
        );
        assert_eq!(exact_values(&a), exact_values(&b), "{}", kind.name());
        assert!(!exact_values(&a).is_empty());
    }
}

#[test]
fn a_traced_run_reproduces_the_untraced_one() {
    for kind in Kind::ALL {
        let (plain, no_spans) = round(kind, 7, RunOpts::default(), false);
        let (traced, spans) = round(kind, 7, RunOpts::traced(), true);
        assert!(no_spans.is_empty(), "the tracer is off for untraced rounds");
        assert!(traced.ok(), "{}", kind.name());
        assert_eq!(
            plain.verdict.fingerprint,
            traced.verdict.fingerprint,
            "{}: slicing changed the run",
            kind.name()
        );
        // Everything exact the untraced run reports, the traced run
        // reports identically (it adds recorder and allocation counts).
        let traced_exact = exact_values(&traced);
        for kv in exact_values(&plain) {
            assert!(traced_exact.contains(&kv), "{} {kv:?}", kind.name());
        }
        assert!(traced.slices_ms.len() > 1, "{}", kind.name());

        // Self times sum to the root span, and the tree has the shape
        // the README draws.
        let root = &spans[0];
        assert_eq!((root.name.as_str(), root.parent), ("workload", None));
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), root.dur_ns());
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        let slice = if kind == Kind::Clos64 {
            "raw-fabric.epoch"
        } else {
            "raw-xbar.run"
        };
        assert_eq!(
            spans.iter().filter(|s| s.name == slice).count(),
            traced.slices_ms.len()
        );
        assert_eq!(spans.last().map(|s| s.name.as_str()), Some("bench.check"));
    }
}

#[test]
fn the_seed_changes_every_workload_but_the_permutation() {
    for kind in Kind::ALL {
        let (a, _) = round(kind, 7, RunOpts::default(), false);
        let (b, _) = round(kind, 8, RunOpts::default(), false);
        assert!(b.ok(), "{}", kind.name());
        if kind == Kind::Peak64 {
            assert_eq!(a.verdict.fingerprint, b.verdict.fingerprint);
        } else {
            assert_ne!(
                a.verdict.fingerprint,
                b.verdict.fingerprint,
                "{}",
                kind.name()
            );
        }
    }
}

#[test]
fn the_checker_catches_a_corrupted_delivery() {
    let (out, _) = round(Kind::Avg1024, 7, RunOpts::default(), false);
    let oracle = |p: &raw_net::Packet| Some(((p.header.dst >> 16) & 0xff) as usize);
    let check = |d: &raw_router_benchmark::workloads::Deliveries| {
        let outputs: Vec<_> = d.iter().map(Vec::as_slice).collect();
        check_deliveries(&outputs, &oracle, out.verdict.attempted, 0, 0)
    };
    assert_eq!(check(&out.deliveries).failed(), 0);
    assert_eq!(check(&out.deliveries).fingerprint, out.verdict.fingerprint);

    // Delivered on the wrong port.
    let mut moved = out.deliveries.clone();
    let stray = moved[0].pop().unwrap();
    moved[1].push(stray);
    assert_eq!(check(&moved).misrouted, 1);
    assert!(check(&moved).failed_frac() > 0.0);

    // Two packets of one flow swapped.
    let mut swapped = out.deliveries.clone();
    let port = &mut swapped[2];
    let i = (1..port.len())
        .find(|&i| port[i].1.header.src == port[i - 1].1.header.src)
        .expect("some source sends twice in a row");
    port.swap(i - 1, i);
    assert_eq!(check(&swapped).order_violations, 1);

    // Lost.
    let mut lost = out.deliveries.clone();
    lost[3].pop();
    assert_eq!(check(&lost).never_delivered, 1);
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_raw-router-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn the_command_prints_the_result_object_and_fails_on_a_wrong_output() {
    let base = [
        "--workload",
        "peak64",
        "--scale",
        "smoke",
        "--seconds",
        "0.2",
    ];
    let good = bench(&base);
    assert!(good.status.success());
    let stdout = String::from_utf8(good.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    let v: serde::Value = serde_json::from_str(last).unwrap();
    assert_eq!(v.get("correct"), Some(&serde::Value::Bool(true)));
    assert_eq!(v.get("failed"), Some(&serde::Value::UInt(0)));
    let serde::Value::Object(metrics) = v.get("metrics").unwrap() else {
        panic!("metrics is an object");
    };
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let expect: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, expect);

    let bad = bench(&[&base[..], &["--corrupt"]].concat());
    assert!(
        !bad.status.success(),
        "a misrouted packet must fail the run"
    );
    let stdout = String::from_utf8(bad.stdout).unwrap();
    let v: serde::Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(v.get("correct"), Some(&serde::Value::Bool(false)));
    assert_ne!(v.get("failed"), Some(&serde::Value::UInt(0)));
}

#[test]
fn a_traced_command_prints_every_per_layer_metric() {
    let out = bench(&[
        "--workload",
        "clos64",
        "--scale",
        "smoke",
        "--seconds",
        "0.2",
        "--trace",
        "1",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let v: serde::Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    let serde::Value::Object(metrics) = v.get("metrics").unwrap() else {
        panic!("metrics is an object");
    };
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let expect: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, expect);
}

/// `BENCHMARK.json` at the repo root lists exactly the workloads and
/// metrics this package prints, with the same units and directions.
#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let v: serde::Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str| -> Vec<Vec<String>> {
        let Some(serde::Value::Array(items)) = v.get(key) else {
            panic!("{key} is a list");
        };
        items
            .iter()
            .map(|m| {
                ["name", "unit", "better"]
                    .iter()
                    .filter_map(|k| match m.get(k) {
                        Some(serde::Value::Str(s)) => Some(s.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    };
    let of = |defs: &[raw_router_benchmark::metrics::MetricDef]| -> Vec<Vec<String>> {
        defs.iter()
            .map(|m| vec![m.name.into(), m.unit.into(), m.better.name().into()])
            .collect()
    };
    assert_eq!(list("end_to_end"), of(END_TO_END));
    assert_eq!(list("per_layer"), of(PER_LAYER));
    let workloads: Vec<String> = list("workloads")
        .into_iter()
        .map(|w| w[0].clone())
        .collect();
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, kinds);
}
