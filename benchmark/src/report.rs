//! Rows the child processes print, and how the parent reduces a run's
//! rows to the metric lists.
//!
//! Host speed is the run's **aggregate**: all simulated cycles (or
//! packets) of the untraced rounds over all their timed seconds. The
//! sandbox this was written on drifts between speed states 20-45 %
//! apart, holding one for seconds to minutes with bursts in between.
//! Picking one round (best or median) flips between states with the
//! share of the window each state held; the aggregate moves only in
//! proportion to that share, and over four- and five-minute probes its
//! 20 s windows spread 7-14 % of their median where the best round
//! spread 17-25 %. Set-up time and memory are medians of rounds. Median
//! and inter-quartile range of the run wall are printed too
//! (`bench.run_med_s`, `bench.run_iqr_s`).

use serde::{Deserialize, Serialize};

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, SPAN_METRICS};
use crate::spans::{total_s, Span};
use crate::stats;
use crate::workloads::{Kind, RoundResult, Values};

/// One child process's result: one round, or the layers measurement.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Row {
    pub workload: String,
    /// `plain` (end-to-end), `traced`, or `layers`.
    pub mode: String,
    pub round: u32,
    pub seed: u64,
    pub ok: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `dropped/misrouted/parse_errors/order_violations/never_delivered`.
    pub fail_detail: String,
    pub fingerprint: String,
    pub setup_s: f64,
    pub run_s: f64,
    pub peak_rss_mb: f64,
    pub machine_cycles: u64,
    pub values: Vec<(String, f64)>,
    pub slices_ms: Vec<f64>,
    pub spans: Vec<Span>,
}

impl Row {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The row of one finished round.
    pub fn of_round(
        kind: Kind,
        mode: &str,
        round: u32,
        seed: u64,
        out: RoundResult,
        spans: Vec<Span>,
        peak_rss_mb: f64,
    ) -> Row {
        let v = &out.verdict;
        let mut values = out.values.clone();
        values.set("bench.failed_frac", v.failed_frac());
        if !spans.is_empty() {
            for (span, metric) in SPAN_METRICS {
                values.set(metric, total_s(&spans, span));
            }
            values.set(
                "raw-xbar.offer_ns_per_pkt",
                total_s(&spans, "raw-xbar.offer") * 1e9 / v.attempted.max(1) as f64,
            );
        }
        Row {
            workload: kind.name().to_string(),
            mode: mode.to_string(),
            round,
            seed,
            ok: out.ok(),
            attempted: v.attempted,
            failed: v.failed() + u64::from(!out.drained && v.failed() == 0),
            fail_detail: format!(
                "{}/{}/{}/{}/{}",
                v.dropped, v.misrouted, v.parse_errors, v.order_violations, v.never_delivered
            ),
            fingerprint: format!("{:016x}", v.fingerprint),
            setup_s: out.setup_s,
            run_s: out.run_s,
            peak_rss_mb,
            machine_cycles: out.machine_cycles,
            values: values.0,
            slices_ms: out.slices_ms,
            spans,
        }
    }

    /// The row of the layers child.
    pub fn of_layers(kind: Kind, seed: u64, values: Values, agree: bool) -> Row {
        Row {
            workload: kind.name().to_string(),
            mode: "layers".to_string(),
            seed,
            ok: agree,
            values: values.0,
            ..Row::default()
        }
    }
}

/// A run reduced to what the last stdout line carries.
#[derive(Clone, Debug)]
pub struct Reduced {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: String,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
    pub metrics: Vec<(MetricDef, f64)>,
}

fn column(rows: &[&Row], f: impl Fn(&Row) -> f64) -> Vec<f64> {
    rows.iter().map(|r| f(r)).collect()
}

/// What every reduction checks first: all rounds drained, checked clean
/// and agree on the fingerprint and on every exact metric.
fn verify(kind: Kind, rows: &[Row], defs: &[&[MetricDef]]) -> Reduced {
    let rounds: Vec<&Row> = rows.iter().filter(|r| r.mode != "layers").collect();
    let mut problems = Vec::new();
    let first = rounds.first().expect("a run has at least one round");
    for r in rows {
        if !r.ok {
            problems.push(format!(
                "{} {} round {}: failed {} of {} (dropped/misrouted/parse/order/never {})",
                kind.name(),
                r.mode,
                r.round,
                r.failed,
                r.attempted,
                r.fail_detail
            ));
        }
    }
    for r in &rounds {
        if r.fingerprint != first.fingerprint {
            problems.push(format!(
                "{} {} round {}: fingerprint {} != {}",
                kind.name(),
                r.mode,
                r.round,
                r.fingerprint,
                first.fingerprint
            ));
        }
        for m in defs.iter().flat_map(|d| d.iter()).filter(|m| m.exact) {
            if let (Some(a), Some(b)) = (first.get(m.name), r.get(m.name)) {
                if a != b {
                    problems.push(format!(
                        "{} {} round {}: exact metric {} = {b}, was {a}",
                        kind.name(),
                        r.mode,
                        r.round,
                        m.name
                    ));
                }
            }
        }
    }
    Reduced {
        correct: problems.is_empty(),
        attempted: first.attempted.max(1),
        failed: rounds.iter().map(|r| r.failed).max().unwrap_or(0),
        fingerprint: first.fingerprint.clone(),
        problems,
        metrics: Vec::new(),
    }
}

/// The end-to-end metrics of a run's untraced rounds.
pub fn end_to_end(kind: Kind, rows: &[Row]) -> Reduced {
    let mut out = verify(kind, rows, &[END_TO_END]);
    let plain: Vec<&Row> = rows.iter().filter(|r| r.mode == "plain").collect();
    let ok_pkts = |r: &Row| (r.attempted - r.failed.min(r.attempted)) as f64;
    let run_s: f64 = plain.iter().map(|r| r.run_s).sum();
    for m in END_TO_END {
        let value = match m.name {
            "setup_s" => stats::median(&column(&plain, |r| r.setup_s)),
            "host_mcps" => plain.iter().map(|r| r.machine_cycles as f64).sum::<f64>() / run_s / 1e6,
            "host_kpps" => plain.iter().map(|r| ok_pkts(r)).sum::<f64>() / run_s / 1e3,
            "peak_rss_mb" => stats::median(&column(&plain, |r| r.peak_rss_mb)),
            name => plain[0].get(name).unwrap_or(0.0),
        };
        out.metrics.push((*m, value));
    }
    out
}

/// The per-layer metrics of a traced run: medians over the rows that
/// carry each name (exact ones are equal anyway), slice percentiles
/// pooled over traced rounds, and the benchmark's own numbers.
pub fn per_layer(kind: Kind, rows: &[Row]) -> Reduced {
    let mut out = verify(kind, rows, &[END_TO_END, PER_LAYER]);
    let of_mode = |mode: &str| -> Vec<&Row> { rows.iter().filter(|r| r.mode == mode).collect() };
    let (plain, traced) = (of_mode("plain"), of_mode("traced"));
    let plain_run = column(&plain, |r| r.run_s);
    let traced_run = column(&traced, |r| r.run_s);
    let slices: Vec<f64> = traced.iter().flat_map(|r| r.slices_ms.clone()).collect();
    let (p50, p90) = (stats::quantile(&slices, 0.5), stats::quantile(&slices, 0.9));
    let is_fabric = kind == Kind::Clos64;
    let sim_gbps = plain.first().and_then(|r| r.get("sim_gbps")).unwrap_or(0.0);
    for m in PER_LAYER {
        let value = match m.name {
            "raw-xbar.slice_ms_p50" if !is_fabric => p50,
            "raw-xbar.slice_ms_p90" if !is_fabric => p90,
            "raw-fabric.epoch_ms_p50" if is_fabric => p50,
            "raw-fabric.epoch_ms_p90" if is_fabric => p90,
            "bench.trace_overhead_frac" => {
                stats::median(&traced_run) / stats::median(&plain_run) - 1.0
            }
            "bench.run_med_s" => stats::median(&plain_run),
            "bench.run_iqr_s" => stats::iqr(&plain_run),
            "bench.rounds" => plain.len() as f64,
            "bench.paper_gbps" => kind.paper_gbps().unwrap_or(0.0),
            // 0 with `bench.paper_gbps` 0 means "no published
            // reference: unvalidated", not "no error".
            "bench.paper_err_frac" => kind
                .paper_gbps()
                .map_or(0.0, |paper| (sim_gbps - paper).abs() / paper),
            // Untraced rounds carry exact values and the few timings
            // taken without spans; everything else comes from the
            // traced rounds and the layers child.
            name => {
                let carried = |rows: &[&Row]| -> Vec<f64> {
                    rows.iter().filter_map(|r| r.get(name)).collect()
                };
                let from_plain = carried(&plain);
                if from_plain.is_empty() {
                    stats::median(&carried(&rows.iter().collect::<Vec<_>>()))
                } else {
                    stats::median(&from_plain)
                }
            }
        };
        out.metrics.push((*m, value));
    }
    out
}

/// Shortest round-trip decimal; JSON has no NaN or infinity.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The contract's result object, on one line.
pub fn result_line(r: &Reduced) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Every metric by name with its unit, for people (stderr).
pub fn table(kind: Kind, r: &Reduced) -> String {
    let mut s = format!(
        "== {}: correct={} attempted={} failed={} fingerprint={}\n",
        kind.name(),
        r.correct,
        r.attempted,
        r.failed,
        r.fingerprint
    );
    for (m, v) in &r.metrics {
        s.push_str(&format!(
            "{:<48} {:>16} {:<14} ({} is better{})\n",
            m.name,
            format!("{v:.6}"),
            m.unit,
            m.better.name(),
            if m.exact { ", exact" } else { "" }
        ));
    }
    for p in &r.problems {
        s.push_str(&format!("PROBLEM: {p}\n"));
    }
    s
}
