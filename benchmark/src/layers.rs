//! Layer numbers that need runs of their own: each layer's public
//! functions timed in isolation, and the workload re-run under the
//! engine, executor and telemetry alternatives (ROADMAP item 3's data).
//!
//! These run once per traced invocation, in one child, on a quarter of
//! the workload's packets: the alternatives run back to back (A B C A B
//! C) inside a couple of seconds, so a ratio compares neighbours in
//! time rather than rounds seconds apart. Ratios named `a_over_b` are
//! host speed of `a` over host speed of `b` (above 1: `a` is faster).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use raw_fabric::Executor;
use raw_lookup::{synth_addresses, Engine, ForwardingTable, RouteEntry};
use raw_net::Packet;
use raw_sched::SchedKind;
use raw_sim::{
    Dir, EdgePort, EngineMode, RawConfig, RawMachine, Route, SwPort, SwitchCtrl, SwitchInstr,
    SwitchProgram, WordSink, WordSource, NET0,
};
use raw_xbar::{ConfigSpace, RawRouter, RouterConfig, SchedPolicy};

use crate::spans::Tracer;
use crate::workloads::{prepare, run_round, Inputs, Kind, RunOpts, Scale, Values};

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

impl Scale {
    /// The packet set the alternatives run on (tables stay full size).
    fn quarter(&self) -> Scale {
        Scale {
            peak_pkts_per_port: self.peak_pkts_per_port.div_ceil(4),
            avg_pkts_per_port: self.avg_pkts_per_port.div_ceil(4),
            churn_flows_per_port: self.churn_flows_per_port.div_ceil(4),
            fabric_pkts_per_port: self.fabric_pkts_per_port.div_ceil(4),
            ..*self
        }
    }
}

/// Best run wall of each alternative over two interleaved passes, and
/// whether every run drained, checked clean and reproduced the first
/// alternative's fingerprint.
fn race(inputs: &Inputs, alternatives: &[RunOpts]) -> (Vec<f64>, bool) {
    let mut best = vec![f64::INFINITY; alternatives.len()];
    let mut fingerprint = None;
    let mut agree = true;
    for _pass in 0..2 {
        for (i, opts) in alternatives.iter().enumerate() {
            let epoch = Instant::now();
            let mut tr = Tracer::new(false, epoch, "", 0);
            let out = run_round(inputs, opts, epoch, &mut tr, false);
            best[i] = best[i].min(out.run_s);
            let fp = *fingerprint.get_or_insert(out.verdict.fingerprint);
            agree &= out.ok() && out.verdict.fingerprint == fp;
        }
    }
    (best, agree)
}

/// A source feeding a straight 4-hop pipe across the top row into a
/// sink: FIFO and switch stepping with no tile program. `interval` > 1
/// throttles the sink so the machine is quiet most cycles (what
/// event-skip exists for). Returns simulated Mcycles per host second.
fn pipe_mcps(words: u32, interval: u64) -> f64 {
    let cfg = RawConfig::default();
    let dim = cfg.dim;
    let mut m = RawMachine::new(cfg);
    let forward = SwitchProgram::new(vec![SwitchInstr::new(
        vec![Route::new(
            NET0,
            SwPort::from_dir(Dir::West),
            SwPort::from_dir(Dir::East),
        )],
        SwitchCtrl::Jump(0),
    )]);
    for c in 0..dim.cols {
        m.set_switch_program(dim.tile(0, c), NET0, forward.clone());
    }
    m.bind_device(
        EdgePort::new(dim.tile(0, 0), Dir::West, NET0),
        Box::new(WordSource::new(0..words)),
    );
    let (sink, collected) = if interval > 1 {
        WordSink::rate_limited(interval)
    } else {
        WordSink::new()
    };
    m.bind_device(
        EdgePort::new(dim.tile(0, dim.cols - 1), Dir::East, NET0),
        Box::new(sink),
    );
    let span = (words as u64 + 16) * interval;
    let ((), wall) = secs(|| m.run(span));
    let got = collected.lock().expect("sink lock is never poisoned").len();
    assert_eq!(got, words as usize, "the pipe delivers every word");
    span as f64 / wall / 1e6
}

fn sched_ns_per_slot(kind: SchedKind, slots: usize) -> f64 {
    let mut s = kind.build(4);
    // A fixed request stream: four 4-bit output masks per slot from one
    // LCG, the same for every arbiter and every run.
    let mut x = 0x2003u32;
    let mut requests = [0u16; 4];
    let ((), wall) = secs(|| {
        for _ in 0..slots {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            for (i, r) in requests.iter_mut().enumerate() {
                *r = ((x >> (8 + 4 * i)) & 0xf) as u16;
            }
            black_box(s.arbitrate(black_box(&requests)));
        }
    });
    wall * 1e9 / slots as f64
}

/// Layer functions timed in isolation, the same on every workload.
fn fixed_micro(vals: &mut Values) {
    const SLOTS: usize = 400_000;
    vals.set(
        "raw-sched.token_ns_per_slot",
        sched_ns_per_slot(SchedKind::Token, SLOTS),
    );
    vals.set(
        "raw-sched.islip_ns_per_slot",
        sched_ns_per_slot(SchedKind::Islip { iters: 4 }, SLOTS),
    );
    vals.set(
        "raw-sched.cq_ns_per_slot",
        sched_ns_per_slot(SchedKind::CrosspointQueued { capacity: 4 }, SLOTS),
    );

    let (m, new_s) = secs(|| RawMachine::new(RawConfig::default()));
    black_box(m);
    vals.set("raw-sim.new_s", new_s);
    vals.set("raw-sim.drip_mcps", pipe_mcps(400_000, 64));
    vals.set("raw-sim.pipe_mcps", pipe_mcps(2_000_000, 1));

    let (cs, cs_s) = secs(|| ConfigSpace::enumerate(SchedPolicy::default()));
    black_box(cs);
    vals.set("raw-xbar.configspace_s", cs_s);

    // A router nobody sends to. (A bare idle machine is skipped in
    // constant time, so it has no speed to report; an idle router is
    // not: its line cards and crossbar tiles act every cycle.)
    const IDLE_CYCLES: u64 = 400_000;
    let routes = [RouteEntry::new(0, 0, 0)];
    let table = Arc::new(ForwardingTable::build_with_l1_bits(&routes, 16));
    let mut r = RawRouter::new(RouterConfig::default(), table);
    let ((), idle_s) = secs(|| r.run(IDLE_CYCLES));
    vals.set("raw-xbar.idle_mcps", IDLE_CYCLES as f64 / idle_s / 1e6);
}

/// Layer functions timed over this workload's own packets and table.
fn input_micro(inputs: &Inputs, seed: u64, vals: &mut Values) {
    let offers = inputs.offers();
    let sample = &offers[..offers.len().min(20_000)];
    let (words, to_s) = secs(|| {
        sample
            .iter()
            .map(|s| s.packet.to_words())
            .collect::<Vec<_>>()
    });
    vals.set(
        "raw-net.to_words_ns_per_pkt",
        to_s * 1e9 / sample.len() as f64,
    );
    let (valid, from_s) = secs(|| {
        words
            .iter()
            .filter(|w| Packet::from_words(w).is_ok_and(|p| p.header.checksum_ok()))
            .count()
    });
    assert_eq!(valid, sample.len(), "generated packets parse back");
    vals.set(
        "raw-net.from_words_ns_per_pkt",
        from_s * 1e9 / sample.len() as f64,
    );

    let Inputs::Router(i) = inputs else { return };
    for (engine, n, name) in [
        (Engine::Dir24_8, 2_000_000, "raw-lookup.dir_ns_per_lookup"),
        (
            Engine::Patricia,
            200_000,
            "raw-lookup.patricia_ns_per_lookup",
        ),
    ] {
        let addrs = synth_addresses(&i.routes, n, 0.9, seed);
        let (hits, wall) = secs(|| {
            addrs
                .iter()
                .filter(|&&a| i.table.lookup(engine, a).0.is_some())
                .count()
        });
        black_box(hits);
        vals.set(name, wall * 1e9 / n as f64);
    }

    let mut r = RawRouter::new(i.cfg.clone(), Arc::clone(&i.table));
    let (report, compile_s) = secs(|| {
        raw_compile::compile_machine(&mut r.machine, &raw_compile::CompileOptions::default())
    });
    report.expect("the router fabric compiles");
    vals.set("raw-compile.router_compile_s", compile_s);
}

/// Everything the layers child measures for `kind`. The bool is false
/// if an alternative diverged from the default's fingerprint.
pub fn measure(kind: Kind, scale: &Scale, seed: u64) -> (Values, bool) {
    let mut vals = Values::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(false, epoch, "", 0);
    let inputs = prepare(kind, &scale.quarter(), seed, &mut tr);

    let base = RunOpts::default();
    let agree = match &inputs {
        Inputs::Router(_) => {
            let (wall, agree) = race(
                &inputs,
                &[
                    base,
                    RunOpts {
                        engine: Some(EngineMode::Compiled),
                        ..base
                    },
                    RunOpts {
                        engine: Some(EngineMode::PerCycle),
                        ..base
                    },
                    RunOpts {
                        recorder: true,
                        ..base
                    },
                ],
            );
            vals.set("raw-compile.compiled_over_default", wall[0] / wall[1]);
            vals.set("raw-sim.percycle_over_default", wall[0] / wall[2]);
            vals.set(
                "raw-telemetry.recorder_overhead_frac",
                wall[3] / wall[0] - 1.0,
            );
            agree
        }
        Inputs::Fabric(_) => {
            let (wall, agree) = race(
                &inputs,
                &[
                    base,
                    RunOpts {
                        executor: Executor::Reference,
                        ..base
                    },
                ],
            );
            vals.set("raw-fabric.sharded_over_reference", wall[1] / wall[0]);
            agree
        }
    };
    fixed_micro(&mut vals);
    input_micro(&inputs, seed, &mut vals);
    (vals, agree)
}
