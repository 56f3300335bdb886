//! Criterion micro-benchmarks over the reproduction's building blocks:
//! one group per paper artifact, so `cargo bench` exercises the same code
//! paths the tables are generated from at measurable scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::sync::Arc;

use raw_baselines::{internet_mix, BackplaneSim, CrossbarSim, FabricConfig, Granularity, Queueing};
use raw_bench::{engine_name, ENGINES};
use raw_lookup::{synth_addresses, synth_table, Engine, ForwardingTable};
use raw_net::{Ipv4Header, Packet};
use raw_sim::EngineMode;
use raw_workloads::{generate, Workload};
use raw_xbar::{config, RawRouter, RouterConfig};

/// A saturated 64-byte Figure 7-1 router, ready to run, in one engine
/// mode (the compiled engine lowers its fabric at construction).
fn saturated_router(engine: EngineMode, packets: usize) -> RawRouter {
    let mut cfg = RouterConfig {
        quantum_words: 16,
        cut_through: true,
        ..RouterConfig::default()
    };
    cfg.raw.engine = engine;
    let mut r = RawRouter::new(cfg, raw_bench::experiment_table());
    for sp in generate(&Workload::peak(64, packets)) {
        r.offer(sp.port, sp.release, &sp.packet);
    }
    r
}

/// Figure 7-1's engine: simulated router cycles per second of host time
/// (one granted 64-byte-packet pipeline per iteration).
fn bench_router(c: &mut Criterion) {
    let mut g = c.benchmark_group("router");
    g.sample_size(10);
    g.bench_function("simulate_64B_permutation_20kcycles", |b| {
        b.iter_batched(
            || {
                let table = raw_bench::experiment_table();
                let cfg = RouterConfig {
                    quantum_words: 16,
                    cut_through: true,
                    ..RouterConfig::default()
                };
                let mut r = RawRouter::new(cfg, table);
                for sp in generate(&Workload::peak(64, 400)) {
                    r.offer(sp.port, sp.release, &sp.packet);
                }
                r
            },
            |mut r| {
                r.run(20_000);
                r.delivered_count()
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

/// The cycle engine itself: simulated cycles per second of host time in
/// both engine modes, reported as Mcycles/s via the group throughput
/// (one element = one simulated machine cycle). The saturated router
/// isolates the hot step path (line cards offer a word every cycle, so
/// event-skip never engages); the throttled drip-feed pipe isolates the
/// skip.
fn bench_sim_speed(c: &mut Criterion) {
    const SPAN: u64 = 20_000;
    const DRIP_WORDS: u32 = 2_000;
    const DRIP_INTERVAL: u64 = 64;
    let mut g = c.benchmark_group("sim_speed");
    g.sample_size(10);
    for engine in ENGINES {
        let mode = engine_name(engine);
        g.throughput(Throughput::Elements(SPAN));
        g.bench_function(format!("router_64B_saturated_{mode}"), |b| {
            b.iter_batched(
                || saturated_router(engine, 2000),
                |mut r| {
                    r.run(SPAN);
                    r.delivered_count()
                },
                BatchSize::PerIteration,
            )
        });
        g.throughput(Throughput::Elements(
            (u64::from(DRIP_WORDS) + 16) * DRIP_INTERVAL,
        ));
        g.bench_function(format!("drip_feed_quiet_{mode}"), |b| {
            b.iter(|| {
                let rep = raw_bench::simspeed_drip_once(DRIP_WORDS, DRIP_INTERVAL, engine);
                std::hint::black_box(rep)
            })
        });
    }
    g.finish();
}

/// The tentpole guardrail: the schedule-specialized step function
/// against the interpreted step on a bare always-busy machine (a
/// saturated forwarding pipe across the top row — no line cards, no
/// packet framing), construction excluded, rates in Mcycles/s.
/// `compiled` must beat `per-cycle` here or the specialization is
/// regressing.
fn bench_compiled_step(c: &mut Criterion) {
    use raw_sim::{
        Dir, EdgePort, NullSink, RawConfig, RawMachine, Route, SwPort, SwitchCtrl, SwitchInstr,
        SwitchProgram, WordSource, NET0,
    };
    const SPAN: u64 = 50_000;

    let streaming_machine = |engine: EngineMode| -> RawMachine {
        let cfg = RawConfig {
            engine,
            ..RawConfig::default()
        };
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
            Box::new(WordSource::new(0..(SPAN as u32 + 64))),
        );
        m.bind_device(
            EdgePort::new(dim.tile(0, dim.cols - 1), Dir::East, NET0),
            Box::new(NullSink::default()),
        );
        if engine == EngineMode::Compiled {
            raw_compile::compile_machine(&mut m, &raw_compile::CompileOptions::default())
                .expect("pipe compiles");
        }
        m
    };

    let mut g = c.benchmark_group("compiled_step");
    g.sample_size(10);
    g.throughput(Throughput::Elements(SPAN));
    for engine in ENGINES {
        g.bench_function(format!("streaming_pipe_{}", engine_name(engine)), |b| {
            b.iter_batched(
                || streaming_machine(engine),
                |mut m| {
                    m.run(SPAN);
                    m.routes_fired
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// Table 6.1's engine: the sequential-walk scheduler and the full
/// configuration-space enumeration.
fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.bench_function("sequential_walk", |b| {
        let bids = [
            config::Bid::unicast(2),
            config::Bid::unicast(3),
            config::Bid::unicast(0),
            config::Bid::unicast(1),
        ];
        b.iter(|| {
            config::schedule(
                std::hint::black_box(bids),
                0,
                config::SchedPolicy::default(),
            )
        })
    });
    g.sample_size(10);
    g.bench_function("enumerate_2500_space", |b| {
        b.iter(|| {
            config::ConfigSpace::enumerate(config::SchedPolicy::ShortestFirst).minimized_len()
        })
    });
    g.finish();
}

/// The raw-sched arbiters at 16 ports: one arbitration slot per
/// iteration, under full load (every VOQ non-empty, the worst case for
/// iteration counts) and under a sparse near-diagonal load (the
/// common case once a matching has converged).
fn bench_sched_arbiter(c: &mut Criterion) {
    use raw_sched::SchedKind;
    const PORTS: usize = 16;
    let full = vec![0xffffu16; PORTS];
    let sparse: Vec<u16> = (0..PORTS).map(|i| 1u16 << ((i * 5) % PORTS)).collect();
    let mut g = c.benchmark_group("sched_arbiter");
    for kind in SchedKind::all() {
        for (load, reqs) in [("full", &full), ("sparse", &sparse)] {
            let mut s = kind.build(PORTS);
            g.bench_function(format!("{}_16port_{load}", kind.name()), |b| {
                b.iter(|| s.arbitrate(std::hint::black_box(reqs)))
            });
        }
    }
    g.finish();
}

/// The Lookup Processor's engines.
fn bench_lookup(c: &mut Criterion) {
    let routes = synth_table(10_000, 4, 1);
    let ft = Arc::new(ForwardingTable::build(&routes));
    let addrs = synth_addresses(&routes, 1024, 0.8, 2);
    let mut g = c.benchmark_group("lookup");
    for engine in [Engine::Patricia, Engine::Dir24_8] {
        g.bench_function(format!("{engine:?}_1k_lookups"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &a in &addrs {
                    acc += ft.lookup(engine, a).0.unwrap_or(0) as u64;
                }
                acc
            })
        });
    }
    g.finish();
}

/// The Ingress Processor's header work.
fn bench_ipv4(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipv4");
    let p = Packet::synthetic(0x0a000001, 0x0a010001, 1024, 64, 3);
    let words = p.to_words();
    g.bench_function("parse_and_forward_hop", |b| {
        b.iter(|| {
            let mut hw = [0u32; 5];
            hw.copy_from_slice(&words[..5]);
            let mut h = Ipv4Header::from_words(std::hint::black_box(&hw)).unwrap();
            h.forward_hop().unwrap();
            h.checksum
        })
    });
    g.bench_function("packet_words_roundtrip_1024B", |b| {
        b.iter(|| {
            Packet::from_words(std::hint::black_box(&words))
                .unwrap()
                .total_bytes()
        })
    });
    g.finish();
}

/// The telemetry guardrail: the same saturated-router run detached and
/// with a NullSink attached. The two bars must stay within the <2%
/// regression budget the disabled path promises (compare
/// `router_64B_detached` against `router_64B_nullsink` in the report).
fn bench_telemetry(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry");
    g.sample_size(10);
    for attach in [false, true] {
        let name = if attach {
            "router_64B_nullsink"
        } else {
            "router_64B_detached"
        };
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let cfg = RouterConfig {
                        quantum_words: 16,
                        cut_through: true,
                        ..RouterConfig::default()
                    };
                    let telemetry = attach.then(|| raw_telemetry::shared(raw_telemetry::NullSink));
                    let mut r = RawRouter::try_new_with_telemetry(
                        cfg,
                        raw_bench::experiment_table(),
                        telemetry,
                    )
                    .unwrap();
                    for sp in generate(&Workload::peak(64, 400)) {
                        r.offer(sp.port, sp.release, &sp.packet);
                    }
                    r
                },
                |mut r| {
                    r.run(20_000);
                    r.delivered_count()
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// The §2.2.2 baseline fabrics.
fn bench_fabrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("baseline_fabrics");
    g.sample_size(10);
    g.bench_function("islip_voq_16port_5kslots", |b| {
        b.iter(|| {
            let mut sim = CrossbarSim::new(FabricConfig {
                ports: 16,
                queueing: Queueing::Voq,
                islip_iters: 4,
                seed: 1,
                ..FabricConfig::default()
            });
            sim.run_uniform(1.0, 5_000);
            sim.report.delivered_cells
        })
    });
    g.bench_function("cells_backplane_8port_5kslots", |b| {
        b.iter(|| BackplaneSim::new(8, Granularity::Cells, internet_mix(), 1).run(5_000))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_router,
    bench_sim_speed,
    bench_compiled_step,
    bench_telemetry,
    bench_scheduler,
    bench_sched_arbiter,
    bench_lookup,
    bench_ipv4,
    bench_fabrics
);
criterion_main!(benches);
