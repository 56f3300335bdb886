//! The hot-path guarantee: the simulator's steady-state loop performs
//! **zero heap allocations per cycle**, with no telemetry sink attached
//! (the path every production run takes) and with a `Recorder` attached
//! — the machine keeps its cycle ledger itself and hands a sink only its
//! totals, once per run call, which must not allocate either.
//!
//! This file holds exactly one test so the counting allocator observes
//! only its own workload (the default test harness runs tests
//! concurrently, and any neighbor would pollute the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use raw_sim::{
    EngineMode, RawConfig, RawMachine, Route, SwPort, SwitchCtrl, SwitchInstr, SwitchProgram,
    TileId, TileIo, TileProgram, NET0, NUM_STATIC_NETS,
};
use raw_telemetry::{shared, Recorder};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Streams a word into `$csto` every cycle, forever.
struct EndlessSender;

impl TileProgram for EndlessSender {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        let _ = io.send_static(7);
    }
}

/// Drains `$csti` every cycle, forever.
struct EndlessDrain;

impl TileProgram for EndlessDrain {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        let _ = io.recv_static(NET0);
    }
}

/// A machine-only scenario (line-card devices buffer and allocate; the
/// bare simulator hot loop must not): tile 0 streams words south to
/// tile 4 through the static network forever, keeping processors,
/// switches, and link FIFOs all active every cycle.
fn streaming_machine(engine: EngineMode) -> RawMachine {
    let cfg = RawConfig {
        engine,
        ..RawConfig::default()
    };
    let mut m = RawMachine::new(cfg);
    m.set_program(TileId(0), Box::new(EndlessSender));
    m.set_switch_program(
        TileId(0),
        NET0,
        SwitchProgram::new(vec![SwitchInstr::new(
            vec![Route::new(NET0, SwPort::Proc, SwPort::S)],
            SwitchCtrl::Jump(0),
        )]),
    );
    m.set_switch_program(
        TileId(4),
        NET0,
        SwitchProgram::new(vec![SwitchInstr::new(
            vec![Route::new(NET0, SwPort::N, SwPort::Proc)],
            SwitchCtrl::Jump(0),
        )]),
    );
    m.set_program(TileId(4), Box::new(EndlessDrain));
    m
}

/// Allocations made by `run(n)` calls of `10_000` cycles in total, after
/// a warm-up that fills pipelines and FIFOs and lets any lazy setup (the
/// compiled engine lowers itself on its first cycle) happen.
fn steady_state_allocs(m: &mut RawMachine) -> u64 {
    m.run(2_000);
    let before = ALLOCS.load(Ordering::Relaxed);
    for n in [1, 999, 9_000] {
        m.run(n);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn null_sink_steady_state_allocates_nothing() {
    for engine in [EngineMode::PerCycle, EngineMode::Compiled] {
        let mut m = streaming_machine(engine);
        assert!(m.take_telemetry().is_none(), "telemetry is off");
        assert_eq!(
            steady_state_allocs(&mut m),
            0,
            "steady-state cycles allocated with telemetry off ({engine:?})"
        );
        // Attached, the sink is told the ledger at the end of each call.
        let mut m = streaming_machine(engine);
        m.set_telemetry(shared(Recorder::new(m.dim().tiles(), NUM_STATIC_NETS)));
        assert_eq!(
            steady_state_allocs(&mut m),
            0,
            "steady-state cycles allocated with a recorder attached ({engine:?})"
        );
    }
}
