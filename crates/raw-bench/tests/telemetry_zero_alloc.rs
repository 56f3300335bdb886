//! The disabled-path guarantee: with no telemetry sink attached (the
//! path every production run takes), the simulator's steady-state loop
//! performs **zero heap allocations per cycle** — telemetry off must
//! cost nothing beyond the branch.
//!
//! This file holds exactly one test so the counting allocator observes
//! only its own workload (the default test harness runs tests
//! concurrently, and any neighbor would pollute the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use raw_sim::{
    EngineMode, RawConfig, RawMachine, Route, SwPort, SwitchCtrl, SwitchInstr, SwitchProgram,
    TileId, TileIo, TileProgram, NET0,
};

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

#[test]
fn null_sink_steady_state_allocates_nothing() {
    // Both engines; the compiled one lowers itself on the first cycle of
    // the warm-up run.
    for engine in [EngineMode::PerCycle, EngineMode::Compiled] {
        let mut m = streaming_machine(engine);
        assert!(m.take_telemetry().is_none(), "telemetry is off");
        // Warm up: fill pipelines and FIFOs, let any lazy setup happen.
        m.run(2_000);
        let before = ALLOCS.load(Ordering::Relaxed);
        m.run(10_000);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "steady-state cycles allocated with telemetry off ({engine:?})"
        );
    }
}
