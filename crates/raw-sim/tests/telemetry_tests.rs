//! Machine-level telemetry tests: refined stall attribution, the
//! conservation invariant, token-wait hinting, and bit-identical
//! crediting between the fast and per-cycle engines.

use raw_sim::*;
use raw_telemetry::{shared, with_sink, Recorder, SwitchStallCause, TileState};

/// Sends `n` words into `$csto`, then idles.
struct Sender {
    left: usize,
}

impl TileProgram for Sender {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        if self.left > 0 && io.send_static(7) {
            self.left -= 1;
        }
    }
}

/// Blocks on a static receive forever.
struct Starved;

impl TileProgram for Starved {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        let _ = io.recv_static(NET0);
    }
}

/// Spins on the token-wait hint: the telemetry-refined version of idle.
struct TokenWaiter;

impl TileProgram for TokenWaiter {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        io.hint_token_wait();
        io.idle();
    }
}

fn attach_recorder(m: &mut RawMachine) -> raw_telemetry::SharedSink {
    let sink = shared(Recorder::new(m.dim().tiles(), NUM_STATIC_NETS));
    m.set_telemetry(sink.clone());
    sink
}

#[test]
fn conservation_holds_on_every_tile() {
    let mut m = RawMachine::new(RawConfig::default());
    m.set_program(TileId(0), Box::new(Sender { left: 10 }));
    m.set_program(TileId(5), Box::new(Starved));
    m.set_program(TileId(9), Box::new(TokenWaiter));
    let sink = attach_recorder(&mut m);
    m.run(500);
    with_sink::<Recorder, _>(&sink, |r| {
        for t in 0..16 {
            assert_eq!(r.tile_total(t), 500, "tile {t} leaked cycles");
        }
        assert!(r.conservation_violations(500).is_empty());
    });
}

#[test]
fn stall_states_are_refined() {
    let mut m = RawMachine::new(RawConfig::default());
    // No switch program consumes tile 0's csto (capacity 4): 4 busy
    // sends, then blocked on the full FIFO.
    m.set_program(TileId(0), Box::new(Sender { left: 100 }));
    m.set_program(TileId(5), Box::new(Starved));
    m.set_program(TileId(9), Box::new(TokenWaiter));
    let sink = attach_recorder(&mut m);
    m.run(200);
    with_sink::<Recorder, _>(&sink, |r| {
        let c0 = r.tile_state_counts(0);
        assert_eq!(c0[TileState::Busy.index()], 4);
        assert_eq!(c0[TileState::FifoFull.index()], 196);
        let c5 = r.tile_state_counts(5);
        assert_eq!(c5[TileState::FifoEmpty.index()], 200);
        let c9 = r.tile_state_counts(9);
        assert_eq!(c9[TileState::TokenWait.index()], 200);
        assert_eq!(c9[TileState::Idle.index()], 0);
        // An unprogrammed tile is pure idle.
        let c3 = r.tile_state_counts(3);
        assert_eq!(c3[TileState::Idle.index()], 200);
    });
}

fn switch_stall_machine(engine: EngineMode) -> (RawMachine, raw_telemetry::SharedSink) {
    let cfg = RawConfig {
        engine,
        ..RawConfig::default()
    };
    let mut m = RawMachine::new(cfg);
    // Tile 0's switch forwards Proc -> S forever; the sender feeds it 3
    // words then stops, so the switch starves (fifo-empty) for the rest
    // of the run. Tile 4 (south neighbor) never routes the words onward,
    // so its link FIFO eventually backs tile 0 up too — but with only 3
    // words (capacity 4) the dominant cause stays fifo-empty.
    m.set_program(TileId(0), Box::new(Sender { left: 3 }));
    m.set_switch_program(
        TileId(0),
        0,
        SwitchProgram::new(vec![SwitchInstr::new(
            vec![Route::new(NET0, SwPort::Proc, SwPort::S)],
            SwitchCtrl::Jump(0),
        )]),
    );
    let sink = attach_recorder(&mut m);
    (m, sink)
}

#[test]
fn switch_stalls_attributed_to_fifo_empty() {
    let (mut m, sink) = switch_stall_machine(EngineMode::PerCycle);
    m.run(300);
    let stalls = m.switch_stall_cycles(TileId(0));
    with_sink::<Recorder, _>(&sink, |r| {
        let c = r.switch_stall_counts(0, 0);
        assert!(c[SwitchStallCause::FifoEmpty.index()] > 0);
        // Every stalled switch cycle the machine counted is attributed.
        assert_eq!(c.iter().sum::<u64>(), stalls);
    });
}

#[test]
fn every_engine_credits_telemetry_identically() {
    // The fast engine both with its plan and without one (the
    // interpreter fallback bulk-credits skipped cycles on its own path).
    let collect =
        |engine: EngineMode, compile: bool| -> (Vec<[u64; TileState::COUNT]>, Vec<[u64; 3]>, u64) {
            let (mut m, sink) = switch_stall_machine(engine);
            if compile {
                m.compile_reference_plan();
            }
            m.run(400);
            let cycle = m.cycle();
            with_sink::<Recorder, _>(&sink, |r| {
                (
                    (0..16).map(|t| r.tile_state_counts(t)).collect(),
                    (0..16).map(|t| r.switch_stall_counts(t, 0)).collect(),
                    cycle,
                )
            })
        };
    let reference = collect(EngineMode::PerCycle, false);
    assert_eq!(collect(EngineMode::Compiled, false), reference);
    assert_eq!(collect(EngineMode::Compiled, true), reference);
}

#[test]
fn attaching_a_sink_never_changes_results() {
    let run = |with_telemetry: bool| -> (u64, Vec<[u64; 5]>) {
        let (mut m, sink) = switch_stall_machine(EngineMode::Compiled);
        if !with_telemetry {
            m.take_telemetry();
            drop(sink);
        }
        m.run(400);
        (
            m.switch_stall_cycles(TileId(0)),
            (0..16).map(|t| m.stats(TileId(t)).counts).collect(),
        )
    };
    assert_eq!(run(true), run(false));
}
