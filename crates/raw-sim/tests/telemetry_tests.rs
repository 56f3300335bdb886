//! Machine-level telemetry tests: refined stall attribution, the
//! conservation invariant, token-wait hinting, and bit-identical
//! crediting of the machine's cycle ledger between the fast and
//! per-cycle engines.

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

/// Tile 0's sender feeds `words` words to its switch, which forwards
/// `Proc -> dst` forever. Three shapes, one per stall cause:
/// * 3 words south: the switch starves (fifo-empty) for the rest of the
///   run — tile 4 never routes the words onward, but 3 fit its link FIFO
///   (capacity 4);
/// * 100 words south: that link FIFO fills and stays full (fifo-full);
/// * 100 words north, off the chip into a sink taking one word every 4
///   cycles (device backpressure).
fn switch_stall_machine(engine: EngineMode, words: usize, dst: SwPort) -> RawMachine {
    let cfg = RawConfig {
        engine,
        ..RawConfig::default()
    };
    let mut m = RawMachine::new(cfg);
    m.set_program(TileId(0), Box::new(Sender { left: words }));
    m.set_switch_program(
        TileId(0),
        0,
        SwitchProgram::new(vec![SwitchInstr::new(
            vec![Route::new(NET0, SwPort::Proc, dst)],
            SwitchCtrl::Jump(0),
        )]),
    );
    if dst == SwPort::N {
        m.bind_device(
            EdgePort::new(TileId(0), Dir::North, NET0),
            Box::new(WordSink::rate_limited(4).0),
        );
    }
    m
}

const STALL_SHAPES: [(usize, SwPort, SwitchStallCause); 3] = [
    (3, SwPort::S, SwitchStallCause::FifoEmpty),
    (100, SwPort::S, SwitchStallCause::FifoFull),
    (100, SwPort::N, SwitchStallCause::DeviceBackpressure),
];

/// Each stall cause is driven, every stalled switch cycle the machine
/// counted is attributed to some cause, and both engines ledger tile
/// states, stall causes and the clock identically — with no sink
/// attached: the ledger is the machine's own, and its digests carry it.
#[test]
fn every_engine_credits_telemetry_identically() {
    for (words, dst, cause) in STALL_SHAPES {
        let found = first_divergence(
            || switch_stall_machine(EngineMode::PerCycle, words, dst),
            || switch_stall_machine(EngineMode::Compiled, words, dst),
            |m, n| m.run(n),
            RawMachine::digests,
            400,
        );
        assert_eq!(
            found, None,
            "{cause:?}: (cycle, component) where the engines part"
        );
        let mut m = switch_stall_machine(EngineMode::PerCycle, words, dst);
        assert!(m.take_telemetry().is_none());
        m.run(400);
        let by_cause = m.switch_stalls(TileId(0), 0);
        assert!(by_cause[cause.index()] > 0, "{cause:?}: {by_cause:?}");
        assert_eq!(
            by_cause.iter().sum::<u64>(),
            m.switch_stall_cycles(TileId(0)),
            "{cause:?}"
        );
        for t in 0..16 {
            let states = m.tile_states(TileId(t));
            assert_eq!(states.iter().sum::<u64>(), 400, "{cause:?}: tile {t}");
        }
    }
}

#[test]
fn attaching_a_sink_never_changes_results() {
    let run = |with_telemetry: bool| -> (u64, Vec<[u64; 5]>) {
        let mut m = switch_stall_machine(EngineMode::Compiled, 3, SwPort::S);
        if with_telemetry {
            attach_recorder(&mut m);
        }
        m.run(400);
        (
            m.switch_stall_cycles(TileId(0)),
            (0..16).map(|t| m.stats(TileId(t)).counts).collect(),
        )
    };
    assert_eq!(run(true), run(false));
}
