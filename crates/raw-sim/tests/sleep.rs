//! The compiled engine's per-component sleep, pinned where it can break.
//!
//! Every test here is `EngineMode::Compiled == EngineMode::PerCycle` on a
//! machine built so that one particular wake edge, or one particular
//! credit point, is the only thing standing between the two. The
//! interpreter polls every tile and switch every cycle, so any sleeper
//! the fast engine wakes late, credits late, or should never have put to
//! sleep shows up as a digest that differs — reported by
//! [`first_divergence`] or [`lockstep`] as a step and a component — or
//! as a differing stamp.

mod common;

use std::sync::{Arc, Mutex};

use common::{assert_engines_agree, cycles};
use raw_sim::*;
use raw_telemetry::{shared, with_sink, Recorder, SharedSink};

fn machine(engine: EngineMode) -> RawMachine {
    RawMachine::new(RawConfig {
        engine,
        ..RawConfig::default()
    })
}

fn forever(routes: Vec<Route>) -> SwitchProgram {
    SwitchProgram::new(vec![SwitchInstr::new(routes, SwitchCtrl::Jump(0))])
}

/// Tile states and switch stall causes as a `Recorder` saw them.
fn recorded(sink: &raw_telemetry::SharedSink, tiles: usize) -> Vec<u64> {
    with_sink::<Recorder, _>(sink, |r| {
        let mut v = Vec::new();
        for t in 0..tiles {
            v.extend(r.tile_state_counts(t));
            for net in 0..NUM_STATIC_NETS {
                v.extend(r.switch_stall_counts(t, net));
            }
        }
        v
    })
}

/// The same, read off the machine's own ledger.
fn ledger(m: &RawMachine) -> Vec<u64> {
    let mut v = Vec::new();
    for t in 0..m.dim().tiles() {
        v.extend(m.tile_states(TileId(t as u16)));
        for net in 0..NUM_STATIC_NETS {
            v.extend(m.switch_stalls(TileId(t as u16), net));
        }
    }
    v
}

/// Sends `words` into `$csto` as fast as it drains, stamping each send.
struct Sender {
    words: u32,
    sent_at: Arc<Mutex<Vec<u64>>>,
}

impl TileProgram for Sender {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        let mut sent = self.sent_at.lock().unwrap();
        if (sent.len() as u32) < self.words && io.send_static(sent.len() as u32) {
            sent.push(io.cycle);
        }
    }
}

/// `(cycle, word)` stamps shared with a boxed program.
type Stamps = Arc<Mutex<Vec<(u64, u32)>>>;

fn stamps(s: &Stamps) -> Vec<(u64, u32)> {
    s.lock().unwrap().clone()
}

/// Receives from static network 0 forever, stamping each word.
struct Receiver {
    got: Stamps,
}

impl TileProgram for Receiver {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        if let Some(w) = io.recv_static(NET0) {
            self.got.lock().unwrap().push((io.cycle, w));
        }
    }
}

/// A sender at tile 0 frozen until cycle 75 feeds a receiver at tile 4
/// that has been asleep, blocked on its empty `$csti`, since cycle 1.
fn late_sender(engine: EngineMode) -> (RawMachine, Stamps) {
    let mut m = machine(engine);
    let got = Arc::new(Mutex::new(Vec::new()));
    m.set_program(
        TileId(0),
        Box::new(Sender {
            words: 6,
            sent_at: Arc::default(),
        }),
    );
    m.set_program(
        TileId(4),
        Box::new(Receiver {
            got: Arc::clone(&got),
        }),
    );
    m.set_switch_program(
        TileId(0),
        NET0,
        forever(vec![Route::new(NET0, SwPort::Proc, SwPort::S)]),
    );
    m.set_switch_program(
        TileId(4),
        NET0,
        forever(vec![Route::new(NET0, SwPort::N, SwPort::Proc)]),
    );
    m.schedule_stall(TileId(0), 0, 75);
    (m, got)
}

/// A trace window opened while tiles are asleep and closed after one of
/// them woke records what the interpreter records, sample for sample
/// (the window is part of each tile's digest); and whatever chunks the
/// run is cut into, the machines agree after every chunk (a credit missed
/// at the end of a run entry would not), checked by [`lockstep`]. Step 1
/// runs 50 cycles and opens the window; every later step is one run call
/// of 1, 7 or 13 cycles.
#[test]
fn trace_window_straddling_a_wake_and_chunked_runs_match_the_interpreter() {
    let step = |(m, _): &mut (RawMachine, Stamps), i: u64| {
        if i == 0 {
            m.run(50);
            m.start_trace(60, 40);
        } else {
            m.run([1, 7, 13][(i as usize - 1) % 3]);
        }
    };
    let [mut reference, mut compiled] =
        [EngineMode::PerCycle, EngineMode::Compiled].map(late_sender);
    let found = lockstep(
        &mut reference,
        &mut compiled,
        step,
        |(m, _)| m.digests(),
        25,
    );
    assert_eq!(found, None, "(step, component) where the engines part");
    assert_eq!(stamps(&compiled.1), stamps(&reference.1));
    let (mut m, got) = reference;
    assert!(m.take_trace().expect("window open").is_complete());
    // The receiver's first word arrives inside the window [60, 100).
    let got = stamps(&got);
    let first = got.first().expect("words arrived").0;
    assert!((60..100).contains(&first), "first word at {first}");
    assert_eq!(got.len(), 6);
}

/// `run_until` and `step` are run entries too: a predicate reading the
/// counters of a sleeping tile must see them current every cycle. Step 1
/// runs until tile 4 has been blocked for 60 cycles, step 2 steps once.
#[test]
fn run_until_predicates_see_sleepers_credited() {
    let script = |(m, _): &mut (RawMachine, Stamps), n: u64| {
        if n > 0 {
            let hit = m.run_until(500, |m| {
                m.stats(TileId(4)).counts[Activity::BlockedRecv.index()] == 60
            });
            assert!(hit);
        }
        if n > 1 {
            m.step();
        }
    };
    let (m, _) = assert_engines_agree(late_sender, script, 2, stamps);
    assert_eq!(m.cycle(), 61, "tile 4 blocks from cycle 0");
}

/// A sink attached and detached mid-run, while tiles and switches are
/// asleep, changes nothing the engines agree on — the digests carry the
/// machine's ledger — and, detached, holds the machine's totals since
/// cycle 0 as of its detach. Tile 1's switch, asleep since cycle 6 on a
/// link nobody drains, is never woken by the attach: its fifo-full cause
/// is ledgered without a sink. Step 1 runs 40 cycles and attaches, step
/// 2 runs 90 and detaches, step 3 runs 30 more.
#[test]
fn telemetry_attached_to_a_sleeping_machine_matches_the_interpreter() {
    let build = |engine: EngineMode| {
        let (mut m, _got) = late_sender(engine);
        m.set_program(
            TileId(1),
            Box::new(Sender {
                words: 100,
                sent_at: Arc::default(),
            }),
        );
        m.set_switch_program(
            TileId(1),
            NET0,
            forever(vec![Route::new(NET0, SwPort::Proc, SwPort::S)]),
        );
        (m, shared(Recorder::new(16, NUM_STATIC_NETS)))
    };
    let script = |(m, sink): &mut (RawMachine, SharedSink), n: u64| {
        for (step, cycles) in [40, 90, 30].into_iter().enumerate().take(n as usize) {
            m.run(cycles);
            match step {
                0 => m.set_telemetry(sink.clone()),
                1 => {
                    assert!(m.take_telemetry().is_some());
                    assert_eq!(recorded(sink, 16), ledger(m), "the sink holds the ledger");
                }
                _ => {}
            }
        }
    };
    let (m, sink) = assert_engines_agree(build, script, 3, |sink| recorded(sink, 16));
    assert_eq!(m.cycle(), 160);
    with_sink::<Recorder, _>(&sink, |r| {
        assert_eq!(r.tile_total(4), 130);
        // Fifo-empty on cycle 0 (the first word is not yet visible), four
        // words fired, fifo-full from cycle 5 on.
        assert_eq!(r.switch_stall_counts(1, 0), [1, 125, 0]);
    });
    assert_eq!(
        m.switch_stalls(TileId(1), 0),
        [1, 155, 0],
        "the ledger ran on"
    );
}

/// `run_until_quiescent` is a run entry like the others: its report and
/// the counters behind it are current when it returns.
#[test]
fn run_until_quiescent_returns_with_sleepers_credited() {
    let script = |(m, _): &mut (RawMachine, Stamps), n: u64| {
        if n > 0 {
            let report = m.run_until_quiescent(64, 1_000);
            assert!(report.is_deadlock(), "the receiver starves: {report:?}");
        }
    };
    assert_engines_agree(late_sender, script, 1, stamps);
}

/// A receiver frozen by a stall window lets its `$csti` fill; the switch
/// feeding it sleeps on the full FIFO, and the processor's first pop
/// after the thaw is the only thing that can wake it.
#[test]
fn a_csti_pop_wakes_the_switch_blocked_on_it() {
    let build = |engine: EngineMode| {
        let mut m = machine(engine);
        let got = Arc::new(Mutex::new(Vec::new()));
        m.set_program(
            TileId(0),
            Box::new(Receiver {
                got: Arc::clone(&got),
            }),
        );
        m.set_switch_program(
            TileId(0),
            NET0,
            forever(vec![Route::new(NET0, SwPort::W, SwPort::Proc)]),
        );
        m.bind_device(
            EdgePort::new(TileId(0), Dir::West, NET0),
            Box::new(WordSource::new(0u32..20)),
        );
        m.schedule_stall(TileId(0), 0, 50);
        (m, got)
    };
    let (_, got) = assert_engines_agree(build, cycles, 120, stamps);
    assert_eq!(stamps(&got).len(), 20);
}

/// An edge device that offers nothing until cycle `from`, then a word
/// every cycle: the edge switch behind it has gone to sleep on the empty
/// link FIFO by then, and the injection is what has to wake it.
struct LateSource {
    from: u64,
    left: u32,
}

impl EdgeDevice for LateSource {
    fn pull_in(&mut self, cycle: u64) -> Option<u32> {
        if cycle < self.from || self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.left)
    }
}

#[test]
fn an_injected_word_wakes_the_edge_switch() {
    let build = |engine: EngineMode| {
        let mut m = machine(engine);
        for t in 0..4 {
            m.set_switch_program(
                TileId(t),
                NET0,
                forever(vec![Route::new(NET0, SwPort::W, SwPort::E)]),
            );
        }
        m.bind_device(
            EdgePort::new(TileId(0), Dir::West, NET0),
            Box::new(LateSource { from: 30, left: 8 }),
        );
        let (sink, out) = WordSink::new();
        m.bind_device(EdgePort::new(TileId(3), Dir::East, NET0), Box::new(sink));
        (m, out)
    };
    let (_, out) = assert_engines_agree(build, cycles, 80, stamps);
    let out = stamps(&out);
    assert_eq!(out.len(), 8);
    assert_eq!(out[0].0, 34, "four hops after cycle 30");
}

/// `$csto` is one FIFO read by both networks' switches. Tile 0 sends 12
/// words once its stall window ends; its net-0 switch forwards them east
/// into a sink that takes one word in three, its net-1 switch south into
/// a link nobody drains. Net 1 takes four words and then sleeps on the
/// full link — while net 0 keeps popping the front word out from under
/// it, until `$csto` runs dry and net 1's stall cause turns from
/// fifo-full to fifo-empty. Before the window ends both switches sleep
/// on the empty `$csto`, and the first push has to wake both.
#[test]
fn csto_shared_by_both_networks_switches_with_one_asleep() {
    let build = |engine: EngineMode| {
        let mut m = machine(engine);
        let sent_at = Arc::new(Mutex::new(Vec::new()));
        m.set_program(
            TileId(0),
            Box::new(Sender {
                words: 12,
                sent_at: Arc::clone(&sent_at),
            }),
        );
        m.set_switch_program(
            TileId(0),
            0,
            forever(vec![Route::new(0, SwPort::Proc, SwPort::N)]),
        );
        m.set_switch_program(
            TileId(0),
            1,
            forever(vec![Route::new(1, SwPort::Proc, SwPort::S)]),
        );
        let (sink, north) = WordSink::rate_limited(3);
        m.bind_device(EdgePort::new(TileId(0), Dir::North, 0), Box::new(sink));
        m.schedule_stall(TileId(0), 0, 20);
        let telemetry = shared(Recorder::new(16, NUM_STATIC_NETS));
        m.set_telemetry(telemetry.clone());
        (m, (sent_at, north, telemetry))
    };
    type Handles = (Arc<Mutex<Vec<u64>>>, Stamps, SharedSink);
    let read = |(sent_at, north, telemetry): &Handles| {
        let sent_at = sent_at.lock().unwrap().clone();
        (sent_at, stamps(north), recorded(telemetry, 16))
    };
    let (m, (_, north, telemetry)) = assert_engines_agree(build, cycles, 200, read);
    let south = m.link_occupancy(TileId(4), 1, Dir::North);
    assert_eq!(
        (south, stamps(&north).len()),
        (4, 8),
        "both switches took words"
    );
    let causes = with_sink::<Recorder, _>(&telemetry, |r| r.switch_stall_counts(0, 1));
    let [empty, full, _] = causes;
    assert!(
        full > 10 && empty > 100,
        "net 1 stalled both ways: {causes:?}"
    );
}

/// Sends dynamic-network messages to tile 5: per `(start, payload)`
/// entry a header and `payload` more words, no earlier than `start`.
struct DynSender {
    messages: Vec<(u64, u32)>,
    /// Words of the front message already sent.
    sent: u32,
    sent_at: Arc<Mutex<Vec<u64>>>,
}

impl TileProgram for DynSender {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        let Some(&(start, payload)) = self.messages.first() else {
            return;
        };
        if io.cycle < start {
            // Waiting on the clock is work as far as the machine knows.
            io.compute();
            return;
        }
        let word = if self.sent == 0 {
            pack_header(1, 1, payload, 0)
        } else {
            self.sent
        };
        if io.send_dyn(0, word) {
            self.sent_at.lock().unwrap().push(io.cycle);
            self.sent += 1;
            if self.sent > payload {
                self.messages.remove(0);
                self.sent = 0;
            }
        }
    }
}

/// Drains `$cdni` forever.
struct DynReceiver {
    got: Stamps,
}

impl TileProgram for DynReceiver {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        if let Some(w) = io.recv_dyn(0) {
            self.got.lock().unwrap().push((io.cycle, w));
        }
    }
}

/// The dynamic network's two wake edges. Tile 5 sleeps on its empty
/// `$cdni` until tile 0's first message — a lone header, so the cycle
/// after the delivery wakes it the word is still aging and nothing
/// further will arrive to wake it again — is delivered at cycle 40-odd.
/// Then tile 5 is frozen by a stall window while tile 0 keeps sending:
/// `$cdni`, the routers in between and finally tile 0's inject FIFO fill
/// up, tile 0 sleeps blocked on the send, and only the pop that follows
/// tile 5 thawing can wake it.
/// A step is a cycle; the stall window is scheduled after cycle 90.
#[test]
fn dynamic_network_delivery_and_inject_pop_wake_their_tiles() {
    let build = |engine: EngineMode| {
        let mut m = machine(engine);
        let sent_at = Arc::new(Mutex::new(Vec::new()));
        let got = Arc::new(Mutex::new(Vec::new()));
        m.set_program(
            TileId(0),
            Box::new(DynSender {
                messages: [(40, 0)].into_iter().chain([(100, 7); 6]).collect(),
                sent: 0,
                sent_at: Arc::clone(&sent_at),
            }),
        );
        m.set_program(
            TileId(5),
            Box::new(DynReceiver {
                got: Arc::clone(&got),
            }),
        );
        (m, (sent_at, got))
    };
    let script = |(m, _): &mut (RawMachine, _), n: u64| {
        m.run(n.min(90));
        if n > 90 {
            m.schedule_stall(TileId(5), 95, 200);
            m.run(n - 90);
        }
    };
    let read = |(sent_at, got): &(Arc<Mutex<Vec<u64>>>, Stamps)| {
        (sent_at.lock().unwrap().clone(), stamps(got))
    };
    let (m, handles) = assert_engines_agree(build, script, 590, read);
    let (sent_at, got) = read(&handles);
    assert_eq!((sent_at.len(), got.len()), (49, 49));
    assert!(
        (41..50).contains(&got[0].0),
        "first delivery at {}",
        got[0].0
    );
    // Tile 0 was blocked sending for most of tile 5's 200-cycle freeze...
    let blocked_send = m.stats(TileId(0)).counts[Activity::BlockedSend.index()];
    assert!(blocked_send > 150, "tile 0 blocked {blocked_send} cycles");
    // ...and resumed within a few cycles of the thaw at 295.
    assert!(sent_at.iter().any(|&c| (295..305).contains(&c)));
}

/// Steers tile 0's switch: waits for it to halt, then loads the one
/// routine's PC, `rounds` times over.
struct Steer {
    rounds: u32,
}

impl TileProgram for Steer {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        if self.rounds > 0 && io.switch_halted(NET0) {
            io.set_switch_pc(NET0, 1);
            self.rounds -= 1;
        }
    }
}

/// The switch-halt edge and the PC-load edge. The switch routine moves
/// two words from a drip-fed west edge to the east edge and halts; the
/// tile idles (asleep) while the routine runs and must wake when it
/// halts to load the PC again, and the halted switch (asleep) must wake
/// on that load — and never go back to sleep between the load and the
/// cycle after, when it takes effect.
#[test]
fn switch_halt_wakes_the_tile_and_a_pc_load_wakes_the_switch() {
    let build = |engine: EngineMode| {
        let mut m = machine(engine);
        m.set_program(TileId(0), Box::new(Steer { rounds: 5 }));
        let hop = || {
            SwitchInstr::new(
                vec![Route::new(NET0, SwPort::W, SwPort::E)],
                SwitchCtrl::Next,
            )
        };
        m.set_switch_program(
            TileId(0),
            NET0,
            SwitchProgram::new(vec![
                SwitchInstr::wait_pc(),
                hop(),
                hop(),
                SwitchInstr::wait_pc(),
            ]),
        );
        for t in 1..4 {
            m.set_switch_program(
                TileId(t),
                NET0,
                forever(vec![Route::new(NET0, SwPort::W, SwPort::E)]),
            );
        }
        m.bind_device(
            EdgePort::new(TileId(0), Dir::West, NET0),
            Box::new(WordSource::new(0u32..10)),
        );
        let (sink, out) = WordSink::rate_limited(9);
        m.bind_device(EdgePort::new(TileId(3), Dir::East, NET0), Box::new(sink));
        (m, out)
    };
    let (_, out) = assert_engines_agree(build, cycles, 400, stamps);
    assert_eq!(stamps(&out).len(), 10, "five rounds of two words");
}
