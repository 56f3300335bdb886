//! End-to-end machine tests: network timing (Figure 3-2), streaming
//! bandwidth, flow control, multicast, switch PC loading, and deadlock
//! detection.

mod common;

use common::{assert_engines_agree, cycles};
use raw_sim::*;

/// A program that sends a fixed list of words, one per cycle, then idles,
/// recording the cycle each send retired.
struct Sender {
    words: Vec<u32>,
    next: usize,
    pub sent_at: Vec<u64>,
}

impl Sender {
    fn new(words: Vec<u32>) -> Sender {
        Sender {
            words,
            next: 0,
            sent_at: Vec::new(),
        }
    }
}

impl TileProgram for Sender {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        if self.next < self.words.len() && io.send_static(self.words[self.next]) {
            self.sent_at.push(io.cycle);
            self.next += 1;
        }
    }
    fn label(&self) -> &str {
        "sender"
    }
}

/// A program that receives `n` words from static net 0, recording cycles.
struct Receiver {
    want: usize,
    pub got: Vec<(u64, u32)>,
}

impl Receiver {
    fn new(want: usize) -> Receiver {
        Receiver {
            want,
            got: Vec::new(),
        }
    }
}

impl TileProgram for Receiver {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        if self.got.len() < self.want {
            if let Some(w) = io.recv_static(NET0) {
                self.got.push((io.cycle, w));
            }
        }
    }
    fn label(&self) -> &str {
        "receiver"
    }
}

/// Shared handles so tests can read results back out of boxed programs.
use std::sync::{Arc, Mutex};

struct SharedRecv {
    want: usize,
    got: Arc<Mutex<Vec<(u64, u32)>>>,
}

impl TileProgram for SharedRecv {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        let mut g = self.got.lock().unwrap();
        if g.len() < self.want {
            if let Some(w) = io.recv_static(NET0) {
                g.push((io.cycle, w));
            }
        }
    }
}

struct SharedSender {
    words: Vec<u32>,
    next: usize,
    sent_at: Arc<Mutex<Vec<u64>>>,
}

impl TileProgram for SharedSender {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        if self.next < self.words.len() && io.send_static(self.words[self.next]) {
            self.sent_at.lock().unwrap().push(io.cycle);
            self.next += 1;
        }
    }
}

fn route(net: NetId, src: SwPort, dst: SwPort) -> SwitchInstr {
    SwitchInstr::new(vec![Route::new(net, src, dst)], SwitchCtrl::Jump(0))
}

/// Figure 3-2: tile 0 sends to tile 4 (south). The send executes on cycle
/// k, the receive-and-use on cycle k+4 — five cycles total, three of them
/// network (send-to-use) latency.
#[test]
fn figure_3_2_five_cycle_send() {
    let mut m = RawMachine::new(RawConfig::default());
    let sent_at = Arc::new(Mutex::new(Vec::new()));
    let got = Arc::new(Mutex::new(Vec::new()));
    m.set_program(
        TileId(0),
        Box::new(SharedSender {
            words: vec![0xBEEF],
            next: 0,
            sent_at: Arc::clone(&sent_at),
        }),
    );
    m.set_program(
        TileId(4),
        Box::new(SharedRecv {
            want: 1,
            got: Arc::clone(&got),
        }),
    );
    m.set_switch_program(
        TileId(0),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::Proc, SwPort::S)]),
    );
    m.set_switch_program(
        TileId(4),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::N, SwPort::Proc)]),
    );
    m.run(20);
    let sent = sent_at.lock().unwrap()[0];
    let (recv, word) = got.lock().unwrap()[0];
    assert_eq!(word, 0xBEEF);
    assert_eq!(
        recv - sent,
        4,
        "or at cycle k, and at cycle k+4: 5 cycles inclusive (Figure 3-2)"
    );
}

/// Steady-state streaming moves one word per cycle per link.
#[test]
fn streaming_is_one_word_per_cycle() {
    let mut m = RawMachine::new(RawConfig::default());
    let n = 64usize;
    let sent_at = Arc::new(Mutex::new(Vec::new()));
    let got = Arc::new(Mutex::new(Vec::new()));
    m.set_program(
        TileId(0),
        Box::new(SharedSender {
            words: (0..n as u32).collect(),
            next: 0,
            sent_at: Arc::clone(&sent_at),
        }),
    );
    m.set_program(
        TileId(4),
        Box::new(SharedRecv {
            want: n,
            got: Arc::clone(&got),
        }),
    );
    m.set_switch_program(
        TileId(0),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::Proc, SwPort::S)]),
    );
    m.set_switch_program(
        TileId(4),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::N, SwPort::Proc)]),
    );
    m.run(200);
    let got = got.lock().unwrap();
    assert_eq!(got.len(), n);
    // In-order delivery.
    for (i, (_, w)) in got.iter().enumerate() {
        assert_eq!(*w, i as u32);
    }
    // Steady state: consecutive receives one cycle apart.
    let cycles: Vec<u64> = got.iter().map(|(c, _)| *c).collect();
    for pair in cycles.windows(2) {
        assert_eq!(pair[1] - pair[0], 1, "streaming must sustain 1 word/cycle");
    }
}

/// Multi-hop path across the crossbar ring tiles: 4 -> 5 -> 6 -> 2.
#[test]
fn multi_hop_route_delivers_in_order() {
    let mut m = RawMachine::new(RawConfig::default());
    let sent_at = Arc::new(Mutex::new(Vec::new()));
    let got = Arc::new(Mutex::new(Vec::new()));
    m.set_program(
        TileId(4),
        Box::new(SharedSender {
            words: vec![10, 11, 12],
            next: 0,
            sent_at: Arc::clone(&sent_at),
        }),
    );
    m.set_program(
        TileId(2),
        Box::new(SharedRecv {
            want: 3,
            got: Arc::clone(&got),
        }),
    );
    m.set_switch_program(
        TileId(4),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::Proc, SwPort::E)]),
    );
    m.set_switch_program(
        TileId(5),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::W, SwPort::E)]),
    );
    m.set_switch_program(
        TileId(6),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::W, SwPort::N)]),
    );
    m.set_switch_program(
        TileId(2),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::S, SwPort::Proc)]),
    );
    m.run(50);
    let got = got.lock().unwrap();
    assert_eq!(
        got.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
        vec![10, 11, 12]
    );
}

/// Edge-to-edge streaming through devices: line card in (west of tile 4),
/// through the tile-4 switch, line card out. The tile processor is not
/// involved: the switch routes W->E autonomously.
#[test]
fn device_to_device_through_switches() {
    let mut m = RawMachine::new(RawConfig::default());
    let in_port = EdgePort::new(TileId(4), Dir::West, NET0);
    let out_port = EdgePort::new(TileId(7), Dir::East, NET0);
    m.bind_device(in_port, Box::new(WordSource::new(0..32u32)));
    let (sink, handle) = WordSink::new();
    m.bind_device(out_port, Box::new(sink));
    for t in [4u16, 5, 6, 7] {
        m.set_switch_program(
            TileId(t),
            NET0,
            SwitchProgram::new(vec![route(NET0, SwPort::W, SwPort::E)]),
        );
    }
    m.run(100);
    let got = handle.lock().unwrap();
    assert_eq!(got.len(), 32);
    assert_eq!(
        got.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
        (0..32u32).collect::<Vec<_>>()
    );
    // Steady-state rate is one word per cycle.
    let mid = &got[8..24];
    for pair in mid.windows(2) {
        assert_eq!(pair[1].0 - pair[0].0, 1);
    }
}

/// A rate-limited sink backpressures the whole path without losing words.
#[test]
fn backpressure_propagates_without_loss() {
    let mut m = RawMachine::new(RawConfig::default());
    // Words enter tile 4 from the west on net0, bounce through the tile-4
    // processor, and leave west again on net1 (both west links of tile 4
    // are chip edges) into a rate-limited sink.
    let in_port = EdgePort::new(TileId(4), Dir::West, NET0);
    let out_port = EdgePort::new(TileId(4), Dir::West, NET1);
    m.bind_device(in_port, Box::new(WordSource::new(0..24u32)));
    let (sink, handle) = WordSink::rate_limited(5);
    m.bind_device(out_port, Box::new(sink));
    struct Forward;
    impl TileProgram for Forward {
        fn tick(&mut self, io: &mut TileIo<'_>) {
            let _ = io.recv_send(NET0);
        }
    }
    m.set_program(TileId(4), Box::new(Forward));
    m.set_switch_program(
        TileId(4),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::W, SwPort::Proc)]),
    );
    m.set_switch_program(
        TileId(4),
        NET1,
        SwitchProgram::new(vec![route(NET1, SwPort::Proc, SwPort::W)]),
    );
    m.run(400);
    let got = handle.lock().unwrap();
    assert_eq!(got.len(), 24, "no words may be lost under backpressure");
    // Delivery honors the 1-in-5-cycles limit.
    for pair in got.windows(2) {
        assert!(pair[1].0 - pair[0].0 >= 5);
    }
    // In order.
    for (i, &(_, w)) in got.iter().enumerate() {
        assert_eq!(w, i as u32);
    }
}

/// Multicast: one source word duplicated to two destinations by a single
/// switch instruction (the §8.6 mechanism).
#[test]
fn switch_multicast_duplicates_words() {
    let mut m = RawMachine::new(RawConfig::default());
    let sent_at = Arc::new(Mutex::new(Vec::new()));
    m.set_program(
        TileId(5),
        Box::new(SharedSender {
            words: vec![71, 72],
            next: 0,
            sent_at,
        }),
    );
    let got_a = Arc::new(Mutex::new(Vec::new()));
    let got_b = Arc::new(Mutex::new(Vec::new()));
    m.set_program(
        TileId(1),
        Box::new(SharedRecv {
            want: 2,
            got: Arc::clone(&got_a),
        }),
    );
    m.set_program(
        TileId(6),
        Box::new(SharedRecv {
            want: 2,
            got: Arc::clone(&got_b),
        }),
    );
    m.set_switch_program(
        TileId(5),
        NET0,
        SwitchProgram::new(vec![SwitchInstr::new(
            vec![
                Route::new(NET0, SwPort::Proc, SwPort::N),
                Route::new(NET0, SwPort::Proc, SwPort::E),
            ],
            SwitchCtrl::Jump(0),
        )]),
    );
    m.set_switch_program(
        TileId(1),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::S, SwPort::Proc)]),
    );
    m.set_switch_program(
        TileId(6),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::W, SwPort::Proc)]),
    );
    m.run(30);
    assert_eq!(
        got_a
            .lock()
            .unwrap()
            .iter()
            .map(|&(_, w)| w)
            .collect::<Vec<_>>(),
        vec![71, 72]
    );
    assert_eq!(
        got_b
            .lock()
            .unwrap()
            .iter()
            .map(|&(_, w)| w)
            .collect::<Vec<_>>(),
        vec![71, 72]
    );
}

/// One switch instruction holds two independent routes that cross at a
/// tile, and each sustains one word per cycle, on both engines. Tile 5's
/// one instruction routes W->E and S->N: edge words enter west of tile 4
/// and leave east of tile 7 (4 -> 5 -> 6 -> 7), and enter west of tile 8
/// and leave north of tile 1 (8 -> 9, turned north, -> 5 -> 1).
#[test]
fn one_instruction_streams_two_crossing_routes_at_line_rate() {
    let build = |engine: EngineMode| {
        let mut m = RawMachine::new(RawConfig {
            engine,
            ..RawConfig::default()
        });
        m.set_switch_program(
            TileId(5),
            NET0,
            SwitchProgram::new(vec![SwitchInstr::new(
                vec![
                    Route::new(NET0, SwPort::W, SwPort::E),
                    Route::new(NET0, SwPort::S, SwPort::N),
                ],
                SwitchCtrl::Jump(0),
            )]),
        );
        for (t, src, dst) in [
            (4, SwPort::W, SwPort::E),
            (6, SwPort::W, SwPort::E),
            (7, SwPort::W, SwPort::E),
            (8, SwPort::W, SwPort::E),
            (9, SwPort::W, SwPort::N),
            (1, SwPort::S, SwPort::N),
        ] {
            m.set_switch_program(
                TileId(t),
                NET0,
                SwitchProgram::new(vec![route(NET0, src, dst)]),
            );
        }
        for (t, words) in [(4, 0..200u32), (8, 1000..1200u32)] {
            m.bind_device(
                EdgePort::new(TileId(t), Dir::West, NET0),
                Box::new(WordSource::new(words)),
            );
        }
        let (east, got_east) = WordSink::new();
        m.bind_device(EdgePort::new(TileId(7), Dir::East, NET0), Box::new(east));
        let (north, got_north) = WordSink::new();
        m.bind_device(EdgePort::new(TileId(1), Dir::North, NET0), Box::new(north));
        (m, [got_east, got_north])
    };
    let read = |got: &[SinkHandle; 2]| got.each_ref().map(|h| h.lock().unwrap().clone());
    let (_, got) = assert_engines_agree(build, cycles, 400, read);
    for (got, words) in read(&got).into_iter().zip([0..200u32, 1000..1200u32]) {
        assert_eq!(
            got.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
            words.collect::<Vec<_>>()
        );
        // Past the first word: the instruction retires once both its
        // routes have fired, and the first north word, one hop further
        // out, comes a cycle after the first east word.
        for pair in got[1..].windows(2) {
            assert_eq!(pair[1].0 - pair[0].0, 1, "each route sustains 1 word/cycle");
        }
    }
}

/// The tile processor can steer its switch through `WaitPc`, the jump-table
/// mechanism of §6.5.
#[test]
fn processor_loads_switch_pc() {
    let mut m = RawMachine::new(RawConfig::default());
    // Switch program: [0] wait, [1] route one word W->Proc then wait again,
    // [3] route one word N->Proc then wait.
    let prog = SwitchProgram::new(vec![
        SwitchInstr::wait_pc(),
        SwitchInstr::new(
            vec![Route::new(NET0, SwPort::W, SwPort::Proc)],
            SwitchCtrl::Next,
        ),
        SwitchInstr::wait_pc(),
        SwitchInstr::new(
            vec![Route::new(NET0, SwPort::N, SwPort::Proc)],
            SwitchCtrl::Next,
        ),
        SwitchInstr::wait_pc(),
    ]);
    m.set_switch_program(TileId(5), NET0, prog);
    // Feed words toward tile 5 from west (tile 4) and north (tile 1).
    m.set_switch_program(
        TileId(4),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::W, SwPort::E)]),
    );
    m.set_switch_program(
        TileId(1),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::N, SwPort::S)]),
    );
    m.bind_device(
        EdgePort::new(TileId(4), Dir::West, NET0),
        Box::new(WordSource::new([111u32])),
    );
    m.bind_device(
        EdgePort::new(TileId(1), Dir::North, NET0),
        Box::new(WordSource::new([222u32])),
    );

    // The program: pick west first, then north, by steering the switch.
    struct Steer {
        state: u8,
        got: Arc<Mutex<Vec<u32>>>,
    }
    impl TileProgram for Steer {
        fn tick(&mut self, io: &mut TileIo<'_>) {
            match self.state {
                0 => {
                    io.set_switch_pc(NET0, 1);
                    self.state = 1;
                }
                1 => {
                    if let Some(w) = io.recv_static(NET0) {
                        self.got.lock().unwrap().push(w);
                        self.state = 2;
                    }
                }
                2 => {
                    if io.switch_halted(NET0) {
                        io.set_switch_pc(NET0, 3);
                        self.state = 3;
                    } else {
                        io.idle();
                    }
                }
                3 => {
                    if let Some(w) = io.recv_static(NET0) {
                        self.got.lock().unwrap().push(w);
                        self.state = 4;
                    }
                }
                _ => {}
            }
        }
    }
    let got = Arc::new(Mutex::new(Vec::new()));
    m.set_program(
        TileId(5),
        Box::new(Steer {
            state: 0,
            got: Arc::clone(&got),
        }),
    );
    m.run(60);
    assert_eq!(*got.lock().unwrap(), vec![111, 222]);
}

/// A switch instruction's routes all complete before it advances: with a
/// never-ready sink, the instruction stalls and upstream fills up.
#[test]
fn blocked_path_is_detected_as_deadlock_like() {
    struct NeverReady;
    impl EdgeDevice for NeverReady {
        fn can_push(&self, _c: u64) -> bool {
            false
        }
    }

    struct Flood;
    impl TileProgram for Flood {
        fn tick(&mut self, io: &mut TileIo<'_>) {
            let _ = io.send_static(1);
        }
    }

    let mut m = RawMachine::new(RawConfig::default());
    m.set_program(TileId(0), Box::new(Flood));
    m.set_switch_program(
        TileId(0),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::Proc, SwPort::N)]),
    );
    m.bind_device(
        EdgePort::new(TileId(0), Dir::North, NET0),
        Box::new(NeverReady),
    );
    let report = m.run_until_quiescent(16, 10_000);
    assert!(
        report.quiescent,
        "the machine must go quiet once FIFOs fill"
    );
    assert!(report.is_deadlock(), "a blocked sender must be reported");
    assert!(report.blocked_tiles.contains(&TileId(0)));
}

/// Unbound edge ports drop (and count) words rather than wedging the chip.
#[test]
fn unbound_edge_drops_words() {
    struct Flood;
    impl TileProgram for Flood {
        fn tick(&mut self, io: &mut TileIo<'_>) {
            let _ = io.send_static(9);
        }
    }
    let mut m = RawMachine::new(RawConfig::default());
    m.set_program(TileId(0), Box::new(Flood));
    m.set_switch_program(
        TileId(0),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::Proc, SwPort::N)]),
    );
    m.run(50);
    assert!(m.edge_drops > 30);
}

/// Utilization statistics classify cycles the way Figure 7-3 does.
#[test]
fn stats_classify_blocked_and_busy() {
    let mut m = RawMachine::new(RawConfig::default());
    struct RecvForever;
    impl TileProgram for RecvForever {
        fn tick(&mut self, io: &mut TileIo<'_>) {
            let _ = io.recv_static(NET0);
        }
    }
    m.set_program(TileId(3), Box::new(RecvForever));
    m.run(40);
    let s = m.stats(TileId(3));
    assert_eq!(s.blocked(), 40, "a receiver with no data is always blocked");
    assert_eq!(m.stats(TileId(2)).counts[Activity::Idle.index()], 40);
}

/// Cache misses stall the processor for the miss latency and show up as
/// CacheStall cycles.
#[test]
fn cache_miss_stalls_processor() {
    let mut m = RawMachine::new(RawConfig::default());
    struct Loader {
        done: Arc<Mutex<Vec<u64>>>,
    }
    impl TileProgram for Loader {
        fn tick(&mut self, io: &mut TileIo<'_>) {
            let mut d = self.done.lock().unwrap();
            if d.len() < 2 && io.load(0).is_some() {
                d.push(io.cycle);
            }
        }
    }
    let done = Arc::new(Mutex::new(Vec::new()));
    m.set_program(
        TileId(0),
        Box::new(Loader {
            done: Arc::clone(&done),
        }),
    );
    m.run(40);
    let d = done.lock().unwrap();
    assert_eq!(d.len(), 2);
    // First load misses: issued at cycle 0, stalls 30, completes at 30.
    assert_eq!(d[0], 30);
    // Second load hits immediately on the next cycle.
    assert_eq!(d[1], 31);
    let s = m.stats(TileId(0));
    // Miss issued at cycle 0 (CacheStall), stalled through cycle 29, so 30
    // CacheStall cycles; the retry at cycle 30 hits and retires.
    assert_eq!(s.counts[Activity::CacheStall.index()], 30);
}

// Keep the unused non-shared Sender/Receiver types exercised so the file
// stays warning-free if tests above migrate to the shared variants.
#[test]
fn plain_sender_receiver_compile_and_run() {
    let mut m = RawMachine::new(RawConfig::default());
    m.set_program(TileId(0), Box::new(Sender::new(vec![1])));
    m.set_program(TileId(4), Box::new(Receiver::new(1)));
    m.set_switch_program(
        TileId(0),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::Proc, SwPort::S)]),
    );
    m.set_switch_program(
        TileId(4),
        NET0,
        SwitchProgram::new(vec![route(NET0, SwPort::N, SwPort::Proc)]),
    );
    m.run(10);
    assert!(m.stats(TileId(0)).busy() >= 1);
}

/// `run_until` predicates observe the machine after each cycle.
#[test]
fn run_until_stops_at_predicate() {
    let mut m = RawMachine::new(RawConfig::default());
    struct Count;
    impl TileProgram for Count {
        fn tick(&mut self, io: &mut TileIo<'_>) {
            io.compute();
        }
    }
    m.set_program(TileId(0), Box::new(Count));
    let hit = m.run_until(1000, |m| m.stats(TileId(0)).busy() >= 10);
    assert!(hit);
    assert_eq!(m.cycle(), 10);
}

/// The simulator scales beyond the 4x4 prototype ("fabrics of up to
/// 1,024 tiles", §3.1): stream across an 8x8 grid at one word per cycle.
#[test]
fn larger_grids_stream_at_line_rate() {
    let dim = GridDim::new(8, 8);
    let mut m = RawMachine::new(RawConfig {
        dim,
        ..RawConfig::default()
    });
    // A straight west-east path along row 3.
    for c in 0..8 {
        m.set_switch_program(
            dim.tile(3, c),
            NET0,
            SwitchProgram::new(vec![route(NET0, SwPort::W, SwPort::E)]),
        );
    }
    m.bind_device(
        EdgePort::new(dim.tile(3, 0), Dir::West, NET0),
        Box::new(WordSource::new(0..64u32)),
    );
    let (sink, handle) = WordSink::new();
    m.bind_device(
        EdgePort::new(dim.tile(3, 7), Dir::East, NET0),
        Box::new(sink),
    );
    m.run(200);
    let got = handle.lock().unwrap();
    assert_eq!(got.len(), 64);
    let mid = &got[16..48];
    for pair in mid.windows(2) {
        assert_eq!(pair[1].0 - pair[0].0, 1, "line rate across 8 hops");
    }
}

/// A tile's program comes back out of the machine by its concrete type,
/// and only by that type.
#[test]
fn program_ref_and_program_mut_downcast_by_type() {
    let mut m = RawMachine::new(RawConfig::default());
    m.set_program(TileId(3), Box::new(Sender::new(vec![7, 8])));
    assert_eq!(m.program_ref::<Sender>(TileId(3)).unwrap().words, [7, 8]);
    assert!(m.program_ref::<Receiver>(TileId(3)).is_none(), "wrong type");
    assert!(m.program_mut::<Receiver>(TileId(3)).is_none(), "wrong type");
    assert!(m.program_ref::<Sender>(TileId(0)).is_none(), "idle stub");
    assert!(m.program_ref::<IdleProgram>(TileId(0)).is_some());

    m.program_mut::<Sender>(TileId(3)).unwrap().words.push(9);
    m.run(10);
    let sender = m.program_ref::<Sender>(TileId(3)).unwrap();
    assert_eq!(sender.sent_at, [0, 1, 2], "the pushed word was sent too");
}

/// A mutation applied mid-run. The first three drop the lowered form,
/// and each one *changes what the machine does next* to a tile or switch
/// that is asleep when it lands (row 1 and everything downstream of the
/// frozen sender has been stalled on empty FIFOs for 20 cycles), so a
/// compiled engine that kept stepping the stale form, or left the
/// sleeper asleep, would diverge from the interpreter.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    None,
    /// The sender moves: tile 0's is replaced by `IdleProgram`, and tile
    /// 4 — the idle stub until now — gets one.
    SetProgram,
    /// The row-0 pipe's last hop is re-pointed from the east edge to the
    /// processor nobody drains, and tile 12's switch — halted, nothing
    /// near it will ever move — gets a `nop` and then a route to starve
    /// on.
    SetSwitchProgram,
    /// A rate-limited sink is bound onto the edge the row-0 pipe was
    /// dropping words off.
    BindDevice,
    /// Tile 8, blocked on an empty `$csti` since cycle 0, is frozen for
    /// 20 cycles.
    ScheduleStall,
    /// The same tile frozen for `u64::MAX` cycles: it never runs again.
    StallForever,
    /// The same tile's program is reached through `program_mut` and told
    /// to stop receiving: its next tick is idle, not a blocked receive.
    ProgramMut,
}

const MUTATIONS: [Mutation; 7] = [
    Mutation::None,
    Mutation::SetProgram,
    Mutation::SetSwitchProgram,
    Mutation::BindDevice,
    Mutation::ScheduleStall,
    Mutation::StallForever,
    Mutation::ProgramMut,
];

/// Sends stamped by the sender tile, deliveries stamped by the sink the
/// `BindDevice` row binds (which sits here, unbound, until it does).
type Handles = (Arc<Mutex<Vec<u64>>>, SinkHandle, Option<WordSink>);

/// Two processor-to-east-edge pipes along rows 0 and 1 (row 1's sender
/// tile starts as the idle stub), tile 0 frozen by two overlapping stall
/// windows.
fn mutation_machine(engine: EngineMode) -> (RawMachine, Handles) {
    let mut m = RawMachine::new(RawConfig {
        engine,
        ..RawConfig::default()
    });
    let sent_at = Arc::new(Mutex::new(Vec::new()));
    m.set_program(TileId(0), sender(&sent_at));
    m.set_program(
        TileId(8),
        Box::new(SharedRecv {
            want: 1,
            got: Arc::default(),
        }),
    );
    for t in 0..8 {
        let src = if t % 4 == 0 { SwPort::Proc } else { SwPort::W };
        m.set_switch_program(
            TileId(t),
            NET0,
            SwitchProgram::new(vec![route(NET0, src, SwPort::E)]),
        );
    }
    m.schedule_stall(TileId(0), 3, 40);
    m.schedule_stall(TileId(0), 20, 10); // overlapping: merges
    assert_eq!(m.pending_stall_windows(TileId(0)), 2);
    let (sink, delivered) = WordSink::rate_limited(4);
    (m, (sent_at, delivered, Some(sink)))
}

/// A sender of 24 words stamping into `sent_at`.
fn sender(sent_at: &Arc<Mutex<Vec<u64>>>) -> Box<SharedSender> {
    Box::new(SharedSender {
        words: (0..24).collect(),
        next: 0,
        sent_at: Arc::clone(sent_at),
    })
}

/// Apply `mutation` to the machine after cycle `before`.
fn mutate((m, (sent_at, _, sink)): &mut (RawMachine, Handles), mutation: Mutation, before: u64) {
    match mutation {
        Mutation::None => {}
        Mutation::SetProgram => {
            m.set_program(TileId(0), Box::new(IdleProgram));
            m.set_program(TileId(4), sender(sent_at));
        }
        Mutation::SetSwitchProgram => {
            m.set_switch_program(
                TileId(3),
                NET0,
                SwitchProgram::new(vec![route(NET0, SwPort::W, SwPort::Proc)]),
            );
            m.set_switch_program(
                TileId(12),
                NET0,
                SwitchProgram::new(vec![
                    SwitchInstr::nop(),
                    SwitchInstr::new(
                        vec![Route::new(NET0, SwPort::W, SwPort::E)],
                        SwitchCtrl::Jump(1),
                    ),
                ]),
            );
        }
        Mutation::BindDevice => m.bind_device(
            EdgePort::new(TileId(3), Dir::East, NET0),
            Box::new(sink.take().expect("bound once")),
        ),
        Mutation::ScheduleStall => m.schedule_stall(TileId(8), before + 5, 20),
        Mutation::StallForever => m.schedule_stall(TileId(8), before + 5, u64::MAX),
        Mutation::ProgramMut => m.program_mut::<SharedRecv>(TileId(8)).unwrap().want = 0,
    }
}

/// Fault injection: a scheduled stall window freezes the tile processor
/// for exactly its span and the frozen cycles are accounted as cache
/// stalls. And the stale-plan rows: whichever structural mutator hits the
/// machine mid-run (inside the window, after cycle 30), the compiled
/// engine re-lowers and stays bit-for-bit with the interpreter. A step
/// is a cycle.
#[test]
fn stall_windows_and_mid_run_mutations_never_diverge() {
    const BEFORE: u64 = 30;
    for mutation in MUTATIONS {
        let script = |side: &mut (RawMachine, Handles), n: u64| {
            side.0.run(n.min(BEFORE));
            if n > BEFORE {
                mutate(side, mutation, BEFORE);
                side.0.run(n - BEFORE);
            }
        };
        let read = |(sent_at, delivered, _): &Handles| {
            let sends = sent_at.lock().unwrap().clone();
            (sends, delivered.lock().unwrap().clone())
        };
        let (m, handles) = assert_engines_agree(mutation_machine, script, BEFORE + 170, read);
        assert_eq!(m.pending_stall_windows(TileId(0)), 0);
        let (sends, delivered) = read(&handles);
        let tile8 = m.stats(TileId(8)).counts;
        match mutation {
            Mutation::None => {
                // Sends resume only after the window [3, 43) expires.
                assert!(sends.iter().skip(3).all(|&c| c >= 43), "sends {sends:?}");
                let tile0 = m.stats(TileId(0)).counts;
                assert_eq!(tile0[Activity::CacheStall.index()], 40);
            }
            // Each mutation visibly took effect on the reference.
            Mutation::SetProgram => assert_eq!(sends.len(), 3 + 24),
            Mutation::SetSwitchProgram => {
                assert!(m.edge_drops < 24, "drops {}", m.edge_drops);
                assert_eq!(
                    m.switch_stall_cycles(TileId(12)),
                    169,
                    "tile 12 switch stalls"
                );
            }
            Mutation::BindDevice => assert_eq!(delivered.len(), 21),
            Mutation::ScheduleStall => {
                assert_eq!(tile8[Activity::CacheStall.index()], 20);
                assert_eq!(tile8[Activity::BlockedRecv.index()], 180);
            }
            Mutation::StallForever => {
                assert_eq!(tile8[Activity::CacheStall.index()], 165);
                assert_eq!(tile8[Activity::BlockedRecv.index()], 35);
            }
            Mutation::ProgramMut => {
                assert_eq!(tile8[Activity::BlockedRecv.index()], 30);
                assert_eq!(tile8[Activity::Idle.index()], 170);
            }
        }
    }
}

/// The quiet-machine row of the engine differential: the fast engine on a
/// throttled drip-feed pipe (quiet most cycles) and a fully idle chip
/// (quiet every cycle) in the default configuration reaches exactly the
/// per-cycle result: delivery cycle stamps, and every digest. Every cycle
/// is stepped; sleep, not a skip, covers the quiet ones — the stalled
/// switches and idle tiles leave the sweep and their cycles are credited
/// in bulk.
#[test]
fn default_engine_matches_per_cycle_on_quiet_machines() {
    assert_eq!(RawConfig::default().engine, EngineMode::Compiled);
    let drip = |engine: EngineMode| {
        let mut m = RawMachine::new(RawConfig {
            engine,
            ..RawConfig::default()
        });
        for t in 0..4 {
            m.set_switch_program(
                TileId(t),
                NET0,
                SwitchProgram::new(vec![
                    SwitchInstr::nop(),
                    SwitchInstr::new(
                        vec![Route::new(NET0, SwPort::W, SwPort::E)],
                        SwitchCtrl::Jump(1),
                    ),
                ]),
            );
        }
        m.bind_device(
            EdgePort::new(TileId(0), Dir::West, NET0),
            Box::new(WordSource::new(0u32..64)),
        );
        let (sink, got) = WordSink::rate_limited(48);
        m.bind_device(EdgePort::new(TileId(3), Dir::East, NET0), Box::new(sink));
        (m, got)
    };
    let read = |got: &SinkHandle| got.lock().unwrap().clone();
    let (_, got) = assert_engines_agree(drip, cycles, 4_000, read);
    assert_eq!(read(&got).len(), 64);

    let idle = |engine: EngineMode| {
        let m = RawMachine::new(RawConfig {
            engine,
            ..RawConfig::default()
        });
        (m, ())
    };
    assert_engines_agree(idle, cycles, 50_000, |_| ());
}
