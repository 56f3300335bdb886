//! Property-based tests on the simulator's transport invariants: the
//! static network delivers every word exactly once, in order, regardless
//! of traffic pattern or sink backpressure, and the dynamic
//! network never loses or reorders a message's payload.

use proptest::prelude::*;
use raw_sim::*;

/// Build a straight west-to-east pass-through path along row 1 and push a
/// random word list through it with a randomly rate-limited sink.
fn run_passthrough(words: &[u32], sink_interval: u64) -> Vec<u32> {
    let mut m = RawMachine::new(RawConfig::default());
    for t in [4u16, 5, 6, 7] {
        m.set_switch_program(
            TileId(t),
            NET0,
            SwitchProgram::new(vec![SwitchInstr::new(
                vec![Route::new(NET0, SwPort::W, SwPort::E)],
                SwitchCtrl::Jump(0),
            )]),
        );
    }
    m.bind_device(
        EdgePort::new(TileId(4), Dir::West, NET0),
        Box::new(WordSource::new(words.to_vec())),
    );
    let (sink, handle) = WordSink::rate_limited(sink_interval);
    m.bind_device(EdgePort::new(TileId(7), Dir::East, NET0), Box::new(sink));
    let budget = 64 + words.len() as u64 * (sink_interval + 2);
    m.run(budget);
    let got = handle.lock().unwrap();
    got.iter().map(|&(_, w)| w).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once, in-order delivery through a 4-switch path under any
    /// backpressure.
    #[test]
    fn static_path_delivers_exactly_once_in_order(
        words in proptest::collection::vec(any::<u32>(), 0..80),
        sink_interval in 1u64..6,
    ) {
        let got = run_passthrough(&words, sink_interval);
        prop_assert_eq!(got, words);
    }

    /// Dynamic-network messages arrive complete and contiguous for random
    /// source/destination pairs.
    #[test]
    fn dynamic_messages_arrive_contiguously(
        src in 0u16..16,
        dst in 0u16..16,
        payload in proptest::collection::vec(any::<u32>(), 0..8),
    ) {
        let dim = GridDim::RAW_PROTOTYPE;
        let mut net = DynNet::new(dim);
        let (dr, dc) = dim.coords(TileId(dst));
        let h = pack_header(dr, dc, payload.len() as u32, 3);
        let mut to_send: std::collections::VecDeque<u32> =
            std::iter::once(h).chain(payload.iter().copied()).collect();
        let mut cycle = 0u64;
        let mut got = Vec::new();
        let deadline = 400u64;
        while got.len() < payload.len() + 1 && cycle < deadline {
            // Inject as fast as the inject FIFO accepts (like a tile
            // processor writing $cdno one word per cycle).
            if let Some(&w) = to_send.front() {
                if net.inject(TileId(src), w, cycle) {
                    to_send.pop_front();
                }
            }
            net.step(cycle, |_| {});
            cycle += 1;
            while let Some(w) = net.recv(TileId(dst), cycle, 0) {
                got.push(w);
            }
        }
        let mut want = vec![h];
        want.extend_from_slice(&payload);
        prop_assert_eq!(got, want);
    }
}
