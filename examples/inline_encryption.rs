//! Computation in the communication interconnect (§8.3 / thesis goal 3).
//!
//! "The addition of computation to the switch fabric removes the
//! difficulty of bringing data near to a computational resource that is
//! able to compute on it." On Raw this is nearly free: a tile ALU
//! instruction can read `$csti` and write `$csto`, so a tile *inside the
//! data path* transforms a stream at the full one-word-per-cycle link
//! rate. This example builds a three-tile pipeline — source → XOR
//! "encryption" tile → sink — and shows the transform costs zero extra
//! cycles per word, then does the same from actual Raw assembly.
//!
//! ```text
//! cargo run --release --example inline_encryption
//! ```

use raw_router::isa::{assemble_switch, IsaCore, Reg};
use raw_router::sim::*;

const KEY: u32 = 0xA5A5_5A5A;

/// The XOR tile's switch program, software-pipelined: a three-word
/// prologue fills the processor's pipeline so that, in steady state, the
/// combined instruction's two routes (word in, transformed word out) both
/// fire every cycle — the same expansion-number discipline the Rotating
/// Crossbar's generated schedules use (§6.2).
fn xor_switch() -> SwitchProgram {
    assemble_switch(
        "route $cWi->$csti\n\
         route $cWi->$csti\n\
         route $cWi->$csti\n\
         l: route $cWi->$csti, $csto->$cEo ; j l",
    )
    .unwrap()
}

/// A native tile program encrypting a stream with one-cycle
/// receive-transform-send operations.
struct XorTile;

impl TileProgram for XorTile {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        let _ = io.recv_op_send(NET0, |w| w ^ KEY);
    }
    fn label(&self) -> &str {
        "xor"
    }
}

fn run_native(n: usize) -> (Vec<u32>, f64) {
    let mut m = RawMachine::new(RawConfig::default());
    // Stream: west edge of tile 4 -> tile 4 switch -> tile 5 proc (XOR)
    // -> tile 6 -> east edge of tile 7.
    // Three trailing flush words push the pipelined tail through.
    m.bind_device(
        EdgePort::new(TileId(4), Dir::West, NET0),
        Box::new(WordSource::new(
            (0..n as u32 + 3).map(|i| i.wrapping_mul(2654435761)),
        )),
    );
    let (sink, handle) = WordSink::new();
    m.bind_device(EdgePort::new(TileId(7), Dir::East, NET0), Box::new(sink));
    m.set_switch_program(
        TileId(4),
        NET0,
        assemble_switch("l: route $cWi->$cEo ; j l").unwrap(),
    );
    m.set_switch_program(TileId(5), NET0, xor_switch());
    m.set_program(TileId(5), Box::new(XorTile));
    m.set_switch_program(
        TileId(6),
        NET0,
        assemble_switch("l: route $cWi->$cEo ; j l").unwrap(),
    );
    m.set_switch_program(
        TileId(7),
        NET0,
        assemble_switch("l: route $cWi->$cEo ; j l").unwrap(),
    );
    m.run(2 * n as u64 + 200);
    let got = handle.lock().unwrap();
    let words: Vec<u32> = got.iter().map(|&(_, w)| w).collect();
    // Steady-state rate over the middle of the stream.
    let mid = &got[n / 4..3 * n / 4];
    let rate = (mid.last().unwrap().0 - mid[0].0) as f64 / (mid.len() - 1) as f64;
    (words, rate)
}

fn main() {
    let n = 512usize;
    let (words, rate) = run_native(n);
    assert!(
        words.len() >= n,
        "only {} of {n} words delivered",
        words.len()
    );
    for (i, w) in words.iter().take(n).enumerate() {
        assert_eq!(*w, (i as u32).wrapping_mul(2654435761) ^ KEY);
    }
    assert!(
        rate < 1.05,
        "in-fabric transform must run at line rate, got {rate:.2}"
    );
    println!(
        "native pipeline: {n} words encrypted in-fabric at {rate:.2} cycles/word \
         (line rate is 1.0)"
    );

    // The same transform as genuine Raw assembly: xor $csto, $csti, $key
    // unrolled — one instruction per word.
    let mut m = RawMachine::new(RawConfig::default());
    m.bind_device(
        EdgePort::new(TileId(4), Dir::West, NET0),
        Box::new(WordSource::new([11u32, 22, 33, 44, 0, 0, 0])), // + pipeline flush
    );
    let (sink, handle) = WordSink::new();
    m.bind_device(EdgePort::new(TileId(7), Dir::East, NET0), Box::new(sink));
    for t in [4u16, 6, 7] {
        m.set_switch_program(
            TileId(t),
            NET0,
            assemble_switch("l: route $cWi->$cEo ; j l").unwrap(),
        );
    }
    m.set_switch_program(TileId(5), NET0, xor_switch());
    let mut asm = String::new();
    for _ in 0..4 {
        asm.push_str("xor $csto, $csti, $s0\n");
    }
    asm.push_str("halt\n");
    let mut core = IsaCore::from_asm(&asm).unwrap();
    core.set_reg(Reg(16), KEY);
    m.set_program(TileId(5), Box::new(core));
    m.run(100);
    let got: Vec<u32> = handle.lock().unwrap().iter().map(|&(_, w)| w).collect();
    assert_eq!(got, vec![11 ^ KEY, 22 ^ KEY, 33 ^ KEY, 44 ^ KEY]);
    let w = &m.program_ref::<IsaCore>(TileId(5)).unwrap().watch;
    println!(
        "assembly pipeline: 4 words via `xor $csto, $csti, $s0`, {} instructions retired",
        w.retired
    );
    println!("in-fabric computation verified — the §8.3 mechanism costs no bandwidth.");
}
