//! Reproduction of Figure 3-2: "The switch and tile code required for a
//! tile-to-tile send to the South from tile 0 to tile 4", and related
//! network-timing kernels, now in actual assembly.
//!
//! The paper's walkthrough: cycle 1 the `or` executes on tile 0 and the
//! value arrives at switch 0; cycle 2 switch 0 transmits to switch 4;
//! cycle 3 switch 4 transmits to the processor; cycle 4 decode; cycle 5
//! the `and` executes. Five cycles total, three of them send-to-use
//! latency.

use raw_isa::*;
use raw_sim::*;

/// Which static network a single-net switch source targets (test helper:
/// programs here are written per network).
fn net_of(src: &str) -> usize {
    if src.contains('2') {
        NET1
    } else {
        NET0
    }
}

/// The architectural snapshot of the interpreted core on tile `t`.
fn watch(m: &RawMachine, t: u16) -> &CoreWatch {
    &m.program_ref::<IsaCore>(TileId(t)).unwrap().watch
}

#[test]
fn five_cycle_tile_to_tile_send() {
    let mut m = RawMachine::new(RawConfig::default());

    // Tile 0: or $csto, $0, $5   (with $5 preset to a marker value)
    let mut sender = IsaCore::from_asm(
        "
        or   $csto, $zero, $a1
        halt
        ",
    )
    .unwrap();
    sender.set_reg(Reg(5), 0xBEEF);
    m.set_program(TileId(0), Box::new(sender));
    m.set_switch_program(
        TileId(0),
        net_of("route $csto->$cSo"),
        assemble_switch("route $csto->$cSo").unwrap(),
    );

    // Tile 4: and $5, $5, $csti
    let mut recv = IsaCore::from_asm(
        "
        and  $a1, $a1, $csti
        halt
        ",
    )
    .unwrap();
    recv.set_reg(Reg(5), 0xFFFF_FFFF);
    m.set_program(TileId(4), Box::new(recv));
    m.set_switch_program(
        TileId(4),
        net_of("route $cNi->$csti"),
        assemble_switch("route $cNi->$csti").unwrap(),
    );

    m.run(30);

    let sw = watch(&m, 0);
    let rw = watch(&m, 4);
    assert!(rw.halted);
    assert_eq!(rw.regs[5], 0xBEEF, "the AND must see the sent word");

    let or_cycle = sw.retire_cycles[0];
    let and_cycle = rw.retire_cycles[0];
    assert_eq!(
        and_cycle - or_cycle,
        4,
        "or on cycle k, and on cycle k+4: the 5-cycle send of Figure 3-2 \
         (3-cycle send-to-use latency)"
    );
}

#[test]
fn unrolled_load_send_streams_one_word_per_cycle() {
    // §4.4: code is "carefully unrolled" and load-and-forward costs one
    // cycle per word. An 8-word unrolled burst must retire in 8
    // consecutive cycles once the first load has warmed the cache line.
    let mut m = RawMachine::new(RawConfig::default());

    let mut src = String::new();
    // Warm the line first so the burst itself is all hits.
    src.push_str("lw $t0, 0($s0)\n");
    for i in 0..8 {
        src.push_str(&format!("lw $csto, {i}($s0)\n"));
    }
    src.push_str("halt\n");
    let mut core = IsaCore::from_asm(&src).unwrap();
    core.set_reg(Reg(16), 0); // $s0 = base address 0
    m.set_program(TileId(4), Box::new(core));
    m.set_switch_program(
        TileId(4),
        net_of("loop: route $csto->$cEo ; j loop"),
        assemble_switch("loop: route $csto->$cEo ; j loop").unwrap(),
    );
    // Tile 5 forwards east to the edge is unnecessary: drop at unbound
    // edge is fine for this timing test; route tile 5 west->east.
    m.set_switch_program(
        TileId(5),
        net_of("loop: route $cWi->$cEo ; j loop"),
        assemble_switch("loop: route $cWi->$cEo ; j loop").unwrap(),
    );

    m.write_tile_mem(TileId(4), 0, &[100, 101, 102, 103, 104, 105, 106, 107]);

    m.run(200);
    let w = watch(&m, 4);
    assert!(w.halted);
    // The 8 lw-$csto retires are consecutive cycles.
    let burst = &w.retire_cycles[1..9];
    for pair in burst.windows(2) {
        assert_eq!(
            pair[1] - pair[0],
            1,
            "load-and-forward must be 1 cycle/word"
        );
    }
}

#[test]
fn receive_and_buffer_costs_two_cycles_per_word() {
    // §4.4: "buffering data on a tile's local memory requires two
    // processor cycles per word" — a move-from-csti plus a store.
    let mut m = RawMachine::new(RawConfig::default());

    // Feed 4 words into tile 4 from the west edge.
    m.bind_device(
        EdgePort::new(TileId(4), Dir::West, NET0),
        Box::new(WordSource::new([1u32, 2, 3, 4])),
    );
    m.set_switch_program(
        TileId(4),
        net_of("loop: route $cWi->$csti ; j loop"),
        assemble_switch("loop: route $cWi->$csti ; j loop").unwrap(),
    );

    // Warm the cache line, then buffer 4 words: or-from-csti + sw each.
    let mut src = String::from("lw $t0, 0($s0)\n");
    for i in 0..4 {
        src.push_str("or $t1, $zero, $csti\n");
        src.push_str(&format!("sw $t1, {i}($s0)\n"));
    }
    src.push_str("halt\n");
    let mut core = IsaCore::from_asm(&src).unwrap();
    core.set_reg(Reg(16), 0);
    m.set_program(TileId(4), Box::new(core));

    m.run(300);
    let w = watch(&m, 4).clone();
    assert!(w.halted);
    // Steady state: each (recv, store) pair retires 2 cycles apart.
    // Look at the last three pairs (the first may wait for arrival).
    let rc = &w.retire_cycles;
    let pair_starts: Vec<u64> = (0..4).map(|i| rc[1 + 2 * i]).collect();
    for pr in pair_starts.windows(2).skip(1) {
        assert_eq!(pr[1] - pr[0], 2, "buffering must cost 2 cycles/word");
    }
    // The words landed in memory.
    assert_eq!(m.read_tile_mem(TileId(4), 0, 4), [1, 2, 3, 4]);
}

#[test]
fn two_network_reads_in_one_instruction() {
    // add $1, $csti, $csti2 pops both static networks in a single cycle.
    let mut m = RawMachine::new(RawConfig::default());
    m.bind_device(
        EdgePort::new(TileId(4), Dir::West, NET0),
        Box::new(WordSource::new([40u32])),
    );
    m.bind_device(
        EdgePort::new(TileId(4), Dir::West, NET1),
        Box::new(WordSource::new([2u32])),
    );
    m.set_switch_program(
        TileId(4),
        NET0,
        assemble_switch("loop: route $cWi->$csti ; j loop").unwrap(),
    );
    m.set_switch_program(
        TileId(4),
        NET1,
        assemble_switch("loop: route $cWi2->$csti2 ; j loop").unwrap(),
    );
    let core = IsaCore::from_asm(
        "
        add $t0, $csti, $csti2
        halt
        ",
    )
    .unwrap();
    m.set_program(TileId(4), Box::new(core));
    m.run(40);
    let w = watch(&m, 4);
    assert!(w.halted);
    assert_eq!(w.regs[8], 42);
    assert_eq!(w.retired, 2);
}

#[test]
fn swpc_steers_switch_from_assembly() {
    // The §6.5 idiom: the tile processor picks a switch routine by loading
    // the switch PC, then consumes the word the routine delivers.
    let mut m = RawMachine::new(RawConfig::default());
    m.bind_device(
        EdgePort::new(TileId(4), Dir::West, NET0),
        Box::new(WordSource::new([7u32])),
    );
    let (sw, labels) = raw_isa::asm::assemble_switch_labeled(
        "
        idle:  waitpc
        take:  route $cWi->$csti
               waitpc
        ",
    )
    .unwrap();
    m.set_switch_program(TileId(4), NET0, sw);
    let take = labels["take"];
    let core = IsaCore::from_asm(&format!(
        "
        swpc 0, {take}
        or   $t0, $zero, $csti
        halt
        "
    ))
    .unwrap();
    m.set_program(TileId(4), Box::new(core));
    m.run(40);
    let w = watch(&m, 4);
    assert!(w.halted);
    assert_eq!(w.regs[8], 7);
}

#[test]
fn blocked_receive_shows_in_utilization() {
    // A core stuck on $csti is "blocked on receive" — gray in Figure 7-3.
    let mut m = RawMachine::new(RawConfig::default());
    let core = IsaCore::from_asm("or $t0, $zero, $csti\nhalt").unwrap();
    m.set_program(TileId(4), Box::new(core));
    m.run(50);
    let stats = m.stats(TileId(4));
    assert!(stats.blocked() >= 48, "blocked: {}", stats.blocked());
}
