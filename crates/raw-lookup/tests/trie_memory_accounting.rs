//! `PatriciaTable::memory_bytes` must report the trie's *actual* heap
//! footprint: its one node arena, charged at capacity. A trie built
//! from a route list trims the arena to the nodes it placed, so the
//! figure is also exactly 16 bytes a node. This file asserts both, the
//! accounting against a counting allocator, at a BGP-sized 1M-prefix
//! build: the twin of `memory_accounting.rs` for the DIR.
//!
//! One test per file: the counting allocator must observe only its own
//! workload (the default harness runs tests in one process).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use raw_lookup::{synth_table, PatriciaTable};

struct CountingAlloc;

/// Net live heap bytes (allocated minus freed) since process start.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Build at 1M prefixes and compare `memory_bytes` to the live-byte
/// delta the allocator observed across the build. The build's
/// temporaries (the canonical route list, its bucket counts and the
/// walk's path) are freed before it returns, so the net delta is the
/// trie itself.
#[test]
fn memory_bytes_matches_allocator_at_1m_prefixes() {
    let routes = synth_table(1_000_000, 4, 20260810);

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let t = PatriciaTable::from_routes(&routes);
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    let live = (after - before) as usize;

    let reported = t.memory_bytes();
    assert_eq!(t.len(), routes.len());
    // A split node for most routes: well past one node a route, within
    // the two a route the build reserves.
    assert!(
        (routes.len() + 1..=2 * routes.len() + 1).contains(&t.node_count()),
        "{} nodes for {} routes",
        t.node_count(),
        routes.len()
    );
    // Exactly the nodes placed, 16 bytes each: the build's 2n-node
    // reservation is trimmed.
    assert_eq!(reported, 16 * t.node_count());
    // Everything the allocator saw is accounted for, and nothing else.
    assert_eq!(reported, live, "memory_bytes against live allocation");
    drop(t);
    let freed = LIVE_BYTES.load(Ordering::Relaxed);
    assert!(
        (freed - before).unsigned_abs() < 1024,
        "trie drop leaked {} bytes",
        freed - before
    );
}
