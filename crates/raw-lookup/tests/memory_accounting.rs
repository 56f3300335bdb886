//! `DirTable::memory_bytes` must report the table's *actual* heap
//! footprint, not an idealized one: every `Vec` buffer is charged at
//! capacity. The level-1 array, the level-2 arena and the next-hop table
//! are all sized exactly at construction, so the figure is also the
//! exact formula of the two levels and the hops. This file asserts both,
//! the accounting against a counting allocator, at a BGP-sized 1M-prefix
//! build.
//!
//! One test per file: the counting allocator must observe only its own
//! workload (the default harness runs tests in one process).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use raw_lookup::{synth_table, DirTable};

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
/// temporaries (the canonical route list and its bucket counts) are
/// freed before it returns, so the net delta is the table itself. The
/// reported figure must cover everything the allocator saw and
/// overshoot it by at most allocator slack.
#[test]
fn memory_bytes_matches_allocator_at_1m_prefixes() {
    // The synthesized mix includes /25–/32 prefixes, so level-2 blocks
    // are exercised at scale.
    let routes = synth_table(1_000_000, 4, 20260810);

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let t = DirTable::build(&routes);
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    let live = (after - before) as usize;

    let reported = t.memory_bytes();
    assert!(
        t.l2_blocks() > 1_000,
        "1M synthesized prefixes should chain thousands of L2 blocks, got {}",
        t.l2_blocks()
    );
    // Exactly the two levels, 2^24 level-1 slots and 2^8 slots a block,
    // two bytes each, and four bytes a distinct next hop. An arena or a
    // hop table grown by doubling would overshoot this.
    assert_eq!(t.hop_count(), 4);
    assert_eq!(
        reported,
        2 * ((1 << 24) + t.l2_blocks() * (1 << 8)) + 4 * t.hop_count()
    );
    // Everything the allocator saw is accounted for...
    assert!(
        reported >= live,
        "memory_bytes {reported} under-reports live allocation {live}"
    );
    // ...and the overshoot is bounded (1% covers allocator slack and
    // rounding).
    assert!(
        reported as f64 <= live as f64 * 1.01,
        "memory_bytes {reported} overshoots live allocation {live} by more than 1%"
    );
    // Sanity on the headline figure the fib experiment publishes.
    let bpp = t.bytes_per_prefix();
    assert!(
        bpp > 4.0 && bpp < 1024.0,
        "bytes-per-prefix {bpp:.1} out of any plausible range"
    );
    drop(t);
    let freed = LIVE_BYTES.load(Ordering::Relaxed);
    assert!(
        (freed - before).unsigned_abs() < 1024,
        "table drop leaked {} bytes",
        freed - before
    );
}
