//! What one router of a Clos64 fabric costs the host, against a counting
//! allocator: a router holds what its tiles touch — its image and its
//! lowered plan are shared with its twins, a tile's local memory is made
//! a page at a time, a data cache is allocated on its first access — so
//! building the fabric and stepping it one epoch stays under 160 KiB a
//! router. A router that zero-filled a tile-memory chunk per touched
//! tile, allocated every data cache up front and lowered a private plan
//! cost about 580 KiB.
//!
//! One test per file: the counting allocator must observe only its own
//! workload (the default harness runs tests in one process).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use raw_fabric::{Executor, FabricConfig, RawFabric, Topology};
use raw_lookup::{ForwardingTable, RouteEntry};

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

/// Live bytes per router after `RawFabric::try_new` and one reference
/// epoch, which lowers every router and steps every tile program, less
/// the fabric's forwarding tables. Those are the lookup layer's: five
/// route lists, each a DIR-24-8 table of 32 MiB address space (and
/// `tests/memory_accounting.rs` of `raw-lookup` accounts for them). What
/// the routers share besides — images, configuration spaces, lowered
/// plans — is charged, spread over the 80 routers.
#[test]
fn a_clos64_router_holds_at_most_160_kib() {
    let cfg = FabricConfig {
        topology: Topology::Clos64,
        ..FabricConfig::default()
    };
    let routers = cfg.topology.routers();
    assert_eq!(routers, 80);

    // The tables `try_new` builds, one per distinct route list, built
    // alike here to weigh them.
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let plan = raw_fabric::plan(cfg.topology);
    let mut lists: Vec<&[RouteEntry]> = Vec::new();
    for spec in &plan.routers {
        if !lists.contains(&&spec.routes[..]) {
            lists.push(&spec.routes);
        }
    }
    assert_eq!(lists.len(), 5);
    let tables: Vec<ForwardingTable> = lists.iter().map(|l| ForwardingTable::build(l)).collect();
    let table_bytes = LIVE_BYTES.load(Ordering::Relaxed) - before;
    drop(tables);
    drop(lists);
    drop(plan);

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut fab = RawFabric::try_new(cfg).expect("Clos64 builds");
    fab.run_epochs_with(1, Executor::Reference);
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    assert_eq!(fab.epochs_run(), 1);

    let per_router = (after - before - table_bytes) as f64 / routers as f64 / 1024.0;
    assert!(
        per_router <= 160.0,
        "a Clos64 router holds {per_router:.1} KiB, over 160 KiB"
    );
}
