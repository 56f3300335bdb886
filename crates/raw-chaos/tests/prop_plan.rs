//! `FaultPlan` cannot panic: whatever a plan holds — rates past
//! 1,000,000 ppm, ports and pipeline elements out of range, windows
//! starting or lasting 0 or `u64::MAX` cycles, the largest lookup
//! penalty, truncation under FIFO ingress — [`ChaosRouter::try_new`]
//! returns the router or a typed error, and an accepted plan runs a
//! short, bounded campaign without panicking; if it drains, the audit is
//! clean. A panic fails the case with its own message; the draws are
//! deterministic per test, so a rerun reproduces it.

use proptest::prelude::*;

use raw_chaos::{ChaosRouter, FaultPlan, StallSpec, WindowSpec, ELEM_EGRESS, ELEM_INGRESS};
use raw_workloads::{generate, Workload};
use raw_xbar::{audit, port_table, IngressQueueing, RouterConfig, NPORTS};

/// Cycles an accepted plan's campaign may run.
const CYCLE_BUDGET: u64 = 20_000;

// The draws lean toward values a plan may hold, so that about one plan
// in three is accepted: each field is hostile now and then, and one rate
// in four plans is pushed past 1,000,000 ppm.

fn rate() -> impl Strategy<Value = u32> {
    prop_oneof![2 => Just(0u32), 1 => Just(1_000_000), 5 => 0u32..=100_000]
}

/// `rates[i]` pushed past 1,000,000 ppm for a draw `i` below 8.
fn spoil(rates: &mut [u32], i: usize) {
    if let Some(r) = rates.get_mut(i) {
        *r = if i.is_multiple_of(2) {
            1_000_001
        } else {
            u32::MAX
        };
    }
}

fn port() -> impl Strategy<Value = usize> {
    prop_oneof![6 => 0..NPORTS, 1 => Just(NPORTS), 1 => Just(usize::MAX)]
}

/// A window edge: a start or a length.
fn edge() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        1 => Just(u64::MAX),
        1 => Just(u64::MAX - 1),
        2 => 0u64..6_000,
    ]
}

fn stall() -> impl Strategy<Value = StallSpec> {
    let element = prop_oneof![
        6 => ELEM_INGRESS..=ELEM_EGRESS,
        1 => Just(ELEM_EGRESS + 1),
        1 => Just(u8::MAX),
    ];
    (port(), element, edge(), edge()).prop_map(|(port, element, start, len)| StallSpec {
        port,
        element,
        start,
        len,
    })
}

fn window() -> impl Strategy<Value = WindowSpec> {
    (port(), edge(), edge()).prop_map(|(port, start, len)| WindowSpec { port, start, len })
}

fn plan() -> impl Strategy<Value = FaultPlan> {
    (
        (any::<u64>(), 0usize..32),
        proptest::collection::vec(rate(), 8),
        prop_oneof![
            1 => Just(0u32),
            1 => Just(u32::MAX),
            1 => Just(u32::MAX - 1),
            5 => 0u32..=200,
        ],
        proptest::collection::vec(stall(), 0..3),
        proptest::collection::vec(window(), 0..2),
        proptest::collection::vec(window(), 0..2),
    )
        .prop_map(
            |((seed, spoiled), mut r, lookup_penalty_cycles, stalls, pauses, outs)| {
                spoil(&mut r, spoiled);
                FaultPlan {
                    header_flip_ppm: r[0],
                    payload_flip_ppm: r[1],
                    bad_checksum_ppm: r[2],
                    ttl_expire_ppm: r[3],
                    bad_version_ppm: r[4],
                    bad_ihl_ppm: r[5],
                    // Zero more often: a FIFO ingress refuses any other.
                    truncate_ppm: if seed.is_multiple_of(2) { 0 } else { r[6] },
                    lookup_miss_ppm: r[7],
                    lookup_penalty_cycles,
                    tile_stalls: stalls,
                    input_pauses: pauses,
                    output_stalls: outs,
                    ..FaultPlan::zero(seed)
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_plan_builds_or_is_a_typed_error(
        plan in plan(),
        voq in any::<bool>(),
        wl_seed in any::<u64>(),
    ) {
        let cfg = RouterConfig {
            queueing: if voq { IngressQueueing::Voq } else { IngressQueueing::Fifo },
            ..RouterConfig::default()
        };
        let what = format!("{plan:?} under {:?}", cfg.queueing);
        let Ok(mut cr) = ChaosRouter::try_new(cfg, port_table(), plan, None) else {
            return Ok(()); // a typed rejection
        };
        let offered: Vec<(usize, Vec<u32>)> = generate(&Workload::average(64, 4, wl_seed))
            .iter()
            .map(|sp| (sp.port, cr.offer(sp.port, sp.release, &sp.packet)))
            .collect();
        if cr.router.run_until_drained(CYCLE_BUDGET) {
            let errs = audit(&cr.router, offered.iter().map(|(p, w)| (*p, w)), true);
            prop_assert!(errs.is_empty(), "{what}: {errs:#?}");
        }
    }
}
