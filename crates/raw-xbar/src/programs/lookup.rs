//! The Lookup Processor (see the [module docs](super)).

use std::sync::{Arc, Mutex};

use raw_lookup::{Engine, ForwardingTable};
use raw_net::CorruptRng;
use raw_sim::{TileIo, TileProgram};

#[derive(Clone, Debug, Default)]
pub struct LookupStats {
    pub lookups: u64,
    pub total_cost_cycles: u64,
    /// Lookups whose access trace chained past the first level (the
    /// DIR-24-8 level-2 fetch; always 0 for one-access resolutions).
    pub l2_lookups: u64,
    /// Cycles spent stalled on table memory: the modeled level-2 chase
    /// under a [`raw_lookup::LookupMemModel`] plus any injected-miss
    /// penalty walks. A subset of `total_cost_cycles`; surfaced to
    /// telemetry as the `lookup_stall` tile-state bucket.
    pub mem_stall_cycles: u64,
    /// Lookups forced onto the default route by fault injection
    /// ([`LookupProgram::inject_misses`]).
    pub injected_misses: u64,
}

enum LkSt {
    WaitHdr,
    WaitAddr,
    /// Charge `busy` instruction cycles, then `stall` table-memory
    /// cycles (hinted to the cycle ledger as lookup stalls), then reply.
    Compute {
        busy: u32,
        stall: u32,
        port: u32,
    },
    SendHdr {
        port: u32,
    },
    SendPort {
        port: u32,
    },
}

pub struct LookupProgram {
    table: Arc<ForwardingTable>,
    engine: Engine,
    ingress_rc: (u16, u16),
    st: LkSt,
    /// Deterministic miss injection: `(rng, miss_ppm, penalty_cycles)`.
    fault: Option<(CorruptRng, u32, u32)>,
    /// Memory-hierarchy cost model: when set, the flat
    /// [`raw_lookup::LookupCostModel`] charge is replaced by
    /// model-driven L1/L2 costs derived from the lookup's access trace,
    /// and the L2 share is hinted as [`TileIo::hint_lookup_stall`]
    /// cycles. The injected-miss penalty rides the same stall path —
    /// the chaos forced-miss machinery is the degenerate form of this
    /// model.
    mem: Option<raw_lookup::LookupMemModel>,
    label: String,
    // kept for benchmark/src/workloads.rs:666, which locks
    // `RawRouter::lk_stats`; taken once per lookup, not per word.
    pub stats: Arc<Mutex<LookupStats>>,
}

impl LookupProgram {
    pub fn new(
        port: u8,
        table: Arc<ForwardingTable>,
        engine: Engine,
        ingress_row_col: (u16, u16),
    ) -> LookupProgram {
        LookupProgram {
            table,
            engine,
            ingress_rc: ingress_row_col,
            st: LkSt::WaitHdr,
            fault: None,
            mem: None,
            label: format!("lookup{port}"),
            stats: Arc::new(Mutex::new(LookupStats::default())),
        }
    }

    /// Arm deterministic lookup-miss injection: with probability
    /// `miss_ppm` parts-per-million a lookup discards the table's answer
    /// and falls back to the default route (port 0) after `penalty`
    /// extra cycles — the table-miss / stale-route fault class. The
    /// draws come from a seeded [`CorruptRng`], so runs replay exactly.
    pub fn inject_misses(&mut self, seed: u64, miss_ppm: u32, penalty: u32) {
        self.fault = Some((CorruptRng::new(seed), miss_ppm, penalty));
    }

    /// Install a two-level memory cost model (see
    /// [`RouterConfig::lookup_mem`][crate::RouterConfig]).
    pub fn set_mem_model(&mut self, model: raw_lookup::LookupMemModel) {
        self.mem = Some(model);
    }
}

impl TileProgram for LookupProgram {
    fn tick(&mut self, io: &mut TileIo<'_>) {
        match &mut self.st {
            LkSt::WaitHdr => {
                if io.recv_dyn(0).is_some() {
                    self.st = LkSt::WaitAddr;
                }
            }
            LkSt::WaitAddr => {
                if let Some(addr) = io.recv_dyn(0) {
                    let (hop, accesses) = self.table.lookup_traced(self.engine, addr);
                    // Busy cycles are the instruction overhead plus the
                    // (cached) first-level probe; stall cycles are the
                    // chained accesses under the memory model. Without a
                    // model the flat cost model charges everything as
                    // busy, exactly as before.
                    let (mut busy, mut stall) = match self.mem {
                        Some(m) => (m.busy_cycles(), m.stall_cycles(accesses)),
                        None => (self.table.cost.cost(accesses), 0),
                    };
                    // The raw next-hop travels back intact: a plain port
                    // number, or a `MULTICAST_FLAG`-encoded port set.
                    // Unroutable addresses fall back to port 0 (synthetic
                    // tables always carry a default route; defensive).
                    let mut port = hop.unwrap_or(0);
                    let mut injected = false;
                    if let Some((rng, ppm, penalty)) = &mut self.fault {
                        if rng.chance_ppm(*ppm) {
                            port = 0;
                            stall += *penalty;
                            injected = true;
                        }
                    }
                    busy = busy.max(1);
                    let mut s = self.stats.lock().unwrap();
                    s.lookups += 1;
                    if accesses > 1 {
                        s.l2_lookups += 1;
                    }
                    if injected {
                        s.injected_misses += 1;
                    }
                    s.total_cost_cycles += (busy + stall) as u64;
                    s.mem_stall_cycles += stall as u64;
                    drop(s);
                    self.st = LkSt::Compute { busy, stall, port };
                }
            }
            LkSt::Compute { busy, stall, port } => {
                // Both phases advance the engine identically (a compute
                // retire per cycle — the hint never perturbs timing);
                // only the ledger's refined states see the stall share.
                io.compute();
                if *busy > 0 {
                    *busy -= 1;
                } else {
                    io.hint_lookup_stall();
                    *stall -= 1;
                }
                if *busy == 0 && *stall == 0 {
                    self.st = LkSt::SendHdr { port: *port };
                }
            }
            LkSt::SendHdr { port } => {
                let (row, col) = self.ingress_rc;
                let h = raw_sim::pack_header(row, col, 1, 0);
                if io.send_dyn(0, h) {
                    self.st = LkSt::SendPort { port: *port };
                }
            }
            LkSt::SendPort { port } => {
                let p = *port;
                if io.send_dyn(0, p) {
                    self.st = LkSt::WaitHdr;
                }
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}
