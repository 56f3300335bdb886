//! Serializable telemetry summaries: per-stage breakdowns, per-output
//! latency percentiles, and stall attribution tables — the payload of
//! `results/telemetry.json`.

use serde::Serialize;

use crate::histogram::Histogram;
use crate::recorder::{Recorder, StageSpan};
use crate::sink::{DropReason, SwitchStallCause, TileState};

/// Percentile row for one pipeline stage, aggregated over all packets.
#[derive(Clone, Debug, Serialize)]
pub struct StageStats {
    pub stage: String,
    pub count: u64,
    pub mean_cycles: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
    pub max: u64,
}

/// End-to-end latency percentiles for one output port.
#[derive(Clone, Debug, Serialize)]
pub struct OutputStats {
    pub port: u8,
    pub count: u64,
    pub mean_cycles: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
    pub max: u64,
}

/// Refined per-tile cycle accounting. The conservation invariant is
/// `busy + idle + fifo_full + fifo_empty + cache_stall + token_wait +
/// arb_wait + lookup_stall == total`.
#[derive(Clone, Debug, Serialize)]
pub struct TileStallStats {
    pub tile: u16,
    pub total: u64,
    pub busy: u64,
    pub idle: u64,
    pub fifo_full: u64,
    pub fifo_empty: u64,
    pub cache_stall: u64,
    pub token_wait: u64,
    pub arb_wait: u64,
    pub lookup_stall: u64,
    /// Dominant stall cause by count ("none" if the tile never stalled).
    pub top_stall: String,
}

/// Stall attribution for one tile's switch crossing point on one static
/// network.
#[derive(Clone, Debug, Serialize)]
pub struct SwitchStallStats {
    pub tile: u16,
    pub net: u8,
    pub fifo_empty: u64,
    pub fifo_full: u64,
    pub device_backpressure: u64,
}

/// Classified drop counters for one ingress port (omitted from the
/// summary when the port never dropped).
#[derive(Clone, Debug, Serialize)]
pub struct PortDropStats {
    pub port: u8,
    pub bad_checksum: u64,
    pub bad_version: u64,
    pub bad_ihl: u64,
    pub bad_length: u64,
    pub ttl_expired: u64,
    pub truncated: u64,
    pub total: u64,
}

/// The full telemetry report for one instrumented run.
#[derive(Clone, Debug, Serialize)]
pub struct TelemetrySummary {
    pub packets_completed: u64,
    pub packets_open: u64,
    pub unmatched_egress: u64,
    pub packets_dropped: u64,
    pub stages: Vec<StageStats>,
    pub per_output: Vec<OutputStats>,
    pub tiles: Vec<TileStallStats>,
    pub switch_links: Vec<SwitchStallStats>,
    pub drops: Vec<PortDropStats>,
}

fn stat_row(name: &str, h: &Histogram) -> (String, u64, f64, u64, u64, u64, u64, u64) {
    let (p50, p90, p99, p999) = h.percentiles();
    (
        name.to_string(),
        h.count(),
        h.mean(),
        p50,
        p90,
        p99,
        p999,
        h.max(),
    )
}

impl Recorder {
    /// Histogram of one stage interval over all completed packets.
    pub fn stage_histogram(&self, span: StageSpan) -> Histogram {
        let mut h = Histogram::for_cycles();
        for life in self.lives() {
            if let Some(v) = span.of(life) {
                h.record(v);
            }
        }
        h
    }

    /// Histogram of total residence time for packets leaving `port`.
    pub fn output_histogram(&self, port: u8) -> Histogram {
        let mut h = Histogram::for_cycles();
        for life in self.lives() {
            if life.dst == port {
                if let Some(v) = StageSpan::Total.of(life) {
                    h.record(v);
                }
            }
        }
        h
    }

    /// Build the serializable summary. `drops` is the router's own
    /// per-ingress-port drop table (`IngressStats::drops`, indexed by
    /// [`DropReason::index`]); its length bounds the per-output table.
    /// Tiles and nets come from the recorder's own shape.
    pub fn summary(&self, drops: &[[u64; DropReason::COUNT]]) -> TelemetrySummary {
        let ports = drops.len();
        let stages = StageSpan::ALL
            .iter()
            .map(|&s| {
                let h = self.stage_histogram(s);
                let (stage, count, mean_cycles, p50, p90, p99, p999, max) = stat_row(s.name(), &h);
                StageStats {
                    stage,
                    count,
                    mean_cycles,
                    p50,
                    p90,
                    p99,
                    p999,
                    max,
                }
            })
            .collect();

        let per_output = (0..ports as u8)
            .map(|p| {
                let h = self.output_histogram(p);
                let (_, count, mean_cycles, p50, p90, p99, p999, max) = stat_row("", &h);
                OutputStats {
                    port: p,
                    count,
                    mean_cycles,
                    p50,
                    p90,
                    p99,
                    p999,
                    max,
                }
            })
            .collect();

        let tiles = (0..self.tiles())
            .map(|t| {
                let c = self.tile_state_counts(t);
                let stall_states = TileState::ALL.iter().filter(|s| s.is_stall());
                let top = stall_states
                    .max_by_key(|s| c[s.index()])
                    .filter(|s| c[s.index()] > 0);
                TileStallStats {
                    tile: t as u16,
                    total: c.iter().sum(),
                    busy: c[TileState::Busy.index()],
                    idle: c[TileState::Idle.index()],
                    fifo_full: c[TileState::FifoFull.index()],
                    fifo_empty: c[TileState::FifoEmpty.index()],
                    cache_stall: c[TileState::CacheStall.index()],
                    token_wait: c[TileState::TokenWait.index()],
                    arb_wait: c[TileState::ArbWait.index()],
                    lookup_stall: c[TileState::LookupStall.index()],
                    top_stall: top.map_or("none".to_string(), |s| s.name().to_string()),
                }
            })
            .collect();

        let mut switch_links = Vec::new();
        for t in 0..self.tiles() {
            for n in 0..self.nets() {
                let c = self.switch_stall_counts(t, n);
                if c.iter().all(|&x| x == 0) {
                    continue;
                }
                switch_links.push(SwitchStallStats {
                    tile: t as u16,
                    net: n as u8,
                    fifo_empty: c[SwitchStallCause::FifoEmpty.index()],
                    fifo_full: c[SwitchStallCause::FifoFull.index()],
                    device_backpressure: c[SwitchStallCause::DeviceBackpressure.index()],
                });
            }
        }

        let mut drop_rows = Vec::new();
        for (p, c) in drops.iter().enumerate() {
            if c.iter().all(|&x| x == 0) {
                continue;
            }
            drop_rows.push(PortDropStats {
                port: p as u8,
                bad_checksum: c[DropReason::BadChecksum.index()],
                bad_version: c[DropReason::BadVersion.index()],
                bad_ihl: c[DropReason::BadIhl.index()],
                bad_length: c[DropReason::BadLength.index()],
                ttl_expired: c[DropReason::TtlExpired.index()],
                truncated: c[DropReason::Truncated.index()],
                total: c.iter().sum(),
            });
        }

        TelemetrySummary {
            packets_completed: self.lives().len() as u64,
            packets_open: self.open_packets() as u64,
            unmatched_egress: self.unmatched_egress,
            packets_dropped: drops.iter().flatten().sum(),
            stages,
            per_output,
            tiles,
            switch_links,
            drops: drop_rows,
        }
    }

    /// Check the conservation invariant against an external cycle count:
    /// every tile that was credited at all must account for exactly
    /// `expected_total` cycles. Returns the offending tiles.
    pub fn conservation_violations(&self, expected_total: u64) -> Vec<(usize, u64)> {
        (0..self.tiles())
            .map(|t| (t, self.tile_total(t)))
            .filter(|&(_, total)| total != 0 && total != expected_total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{Stage, TelemetrySink};

    #[test]
    fn summary_tables_have_expected_shape() {
        let mut r = Recorder::new(16, 2);
        for id in 0..10u32 {
            let base = id as u64 * 100;
            r.packet_event(base, 0, id, Stage::IngressAccept);
            r.packet_event(base + 4, 0, id, Stage::LookupIssue);
            r.packet_dst(0, id, 1 << 2);
            r.packet_event(base + 10, 0, id, Stage::LookupComplete);
            r.packet_event(base + 30, 0, id, Stage::CrossbarGrant);
            r.egress_event(base + 34, 0, 2, Stage::FirstWordEgress);
            r.egress_event(base + 50, 0, 2, Stage::LastWordEgress);
        }
        let mut states = [0; TileState::COUNT];
        states[TileState::Busy.index()] = 900;
        states[TileState::TokenWait.index()] = 100;
        r.cycle_totals(0, &states, &[]);
        let s = r.summary(&[[0; DropReason::COUNT]; 4]);
        assert_eq!(s.packets_completed, 10);
        assert_eq!(s.stages.len(), StageSpan::ALL.len());
        let total = s.stages.iter().find(|x| x.stage == "total").unwrap();
        assert_eq!(total.p50, 50);
        assert_eq!(s.per_output.len(), 4);
        assert_eq!(s.per_output[2].count, 10);
        assert_eq!(s.per_output[0].count, 0);
        assert_eq!(s.tiles[0].top_stall, "token_wait");
        assert_eq!(s.tiles[0].total, 1000);
    }

    #[test]
    fn conservation_check_flags_mismatch() {
        let mut r = Recorder::new(2, 2);
        let mut states = [0; TileState::COUNT];
        states[TileState::Busy.index()] = 100;
        r.cycle_totals(0, &states, &[]);
        states = [0; TileState::COUNT];
        states[TileState::Idle.index()] = 99;
        r.cycle_totals(1, &states, &[]);
        let v = r.conservation_violations(100);
        assert_eq!(v, vec![(1, 99)]);
    }
}
