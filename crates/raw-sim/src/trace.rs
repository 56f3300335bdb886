//! Per-tile utilization tracing — the data behind Figure 7-3.
//!
//! Every cycle each tile processor is in exactly one [`Activity`] state,
//! and waits on at most one `Wait` its program hinted. The paper's
//! utilization plots color a tile gray when it is "blocked on transmit,
//! receive, or cache miss"; we keep the four blocked/busy states separate
//! and can render either the paper's two-tone view or a richer one. The
//! machine counts every tile-cycle once, by `(Activity, Wait)`
//! (`Ledger`); [`TileStats`] and the telemetry [`TileState`] counts are
//! both sums over that one ledger.

use raw_telemetry::TileState;

/// What a tile processor spent a cycle on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Activity {
    /// No work issued.
    Idle,
    /// Retired useful work (compute, send, receive, memory hit).
    Busy,
    /// Stalled writing a full network register (blocked on transmit).
    BlockedSend,
    /// Stalled reading an empty network register (blocked on receive).
    BlockedRecv,
    /// Stalled on a data-cache miss.
    CacheStall,
}

impl Activity {
    pub const COUNT: usize = 5;
    pub const ALL: [Activity; Activity::COUNT] = [
        Activity::Idle,
        Activity::Busy,
        Activity::BlockedSend,
        Activity::BlockedRecv,
        Activity::CacheStall,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            Activity::Idle => 0,
            Activity::Busy => 1,
            Activity::BlockedSend => 2,
            Activity::BlockedRecv => 3,
            Activity::CacheStall => 4,
        }
    }

    /// True for the states the paper plots as gray ("blocked on transmit,
    /// receive, or cache miss").
    #[inline]
    pub fn is_blocked(self) -> bool {
        matches!(
            self,
            Activity::BlockedSend | Activity::BlockedRecv | Activity::CacheStall
        )
    }
}

/// What a tile cycle waited on beyond its [`Activity`], as the program
/// hinted it through `TileIo::hint_*`. A cycle keeps the highest hint
/// raised: `Lookup > Arb > Token > None`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub(crate) enum Wait {
    /// No hint.
    #[default]
    None,
    /// The crossbar token / grant protocol.
    Token,
    /// A per-slot scheduler decision (iSLIP / crosspoint).
    Arb,
    /// Forwarding-table memory.
    Lookup,
}

impl Wait {
    pub const COUNT: usize = 4;
    pub const ALL: [Wait; Wait::COUNT] = [Wait::None, Wait::Token, Wait::Arb, Wait::Lookup];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The telemetry [`TileState`] a cycle of `a` waiting on `w` counts as.
/// A blocked-send cycle keeps its FIFO cause (a lookup hint describes the
/// table chase, not the reply path); any other cycle hinted as a lookup
/// stall is one, since the lookup program spends the modeled table-memory
/// latency in `compute` cycles. Token and arbitration waits reclassify
/// cycles that would otherwise read as idle or blocked-receive.
#[inline]
pub(crate) fn refine_state(a: Activity, w: Wait) -> TileState {
    match (a, w) {
        (Activity::BlockedSend, _) => TileState::FifoFull,
        (_, Wait::Lookup) => TileState::LookupStall,
        (Activity::Busy, _) => TileState::Busy,
        (Activity::CacheStall, _) => TileState::CacheStall,
        (Activity::Idle | Activity::BlockedRecv, Wait::Arb) => TileState::ArbWait,
        (Activity::Idle | Activity::BlockedRecv, Wait::Token) => TileState::TokenWait,
        (Activity::Idle, Wait::None) => TileState::Idle,
        (Activity::BlockedRecv, Wait::None) => TileState::FifoEmpty,
    }
}

/// One tile's cycles, by `[Activity::index][Wait::index]`: the machine's
/// ledger, in which every simulated cycle of the tile is counted once.
pub(crate) type Ledger = [[u64; Wait::COUNT]; Activity::COUNT];

/// Cumulative per-tile activity counters.
#[derive(Clone, Debug, Default)]
pub struct TileStats {
    pub counts: [u64; Activity::COUNT],
}

impl TileStats {
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn busy(&self) -> u64 {
        self.counts[Activity::Busy.index()]
    }

    pub fn blocked(&self) -> u64 {
        Activity::ALL
            .iter()
            .filter(|a| a.is_blocked())
            .map(|a| self.counts[a.index()])
            .sum()
    }

    /// Busy fraction of all recorded cycles.
    pub fn utilization(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.busy() as f64 / t as f64
        }
    }
}

/// A bounded window of per-tile activity samples, recorded on demand.
#[derive(Clone, Debug)]
pub struct TraceWindow {
    pub start_cycle: u64,
    pub len: usize,
    tiles: usize,
    /// `samples[tile][cycle - start_cycle]`
    samples: Vec<Vec<Activity>>,
}

impl TraceWindow {
    pub fn new(tiles: usize, start_cycle: u64, len: usize) -> TraceWindow {
        TraceWindow {
            start_cycle,
            len,
            tiles,
            samples: vec![Vec::with_capacity(len); tiles],
        }
    }

    /// Number of tile rows in the window.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// True while the window still wants samples at `cycle`.
    pub fn wants(&self, cycle: u64) -> bool {
        cycle >= self.start_cycle && (cycle - self.start_cycle) < self.len as u64
    }

    pub fn record(&mut self, tile: usize, cycle: u64, a: Activity) {
        if self.wants(cycle) {
            debug_assert_eq!(
                self.samples[tile].len() as u64,
                cycle - self.start_cycle,
                "trace samples must be recorded densely"
            );
            self.samples[tile].push(a);
        }
    }

    /// Record `len` consecutive cycles of the same activity for `tile`,
    /// starting at `from_cycle` — the bulk equivalent of calling
    /// [`TraceWindow::record`] once per cycle. The machine's event-skip
    /// fast-forward uses this to credit skipped cycles without visiting
    /// each one; the dense-recording invariant is preserved.
    pub fn record_span(&mut self, tile: usize, from_cycle: u64, len: u64, a: Activity) {
        let lo = from_cycle.max(self.start_cycle);
        let hi = (from_cycle + len).min(self.start_cycle + self.len as u64);
        if lo >= hi {
            return;
        }
        debug_assert_eq!(
            self.samples[tile].len() as u64,
            lo - self.start_cycle,
            "trace samples must be recorded densely"
        );
        let cur = self.samples[tile].len();
        self.samples[tile].resize(cur + (hi - lo) as usize, a);
    }

    pub fn is_complete(&self) -> bool {
        self.samples.iter().all(|s| s.len() == self.len)
    }

    pub fn tile_samples(&self, tile: usize) -> &[Activity] {
        &self.samples[tile]
    }

    /// Per-tile `(busy, blocked, idle)` fractions over the window.
    pub fn tile_fractions(&self, tile: usize) -> (f64, f64, f64) {
        let row = &self.samples[tile];
        if row.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = row.len() as f64;
        let busy = row.iter().filter(|a| **a == Activity::Busy).count() as f64;
        let blocked = row.iter().filter(|a| a.is_blocked()).count() as f64;
        (busy / n, blocked / n, (n - busy - blocked) / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_classification_matches_paper() {
        assert!(Activity::BlockedSend.is_blocked());
        assert!(Activity::BlockedRecv.is_blocked());
        assert!(Activity::CacheStall.is_blocked());
        assert!(!Activity::Busy.is_blocked());
        assert!(!Activity::Idle.is_blocked());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = TileStats::default();
        s.counts[Activity::Busy.index()] = 2;
        s.counts[Activity::BlockedRecv.index()] = 1;
        s.counts[Activity::Idle.index()] = 1;
        assert_eq!(s.total(), 4);
        assert_eq!(s.busy(), 2);
        assert_eq!(s.blocked(), 1);
        assert!((s.utilization() - 0.5).abs() < 1e-12);
    }

    /// `refine_state` over the highest wait raised is the rule the three
    /// separate hint flags followed: a lookup hint wins unless the cycle
    /// is a blocked send, then arb over token, each reclassifying only
    /// idle and blocked-receive cycles.
    #[test]
    fn refine_state_keeps_the_hint_precedence() {
        let flags_rule = |a: Activity, token: bool, arb: bool, lookup: bool| {
            if lookup && a != Activity::BlockedSend {
                return TileState::LookupStall;
            }
            let wait = if arb {
                Some(TileState::ArbWait)
            } else if token {
                Some(TileState::TokenWait)
            } else {
                None
            };
            match (a, wait) {
                (Activity::Busy, _) => TileState::Busy,
                (Activity::Idle, w) => w.unwrap_or(TileState::Idle),
                (Activity::BlockedSend, _) => TileState::FifoFull,
                (Activity::BlockedRecv, w) => w.unwrap_or(TileState::FifoEmpty),
                (Activity::CacheStall, _) => TileState::CacheStall,
            }
        };
        for a in Activity::ALL {
            for bits in 0..8u8 {
                let (token, arb, lookup) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
                let raised = [
                    (token, Wait::Token),
                    (arb, Wait::Arb),
                    (lookup, Wait::Lookup),
                ]
                .into_iter()
                .filter(|&(set, _)| set)
                .fold(Wait::None, |w, (_, hint)| w.max(hint));
                assert_eq!(
                    refine_state(a, raised),
                    flags_rule(a, token, arb, lookup),
                    "{a:?} token={token} arb={arb} lookup={lookup}"
                );
            }
        }
    }

    #[test]
    fn window_records_densely_and_completes() {
        let mut w = TraceWindow::new(2, 10, 3);
        assert!(!w.wants(9));
        assert!(w.wants(10));
        assert!(!w.wants(13));
        for cycle in 10..13 {
            w.record(0, cycle, Activity::Busy);
            w.record(1, cycle, Activity::BlockedRecv);
        }
        assert!(w.is_complete());
        let (busy, blocked, idle) = w.tile_fractions(1);
        assert_eq!((busy, blocked, idle), (0.0, 1.0, 0.0));
        let _ = w.tile_fractions(0);
    }

    #[test]
    fn ascii_render_shapes() {
        let mut w = TraceWindow::new(1, 0, 4);
        for (c, a) in [
            Activity::Busy,
            Activity::Busy,
            Activity::BlockedSend,
            Activity::Idle,
        ]
        .iter()
        .enumerate()
        {
            w.record(0, c as u64, *a);
        }
        let s = w.render_ascii(2);
        assert!(s.contains('#'));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn csv_export() {
        let mut w = TraceWindow::new(1, 0, 2);
        w.record(0, 0, Activity::Busy);
        w.record(0, 1, Activity::CacheStall);
        let csv = w.to_csv();
        assert!(csv.contains("0,0,busy"));
        assert!(csv.contains("0,1,cache_stall"));
    }
}
