//! Per-tile cycle accounting — the data behind Figure 7-3.
//!
//! Every cycle each tile processor is in exactly one [`Activity`] state,
//! and waits on at most one `Wait` its program hinted. The paper's
//! utilization plots color a tile gray when it is "blocked on transmit,
//! receive, or cache miss"; we keep the four blocked/busy states separate.
//! The machine counts every tile-cycle once, by `(Activity, Wait)`
//! (`Ledger`); [`TileStats`] and the telemetry [`TileState`] counts are
//! both sums over that one ledger, and Figure 7-3's per-cycle samples are
//! read off it one cycle at a time.

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
}
