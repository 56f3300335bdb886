//! The telemetry sink trait.
//!
//! The router programs publish packet events into a [`TelemetrySink`]
//! behind `Option<SharedSink>`, and the simulator hands it its cycle
//! ledger's totals once at the end of every run call: a tile-cycle and a
//! switch stall are classified by the machine itself, always, and never
//! told to a sink one at a time. With no sink attached the hot path does
//! no allocation and no recording work. [`crate::Recorder`] is the
//! implementation behind `repro -- telemetry`.

use std::any::Any;
use std::sync::{Arc, Mutex};

/// A packet lifecycle stage, in pipeline order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// First wire word of the packet accepted by the ingress processor.
    IngressAccept,
    /// Header handed to the lookup processor over the dynamic network.
    LookupIssue,
    /// Route result received back from the lookup processor.
    LookupComplete,
    /// First crossbar grant won for the packet (token protocol).
    CrossbarGrant,
    /// First payload word leaves on the egress side.
    FirstWordEgress,
    /// Last payload word leaves on the egress side.
    LastWordEgress,
}

/// Refined per-cycle state of a tile processor. The machine's ledger
/// counts every simulated cycle of a tile in exactly one state, so per
/// tile `sum(all states) == cycles simulated` — the conservation
/// invariant the telemetry report asserts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TileState {
    /// No work issued and no stall hint.
    Idle,
    /// Retired useful work.
    Busy,
    /// Blocked writing a full FIFO (transmit side).
    FifoFull,
    /// Blocked reading an empty FIFO (receive side).
    FifoEmpty,
    /// Stalled on a data-cache miss.
    CacheStall,
    /// Waiting on the crossbar token/grant protocol (hinted by the
    /// ingress program; otherwise these cycles would read as idle).
    TokenWait,
    /// Waiting on a per-slot arbitration decision (iSLIP / crosspoint
    /// schedulers; hinted by the ingress program in scheduler mode).
    /// Kept separate from [`TileState::TokenWait`] so scheduler
    /// head-to-heads attribute their wait cycles to the arbiter.
    ArbWait,
    /// Stalled on forwarding-table memory: the level-2 chase of a
    /// DIR-24-8 lookup under a `raw_lookup::LookupMemModel`, or the
    /// fruitless full walk of an injected lookup miss (hinted by the
    /// lookup program; otherwise these cycles would read as busy).
    LookupStall,
}

impl TileState {
    pub const COUNT: usize = 8;
    pub const ALL: [TileState; TileState::COUNT] = [
        TileState::Idle,
        TileState::Busy,
        TileState::FifoFull,
        TileState::FifoEmpty,
        TileState::CacheStall,
        TileState::TokenWait,
        TileState::ArbWait,
        TileState::LookupStall,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            TileState::Idle => 0,
            TileState::Busy => 1,
            TileState::FifoFull => 2,
            TileState::FifoEmpty => 3,
            TileState::CacheStall => 4,
            TileState::TokenWait => 5,
            TileState::ArbWait => 6,
            TileState::LookupStall => 7,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TileState::Idle => "idle",
            TileState::Busy => "busy",
            TileState::FifoFull => "fifo_full",
            TileState::FifoEmpty => "fifo_empty",
            TileState::CacheStall => "cache_stall",
            TileState::TokenWait => "token_wait",
            TileState::ArbWait => "arb_wait",
            TileState::LookupStall => "lookup_stall",
        }
    }

    /// True for the stall states (everything but busy/idle).
    #[inline]
    pub fn is_stall(self) -> bool {
        !matches!(self, TileState::Idle | TileState::Busy)
    }
}

/// Why a switch crossing point could not fire a ready route this cycle.
/// The first refusal in the switch's own readiness order wins: source
/// word not visible, then destination FIFO full, then edge device
/// refusing the word.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SwitchStallCause {
    /// Source FIFO has no visible word.
    FifoEmpty,
    /// A destination FIFO (processor input or neighbor link) is full.
    FifoFull,
    /// A bound edge device refused the word this cycle.
    DeviceBackpressure,
}

impl SwitchStallCause {
    pub const COUNT: usize = 3;
    pub const ALL: [SwitchStallCause; SwitchStallCause::COUNT] = [
        SwitchStallCause::FifoEmpty,
        SwitchStallCause::FifoFull,
        SwitchStallCause::DeviceBackpressure,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            SwitchStallCause::FifoEmpty => 0,
            SwitchStallCause::FifoFull => 1,
            SwitchStallCause::DeviceBackpressure => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SwitchStallCause::FifoEmpty => "fifo_empty",
            SwitchStallCause::FifoFull => "fifo_full",
            SwitchStallCause::DeviceBackpressure => "device_backpressure",
        }
    }
}

/// Why the router discarded a packet instead of delivering it. Ingress
/// classifies each drop exactly once, so per port
/// `delivered + sum(drops by reason) == offered` — the accounting
/// invariant the chaos battery asserts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Header checksum did not verify.
    BadChecksum,
    /// IP version field was not 4.
    BadVersion,
    /// Header length field below the minimum or unsupported.
    BadIhl,
    /// Total-length field shorter than a minimal header.
    BadLength,
    /// TTL expired at the router (0 or 1 on arrival).
    TtlExpired,
    /// The wire went idle mid-packet: fewer words arrived than the
    /// header claimed.
    Truncated,
}

impl DropReason {
    pub const COUNT: usize = 6;
    pub const ALL: [DropReason; DropReason::COUNT] = [
        DropReason::BadChecksum,
        DropReason::BadVersion,
        DropReason::BadIhl,
        DropReason::BadLength,
        DropReason::TtlExpired,
        DropReason::Truncated,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            DropReason::BadChecksum => 0,
            DropReason::BadVersion => 1,
            DropReason::BadIhl => 2,
            DropReason::BadLength => 3,
            DropReason::TtlExpired => 4,
            DropReason::Truncated => 5,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            DropReason::BadChecksum => "bad_checksum",
            DropReason::BadVersion => "bad_version",
            DropReason::BadIhl => "bad_ihl",
            DropReason::BadLength => "bad_length",
            DropReason::TtlExpired => "ttl_expired",
            DropReason::Truncated => "truncated",
        }
    }
}

/// Receiver for instrumentation events. Every method defaults to a no-op
/// so a partial sink compiles down to empty virtual calls;
/// implementations override only what they consume.
pub trait TelemetrySink: Send {
    /// Stamp `stage` for packet `id` on ingress port `port` at `cycle`.
    /// Ids are per-port monotone counters assigned at ingress-accept.
    fn packet_event(&mut self, _cycle: u64, _port: u8, _id: u32, _stage: Stage) {}

    /// Destination port set (bitmask) resolved by the lookup for `(port, id)`.
    fn packet_dst(&mut self, _port: u8, _id: u32, _dst_mask: u8) {}

    /// Egress-side stamp keyed by `(source port, output port)` — the
    /// egress tile knows the fragment's source but not the ingress-side
    /// packet id, so sinks match these to ids by grant order (exact for
    /// FIFO-queued unicast traffic; best-effort under VOQ/multicast).
    fn egress_event(&mut self, _cycle: u64, _src_port: u8, _out_port: u8, _stage: Stage) {}

    /// The machine's cycle ledger for `tile` at the end of a run call,
    /// counted from cycle 0 (not from the attach): its cycles by state,
    /// indexed by [`TileState::index`], and per static network its
    /// switch's stalled cycles by cause, indexed by
    /// [`SwitchStallCause::index`]. Called for every tile, once per run
    /// call; each call supersedes the last for that tile.
    fn cycle_totals(
        &mut self,
        _tile: u16,
        _states: &[u64; TileState::COUNT],
        _stalls: &[[u64; SwitchStallCause::COUNT]],
    ) {
    }

    /// Downcast support so a caller can recover its concrete sink after a
    /// run (e.g. a [`crate::Recorder`] to build a report from).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// How sinks are shared between the machine and the tile programs: the
/// machine locks once per run call, the programs only on the rare
/// per-packet events.
pub type SharedSink = Arc<Mutex<dyn TelemetrySink>>;

/// Wrap a concrete sink for attachment. Keep a clone of the returned
/// handle: after the run, lock it and recover the concrete sink with
/// `as_any_mut().downcast_mut::<S>()`.
pub fn shared<S: TelemetrySink + 'static>(sink: S) -> SharedSink {
    Arc::new(Mutex::new(sink))
}

/// Run `f` against the concrete sink behind a shared handle. Panics if
/// the concrete type does not match.
pub fn with_sink<S: TelemetrySink + 'static, R>(
    sink: &SharedSink,
    f: impl FnOnce(&mut S) -> R,
) -> R {
    let mut g = sink.lock().unwrap();
    let s = g
        .as_any_mut()
        .downcast_mut::<S>()
        .expect("sink concrete type mismatch");
    f(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_indices_are_a_permutation() {
        let mut seen = [false; TileState::COUNT];
        for s in TileState::ALL {
            seen[s.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
        let mut seen = [false; SwitchStallCause::COUNT];
        for c in SwitchStallCause::ALL {
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
        let mut seen = [false; DropReason::COUNT];
        for r in DropReason::ALL {
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn shared_roundtrip() {
        let h = shared(crate::Recorder::new(2, 2));
        let mut states = [0; TileState::COUNT];
        states[TileState::Idle.index()] = 1;
        h.lock().unwrap().cycle_totals(0, &states, &[]);
        with_sink::<crate::Recorder, _>(&h, |s| {
            s.cycle_totals(1, &states, &[]);
            assert_eq!(s.tile_total(0) + s.tile_total(1), 2);
        });
    }
}
