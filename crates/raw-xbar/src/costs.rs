//! The modelled per-packet and per-quantum costs that are not consequences
//! of the simulated hardware.
//!
//! Everything else a packet pays — one word per link per cycle, the
//! 5-cycle tile-to-tile send, two cycles per buffered word, cache misses,
//! the header exchange around the ring — falls out of `raw-sim` executing
//! the generated switch code and the tile programs. The constants here are
//! the places where a tile program stands in for straight-line assembly
//! the model does not execute, and charges its instruction count instead.
//! Each says whether the paper states it or it was calibrated; EXPERIMENTS
//! "Calibration & caveats" cites them by name.

use crate::layout::NPORTS;

/// Ingress: cycles to verify an IPv4 header (version, IHL, length,
/// checksum) and rewrite it (TTL decrement, incremental checksum) once
/// its five words are in registers. *Calibrated*: set once to a plausible
/// instruction count, not tuned per experiment; the paper gives no figure.
pub const VERIFY_CYCLES: u32 = 8;

/// Crossbar: cycles to fold the four exchanged headers and the token into
/// the jump-table index, before the (separately timed) table load.
/// *Calibrated*, like [`VERIFY_CYCLES`]; the generated-assembly crossbar
/// (`asm_crossbar`, §6.5) spends about 25 cycles more per quantum.
pub const IDX_CYCLES: u32 = 4;

/// Crossbar, non-token arbiters only: cycles per request/grant/accept
/// round of the replicated arbiter, on top of [`IDX_CYCLES`] — one per
/// port scanned. *Modelled*: the paper has no such arbiter.
pub const ARB_ROUND_CYCLES: u32 = NPORTS as u32;
