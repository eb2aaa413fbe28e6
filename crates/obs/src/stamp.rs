//! Export stamping: a process-wide monotone sequence number plus paired
//! wall-clock / monotonic timestamps attached to every JSONL export record
//! (metrics rows, event lines, request traces).
//!
//! The sequence number orders records *across* files written by the same
//! process, and the twin timestamps let downstream tooling join windows:
//! `t_wall_ms` aligns records with external clocks, `t_mono_s` gives
//! drift-free intra-process deltas. The counter and the monotonic epoch
//! deliberately survive [`crate::reset`] so records written around a reset
//! still order globally.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

static SEQ: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Next export sequence number. Monotone across every export kind and
/// never reset, so two records with `a.seq < b.seq` were rendered in that
/// order regardless of which file they landed in.
pub fn next_export_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Milliseconds since the Unix epoch (0 if the system clock reads
/// pre-epoch, rather than failing the export).
pub fn wall_clock_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

/// Seconds since this process first stamped an export, measured on the
/// monotonic clock (immune to wall-clock steps).
pub fn mono_seconds() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_strictly_monotone() {
        let a = next_export_seq();
        let b = next_export_seq();
        assert!(b > a);
    }

    #[test]
    fn clocks_are_sane() {
        // Well past 2020-01-01 in ms; guards against unit mixups.
        assert!(wall_clock_ms() > 1_577_836_800_000);
        let t0 = mono_seconds();
        let t1 = mono_seconds();
        assert!(t1 >= t0 && t0 >= 0.0);
    }
}
