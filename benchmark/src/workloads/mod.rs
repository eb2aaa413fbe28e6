//! The four workloads and what they share: fleet and load sizing.
//!
//! The sizing constants are fixed — identical on every commit — so a
//! number measured today is comparable with one measured after any later
//! change to the program.

pub mod fleet_step;
pub mod ingest_recover;
pub mod wire;

use crate::inputs::Feed;
use crate::report::WorkloadResult;
use crate::spans::Tracer;
use crate::Res;
use smiler_core::{PredictorKind, SensorPredictor, SmilerConfig};
use smiler_gpu::Device;
use std::sync::Arc;
use std::time::Instant;

/// How much of each workload one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Seconds the timed phases of a workload measure for, in total.
    pub seconds: f64,
    /// `--smoke`: every workload and probe through the same code with
    /// fixed counts at 1/50 and histories at 1/4. Never comparable to a
    /// full run.
    pub smoke: bool,
}

impl Scale {
    /// A fixed operation count at this scale.
    pub fn count(&self, full: usize) -> usize {
        if self.smoke {
            (full / 50).max(2)
        } else {
            full
        }
    }

    /// Days of history at this scale (never below what the paper-default
    /// index needs for 32 neighbours of a 96-point query).
    pub fn days(&self, full: usize) -> usize {
        if self.smoke {
            (full / 4).max(4)
        } else {
            full
        }
    }

    /// How many times a run sets the workload up; `setup_s` is the median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// Paper Table 2 defaults (ρ = 8, ω = 16, EKV {8,16,32}, ELV {32,64,96})
/// with horizon headroom for `h ≤ 6`.
pub fn smiler_config() -> SmilerConfig {
    SmilerConfig { h_max: 6, ..Default::default() }
}

/// The simulated-GPU device every workload runs on.
pub fn device() -> Arc<Device> {
    Arc::new(Device::default_gpu())
}

/// One predictor per sensor of `feed`, ids in feed order.
pub fn build_sensors(
    device: &Arc<Device>,
    feed: &Feed,
    kind: PredictorKind,
) -> Vec<SensorPredictor> {
    feed.history
        .iter()
        .enumerate()
        .map(|(id, h)| {
            SensorPredictor::new(Arc::clone(device), id, h.clone(), smiler_config(), kind)
        })
        .collect()
}

/// Set a workload up `scale.setups()` times, keeping the last instance;
/// returns it with the seconds each set-up took.
pub fn repeat_setup<T>(scale: &Scale, mut setup: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut seconds = Vec::new();
    let mut kept = None;
    for _ in 0..scale.setups() {
        // Drop the previous instance first: its threads, sockets and
        // files must not overlap the set-up being timed.
        drop(kept.take());
        let started = Instant::now();
        kept = Some(setup()?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), seconds))
}

/// Run one workload with tracing off and return its end-to-end metrics.
pub fn run(name: &str, seed: u64, scale: &Scale) -> Res<WorkloadResult> {
    match name {
        "fleet_step" => fleet_step::run(seed, scale),
        "wire_step" => wire::run(wire::Kind::Step, seed, scale),
        "wire_read" => wire::run(wire::Kind::Read, seed, scale),
        "ingest_recover" => ingest_recover::run(seed, scale),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Run one workload's traced pass and return its per-layer metrics and
/// the spans behind them.
pub fn trace(name: &str, seed: u64, scale: &Scale) -> Res<(WorkloadResult, Tracer)> {
    match name {
        "fleet_step" => fleet_step::trace(seed, scale),
        "wire_step" => wire::trace(wire::Kind::Step, seed, scale),
        "wire_read" => wire::trace(wire::Kind::Read, seed, scale),
        "ingest_recover" => ingest_recover::trace(seed, scale),
        other => Err(format!("unknown workload {other}")),
    }
}
