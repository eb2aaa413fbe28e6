//! Execution backends for the kernel launch layer.
//!
//! A [`Device`](crate::Device) always executes kernels for real — every
//! block closure runs on host threads and produces the actual results the
//! index consumes. What a backend decides is how a launch is *timed*:
//!
//! * [`SimBackend`] (the default, and the only behaviour before backends
//!   existed): feed every block's self-reported [`BlockCost`] through the
//!   device's [`CostModel`] and report the simulated GPU/CPU makespan.
//!   This is the paper-faithful mode — all Figure 7/Table 3 style
//!   comparisons run on it.
//! * [`NativeBackend`]: skip the cost model entirely and report the
//!   measured wall-clock time of the launch. With the `simd` kernels and
//!   host-thread parallelism this is the "run the same kernel
//!   decomposition natively" mode for absolute-latency work.
//!
//! Crucially, backends never touch kernel *results*: the same closures run
//! either way, so predictions, kNN sets and operation counters are
//! bitwise-identical across backends — only `sim_seconds` /
//! `saturated_seconds` differ. Code comparing timing statistics across
//! backends is therefore comparing different clocks and must not expect
//! equality.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::cost::{BlockCost, CostModel};

/// Names the two launch-timing backends; parsed from the `--backend` CLI
/// flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Cost-model simulation (paper-faithful timing).
    Sim,
    /// Native wall-clock timing of the real parallel execution.
    Native,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "native" => Ok(BackendKind::Native),
            other => Err(format!("unknown backend '{other}' (expected 'sim' or 'native')")),
        }
    }
}

/// How a [`Device`](crate::Device) accounts for a kernel launch.
///
/// Contract: [`Backend::account`] maps the per-block costs of one launch
/// (grid order) to `(sim_seconds, saturated_seconds)`. It must be
/// deterministic in `costs` for [`SimBackend`] — the launch layer's
/// parallel-vs-serial equivalence tests rely on it — and must not influence
/// kernel execution in any way.
pub trait Backend: std::fmt::Debug + Send + Sync {
    /// Which backend this is (for reports and bench headers).
    fn kind(&self) -> BackendKind;

    /// Convert one launch's per-block costs into
    /// `(sim_seconds, saturated_seconds)`. `wall_seconds` is the measured
    /// wall-clock duration of the block execution phase.
    fn account(&self, model: &dyn CostModel, costs: &[BlockCost], wall_seconds: f64) -> (f64, f64);

    /// Host threads to use for a launch of `blocks` blocks given
    /// `host_threads` available. The default caps workers at the grid width
    /// and never goes below one.
    fn workers(&self, host_threads: usize, blocks: usize) -> usize {
        host_threads.min(blocks).max(1)
    }
}

/// The cost-model simulator: block cycles through the device's
/// [`CostModel`], makespan over its parallel units. Timing is a pure
/// function of the reported costs — identical no matter how many host
/// threads executed the grid.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl Backend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn account(
        &self,
        model: &dyn CostModel,
        costs: &[BlockCost],
        _wall_seconds: f64,
    ) -> (f64, f64) {
        let cycles: Vec<f64> = costs.iter().map(|c| model.block_cycles(c)).collect();
        let sim = model.makespan_seconds(&cycles);
        let saturated =
            cycles.iter().sum::<f64>() / (model.parallel_units().max(1) as f64 * model.clock_hz());
        (sim, saturated)
    }
}

/// Native execution: the launch *is* the measurement. Reports the measured
/// wall time for both `sim_seconds` and `saturated_seconds` (the
/// distinction only exists under the simulator) and never evaluates the
/// cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeBackend;

impl Backend for NativeBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Native
    }

    fn account(
        &self,
        _model: &dyn CostModel,
        _costs: &[BlockCost],
        wall_seconds: f64,
    ) -> (f64, f64) {
        (wall_seconds, wall_seconds)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::cost::GpuSpec;

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in [BackendKind::Sim, BackendKind::Native] {
            let parsed: BackendKind = kind.to_string().parse().expect("round trip");
            assert_eq!(parsed, kind);
        }
        assert!("cuda".parse::<BackendKind>().is_err());
    }

    #[test]
    fn sim_accounting_ignores_wall_time() {
        let spec = GpuSpec::default();
        let costs = vec![BlockCost { flops: 1_000_000, ..Default::default() }; 4];
        let (a, _) = SimBackend.account(&spec, &costs, 0.0);
        let (b, _) = SimBackend.account(&spec, &costs, 123.0);
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn native_accounting_is_the_wall_clock() {
        let spec = GpuSpec::default();
        let costs = vec![BlockCost { flops: 1_000_000, ..Default::default() }];
        assert_eq!(NativeBackend.account(&spec, &costs, 0.25), (0.25, 0.25));
    }
}
