//! `smiler checkpoint` and `smiler restore`, and the durable-fleet
//! helpers `serve` and the cluster primary share.

use super::{CliError, Run};
use crate::args::Args;
use smiler_core::sensor::SmilerConfig;
use smiler_core::{DurableError, DurableSystem, PredictorKind, RestoreReport, SensorPredictor};
use smiler_gpu::Device;
use smiler_store::{FlushPolicy, Store, StoreConfig};
use std::fmt::Write as _;
use std::sync::Arc;

/// The store tuning `--flush` asks for (group commit every 32 by default).
pub(super) fn store_config_from_args(args: &mut Args) -> Result<StoreConfig, CliError> {
    let flush = args.get("flush")?.map_or(Ok(FlushPolicy::default()), |v| v.parse());
    let flush = flush.map_err(|e| CliError::Other(format!("invalid --flush: {e}")))?;
    Ok(StoreConfig { flush, ..StoreConfig::default() })
}

fn restore_report_lines(out: &mut String, report: &RestoreReport) {
    let _ = writeln!(
        out,
        "restored {} sensors from checkpoint seq {}",
        report.sensors, report.checkpoint_seq
    );
    let _ = writeln!(
        out,
        "replayed {} fleet rounds + {} observations from the WAL tail",
        report.replayed_rounds, report.replayed_observes
    );
    let _ = writeln!(
        out,
        "repairs: {} checkpoint(s) quarantined, {} WAL segment(s) quarantined, \
         {} torn byte(s) truncated",
        report.quarantined_checkpoints, report.quarantined_segments, report.truncated_bytes
    );
    let _ = writeln!(
        out,
        "timings: open {:.3}s, restore {:.3}s, replay {:.3}s",
        report.open_seconds, report.rebuild_seconds, report.replay_seconds
    );
}

/// `smiler checkpoint`: fold the WAL tail into a fresh checkpoint so the
/// next restart replays (almost) nothing, then prune covered WAL segments.
pub(super) fn checkpoint_cmd(args: &mut Args) -> Result<Run, CliError> {
    let dir = std::path::PathBuf::from(args.require("data-dir")?);
    let store_config = store_config_from_args(args)?;
    Ok(Box::new(move || {
        let device = Arc::new(Device::default_gpu());
        let (mut durable, report) = DurableSystem::open(device, &dir, store_config, 0)?;
        let mut out = String::new();
        restore_report_lines(&mut out, &report);
        let seq = durable.checkpoint()?;
        let _ = writeln!(out, "checkpointed {} at seq {seq}", dir.display());
        Ok(out)
    }))
}

/// `smiler restore`: run the recovery ladder and report what it found —
/// a dry-run restart that doubles as an integrity check.
pub(super) fn restore_cmd(args: &mut Args) -> Result<Run, CliError> {
    let dir = std::path::PathBuf::from(args.require("data-dir")?);
    let store_config = store_config_from_args(args)?;
    Ok(Box::new(move || {
        let device = Arc::new(Device::default_gpu());
        let (durable, report) = DurableSystem::open(device, &dir, store_config, 0)?;
        let mut out = String::new();
        restore_report_lines(&mut out, &report);
        let quarantined = durable.system().quarantined();
        if quarantined.is_empty() {
            let _ = writeln!(out, "fleet healthy: {} sensors ready", report.sensors);
        } else {
            let _ = writeln!(out, "quarantined sensors: {quarantined:?}");
        }
        Ok(out)
    }))
}

/// The durable fleet at `dir`, as sensors ready to serve with its store:
/// opened when the directory holds fleet state (with the restore report),
/// otherwise created there from `histories` (report `None`). The server
/// checkpoints on drain, so the in-run checkpoint cadence is 0.
pub(super) fn open_or_create(
    device: &Arc<Device>,
    dir: &std::path::Path,
    store_config: StoreConfig,
    config: SmilerConfig,
    kind: PredictorKind,
    histories: impl FnOnce() -> Vec<Vec<f64>>,
) -> Result<(Vec<SensorPredictor>, Store, Option<RestoreReport>), CliError> {
    let (durable, report) =
        match DurableSystem::open(Arc::clone(device), dir, store_config.clone(), 0) {
            Ok((durable, report)) => (durable, Some(report)),
            Err(DurableError::NoState) => {
                let (durable, _) = DurableSystem::create(
                    Arc::clone(device),
                    histories(),
                    config,
                    kind,
                    dir,
                    store_config,
                    0,
                )?;
                (durable, None)
            }
            Err(e) => return Err(e.into()),
        };
    let (system, store) = durable.into_parts();
    Ok((system.into_sensors(), store, report))
}
