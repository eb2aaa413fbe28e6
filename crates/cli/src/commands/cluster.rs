//! `smiler cluster`: the replication roles and placement dry runs. The
//! single-process kill → promote → bitwise-compare walkthrough is
//! `expt bench-cluster` (`crates/bench/src/clusterbench.rs`).

use super::store::{open_or_create, store_config_from_args};
use super::{synthetic_histories, with_adaptation, CliError, Read, Run};
use crate::args::{any, at_least_one, seconds, Args};
use smiler_cluster::{
    rebalance_plan, Follower, FollowerConfig, Placement, PrimaryConfig, ReplicationPrimary,
};
use smiler_core::sensor::SmilerConfig;
use smiler_core::serve::{ServeConfig, SmilerServer};
use smiler_core::PredictorKind;
use smiler_gpu::Device;
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every `--role`, with its read stage.
pub(super) const ROLES: &[(&str, Read)] =
    &[("primary", primary), ("follower", follower), ("plan", plan)];

/// `--role primary`: run a durable fleet, accept followers, drive rounds.
fn primary(args: &mut Args) -> Result<Run, CliError> {
    let dir = std::path::PathBuf::from(args.require("data-dir")?);
    let sensors: usize = args.get_or("sensors", 4, at_least_one)?;
    let rounds: usize = args.get_or("rounds", 32, any)?;
    let round_ms: u64 = args.get_or("round-ms", 50, any)?;
    let wait_followers: usize = args.get_or("wait-followers", 0, any)?;
    let epoch: u64 = args.get_or("epoch", 0, any)?;
    let days: usize = args.get_or("days", 1, at_least_one)?;
    let seed: u64 = args.get_or("seed", 7, any)?;
    let listen = args.get("listen")?.unwrap_or_else(|| "127.0.0.1:7979".to_string());
    let store_config = store_config_from_args(args)?;
    let config = with_adaptation(args, SmilerConfig::default());
    Ok(Box::new(move || {
        let device = Arc::new(Device::default_gpu());
        let mut out = String::new();
        let (fleet, store, report) = open_or_create(
            &device,
            &dir,
            store_config,
            config,
            PredictorKind::GaussianProcess,
            || synthetic_histories(SyntheticSpec { kind: DatasetKind::Road, sensors, days, seed }),
        )?;
        let _ = match report {
            Some(report) => {
                writeln!(out, "restored {} sensors from {}", report.sensors, dir.display())
            }
            None => writeln!(out, "created durable state at {}", dir.display()),
        };
        let sensors = fleet.len();
        let store = smiler_store::shared(store);
        let server = SmilerServer::start_with_store(
            Arc::clone(&device),
            fleet,
            ServeConfig::default(),
            Arc::clone(&store),
        );
        let handle = server.handle();
        let repl = ReplicationPrimary::start(
            Arc::clone(&store),
            Some(handle.clone()),
            PrimaryConfig { listen, epoch, ..PrimaryConfig::default() },
        )
        .map_err(|e| CliError::Other(format!("cannot bind replication listener: {e}")))?;
        // To stderr immediately, so a second terminal can attach before the
        // run completes.
        eprintln!("replication listening on {}", repl.addr());

        if wait_followers > 0 {
            let deadline = Instant::now() + Duration::from_secs(60);
            while repl.followers().len() < wait_followers {
                if Instant::now() > deadline {
                    return Err(CliError::Other(format!(
                        "timed out waiting for {wait_followers} follower(s)"
                    )));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        for round in 0..rounds {
            for sensor in 0..sensors {
                // Deterministic, round- and sensor-dependent observations, so
                // every run replays the same stream.
                let value = ((round * 7 + sensor * 13) as f64 * 0.21).sin() * 0.8;
                handle
                    .observe(sensor, value)
                    .map_err(|e| CliError::Other(format!("primary observe failed: {e}")))?;
            }
            if let Some(sensor) = round.checked_rem(sensors) {
                let _ = handle.forecast(sensor, 1);
            }
            if round_ms > 0 {
                std::thread::sleep(Duration::from_millis(round_ms));
            }
        }
        // Give attached followers a bounded window to drain the tail, then
        // report their lag from the same cluster status /status would show.
        let head = store.lock().last_seq();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let followers = repl.followers();
            if followers.is_empty() || followers.iter().all(|(_, acked)| *acked >= head) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = writeln!(out, "drove {rounds} rounds over {sensors} sensors (WAL head seq {head})");
        if let Some(cluster) = handle.status_report().cluster {
            let _ = writeln!(out, "role: {} (epoch {})", cluster.role.as_str(), epoch);
            for f in &cluster.followers {
                let _ = writeln!(
                    out,
                    "follower {}: acked seq {} (lag {} records, {:.1} ms)",
                    f.follower, f.acked_seq, f.lag_records, f.lag_ms
                );
            }
            if cluster.followers.is_empty() {
                let _ = writeln!(out, "no followers attached");
            }
        }
        repl.shutdown();
        server.shutdown();
        Ok(out)
    }))
}

/// `--role follower`: bootstrap from the primary, tail its log, and
/// optionally promote when the primary dies.
fn follower(args: &mut Args) -> Result<Run, CliError> {
    let dir = std::path::PathBuf::from(args.require("data-dir")?);
    // The first of `--peers` is the primary to follow.
    let primary = args.require("peers")?.split(',').next().unwrap_or("").trim().to_string();
    if primary.is_empty() {
        return Err(CliError::Other("--peers needs at least one primary address".to_string()));
    }
    let node_id = args.get("node-id")?.unwrap_or_else(|| "follower".to_string());
    let duration = args.get_or("duration-s", Duration::from_secs(5), seconds)?;
    let on_loss = args.get("on-loss")?.unwrap_or_else(|| "exit".to_string());
    if on_loss != "exit" && on_loss != "promote" {
        return Err(CliError::Other(format!("unknown --on-loss {on_loss:?} (exit|promote)")));
    }
    let epoch: u64 = args.get_or("epoch", 1, any)?;
    let follower_config = FollowerConfig {
        store_config: store_config_from_args(args)?,
        ..FollowerConfig::new(&node_id, &primary, &dir)
    };
    Ok(Box::new(move || {
        let device = Arc::new(Device::default_gpu());
        let serve_config = ServeConfig::default();
        let mut follower =
            Follower::start(Arc::clone(&device), follower_config, Some(serve_config))
                .map_err(|e| CliError::Other(format!("follower cannot start: {e}")))?;
        eprintln!("follower {node_id} tailing {primary} into {}", dir.display());

        let started = Instant::now();
        while started.elapsed() < duration && follower.connected() {
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut out = String::new();
        let applied = follower.applied_seq();
        let _ = writeln!(
            out,
            "follower {node_id}: applied seq {applied}, primary head seen {}, lag {} records",
            follower.primary_seq(),
            follower.lag_records()
        );
        let lost = !follower.connected();
        if lost {
            let _ = writeln!(
                out,
                "primary connection lost ({})",
                follower.last_error().unwrap_or_else(|| "clean disconnect".to_string())
            );
        }
        if lost && on_loss == "promote" {
            let promotion = follower
                .into_promoted(Arc::clone(&device), serve_config, epoch)
                .map_err(|e| CliError::Other(format!("promotion failed: {e}")))?;
            let promoted = promotion.server.handle();
            let first = promoted
                .forecast(0, 1)
                .map_err(|e| CliError::Other(format!("promoted forecast failed: {e}")))?;
            let _ = writeln!(
                out,
                "promoted to primary (epoch {}): recovered {} sensors, first forecast mean {:.6}",
                promotion.epoch, promotion.report.sensors, first.mean
            );
            promotion.server.shutdown();
        } else {
            follower.stop();
        }
        Ok(out)
    }))
}

/// `--role plan`: rendezvous-placement ownership and migration dry run.
fn plan(args: &mut Args) -> Result<Run, CliError> {
    let peers: Vec<String> = args
        .require("peers")?
        .split(',')
        .map(|p| p.trim().to_string())
        .filter(|p| !p.is_empty())
        .collect();
    if peers.is_empty() {
        return Err(CliError::Other("--peers needs at least one node".to_string()));
    }
    let fleet: u64 = args.get_or("sensors", 64, any)?;
    let (add_node, remove_node) = (args.get("add-node")?, args.get("remove-node")?);
    if add_node.is_some() && remove_node.is_some() {
        return Err(CliError::Other("use --add-node or --remove-node, not both".to_string()));
    }
    Ok(Box::new(move || {
        let placement = Placement::new(peers);
        let mut out = String::new();
        let _ = writeln!(out, "placement over {} node(s), {fleet} sensors:", placement.len());
        for node in placement.nodes() {
            let owned = placement.owned_by(node, fleet);
            let _ = writeln!(out, "  {node}: {} sensors", owned.len());
        }
        let changed = match (add_node, remove_node) {
            (Some(node), _) => Some((placement.with_node(&node), format!("adding {node}"))),
            (None, Some(node)) => Some((placement.without_node(&node), format!("removing {node}"))),
            (None, None) => None,
        };
        if let Some((new_placement, what)) = changed {
            let plan = rebalance_plan(&placement, &new_placement, fleet);
            let _ = writeln!(
                out,
                "{what} migrates {} of {fleet} sensors (~1/{} expected):",
                plan.len(),
                placement.len().max(new_placement.len())
            );
            for m in plan.iter().take(8) {
                let _ = writeln!(
                    out,
                    "  sensor {} : {} -> {}",
                    m.sensor,
                    m.from.as_deref().unwrap_or("(none)"),
                    m.to.as_deref().unwrap_or("(none)")
                );
            }
            if plan.len() > 8 {
                let _ = writeln!(out, "  ... and {} more", plan.len() - 8);
            }
        }
        Ok(out)
    }))
}
