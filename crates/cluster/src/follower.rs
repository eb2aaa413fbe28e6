//! The follower: tails the primary's WAL into its own store and serves
//! slightly-stale forecasts; [`promote`] turns its directory into a
//! primary through the ordinary recovery ladder.
//!
//! A follower's on-disk state is **byte-for-byte the primary's log**:
//! bootstrap installs raw segment images plus the latest checkpoint, and
//! the streaming tail appends records carrying the primary's own
//! sequence numbers through the store's strict-continuity replicated
//! append (a gap or duplicate is an error, never a silent skip). That
//! identity is the whole failover story — promotion just runs
//! `DurableSystem::open` (newest valid checkpoint → rebuild → WAL-tail
//! replay) on the follower's directory, and the single-process bitwise
//! restart proof applies unchanged.
//!
//! While following, the node keeps a **live replica fleet** (recovered at
//! start, advanced by each replicated observation through the internal
//! [`ServeHandle::apply_replicated_observe`] path) and serves forecasts
//! from it. Reads are *slightly stale* — bounded by replication lag,
//! which the status report exposes as `staleness_ms`. Client writes are
//! shed at admission with the typed `NotPrimary` error; state enters a
//! follower only from the replication stream, or its WAL would diverge
//! from the primary's.

use crate::conn::ReplConn;
use crate::ClusterError;
use smiler_core::{
    ClusterRole, ClusterStatus, DurableError, DurableSystem, RestoreReport, ServeConfig,
    ServeHandle, SmilerServer,
};
use smiler_gpu::Device;
use smiler_net::repl::ReplMsg;
use smiler_net::ChunkAssembler;
use smiler_store::{Store, StoreConfig, WalRecord};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for one follower.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// This follower's stable identity (the primary's cursor key; reuse
    /// it across restarts so the cursor survives reconnects).
    pub node_id: String,
    /// The primary's replication address (`host:port`).
    pub primary: String,
    /// The follower's own store directory.
    pub dir: PathBuf,
    /// Store tuning for the follower's log.
    pub store_config: StoreConfig,
    /// Send an `Ack` after this many applied records (heartbeats and
    /// idle gaps also trigger acks, so lag never hides indefinitely).
    pub ack_every: u64,
    /// Receive poll interval while streaming.
    pub poll: Duration,
}

/// How long a follower keeps retrying its initial connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

impl FollowerConfig {
    /// Sensible defaults for `node_id` following `primary` into `dir`.
    pub fn new(node_id: &str, primary: &str, dir: &Path) -> FollowerConfig {
        FollowerConfig {
            node_id: node_id.to_string(),
            primary: primary.to_string(),
            dir: dir.to_path_buf(),
            store_config: StoreConfig::default(),
            ack_every: 16,
            poll: Duration::from_millis(10),
        }
    }
}

/// Shared view of a follower's replication progress.
struct FollowerShared {
    stop: AtomicBool,
    /// Highest seq durably applied to the follower's own WAL.
    applied_seq: AtomicU64,
    /// The primary's WAL head, from records and heartbeats.
    primary_seq: AtomicU64,
    connected: AtomicBool,
    error: parking_lot::Mutex<Option<String>>,
    last_apply: parking_lot::Mutex<Instant>,
}

/// A running follower: replication thread plus (optionally) a live
/// stale-read serving fleet.
pub struct Follower {
    server: Option<SmilerServer>,
    handle: Option<ServeHandle>,
    thread: Option<JoinHandle<()>>,
    shared: Arc<FollowerShared>,
    config: FollowerConfig,
}

impl Follower {
    /// Connect to the primary, bootstrap if this directory is empty,
    /// recover the replica fleet, and start tailing the log. Blocks
    /// until bootstrap + recovery finish (the streaming tail then runs
    /// on its own thread). With `serve_config`, the follower also serves
    /// stale forecasts through an ordinary [`ServeHandle`].
    pub fn start(
        device: Arc<Device>,
        config: FollowerConfig,
        serve_config: Option<ServeConfig>,
    ) -> Result<Follower, ClusterError> {
        let mut conn = connect(&config)?;
        let cold = smiler_store::wal::list_segments(&config.dir.join("wal"))?.is_empty();
        if cold {
            conn.send(&ReplMsg::Hello { follower_id: config.node_id.clone(), acked_seq: 0 })?;
            install_bootstrap(&mut conn, &config.dir)?;
        }
        // With `serve_config`, recover the replica fleet and take over
        // the store's append handle. Without it the follower is WAL-only
        // — plain `Store::open` suffices, and the primary's checkpoint
        // payloads need not even be fleet state. A log without any
        // checkpoint (primary never wrote one) still replicates — it
        // just cannot host a live serving fleet.
        let (store, server) = match serve_config {
            None => {
                let (store, _) = Store::open(&config.dir, config.store_config.clone())?;
                (store, None)
            }
            Some(sc) => match DurableSystem::open(
                Arc::clone(&device),
                &config.dir,
                config.store_config.clone(),
                0,
            ) {
                Ok((durable, _report)) => {
                    let (system, store) = durable.into_parts();
                    let server = Some(SmilerServer::start(device, system.into_sensors(), sc));
                    (store, server)
                }
                Err(DurableError::NoState) => {
                    let (store, _) = Store::open(&config.dir, config.store_config.clone())?;
                    (store, None)
                }
                Err(e) => return Err(e.into()),
            },
        };
        let applied = store.last_seq();
        if !cold {
            conn.send(&ReplMsg::Hello { follower_id: config.node_id.clone(), acked_seq: applied })?;
        }
        // Tell the primary what actually landed (after bootstrap install
        // + recovery this may trail the shipped head by a torn tail).
        conn.send(&ReplMsg::Ack { acked_seq: applied })?;

        let handle = server.as_ref().map(|s| s.handle());
        let shared = Arc::new(FollowerShared {
            stop: AtomicBool::new(false),
            applied_seq: AtomicU64::new(applied),
            primary_seq: AtomicU64::new(applied),
            connected: AtomicBool::new(true),
            error: parking_lot::Mutex::new(None),
            last_apply: parking_lot::Mutex::new(Instant::now()),
        });
        publish_status(&handle, &shared, &config, 0);
        let thread = {
            let shared = Arc::clone(&shared);
            let handle = handle.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                let result = stream_tail(conn, store, &shared, &handle, &config);
                shared.connected.store(false, Ordering::Relaxed);
                if let Err(e) = result {
                    *shared.error.lock() = Some(e.to_string());
                    if smiler_obs::enabled() {
                        smiler_obs::count("cluster.follower_stream_error", &config.node_id, 1);
                    }
                }
                publish_status(&handle, &shared, &config, 0);
            })
        };
        Ok(Follower { server, handle: handle.clone(), thread: Some(thread), shared, config })
    }

    /// The stale-read serving handle, when serving was requested.
    pub fn serve_handle(&self) -> Option<&ServeHandle> {
        self.handle.as_ref()
    }

    /// Highest seq durably applied to this follower's own WAL.
    pub fn applied_seq(&self) -> u64 {
        self.shared.applied_seq.load(Ordering::Relaxed)
    }

    /// The primary's WAL head as last heard (records or heartbeats).
    pub fn primary_seq(&self) -> u64 {
        self.shared.primary_seq.load(Ordering::Relaxed)
    }

    /// Records behind the primary's last-heard head.
    pub fn lag_records(&self) -> u64 {
        self.primary_seq().saturating_sub(self.applied_seq())
    }

    /// Whether the replication stream is still up.
    pub fn connected(&self) -> bool {
        self.shared.connected.load(Ordering::Relaxed)
    }

    /// The streaming thread's terminal error, if it died.
    pub fn last_error(&self) -> Option<String> {
        self.shared.error.lock().clone()
    }

    /// Block until `applied_seq >= target` or `timeout` elapses; returns
    /// whether the target was reached.
    pub fn wait_applied(&self, target: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.applied_seq() < target {
            if Instant::now() >= deadline || !self.connected() {
                return self.applied_seq() >= target;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Stop replicating: disconnect, sync the follower's store, join the
    /// thread. The directory stays intact for [`promote`].
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Promote this follower: stop replication, retire the stale-read
    /// fleet, and re-derive the serving state from this node's **own
    /// directory** through the full recovery ladder. Returns the new
    /// primary's server, which serves forecasts bitwise identical to
    /// what the dead primary would have served.
    pub fn into_promoted(
        mut self,
        device: Arc<Device>,
        serve_config: ServeConfig,
        epoch: u64,
    ) -> Result<Promotion, ClusterError> {
        self.stop();
        if let Some(server) = self.server.take() {
            // The stale-read fleet has no store attached; shutting it
            // down only drains the workers.
            server.shutdown();
        }
        self.handle = None;
        promote(device, &self.config.dir, self.config.store_config.clone(), serve_config, epoch)
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A promoted node: the recovered server plus how recovery went.
pub struct Promotion {
    /// The new primary's serving frontend (store attached, so its writes
    /// are durable and it can itself host a [`crate::ReplicationPrimary`]).
    pub server: SmilerServer,
    /// What the recovery ladder rebuilt and replayed.
    pub report: RestoreReport,
    /// The promotion epoch this node now serves under.
    pub epoch: u64,
}

/// Run the recovery ladder over `dir` and start serving from it as a
/// primary under `epoch`. This is exactly the single-process restart
/// path — promotion adds nothing to it, which is why a promoted
/// follower's forecasts are bitwise identical to the dead primary's.
pub fn promote(
    device: Arc<Device>,
    dir: &Path,
    store_config: StoreConfig,
    serve_config: ServeConfig,
    epoch: u64,
) -> Result<Promotion, ClusterError> {
    let started = Instant::now();
    let (durable, report) = DurableSystem::open(Arc::clone(&device), dir, store_config, 0)?;
    let (system, store) = durable.into_parts();
    let applied = store.last_seq();
    let server = SmilerServer::start_with_store(
        device,
        system.into_sensors(),
        serve_config,
        smiler_store::shared(store),
    );
    server.handle().set_cluster_status(Some(ClusterStatus {
        role: ClusterRole::Primary,
        peers: Vec::new(),
        leader_hint: String::new(),
        followers: Vec::new(),
        applied_seq: applied,
        staleness_ms: None,
        last_promotion_epoch: epoch,
    }));
    if smiler_obs::enabled() {
        smiler_obs::count("cluster.promotions", "", 1);
        smiler_obs::observe("cluster.promotion_seconds", "", started.elapsed().as_secs_f64());
    }
    Ok(Promotion { server, report, epoch })
}

/// Dial the primary, retrying (it may still be binding) until
/// [`CONNECT_TIMEOUT`].
fn connect(config: &FollowerConfig) -> Result<ReplConn, ClusterError> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    loop {
        match std::net::TcpStream::connect(&config.primary) {
            Ok(stream) => return Ok(ReplConn::new(stream)?),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(ClusterError::Io(e));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Receive the bootstrap into a **closed** directory: checkpoint chunks
/// and segment-image chunks, each reassembled and installed, terminated
/// by `BootstrapDone`.
fn install_bootstrap(conn: &mut ReplConn, dir: &Path) -> Result<(), ClusterError> {
    let mut ckpt = ChunkAssembler::new();
    let mut seg = ChunkAssembler::new();
    let mut current_segment: Option<u64> = None;
    loop {
        match conn.recv()? {
            ReplMsg::CheckpointChunk { seq, offset, total_len, bytes } => {
                if let Some(payload) =
                    ckpt.push(offset, total_len, &bytes).map_err(ClusterError::Protocol)?
                {
                    Store::install_checkpoint(dir, seq, &payload)?;
                }
            }
            ReplMsg::SegmentChunk { index, offset, total_len, bytes } => {
                if current_segment.is_some_and(|cur| cur != index) && offset != 0 {
                    return Err(ClusterError::Protocol(format!(
                        "segment {index} chunk interleaved mid-transfer"
                    )));
                }
                current_segment = Some(index);
                if let Some(image) =
                    seg.push(offset, total_len, &bytes).map_err(ClusterError::Protocol)?
                {
                    Store::install_segment(dir, index, &image)?;
                    current_segment = None;
                }
            }
            ReplMsg::BootstrapDone { last_seq } => {
                if current_segment.is_some() {
                    return Err(ClusterError::Protocol("bootstrap ended mid-segment".to_string()));
                }
                if smiler_obs::enabled() {
                    smiler_obs::gauge_set("cluster.bootstrap_head", "", last_seq as f64);
                }
                return Ok(());
            }
            ReplMsg::Error { detail } => {
                return Err(ClusterError::Protocol(format!("primary: {detail}")));
            }
            other => {
                return Err(ClusterError::Protocol(format!(
                    "unexpected {other:?} during bootstrap"
                )));
            }
        }
    }
}

/// The streaming loop: apply records, ack progress, track staleness.
fn stream_tail(
    mut conn: ReplConn,
    mut store: Store,
    shared: &FollowerShared,
    handle: &Option<ServeHandle>,
    config: &FollowerConfig,
) -> Result<(), ClusterError> {
    let mut unacked = 0u64;
    let mut last_publish = Instant::now();
    let result = loop {
        if shared.stop.load(Ordering::Relaxed) {
            break Ok(());
        }
        match conn.recv_timeout(config.poll) {
            Ok(Some(ReplMsg::Record { record })) => {
                let seq = record.seq();
                store.append_replicated(&record)?;
                shared.applied_seq.store(seq, Ordering::Relaxed);
                shared.primary_seq.fetch_max(seq, Ordering::Relaxed);
                *shared.last_apply.lock() = Instant::now();
                apply_live(handle, &record);
                unacked += 1;
                if unacked >= config.ack_every {
                    conn.send(&ReplMsg::Ack { acked_seq: seq })?;
                    unacked = 0;
                }
            }
            Ok(Some(ReplMsg::Heartbeat { last_seq })) => {
                shared.primary_seq.fetch_max(last_seq, Ordering::Relaxed);
                // A heartbeat means the primary is idle: flush the ack so
                // the cursor (and retention pin) reflects reality.
                conn.send(&ReplMsg::Ack { acked_seq: shared.applied_seq.load(Ordering::Relaxed) })?;
                unacked = 0;
            }
            Ok(Some(ReplMsg::Error { detail })) => {
                break Err(ClusterError::Protocol(format!("primary: {detail}")));
            }
            Ok(Some(other)) => {
                break Err(ClusterError::Protocol(format!("unexpected {other:?} while streaming")));
            }
            Ok(None) => {}
            Err(e) => {
                if shared.stop.load(Ordering::Relaxed) {
                    break Ok(());
                }
                break Err(e);
            }
        }
        if last_publish.elapsed() >= Duration::from_millis(100) {
            publish_status(handle, shared, config, unacked);
            last_publish = Instant::now();
        }
    };
    // Leave the log durable and the cursor honest regardless of how the
    // session ended.
    let _ = conn.send(&ReplMsg::Ack { acked_seq: shared.applied_seq.load(Ordering::Relaxed) });
    store.sync()?;
    result
}

/// Advance the live stale-read fleet with one replicated record. `Round`
/// records (batch-mode fleets) cannot replay through the serving path;
/// the WAL still has them, so promotion repairs the divergence.
fn apply_live(handle: &Option<ServeHandle>, record: &WalRecord) {
    let Some(handle) = handle else { return };
    if let WalRecord::Observe { sensor, value, .. } = record {
        // Never shed: a full shard queue blocks here, which holds back the
        // stream's acks. What can still fail is a sensor the live fleet does
        // not have or a server shutting down; the durable log has the
        // record either way.
        let _ = handle.apply_replicated_observe(*sensor as usize, *value).map(|p| p.wait());
    }
}

/// Publish this follower's role, progress, and staleness window into its
/// serving handle (no-op for serve-less followers).
fn publish_status(
    handle: &Option<ServeHandle>,
    shared: &FollowerShared,
    config: &FollowerConfig,
    _unacked: u64,
) {
    let applied = shared.applied_seq.load(Ordering::Relaxed);
    let primary = shared.primary_seq.load(Ordering::Relaxed);
    let staleness_ms = if primary > applied {
        shared.last_apply.lock().elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    if smiler_obs::enabled() {
        smiler_obs::gauge_set("cluster.follower_staleness_ms", &config.node_id, staleness_ms);
        smiler_obs::gauge_set("cluster.follower_applied_seq", &config.node_id, applied as f64);
    }
    let Some(handle) = handle else { return };
    handle.set_cluster_status(Some(ClusterStatus {
        role: ClusterRole::Follower,
        peers: vec![config.primary.clone()],
        leader_hint: config.primary.clone(),
        followers: Vec::new(),
        applied_seq: applied,
        staleness_ms: Some(staleness_ms),
        last_promotion_epoch: 0,
    }));
}
