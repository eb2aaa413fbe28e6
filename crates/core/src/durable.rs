//! Durable fleet operation: WAL-logged steps, binary checkpoints and the
//! store-backed recovery ladder.
//!
//! [`DurableSystem`] wraps a [`SmilerSystem`] and a [`Store`] so that a
//! fleet killed at any moment restarts **bitwise-identically** to one that
//! never stopped:
//!
//! 1. every fleet round is appended to the WAL *before* any sensor's
//!    history grows (a redo log: a crash between the append and the
//!    in-memory step replays the round on restart);
//! 2. periodic checkpoints serialise the full adaptive state — history,
//!    λ weights and sleep schedules, warm-started GP hyperparameters,
//!    pending λ-update rounds, retrain cadence and error counters — in a
//!    length-prefixed binary format whose floats travel as raw IEEE-754
//!    bits (JSON would lose NaN gaps and cost the bitwise guarantee);
//! 3. [`DurableSystem::open`] recovers along the ladder *checkpoint →
//!    WAL replay → cold rebuild*: decode the newest valid checkpoint,
//!    restore each sensor from its snapshot, then re-apply the WAL tail as
//!    ordinary fleet rounds. No index is built: each sensor's is built by
//!    its first search over the saved history plus the tail (bitwise
//!    equivalent to having advanced it online).
//!
//! A quarantined sensor is persisted and rebuilt from the same recovery
//! point, checkpoint + WAL tail; DESIGN §8 ("Quarantine & recovery
//! lifecycle") describes the contract.

use crate::predictor::PredictorKind;
use crate::sensor::SensorPredictor;
use crate::snapshot::{HorizonSnapshot, PendingPrediction, SensorSnapshot};
use crate::system::{OutOfDeviceMemory, SensorHealth, SmilerSystem};
use crate::SmilerConfig;
use smiler_gp::Hyperparams;
use smiler_gpu::Device;
use smiler_store::{codec, ByteReader, CodecError, Store, StoreConfig, StoreError, WalRecord};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Version of the fleet checkpoint payload layout.
pub const FLEET_FORMAT_VERSION: u32 = 1;

/// Durability position of a store: where the WAL head is relative to the
/// newest checkpoint. Surfaced by [`crate::serve::StatusReport`] so an
/// operator can see how much replay a crash right now would cost.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct StoreStatus {
    /// Sequence number of the newest WAL record.
    pub last_seq: u64,
    /// WAL sequence the newest checkpoint covers (0 when none exists).
    pub checkpoint_seq: u64,
    /// WAL records past the checkpoint — the replay cost of a crash now.
    pub wal_lag: u64,
    /// Seconds since the newest checkpoint file was written (its mtime);
    /// `None` when no checkpoint exists or the clock/file is unreadable.
    pub checkpoint_age_seconds: Option<f64>,
}

/// Read the durability position of `store`. Cheap: lists checkpoint file
/// names without decoding any payload.
pub fn store_status(store: &Store) -> StoreStatus {
    let last_seq = store.last_seq();
    let checkpoint_seq = smiler_store::checkpoint::list(store.dir())
        .ok()
        .and_then(|seqs| seqs.last().copied())
        .unwrap_or(0);
    let checkpoint_age_seconds = (checkpoint_seq > 0)
        .then(|| {
            let path = store.dir().join(format!("ckpt-{checkpoint_seq:016}.ck"));
            let modified = std::fs::metadata(path).ok()?.modified().ok()?;
            std::time::SystemTime::now().duration_since(modified).ok().map(|d| d.as_secs_f64())
        })
        .flatten();
    StoreStatus {
        last_seq,
        checkpoint_seq,
        wal_lag: last_seq.saturating_sub(checkpoint_seq),
        checkpoint_age_seconds,
    }
}

/// Failures of the durable fleet layer.
#[derive(Debug)]
pub enum DurableError {
    /// The store itself failed (I/O, container corruption).
    Store(StoreError),
    /// A checkpoint payload failed structural decoding.
    Codec(CodecError),
    /// The payload decoded but its contents are unusable.
    Corrupt(String),
    /// The data directory holds no recoverable fleet state.
    NoState,
    /// Restored sensors exceed device memory.
    OutOfMemory(OutOfDeviceMemory),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Store(e) => write!(f, "durable store failed: {e}"),
            DurableError::Codec(e) => write!(f, "fleet checkpoint undecodable: {e}"),
            DurableError::Corrupt(msg) => write!(f, "fleet checkpoint corrupt: {msg}"),
            DurableError::NoState => {
                write!(f, "data directory holds no recoverable fleet state")
            }
            DurableError::OutOfMemory(e) => write!(f, "restored fleet does not fit: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Store(e) => Some(e),
            DurableError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

impl From<CodecError> for DurableError {
    fn from(e: CodecError) -> Self {
        DurableError::Codec(e)
    }
}

// ------------------------------------------------------------- encoding

fn encode_hyper(buf: &mut Vec<u8>, hyper: &Option<Hyperparams>) {
    match hyper {
        None => codec::put_u8(buf, 0),
        Some(h) => {
            codec::put_u8(buf, 1);
            codec::put_f64(buf, h.theta0);
            codec::put_f64(buf, h.theta1);
            codec::put_f64(buf, h.theta2);
        }
    }
}

fn decode_hyper(r: &mut ByteReader<'_>) -> Result<Option<Hyperparams>, DurableError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let theta0 = r.f64()?;
            let theta1 = r.f64()?;
            let theta2 = r.f64()?;
            Ok(Some(Hyperparams { theta0, theta1, theta2 }))
        }
        tag => Err(DurableError::Codec(CodecError::BadTag { tag })),
    }
}

fn encode_cells(buf: &mut Vec<u8>, cells: &[Option<(f64, f64)>]) {
    codec::put_u64(buf, cells.len() as u64);
    for cell in cells {
        match cell {
            None => codec::put_u8(buf, 0),
            Some((m, v)) => {
                codec::put_u8(buf, 1);
                codec::put_f64(buf, *m);
                codec::put_f64(buf, *v);
            }
        }
    }
}

fn decode_cells(r: &mut ByteReader<'_>) -> Result<Vec<Option<(f64, f64)>>, DurableError> {
    let n = r.u64()? as usize;
    let mut cells = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        cells.push(match r.u8()? {
            0 => None,
            1 => Some((r.f64()?, r.f64()?)),
            tag => return Err(DurableError::Codec(CodecError::BadTag { tag })),
        });
    }
    Ok(cells)
}

fn encode_horizon(buf: &mut Vec<u8>, h: &HorizonSnapshot) {
    codec::put_u64(buf, h.horizon as u64);
    codec::put_f64_slice(buf, &h.ensemble.lambda);
    codec::put_u64(buf, h.ensemble.sleep.len() as u64);
    for &(remaining, counter, just_recovered) in &h.ensemble.sleep {
        codec::put_u64(buf, remaining as u64);
        codec::put_u64(buf, counter as u64);
        codec::put_u8(buf, just_recovered as u8);
    }
    codec::put_u64(buf, h.gp_hypers.len() as u64);
    for hyper in &h.gp_hypers {
        encode_hyper(buf, hyper);
    }
    codec::put_u64(buf, h.pending.len() as u64);
    for p in &h.pending {
        codec::put_u64(buf, p.target as u64);
        encode_cells(buf, &p.cells);
    }
    codec::put_u64(buf, h.gp_cadence.len() as u64);
    for &steps in &h.gp_cadence {
        codec::put_u64(buf, steps as u64);
    }
}

fn decode_horizon(r: &mut ByteReader<'_>) -> Result<HorizonSnapshot, DurableError> {
    let horizon = r.u64()? as usize;
    let lambda = r.f64_vec()?;
    let n_sleep = r.u64()? as usize;
    let mut sleep = Vec::with_capacity(n_sleep.min(1 << 16));
    for _ in 0..n_sleep {
        let remaining = r.u64()? as usize;
        let counter = r.u64()? as usize;
        let just_recovered = r.u8()? != 0;
        sleep.push((remaining, counter, just_recovered));
    }
    let n_hypers = r.u64()? as usize;
    let mut gp_hypers = Vec::with_capacity(n_hypers.min(1 << 16));
    for _ in 0..n_hypers {
        gp_hypers.push(decode_hyper(r)?);
    }
    let n_pending = r.u64()? as usize;
    let mut pending = Vec::with_capacity(n_pending.min(1 << 16));
    for _ in 0..n_pending {
        let target = r.u64()? as usize;
        let cells = decode_cells(r)?;
        pending.push(PendingPrediction { target, cells });
    }
    let n_cadence = r.u64()? as usize;
    let mut gp_cadence = Vec::with_capacity(n_cadence.min(1 << 16));
    for _ in 0..n_cadence {
        gp_cadence.push(r.u64()? as usize);
    }
    Ok(HorizonSnapshot {
        horizon,
        ensemble: crate::ensemble::EnsembleState { lambda, sleep },
        gp_hypers,
        pending,
        gp_cadence,
    })
}

fn encode_sensor(buf: &mut Vec<u8>, snap: &SensorSnapshot) {
    codec::put_u64(buf, snap.sensor_id as u64);
    // The config holds only finite tunables, so a JSON round-trip is exact
    // (Rust's shortest-roundtrip float formatting); the bitwise-sensitive
    // state below travels as raw bits.
    codec::put_str(buf, &serde_json::to_string(&snap.config).expect("config serialises"));
    codec::put_u8(
        buf,
        match snap.kind {
            PredictorKind::Aggregation => 0,
            PredictorKind::GaussianProcess => 1,
        },
    );
    codec::put_f64_slice(buf, &snap.history);
    codec::put_u32(buf, snap.errors.consecutive_gp_failures);
    codec::put_u32(buf, snap.errors.cooldown_remaining);
    codec::put_u64(buf, snap.errors.total_gp_failures);
    codec::put_u64(buf, snap.errors.total_search_errors);
    codec::put_u64(buf, snap.horizons.len() as u64);
    for h in &snap.horizons {
        encode_horizon(buf, h);
    }
}

fn decode_sensor(r: &mut ByteReader<'_>) -> Result<SensorSnapshot, DurableError> {
    let sensor_id = r.u64()? as usize;
    let config_json = r.str()?;
    let config: SmilerConfig = serde_json::from_str(&config_json)
        .map_err(|e| DurableError::Corrupt(format!("sensor {sensor_id} config: {e}")))?;
    let kind = match r.u8()? {
        0 => PredictorKind::Aggregation,
        1 => PredictorKind::GaussianProcess,
        tag => return Err(DurableError::Codec(CodecError::BadTag { tag })),
    };
    let history = r.f64_vec()?;
    let errors = crate::degrade::ErrorState {
        consecutive_gp_failures: r.u32()?,
        cooldown_remaining: r.u32()?,
        total_gp_failures: r.u64()?,
        total_search_errors: r.u64()?,
    };
    let n_horizons = r.u64()? as usize;
    let mut horizons = Vec::with_capacity(n_horizons.min(1 << 16));
    for _ in 0..n_horizons {
        horizons.push(decode_horizon(r)?);
    }
    Ok(SensorSnapshot { sensor_id, history, config, kind, horizons, errors })
}

/// Serialise a fleet's per-sensor snapshots as a checkpoint payload.
pub fn encode_fleet(snapshots: &[SensorSnapshot]) -> Vec<u8> {
    let mut buf =
        Vec::with_capacity(64 + snapshots.iter().map(|s| s.history.len() * 8).sum::<usize>());
    codec::put_u32(&mut buf, FLEET_FORMAT_VERSION);
    codec::put_u64(&mut buf, snapshots.len() as u64);
    for snap in snapshots {
        encode_sensor(&mut buf, snap);
    }
    buf
}

/// Decode a fleet checkpoint payload back into per-sensor snapshots.
pub fn decode_fleet(payload: &[u8]) -> Result<Vec<SensorSnapshot>, DurableError> {
    let mut r = ByteReader::new(payload);
    let version = r.u32()?;
    if version != FLEET_FORMAT_VERSION {
        return Err(DurableError::Corrupt(format!(
            "fleet payload version {version}, this build reads {FLEET_FORMAT_VERSION}"
        )));
    }
    let n = r.u64()? as usize;
    let mut snapshots = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        snapshots.push(decode_sensor(&mut r)?);
    }
    if !r.is_empty() {
        return Err(DurableError::Corrupt(format!("{} trailing bytes", r.remaining())));
    }
    Ok(snapshots)
}

/// The durable recovery point of a fleet: the newest checkpoint's
/// per-sensor snapshots plus the WAL records past it. The only source a
/// quarantined sensor is persisted ([`checkpoint_payload`]) or rebuilt
/// ([`DurableSystem::recover_all`]) from, so a torn predictor is never
/// trusted.
pub(crate) struct RecoveryPoint {
    snapshots: Vec<SensorSnapshot>,
    tail: Vec<WalRecord>,
}

impl RecoveryPoint {
    /// Decode the newest durable checkpoint and read the WAL tail past
    /// it; `None` when the store holds no checkpoint.
    pub(crate) fn load(store: &Store) -> Result<Option<Self>, DurableError> {
        let Some((seq, payload)) = store.latest_checkpoint()? else {
            return Ok(None);
        };
        Ok(Some(RecoveryPoint { snapshots: decode_fleet(&payload)?, tail: store.read_tail(seq)? }))
    }

    /// The checkpointed snapshot of `sensor_id` with its share of the WAL
    /// tail absorbed into the history (fleet rounds carry one value per
    /// fleet `position`, single observes name the sensor), so an index
    /// built from it is current.
    pub(crate) fn snapshot_of(&self, sensor_id: usize, position: usize) -> Option<SensorSnapshot> {
        let mut snap = self.snapshots.iter().find(|s| s.sensor_id == sensor_id)?.clone();
        for record in &self.tail {
            match record {
                WalRecord::Round { values, .. } => snap.history.extend(values.get(position)),
                WalRecord::Observe { sensor, value, .. } if *sensor as usize == sensor_id => {
                    snap.history.push(*value)
                }
                WalRecord::Observe { .. } => {}
            }
        }
        Some(snap)
    }
}

/// The one rule for what a fleet persists. Each sensor, in fleet order,
/// contributes its live snapshot if healthy. A quarantined sensor may be
/// torn mid-update, so it contributes its [`RecoveryPoint`] snapshot
/// instead, or, when the store holds none for it, is left out and counted
/// as `store.checkpoint.sensor_dropped`.
pub(crate) fn checkpoint_payload<'a>(
    store: &Store,
    fleet: impl Iterator<Item = (&'a SensorPredictor, &'a SensorHealth)> + Clone,
) -> Result<Vec<u8>, DurableError> {
    let point = if fleet.clone().any(|(_, health)| *health != SensorHealth::Healthy) {
        RecoveryPoint::load(store)?
    } else {
        None
    };
    let mut snapshots = Vec::new();
    for (position, (sensor, health)) in fleet.enumerate() {
        let snapshot = match health {
            SensorHealth::Healthy => Some(sensor.snapshot()),
            SensorHealth::Quarantined { .. } => {
                point.as_ref().and_then(|p| p.snapshot_of(sensor.sensor_id(), position))
            }
        };
        match snapshot {
            Some(snapshot) => snapshots.push(snapshot),
            None => smiler_obs::count("store.checkpoint.sensor_dropped", "", 1),
        }
    }
    Ok(encode_fleet(&snapshots))
}

// ------------------------------------------------------ the durable fleet

/// What [`DurableSystem::open`] rebuilt, for logs and experiment JSON.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RestoreReport {
    /// Sequence number of the checkpoint restored from.
    pub checkpoint_seq: u64,
    /// Sensors rebuilt from the checkpoint.
    pub sensors: usize,
    /// Fleet rounds re-applied from the WAL tail.
    pub replayed_rounds: usize,
    /// Single-sensor observations re-applied from the WAL tail.
    pub replayed_observes: usize,
    /// Checkpoint files quarantined during recovery.
    pub quarantined_checkpoints: usize,
    /// WAL segments quarantined during recovery.
    pub quarantined_segments: usize,
    /// Bytes cut off the WAL's torn tail.
    pub truncated_bytes: u64,
    /// Seconds spent opening and repairing the store.
    pub open_seconds: f64,
    /// Seconds spent decoding the checkpoint, restoring the sensors from
    /// their snapshots and admitting them to the device. No index is
    /// built here (the first search builds it); the name is kept for the
    /// benchmark's `durable.rebuild_s`.
    pub rebuild_seconds: f64,
    /// Seconds spent re-applying the WAL tail.
    pub replay_seconds: f64,
}

/// A [`SmilerSystem`] whose every round is durable: WAL first, then the
/// in-memory step; checkpoints on a configurable cadence.
pub struct DurableSystem {
    system: SmilerSystem,
    store: Store,
    /// Checkpoint after this many durable rounds (0 = only on demand).
    checkpoint_every: u64,
    rounds_since_checkpoint: u64,
}

impl DurableSystem {
    /// Start a **fresh** durable fleet at `dir`: build the system from
    /// `histories` and write the initial checkpoint (the baseline every
    /// later WAL replay builds on). Fails with [`DurableError::Corrupt`]
    /// if the directory already holds fleet state — restarting an
    /// existing directory is [`DurableSystem::open`]'s job.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        device: Arc<Device>,
        histories: Vec<Vec<f64>>,
        config: SmilerConfig,
        kind: PredictorKind,
        dir: &Path,
        store_config: StoreConfig,
        checkpoint_every: u64,
    ) -> Result<(Self, Option<OutOfDeviceMemory>), DurableError> {
        let (store, recovery) = Store::open(dir, store_config)?;
        if !recovery.is_cold() {
            return Err(DurableError::Corrupt(format!(
                "{} already holds fleet state (checkpoint {:?}, {} tail records); \
                 open it instead of re-creating",
                dir.display(),
                recovery.checkpoint_seq,
                recovery.replay.len()
            )));
        }
        let (system, oom) = SmilerSystem::new(device, histories, config, kind);
        let mut durable =
            DurableSystem { system, store, checkpoint_every, rounds_since_checkpoint: 0 };
        durable.checkpoint()?;
        Ok((durable, oom))
    }

    /// Recover a durable fleet from `dir`: newest valid checkpoint, sensor
    /// restore and admission, WAL-tail replay. Launches nothing on the
    /// device: each index is built by its first search. The restored
    /// fleet's next prediction is bitwise-identical to what the
    /// never-stopped fleet would have produced.
    pub fn open(
        device: Arc<Device>,
        dir: &Path,
        store_config: StoreConfig,
        checkpoint_every: u64,
    ) -> Result<(Self, RestoreReport), DurableError> {
        let (store, recovery) = Store::open(dir, store_config)?;
        let payload = recovery.checkpoint_payload.as_deref().ok_or(DurableError::NoState)?;

        let rebuild_started = Instant::now();
        let snapshots = decode_fleet(payload)?;
        let sensor_count = snapshots.len();
        let restored =
            snapshots.into_iter().map(|snap| SensorPredictor::restore(Arc::clone(&device), snap));
        let (mut system, oom) = SmilerSystem::admit(&device, restored);
        if let Some(oom) = oom {
            return Err(DurableError::OutOfMemory(oom));
        }
        let rebuild_seconds = rebuild_started.elapsed().as_secs_f64();

        let replay_started = Instant::now();
        let (mut replayed_rounds, mut replayed_observes) = (0usize, 0usize);
        for record in &recovery.replay {
            Self::apply_record(&mut system, record)?;
            match record {
                WalRecord::Round { .. } => replayed_rounds += 1,
                WalRecord::Observe { .. } => replayed_observes += 1,
            }
        }
        let replay_seconds = replay_started.elapsed().as_secs_f64();

        let report = RestoreReport {
            checkpoint_seq: recovery.checkpoint_seq.unwrap_or(0),
            sensors: sensor_count,
            replayed_rounds,
            replayed_observes,
            quarantined_checkpoints: recovery.quarantined_checkpoints,
            quarantined_segments: recovery.quarantined_segments,
            truncated_bytes: recovery.truncated_bytes,
            open_seconds: recovery.open_seconds,
            rebuild_seconds,
            replay_seconds,
        };
        if smiler_obs::enabled() {
            smiler_obs::observe("store.rebuild_seconds", "", rebuild_seconds);
            smiler_obs::observe("store.replay_seconds", "", replay_seconds);
        }
        Ok((DurableSystem { system, store, checkpoint_every, rounds_since_checkpoint: 0 }, report))
    }

    /// Re-apply one WAL record to the in-memory fleet.
    fn apply_record(system: &mut SmilerSystem, record: &WalRecord) -> Result<(), DurableError> {
        match record {
            WalRecord::Round { horizon: 0, values, .. } => {
                Self::check_width(system, values.len())?;
                system.observe_all(values);
            }
            WalRecord::Round { horizon, values, .. } => {
                Self::check_width(system, values.len())?;
                system.step(*horizon as usize, values);
            }
            WalRecord::Observe { sensor, value, .. } => {
                let idx = (0..system.len())
                    .find(|&i| system.sensor(i).sensor_id() == *sensor as usize)
                    .ok_or_else(|| {
                        DurableError::Corrupt(format!("WAL names unknown sensor {sensor}"))
                    })?;
                system.observe_one(idx, *value);
            }
        }
        Ok(())
    }

    fn check_width(system: &SmilerSystem, width: usize) -> Result<(), DurableError> {
        if width != system.len() {
            return Err(DurableError::Corrupt(format!(
                "WAL round carries {width} values for a {}-sensor fleet",
                system.len()
            )));
        }
        Ok(())
    }

    /// One durable fleet round: the round is appended to the WAL *before*
    /// any sensor's history grows, so a crash at any point replays it.
    /// Checkpoints automatically on the configured cadence.
    ///
    /// # Panics
    /// Panics if the observation count differs from the sensor count
    /// (same contract as [`SmilerSystem::step`]).
    pub fn step(
        &mut self,
        h: usize,
        observations: &[f64],
    ) -> Result<Vec<(f64, f64)>, DurableError> {
        self.store.append_round(h as u32, observations)?;
        let predictions = self.system.step(h, observations);
        self.tick_checkpoint()?;
        Ok(predictions)
    }

    /// One durable observe-only round (horizon 0 in the log).
    ///
    /// # Panics
    /// Panics if the observation count differs from the sensor count.
    pub fn observe_all(&mut self, observations: &[f64]) -> Result<(), DurableError> {
        self.store.append_round(0, observations)?;
        self.system.observe_all(observations);
        self.tick_checkpoint()?;
        Ok(())
    }

    fn tick_checkpoint(&mut self) -> Result<(), DurableError> {
        self.rounds_since_checkpoint += 1;
        if self.checkpoint_every > 0 && self.rounds_since_checkpoint >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Write a checkpoint of the fleet's current durable state now
    /// ([`checkpoint_payload`]).
    pub fn checkpoint(&mut self) -> Result<u64, DurableError> {
        self.rounds_since_checkpoint = 0;
        let system = &self.system;
        let fleet = (0..system.len()).map(|idx| (system.sensor(idx), system.health(idx)));
        let payload = checkpoint_payload(&self.store, fleet)?;
        Ok(self.store.checkpoint(&payload)?)
    }

    /// Force the WAL to the platter regardless of flush policy.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        Ok(self.store.sync()?)
    }

    /// Rebuild every quarantined sensor from its [`RecoveryPoint`]: the
    /// newest checkpoint's snapshot with its share of the WAL tail, so the
    /// history is current and adaptive state is at the checkpoint cut.
    /// Launches nothing: the sensor's index is built by its next search.
    /// Returns the indices brought back.
    pub fn recover_all(&mut self) -> Result<Vec<usize>, DurableError> {
        let quarantined = self.system.quarantined();
        if quarantined.is_empty() {
            return Ok(Vec::new());
        }
        let Some(point) = RecoveryPoint::load(&self.store)? else {
            return Ok(Vec::new());
        };
        Ok(quarantined
            .into_iter()
            .filter(|&idx| {
                let sensor_id = self.system.sensor(idx).sensor_id();
                point.snapshot_of(sensor_id, idx).is_some_and(|s| self.system.restore_into(idx, s))
            })
            .collect())
    }

    /// The wrapped fleet (read-only).
    pub fn system(&self) -> &SmilerSystem {
        &self.system
    }

    /// Mutable access to the wrapped fleet. Steps driven through this
    /// handle bypass the WAL — use [`DurableSystem::step`] /
    /// [`DurableSystem::observe_all`] for durable rounds.
    pub fn system_mut(&mut self) -> &mut SmilerSystem {
        &mut self.system
    }

    /// The underlying store (read-only).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Dismantle into the fleet and the store (e.g. to hand both to the
    /// sharded serving frontend, which logs and checkpoints itself).
    pub fn into_parts(self) -> (SmilerSystem, Store) {
        (self.system, self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::{ErrorState, RequestPolicy};
    use crate::sensor::FaultKind;

    fn noisy_sine(s: usize) -> Vec<f64> {
        let noise = |i: usize| ((i * 7919 + s * 104_729) % 1000) as f64 / 2500.0;
        (0..420).map(|i| (i as f64 * std::f64::consts::TAU / 24.0).sin() + noise(i)).collect()
    }

    #[test]
    fn fleet_payload_decodes_and_reencodes_byte_identically() {
        let plain = SmilerConfig { retrain_every: 3, ..SmilerConfig::small_for_tests() };
        let adaptive = SmilerConfig {
            regime: crate::RegimeConfig {
                enabled: true,
                drift: 0.5,
                threshold: 9.5,
                z_outlier: 4.25,
                cooldown: 7,
            },
            robust: smiler_gp::RobustSpec { enabled: true, z_clip: 2.5, noise_inflation: 16.0 },
            ..plain.clone()
        };
        for config in [plain, adaptive] {
            let (mut system, _) = SmilerSystem::new(
                Arc::new(Device::default_gpu()),
                vec![noisy_sine(0), noisy_sine(1)],
                config,
                PredictorKind::GaussianProcess,
            );
            system.sensor_mut(1).inject_fault(FaultKind::BadGram);
            for r in 0..6 {
                let _ = system.predict_all_robust(3, &RequestPolicy::default());
                system.observe_all(&[(r as f64 * 0.3).sin(), (r as f64 * 0.7).cos()]);
            }
            let snapshots: Vec<_> =
                (0..system.len()).map(|i| system.sensor(i).snapshot()).collect();
            let horizons = || snapshots.iter().flat_map(|s| &s.horizons);
            assert!(horizons().any(|h| !h.pending.is_empty()), "pending rounds");
            assert!(horizons().flat_map(|h| &h.gp_hypers).any(Option::is_some), "trained hypers");
            assert!(horizons().flat_map(|h| &h.gp_cadence).any(|&c| c > 0), "retrain cadence");
            assert!(snapshots.iter().any(|s| s.errors != ErrorState::default()), "error counters");

            let payload = encode_fleet(&snapshots);
            let decoded = decode_fleet(&payload).expect("payload decodes");
            assert_eq!(encode_fleet(&decoded), payload);
        }
    }

    /// A config without the `regime` or `robust` field is a corrupt
    /// payload, not one silently decoded to the defaults.
    #[test]
    fn config_without_adaptation_fields_is_corrupt() {
        let (system, _) = SmilerSystem::new(
            Arc::new(Device::default_gpu()),
            vec![noisy_sine(0)],
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        let payload = encode_fleet(&[system.sensor(0).snapshot()]);
        // Version u32, sensor count u64, sensor id u64, then the config as
        // a u64-length-prefixed JSON string.
        let at = 4 + 8 + 8;
        let len = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
        let json = std::str::from_utf8(&payload[at + 8..at + 8 + len]).unwrap();
        for field in ["regime", "robust"] {
            let start = json.find(&format!(",\"{field}\":{{")).expect("field is encoded");
            let end = start + json[start..].find('}').unwrap() + 1;
            let mut forged = payload[..at].to_vec();
            codec::put_str(&mut forged, &format!("{}{}", &json[..start], &json[end..]));
            forged.extend_from_slice(&payload[at + 8 + len..]);
            assert!(matches!(decode_fleet(&forged), Err(DurableError::Corrupt(_))), "{field}");
        }
    }
}
