//! The store facade: one directory holding a WAL and its checkpoints.
//!
//! ```text
//! <data-dir>/
//! ├── wal/    wal-00000001.seg …          (append-only, segment-rotated)
//! └── ckpt/   ckpt-0000000000000042.ck …  (last N kept, atomic replace)
//! ```
//!
//! [`Store::open`] performs recovery: newest valid checkpoint (corrupt
//! ones quarantined), then the WAL records *after* that checkpoint's
//! sequence number as the replay tail, which must continue the checkpoint
//! without a gap. [`Store::checkpoint`] writes a new cut, prunes old
//! checkpoints, and prunes WAL segments wholly covered by the oldest
//! retained checkpoint — steady state disk usage is bounded.

use crate::checkpoint;
use crate::codec::CodecError;
use crate::wal::{self, Wal, WalRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// When appends become power-loss durable (every append is already
/// process-kill durable: bytes reach the OS before `append` returns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// `fsync` after every append. Safest, slowest.
    Always,
    /// `fsync` once per N appends (group commit).
    EveryN(u64),
    /// `fsync` when at least this many milliseconds passed since the last.
    IntervalMs(u64),
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy::EveryN(32)
    }
}

impl std::fmt::Display for FlushPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlushPolicy::Always => write!(f, "always"),
            FlushPolicy::EveryN(n) => write!(f, "every-{n}"),
            FlushPolicy::IntervalMs(ms) => write!(f, "interval-{ms}"),
        }
    }
}

impl std::str::FromStr for FlushPolicy {
    type Err = String;

    /// Accepts `always`, `every-<n>` or `interval-<ms>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "always" {
            return Ok(FlushPolicy::Always);
        }
        if let Some(n) = s.strip_prefix("every-") {
            return match n.parse::<u64>() {
                Ok(n) if n > 0 => Ok(FlushPolicy::EveryN(n)),
                _ => Err(format!("bad group-commit size in '{s}'")),
            };
        }
        if let Some(ms) = s.strip_prefix("interval-") {
            let ms = ms.strip_suffix("ms").unwrap_or(ms);
            return match ms.parse::<u64>() {
                Ok(ms) if ms > 0 => Ok(FlushPolicy::IntervalMs(ms)),
                _ => Err(format!("bad interval in '{s}'")),
            };
        }
        Err(format!("unknown flush policy '{s}' (use always | every-<n> | interval-<ms>)"))
    }
}

/// Tunables for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Group-commit fsync policy for the WAL.
    pub flush: FlushPolicy,
    /// Rotate WAL segments at roughly this size.
    pub segment_bytes: u64,
    /// How many checkpoints to retain (older ones and the WAL segments
    /// they cover are pruned).
    pub keep_checkpoints: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { flush: FlushPolicy::default(), segment_bytes: 8 << 20, keep_checkpoints: 2 }
    }
}

/// Failures from the durability layer.
#[derive(Debug)]
pub enum StoreError {
    /// The operating system said no.
    Io(std::io::Error),
    /// A durable buffer failed structural decoding.
    Codec(CodecError),
    /// The recovered state is unusable for the requested operation.
    Recovery(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Codec(e) => write!(f, "store codec error: {e}"),
            StoreError::Recovery(msg) => write!(f, "store recovery error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Everything [`Store::open`] recovered and repaired.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Sequence number of the checkpoint recovery started from, if any.
    pub checkpoint_seq: Option<u64>,
    /// The checkpoint's opaque payload, if any.
    pub checkpoint_payload: Option<Vec<u8>>,
    /// WAL records newer than the checkpoint, in append order.
    pub replay: Vec<WalRecord>,
    /// Checkpoint files renamed aside for failing validation.
    pub quarantined_checkpoints: usize,
    /// WAL segments renamed aside for mid-log corruption.
    pub quarantined_segments: usize,
    /// Bytes cut off the WAL's torn tail.
    pub truncated_bytes: u64,
    /// Wall-clock seconds spent opening and repairing.
    pub open_seconds: f64,
}

impl Recovery {
    /// Whether recovery started from scratch (no checkpoint, no WAL tail).
    pub fn is_cold(&self) -> bool {
        self.checkpoint_seq.is_none() && self.replay.is_empty()
    }
}

/// One raw WAL segment image, as shipped to a bootstrapping follower.
#[derive(Debug, Clone)]
pub struct SegmentImage {
    /// The `wal-{index:08}.seg` file index on the primary.
    pub index: u64,
    /// The segment file's bytes (header + CRC-framed records).
    pub bytes: Vec<u8>,
}

/// A durable store rooted at one data directory.
pub struct Store {
    dir: PathBuf,
    wal: Wal,
    config: StoreConfig,
    /// Replication cursors: follower id → highest WAL seq that follower
    /// has acknowledged. Pruning never removes a segment a registered
    /// cursor still needs (see [`Store::checkpoint`]).
    cursors: BTreeMap<String, u64>,
}

impl Store {
    fn wal_dir(dir: &Path) -> PathBuf {
        dir.join("wal")
    }

    fn ckpt_dir(dir: &Path) -> PathBuf {
        dir.join("ckpt")
    }

    /// Open (creating if absent) the store at `dir` and run recovery.
    pub fn open(dir: &Path, config: StoreConfig) -> Result<(Store, Recovery), StoreError> {
        let started = Instant::now();
        let _span = smiler_obs::span("store.open");
        std::fs::create_dir_all(dir)?;
        let (loaded, quarantined_checkpoints) = checkpoint::load_latest(&Self::ckpt_dir(dir))?;
        let checkpoint_seq = loaded.as_ref().map(|c| c.seq);
        let floor = checkpoint_seq.unwrap_or(0);
        let (wal, replay, report) = Wal::open(&Self::wal_dir(dir), &config, floor)?;
        // Replaying a mid-log suffix as if it were the whole history would
        // silently drop what lies between the checkpoint and the log.
        let next = floor.saturating_add(1);
        if let Some(first) = replay.first().map(WalRecord::seq).filter(|&s| s != next) {
            return Err(StoreError::Recovery(format!(
                "the WAL resumes at seq {first} but recovery from seq {floor} needs seq {next} next"
            )));
        }
        if smiler_obs::enabled() {
            smiler_obs::count("store.replayed_records", "", replay.len() as u64);
            smiler_obs::observe("store.recover_seconds", "", started.elapsed().as_secs_f64());
        }
        let recovery = Recovery {
            checkpoint_seq,
            checkpoint_payload: loaded.map(|c| c.payload),
            replay,
            quarantined_checkpoints,
            quarantined_segments: report.quarantined_segments,
            truncated_bytes: report.truncated_bytes,
            open_seconds: started.elapsed().as_secs_f64(),
        };
        Ok((Store { dir: dir.to_path_buf(), wal, config, cursors: BTreeMap::new() }, recovery))
    }

    /// The data directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the most recent durable record (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.wal.last_seq()
    }

    /// Log one observation for one sensor. Returns its sequence number.
    pub fn append_observe(&mut self, sensor: u32, value: f64) -> Result<u64, StoreError> {
        Ok(self.wal.append(|seq| WalRecord::Observe { seq, sensor, value })?)
    }

    /// Log one fleet round (predict `horizon`, then one value per sensor;
    /// horizon 0 = observe-only). Returns its sequence number.
    pub fn append_round(&mut self, horizon: u32, values: &[f64]) -> Result<u64, StoreError> {
        Ok(self.wal.append(|seq| WalRecord::Round { seq, horizon, values: values.to_vec() })?)
    }

    /// Force the WAL to the platter regardless of flush policy.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        Ok(self.wal.sync()?)
    }

    /// Re-read the newest valid checkpoint from disk (invalid ones are
    /// quarantined exactly as during [`Store::open`]). The per-sensor
    /// recovery rung uses this while the store stays open.
    pub fn latest_checkpoint(&self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        let (loaded, _) = checkpoint::load_latest(&Self::ckpt_dir(&self.dir))?;
        Ok(loaded.map(|c| (c.seq, c.payload)))
    }

    /// Re-read every WAL record with sequence number greater than
    /// `after_seq`, without disturbing the append handle. A segment that
    /// no longer reads whole is an error, never a silently short tail.
    pub fn read_tail(&self, after_seq: u64) -> Result<Vec<WalRecord>, StoreError> {
        Ok(self.wal.read_after(after_seq)?)
    }

    /// Write `payload` as a checkpoint covering everything logged so far,
    /// then prune checkpoints beyond the retention count and WAL segments
    /// the oldest retained checkpoint makes redundant. Returns the
    /// sequence number the checkpoint covers.
    pub fn checkpoint(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let _span = smiler_obs::span("store.checkpoint");
        let started = Instant::now();
        // Order matters: the WAL must be durable through `seq` before the
        // checkpoint claiming to cover `seq` exists.
        self.wal.sync()?;
        let seq = self.wal.last_seq();
        let ckpt_dir = Self::ckpt_dir(&self.dir);
        checkpoint::write(&ckpt_dir, seq, payload)?;
        if let Some(oldest_kept) = checkpoint::prune(&ckpt_dir, self.config.keep_checkpoints)? {
            // Pinned-cursor guard: a lagging follower still needs every
            // record past its acknowledged seq, so pruning may only go up
            // to the *minimum* of the checkpoint floor and every
            // registered replication cursor — otherwise a checkpoint
            // would yank segments out from under a follower mid-catch-up.
            let floor = match self.cursor_floor() {
                Some(pinned) => oldest_kept.min(pinned),
                None => oldest_kept,
            };
            self.wal.prune_below(floor);
        }
        if smiler_obs::enabled() {
            smiler_obs::observe("store.checkpoint_seconds", "", started.elapsed().as_secs_f64());
        }
        Ok(seq)
    }

    // ------------------------------------------------------- replication

    /// Register (or reset) a replication cursor: `follower` has durably
    /// acknowledged every record with `seq <= acked_seq`. While the cursor
    /// is registered, checkpointing never prunes WAL segments holding
    /// records past it.
    pub fn register_cursor(&mut self, follower: &str, acked_seq: u64) {
        self.cursors.insert(follower.to_string(), acked_seq);
        smiler_obs::gauge_set("store.repl.cursors", "", self.cursors.len() as f64);
    }

    /// Advance `follower`'s cursor to `acked_seq` (monotonic: a stale ack
    /// never moves a cursor backwards). Registers the cursor if absent.
    pub fn advance_cursor(&mut self, follower: &str, acked_seq: u64) {
        let entry = self.cursors.entry(follower.to_string()).or_insert(acked_seq);
        *entry = (*entry).max(acked_seq);
    }

    /// Drop `follower`'s cursor, releasing its pin on WAL retention.
    pub fn release_cursor(&mut self, follower: &str) {
        self.cursors.remove(follower);
        smiler_obs::gauge_set("store.repl.cursors", "", self.cursors.len() as f64);
    }

    /// The registered cursors as `(follower, acked_seq)` pairs.
    pub fn cursors(&self) -> Vec<(String, u64)> {
        self.cursors.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// The minimum acknowledged seq across registered cursors — the
    /// retention floor replication pins, if any follower is registered.
    pub fn cursor_floor(&self) -> Option<u64> {
        self.cursors.values().copied().min()
    }

    /// Append a record that already carries its sequence number (assigned
    /// by a replication primary). The record must continue this store's
    /// log exactly; see [`Wal::append_existing`].
    pub fn append_replicated(&mut self, record: &WalRecord) -> Result<u64, StoreError> {
        Ok(self.wal.append_existing(record)?)
    }

    /// Snapshot every live WAL segment — sealed ones plus the open tail —
    /// as raw images for follower bootstrap. The WAL is synced first so
    /// the images contain every acknowledged record.
    pub fn segment_images(&mut self) -> Result<Vec<SegmentImage>, StoreError> {
        Ok(self.wal.segment_images()?)
    }

    /// Install a shipped segment image into a **closed** data directory
    /// (follower bootstrap, before [`Store::open`]). The image is
    /// validated first — unreadable headers are rejected, and only the
    /// valid prefix (header plus whole CRC-checked records) is written.
    pub fn install_segment(dir: &Path, index: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let (valid_bytes, _) = wal::validate_segment_bytes(bytes).ok_or_else(|| {
            StoreError::Recovery(format!("shipped segment {index} has an unreadable header"))
        })?;
        let wal_dir = Self::wal_dir(dir);
        std::fs::create_dir_all(&wal_dir)?;
        let path = wal::segment_path(&wal_dir, index);
        let tmp = path.with_extension("seg.tmp");
        std::fs::write(&tmp, &bytes[..valid_bytes as usize])?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Install a shipped checkpoint into a **closed** data directory
    /// (follower bootstrap, before [`Store::open`]).
    pub fn install_checkpoint(dir: &Path, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        Ok(checkpoint::write(&Self::ckpt_dir(dir), seq, payload)?)
    }
}

/// A store behind a mutex, shareable across shard workers.
pub type SharedStore = Arc<parking_lot::Mutex<Store>>;

/// Wrap a store for sharing across threads.
pub fn shared(store: Store) -> SharedStore {
    Arc::new(parking_lot::Mutex::new(store))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smiler_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> StoreConfig {
        StoreConfig { flush: FlushPolicy::Always, ..StoreConfig::default() }
    }

    #[test]
    fn flush_policy_parses() {
        assert_eq!("always".parse::<FlushPolicy>().unwrap(), FlushPolicy::Always);
        assert_eq!("every-16".parse::<FlushPolicy>().unwrap(), FlushPolicy::EveryN(16));
        assert_eq!("interval-50".parse::<FlushPolicy>().unwrap(), FlushPolicy::IntervalMs(50));
        assert_eq!("interval-50ms".parse::<FlushPolicy>().unwrap(), FlushPolicy::IntervalMs(50));
        assert!("every-0".parse::<FlushPolicy>().is_err());
        assert!("sometimes".parse::<FlushPolicy>().is_err());
        assert_eq!(FlushPolicy::EveryN(8).to_string(), "every-8");
    }

    #[test]
    fn cold_open_then_append_then_recover() {
        let dir = tmpdir("cold");
        {
            let (mut store, recovery) = Store::open(&dir, config()).unwrap();
            assert!(recovery.is_cold());
            store.append_observe(3, 1.25).unwrap();
            store.append_round(2, &[0.5, f64::NAN, -0.0]).unwrap();
        }
        let (store, recovery) = Store::open(&dir, config()).unwrap();
        assert_eq!(recovery.checkpoint_seq, None);
        assert_eq!(recovery.replay.len(), 2);
        assert_eq!(store.last_seq(), 2);
        match &recovery.replay[1] {
            WalRecord::Round { horizon, values, .. } => {
                assert_eq!(*horizon, 2);
                assert!(values[1].is_nan());
                assert_eq!(values[2].to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bounds_replay_tail() {
        let dir = tmpdir("tail");
        {
            let (mut store, _) = Store::open(&dir, config()).unwrap();
            for i in 0..10 {
                store.append_observe(0, i as f64).unwrap();
            }
            let seq = store.checkpoint(b"fleet state at 10").unwrap();
            assert_eq!(seq, 10);
            for i in 10..13 {
                store.append_observe(0, i as f64).unwrap();
            }
        }
        let (_, recovery) = Store::open(&dir, config()).unwrap();
        assert_eq!(recovery.checkpoint_seq, Some(10));
        assert_eq!(recovery.checkpoint_payload.as_deref(), Some(&b"fleet state at 10"[..]));
        let seqs: Vec<u64> = recovery.replay.iter().map(|r| r.seq()).collect();
        assert_eq!(seqs, vec![11, 12, 13], "only the tail after the checkpoint replays");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_and_replays_longer_tail() {
        let dir = tmpdir("fallback");
        {
            let (mut store, _) = Store::open(&dir, config()).unwrap();
            for i in 0..6 {
                store.append_observe(0, i as f64).unwrap();
            }
            store.checkpoint(b"at 6").unwrap();
            for i in 6..9 {
                store.append_observe(0, i as f64).unwrap();
            }
            store.checkpoint(b"at 9").unwrap();
            store.append_observe(0, 9.0).unwrap();
        }
        // Corrupt the newest checkpoint file.
        let ck = Store::ckpt_dir(&dir).join(format!("ckpt-{:016}.ck", 9));
        let mut bytes = fs::read(&ck).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&ck, &bytes).unwrap();

        let (_, recovery) = Store::open(&dir, config()).unwrap();
        assert_eq!(recovery.quarantined_checkpoints, 1);
        assert_eq!(recovery.checkpoint_seq, Some(6), "fell back to the previous checkpoint");
        assert_eq!(recovery.checkpoint_payload.as_deref(), Some(&b"at 6"[..]));
        let seqs: Vec<u64> = recovery.replay.iter().map(|r| r.seq()).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "the longer tail covers the lost checkpoint");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_retention_prunes_files() {
        let dir = tmpdir("retention");
        let cfg =
            StoreConfig { flush: FlushPolicy::Always, segment_bytes: 256, keep_checkpoints: 2 };
        let (mut store, _) = Store::open(&dir, cfg).unwrap();
        for round in 0..5 {
            for i in 0..20 {
                store.append_observe(0, (round * 20 + i) as f64).unwrap();
            }
            store.checkpoint(format!("round {round}").as_bytes()).unwrap();
        }
        let checkpoints = checkpoint::list(&Store::ckpt_dir(&dir)).unwrap();
        assert_eq!(checkpoints.len(), 2, "retention keeps the newest two");
        // WAL segments wholly below the oldest kept checkpoint are gone.
        let wal_files = fs::read_dir(Store::wal_dir(&dir)).unwrap().count();
        assert!(wal_files < 10, "expected pruned WAL, found {wal_files} files");
        // And recovery still works from what remains.
        drop(store);
        let (_, recovery) = Store::open(&dir, config()).unwrap();
        assert_eq!(recovery.checkpoint_seq, Some(100));
        assert_eq!(recovery.checkpoint_payload.as_deref(), Some(&b"round 4"[..]));
        assert!(recovery.replay.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lagging_cursor_pins_segments_against_checkpoint_pruning() {
        // Regression: checkpointing used to prune every WAL segment the
        // oldest retained checkpoint covered, which would yank segments
        // out from under a follower still catching up. A registered
        // cursor must pin them; releasing (or advancing) the cursor must
        // let the next checkpoint reclaim them.
        let dir = tmpdir("pinned");
        let cfg =
            StoreConfig { flush: FlushPolicy::Always, segment_bytes: 256, keep_checkpoints: 1 };
        let (mut store, _) = Store::open(&dir, cfg).unwrap();
        for i in 0..20 {
            store.append_observe(0, i as f64).unwrap();
        }
        // A follower acknowledged only through seq 5 before stalling.
        store.register_cursor("follower-a", 5);
        for round in 0..4 {
            for i in 0..20 {
                store.append_observe(0, (20 + round * 20 + i) as f64).unwrap();
            }
            store.checkpoint(b"cut").unwrap();
        }
        // Everything past the cursor must still be readable for catch-up.
        let tail = store.read_tail(5).unwrap();
        let seqs: Vec<u64> = tail.iter().map(|r| r.seq()).collect();
        assert_eq!(seqs, (6..=100).collect::<Vec<_>>(), "cursor at 5 pins seqs 6..=100");

        // The follower catches up and acks the head: the pin lifts and the
        // next checkpoint reclaims the backlog.
        store.advance_cursor("follower-a", store.last_seq());
        store.checkpoint(b"cut after catch-up").unwrap();
        let pinned_files = fs::read_dir(Store::wal_dir(&dir)).unwrap().count();
        let tail = store.read_tail(5).unwrap();
        assert!(tail.first().map(|r| r.seq()) > Some(6), "backlog segments reclaimed");
        assert!(pinned_files < 20, "expected pruned WAL after release, found {pinned_files}");

        // A stale ack never moves the cursor backwards.
        store.advance_cursor("follower-a", 3);
        assert_eq!(store.cursors(), vec![("follower-a".to_string(), store.last_seq())]);
        store.release_cursor("follower-a");
        assert_eq!(store.cursor_floor(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_images_roundtrip_through_install() {
        // A bootstrapping follower receives raw segment images plus the
        // newest checkpoint, installs them into an empty directory, and
        // opens a store whose replay state matches the primary's.
        let dir = tmpdir("export");
        let follower = tmpdir("import");
        let cfg =
            StoreConfig { flush: FlushPolicy::Always, segment_bytes: 256, keep_checkpoints: 2 };
        let (mut store, _) = Store::open(&dir, cfg.clone()).unwrap();
        for i in 0..30 {
            store.append_observe(1, i as f64 * 0.5).unwrap();
        }
        store.checkpoint(b"fleet at 30").unwrap();
        for i in 30..37 {
            store.append_observe(1, i as f64 * 0.5).unwrap();
        }
        let images = store.segment_images().unwrap();
        assert!(images.len() > 1, "expected several segments, got {}", images.len());
        let (seq, payload) = store.latest_checkpoint().unwrap().unwrap();

        for image in &images {
            Store::install_segment(&follower, image.index, &image.bytes).unwrap();
        }
        Store::install_checkpoint(&follower, seq, &payload).unwrap();
        let (replica, recovery) = Store::open(&follower, cfg).unwrap();
        assert_eq!(recovery.checkpoint_seq, Some(30));
        assert_eq!(recovery.checkpoint_payload.as_deref(), Some(&b"fleet at 30"[..]));
        let seqs: Vec<u64> = recovery.replay.iter().map(|r| r.seq()).collect();
        assert_eq!(seqs, (31..=37).collect::<Vec<_>>());
        assert_eq!(replica.last_seq(), store.last_seq());

        // Garbage images are rejected before touching the directory.
        assert!(Store::install_segment(&follower, 99, b"not a segment").is_err());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&follower);
    }

    // Crash sequences over 256-byte segments. An Observe record frames to
    // 29 bytes, so each segment holds 9 records: 1..=9, 10..=18, 19..=27, …

    fn small(keep_checkpoints: usize) -> StoreConfig {
        StoreConfig { flush: FlushPolicy::Always, segment_bytes: 256, keep_checkpoints }
    }

    fn seqs(records: &[WalRecord]) -> Vec<u64> {
        records.iter().map(WalRecord::seq).collect()
    }

    fn append_to(store: &mut Store, last: u64) {
        while store.last_seq() < last {
            store.append_observe(0, store.last_seq() as f64).unwrap();
        }
    }

    /// Flip the middle byte of WAL segment `index` (a record's CRC).
    fn flip_segment(dir: &Path, index: u64) {
        let path = wal::segment_path(&Store::wal_dir(dir), index);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn cursor_pin_holds_after_a_restart() {
        let dir = tmpdir("pin_restart");
        {
            let (mut store, _) = Store::open(&dir, small(1)).unwrap();
            append_to(&mut store, 40);
        }
        let (mut store, _) = Store::open(&dir, small(1)).unwrap();
        store.register_cursor("follower-a", 5);
        append_to(&mut store, 41);
        store.checkpoint(b"at 41").unwrap();
        assert_eq!(seqs(&store.read_tail(5).unwrap()), (6..=41).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_fallback_after_a_restart_replays_every_record() {
        let dir = tmpdir("fallback_restart");
        {
            let (mut store, _) = Store::open(&dir, small(2)).unwrap();
            append_to(&mut store, 6);
            store.checkpoint(b"at 6").unwrap();
            append_to(&mut store, 40);
        }
        {
            let (mut store, _) = Store::open(&dir, small(2)).unwrap();
            append_to(&mut store, 41);
            assert_eq!(store.checkpoint(b"at 41").unwrap(), 41);
        }
        let ck = Store::ckpt_dir(&dir).join(format!("ckpt-{:016}.ck", 41));
        let mut bytes = fs::read(&ck).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&ck, &bytes).unwrap();

        let (_, recovery) = Store::open(&dir, small(2)).unwrap();
        assert_eq!(recovery.checkpoint_seq, Some(6));
        assert_eq!(recovery.quarantined_segments, 0);
        assert_eq!(seqs(&recovery.replay), (7..=41).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_acknowledged_after_a_repair_survive_two_restarts() {
        let dir = tmpdir("repair_acks");
        {
            let (mut store, _) = Store::open(&dir, small(2)).unwrap();
            append_to(&mut store, 50);
        }
        flip_segment(&dir, 2); // inside seq 14's frame
        {
            let (mut store, recovery) = Store::open(&dir, small(2)).unwrap();
            assert_eq!(seqs(&recovery.replay), (1..=13).collect::<Vec<_>>());
            assert_eq!(recovery.quarantined_segments, 4, "segments 3..=6 go aside");
            assert!(recovery.truncated_bytes > 0);
            append_to(&mut store, 16);
        }
        {
            let (mut store, recovery) = Store::open(&dir, small(2)).unwrap();
            assert_eq!(seqs(&recovery.replay), (1..=16).collect::<Vec<_>>());
            assert_eq!(recovery.quarantined_segments, 0);
            append_to(&mut store, 30);
        }
        let (store, recovery) = Store::open(&dir, small(2)).unwrap();
        assert_eq!(seqs(&recovery.replay), (1..=30).collect::<Vec<_>>());
        assert_eq!(store.last_seq(), 30);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_rot_below_the_checkpoint_stops_nothing() {
        let dir = tmpdir("rot_below");
        {
            let (mut store, _) = Store::open(&dir, small(2)).unwrap();
            append_to(&mut store, 20);
            store.checkpoint(b"at 20").unwrap();
            append_to(&mut store, 60);
            store.checkpoint(b"at 60").unwrap();
            append_to(&mut store, 70);
        }
        flip_segment(&dir, 4); // seqs 28..=36, all covered by checkpoint 60
        {
            let (mut store, recovery) = Store::open(&dir, small(2)).unwrap();
            assert_eq!(recovery.checkpoint_seq, Some(60));
            assert_eq!(recovery.quarantined_segments, 0);
            assert_eq!(seqs(&recovery.replay), (61..=70).collect::<Vec<_>>());
            assert_eq!(store.last_seq(), 70);
            append_to(&mut store, 71);
        }
        let (_, recovery) = Store::open(&dir, small(2)).unwrap();
        assert_eq!(seqs(&recovery.replay), (61..=71).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_gapped_replay_is_refused() {
        let dir = tmpdir("gapped");
        {
            let (mut store, _) = Store::open(&dir, small(1)).unwrap();
            append_to(&mut store, 40);
            store.checkpoint(b"at 40").unwrap(); // prunes seqs 1..=36
        }
        // An empty replay past a checkpoint is valid.
        let (_, recovery) = Store::open(&dir, small(1)).unwrap();
        assert_eq!(recovery.checkpoint_seq, Some(40));
        assert!(recovery.replay.is_empty());
        // Without the checkpoint the log would replay 37..=40 as if it were
        // the whole history.
        let ck = Store::ckpt_dir(&dir).join(format!("ckpt-{:016}.ck", 40));
        let mut bytes = fs::read(&ck).unwrap();
        bytes[3] ^= 0x40;
        fs::write(&ck, &bytes).unwrap();
        match Store::open(&dir, small(1)) {
            Err(StoreError::Recovery(msg)) => assert!(msg.contains("seq 37"), "{msg}"),
            Err(e) => panic!("expected a recovery error, got {e}"),
            Ok((_, recovery)) => panic!("replayed {:?}", seqs(&recovery.replay)),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replicated_appends_preserve_seq_and_reject_gaps() {
        let dir = tmpdir("replapp");
        let (mut store, _) = Store::open(&dir, config()).unwrap();
        store.append_replicated(&WalRecord::Observe { seq: 1, sensor: 7, value: 0.5 }).unwrap();
        store
            .append_replicated(&WalRecord::Round { seq: 2, horizon: 3, values: vec![1.0, 2.0] })
            .unwrap();
        // A gap (seq 4 when 3 is next) and a duplicate (seq 2) both fail.
        assert!(store
            .append_replicated(&WalRecord::Observe { seq: 4, sensor: 0, value: 0.0 })
            .is_err());
        assert!(store
            .append_replicated(&WalRecord::Observe { seq: 2, sensor: 0, value: 0.0 })
            .is_err());
        drop(store);
        let (store, recovery) = Store::open(&dir, config()).unwrap();
        assert_eq!(store.last_seq(), 2);
        assert_eq!(recovery.replay.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
