//! Segmented append-only write-ahead log of sensor observations.
//!
//! On-disk layout (everything little-endian):
//!
//! ```text
//! wal-00000001.seg
//! ┌──────────────────────────────────────────────┐
//! │ magic "SMLRWAL\0" (8) │ version u32 │ base_seq u64 │   segment header
//! ├──────────────────────────────────────────────┤
//! │ len u32 │ crc32(payload) u32 │ payload (len bytes) │  record 0
//! │ len u32 │ crc32(payload) u32 │ payload             │  record 1
//! │ ...                                           │
//! └──────────────────────────────────────────────┘
//! payload = kind u8 · seq u64 · body
//!   kind 1 (Observe): sensor u32 · value f64-bits
//!   kind 2 (Round):   horizon u32 · n u32 · n × f64-bits
//! ```
//!
//! Appends reach the OS immediately (`write_all`), so a *process* kill
//! loses nothing; `fsync` cadence — what a *power* loss can take — is the
//! [`FlushPolicy`]'s call (group commit). On open, the final segment's
//! torn tail (a record cut mid-write) is truncated back to the last whole
//! record; corruption anywhere earlier quarantines that segment and every
//! later one (sequence continuity is gone), keeping the valid prefix.

use crate::codec::{self, ByteReader};
use crate::store::{FlushPolicy, StoreConfig};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Format version written into every segment header.
pub const WAL_VERSION: u32 = 1;

const SEGMENT_MAGIC: &[u8; 8] = b"SMLRWAL\0";
const SEGMENT_HEADER_BYTES: u64 = 8 + 4 + 8;
/// Upper bound on one record's payload; a length prefix beyond this is
/// corruption, not a huge record.
const MAX_RECORD_BYTES: u32 = 16 << 20;

/// One durable WAL record, as replayed during recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A single sensor absorbed one value (stream/serving ingestion).
    Observe {
        /// Global sequence number.
        seq: u64,
        /// Fleet-global sensor id.
        sensor: u32,
        /// The normalised observation.
        value: f64,
    },
    /// One fleet step: predict `horizon` for every sensor (0 = no
    /// prediction), then absorb one value per sensor in fleet order.
    Round {
        /// Global sequence number.
        seq: u64,
        /// The horizon predicted before the observations (0 = none).
        horizon: u32,
        /// One observation per resident sensor.
        values: Vec<f64>,
    },
}

impl WalRecord {
    /// The record's global sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Observe { seq, .. } | WalRecord::Round { seq, .. } => *seq,
        }
    }

    /// Encode this record's payload (kind · seq · body) — the same bytes
    /// the WAL frames on disk, reused verbatim by the replication wire so
    /// a shipped record is bit-identical to the logged one.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(32);
        match self {
            WalRecord::Observe { seq, sensor, value } => {
                codec::put_u8(&mut payload, 1);
                codec::put_u64(&mut payload, *seq);
                codec::put_u32(&mut payload, *sensor);
                codec::put_f64(&mut payload, *value);
            }
            WalRecord::Round { seq, horizon, values } => {
                codec::put_u8(&mut payload, 2);
                codec::put_u64(&mut payload, *seq);
                codec::put_u32(&mut payload, *horizon);
                codec::put_u32(&mut payload, values.len() as u32);
                for &v in values {
                    codec::put_f64(&mut payload, v);
                }
            }
        }
        payload
    }

    /// Decode a record payload produced by [`WalRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<WalRecord, codec::CodecError> {
        let mut r = ByteReader::new(payload);
        let kind = r.u8()?;
        let seq = r.u64()?;
        match kind {
            1 => {
                let sensor = r.u32()?;
                let value = r.f64()?;
                Ok(WalRecord::Observe { seq, sensor, value })
            }
            2 => {
                let horizon = r.u32()?;
                let n = r.u32()? as usize;
                let mut values = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    values.push(r.f64()?);
                }
                Ok(WalRecord::Round { seq, horizon, values })
            }
            tag => Err(codec::CodecError::BadTag { tag }),
        }
    }
}

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalOpenReport {
    /// Segments scanned (including quarantined ones).
    pub segments: usize,
    /// Segments renamed aside because of mid-log corruption.
    pub quarantined_segments: usize,
    /// Bytes cut off the final segment's torn tail.
    pub truncated_bytes: u64,
}

/// Metadata of one sealed (no longer written) segment.
#[derive(Debug, Clone, Copy)]
struct SegmentMeta {
    index: u64,
    /// First sequence number the segment holds (records are contiguous).
    base_seq: u64,
}

/// The append side of the log plus the sealed-segment ledger.
pub struct Wal {
    dir: PathBuf,
    file: File,
    current_index: u64,
    current_bytes: u64,
    next_seq: u64,
    sealed: Vec<SegmentMeta>,
    segment_bytes: u64,
    policy: FlushPolicy,
    appends_since_sync: u64,
    last_sync: Instant,
    syncs: u64,
}

/// Path of segment `index` inside the WAL directory `dir`. Public so the
/// replication layer can ship sealed segment files byte-for-byte.
pub fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.seg"))
}

/// Segment file indices present in `dir`, ascending. Quarantined files are
/// excluded (they keep their index but lose the `.seg` suffix).
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut indices: Vec<u64> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let idx = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
                idx.parse().ok()
            })
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    indices.sort_unstable();
    Ok(indices)
}

fn write_segment_header(file: &mut File, base_seq: u64) -> std::io::Result<()> {
    let mut header = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
    header.extend_from_slice(SEGMENT_MAGIC);
    codec::put_u32(&mut header, WAL_VERSION);
    codec::put_u64(&mut header, base_seq);
    file.write_all(&header)
}

/// Outcome of scanning one segment file.
struct SegmentScan {
    records: Vec<WalRecord>,
    /// Byte offset just past the last valid record.
    valid_bytes: u64,
    /// Total bytes in the file.
    file_bytes: u64,
    /// Whether the valid prefix ends before the file does.
    dirty: bool,
    base_seq: u64,
}

fn scan_segment(path: &Path) -> std::io::Result<Option<SegmentScan>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(scan_segment_bytes(&bytes))
}

fn scan_segment_bytes(bytes: &[u8]) -> Option<SegmentScan> {
    let file_bytes = bytes.len() as u64;
    if bytes.len() < SEGMENT_HEADER_BYTES as usize || &bytes[..8] != SEGMENT_MAGIC {
        return None; // unreadable header: the whole segment is suspect
    }
    let mut header = ByteReader::new(&bytes[8..SEGMENT_HEADER_BYTES as usize]);
    let version = header.u32().unwrap_or(0);
    let base_seq = header.u64().unwrap_or(0);
    if version != WAL_VERSION {
        return None;
    }
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_BYTES as usize;
    let mut expected_seq = base_seq;
    // All bounds arithmetic is checked: a segment truncated anywhere
    // inside the 8-byte `[len][crc]` record header must land in the
    // torn-tail branch, never wrap (an unchecked `len - pos - 8` here
    // underflowed — and wrapped in release — when fewer than 8 bytes
    // remained after `pos`, letting a header-torn tail escape repair).
    // The `while let` ends the scan if the cursor ever passes the end.
    while let Some(remaining) = bytes.len().checked_sub(pos) {
        if remaining == 0 {
            break; // clean end
        }
        if remaining < 8 {
            break; // torn length/crc prefix
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let crc =
            u32::from_le_bytes([bytes[pos + 4], bytes[pos + 5], bytes[pos + 6], bytes[pos + 7]]);
        if len > MAX_RECORD_BYTES || remaining - 8 < len as usize {
            break; // absurd length or payload cut short
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if codec::crc32(payload) != crc {
            break;
        }
        let record = match WalRecord::decode(payload) {
            Ok(r) => r,
            Err(_) => break,
        };
        if record.seq() != expected_seq {
            break; // sequence discontinuity: do not replay past it
        }
        expected_seq += 1;
        pos += 8 + len as usize;
        records.push(record);
    }
    let valid_bytes = pos as u64;
    Some(SegmentScan {
        records,
        valid_bytes,
        file_bytes,
        dirty: valid_bytes < file_bytes,
        base_seq,
    })
}

/// Validate a shipped segment image before installing it in a follower's
/// WAL directory. Returns the byte length of the valid prefix (header plus
/// whole CRC-checked records) and the records it decodes to, or `None`
/// when the header itself is unreadable. A torn tail past the valid prefix
/// is acceptable — the caller installs only the prefix.
pub fn validate_segment_bytes(bytes: &[u8]) -> Option<(u64, Vec<WalRecord>)> {
    scan_segment_bytes(bytes).map(|scan| (scan.valid_bytes, scan.records))
}

/// Peek a segment's `base_seq` by reading only its 20-byte header.
/// `None` when the file is missing, shorter than a header, or carries a
/// foreign magic/version — the same cases that end a full scan.
fn peek_base_seq(path: &Path) -> std::io::Result<Option<u64>> {
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut header = [0u8; SEGMENT_HEADER_BYTES as usize];
    if file.read_exact(&mut header).is_err() || &header[..8] != SEGMENT_MAGIC {
        return Ok(None);
    }
    let mut r = ByteReader::new(&header[8..]);
    if r.u32().unwrap_or(0) != WAL_VERSION {
        return Ok(None);
    }
    Ok(Some(r.u64().unwrap_or(0)))
}

/// Read-only scan of the log's replayable prefix — every valid record with
/// `seq > after_seq`, in sequence order, with **no repair** (no truncation,
/// no quarantine, the append handle undisturbed) — in O(tail) instead of
/// O(log): a segment is skipped without scanning its body when
/// its successor's header proves every record it holds is `<= after_seq`
/// (the successor's `base_seq` is this segment's exclusive upper bound).
/// Replication primaries poll this to ship the streaming tail, so the
/// cost must track the new records, not the log's lifetime length.
pub fn read_records_after(dir: &Path, after_seq: u64) -> std::io::Result<Vec<WalRecord>> {
    let indices = list_segments(dir)?;
    let mut bases: Vec<Option<u64>> = Vec::with_capacity(indices.len());
    for &index in &indices {
        bases.push(peek_base_seq(&segment_path(dir, index))?);
    }
    let mut records: Vec<WalRecord> = Vec::new();
    // Continuity cursor; unknown until anchored by a skip or a scan (a
    // pruned log legitimately starts past seq 1).
    let mut next_seq: Option<u64> = None;
    for (i, &index) in indices.iter().enumerate() {
        let base = match bases[i] {
            Some(base) => base,
            None => break, // unreadable header ends the replayable prefix
        };
        if let Some(expect) = next_seq {
            if base != expect {
                break; // sequence gap between segments
            }
        }
        if let Some(&Some(upper)) = bases.get(i + 1) {
            if upper >= base && upper <= after_seq.saturating_add(1) {
                next_seq = Some(upper);
                continue; // whole segment precedes the requested tail
            }
        }
        let scan = match scan_segment(&segment_path(dir, index))? {
            Some(scan) => scan,
            None => break,
        };
        next_seq = Some(scan.records.last().map(|r| r.seq() + 1).unwrap_or(base));
        records.extend(scan.records.into_iter().filter(|r| r.seq() > after_seq));
        if scan.dirty {
            break; // nothing after a damaged region replays consistently
        }
    }
    Ok(records)
}

fn quarantine(path: &Path) -> std::io::Result<()> {
    let mut target = path.as_os_str().to_owned();
    target.push(".quarantined");
    smiler_obs::count("store.wal.segment_quarantined", "", 1);
    fs::rename(path, PathBuf::from(target))
}

impl Wal {
    /// Open (or create) the log in `dir`, repairing the tail: returns the
    /// log positioned for appending, every replayable record in sequence
    /// order, and a report of what was repaired.
    pub fn open(
        dir: &Path,
        config: &StoreConfig,
    ) -> std::io::Result<(Wal, Vec<WalRecord>, WalOpenReport)> {
        fs::create_dir_all(dir)?;
        let indices = list_segments(dir)?;

        let mut report = WalOpenReport { segments: indices.len(), ..Default::default() };
        let mut records: Vec<WalRecord> = Vec::new();
        let mut sealed: Vec<SegmentMeta> = Vec::new();
        let mut next_seq = 1u64;
        // The segment that stays open for appending, if the scan ends
        // cleanly on it: (index, valid_bytes).
        let mut tail: Option<(u64, u64)> = None;
        let mut max_index = 0u64;

        for (i, &index) in indices.iter().enumerate() {
            max_index = max_index.max(index);
            let is_final = i + 1 == indices.len();
            let path = segment_path(dir, index);
            let scan = scan_segment(&path)?;
            let abort = match scan {
                None => {
                    // Unreadable header: nothing in this segment (or after
                    // it) can be replayed.
                    quarantine(&path)?;
                    report.quarantined_segments += 1;
                    true
                }
                Some(scan) => {
                    // A sequence gap between segments also ends the
                    // replayable prefix.
                    let contiguous = scan.base_seq == next_seq || records.is_empty();
                    if !contiguous {
                        quarantine(&path)?;
                        report.quarantined_segments += 1;
                        true
                    } else {
                        if records.is_empty() && !scan.records.is_empty() {
                            next_seq = scan.records[0].seq();
                        }
                        next_seq = scan
                            .records
                            .last()
                            .map(|r| r.seq() + 1)
                            .unwrap_or(scan.base_seq.max(next_seq));
                        records.extend(scan.records);
                        if scan.dirty && !is_final {
                            // Corruption mid-log: the valid prefix of this
                            // segment replays, but nothing after it may.
                            quarantine(&path)?;
                            report.quarantined_segments += 1;
                            true
                        } else {
                            if scan.dirty {
                                // Torn tail of the final segment: cut it.
                                report.truncated_bytes += scan.file_bytes - scan.valid_bytes;
                                let f = OpenOptions::new().write(true).open(&path)?;
                                f.set_len(scan.valid_bytes)?;
                                f.sync_data()?;
                            }
                            if is_final {
                                tail = Some((index, scan.valid_bytes));
                            } else {
                                sealed.push(SegmentMeta { index, base_seq: scan.base_seq });
                            }
                            false
                        }
                    }
                }
            };
            if abort {
                // Quarantine every later segment: with a hole in the
                // sequence they can never be replayed consistently.
                for &later in &indices[i + 1..] {
                    max_index = max_index.max(later);
                    quarantine(&segment_path(dir, later))?;
                    report.quarantined_segments += 1;
                }
                break;
            }
        }

        if report.truncated_bytes > 0 {
            smiler_obs::count("store.wal.truncated_bytes", "", report.truncated_bytes);
        }

        let (file, current_index, current_bytes) = match tail {
            Some((index, valid_bytes)) => {
                let mut f =
                    OpenOptions::new().write(true).read(true).open(segment_path(dir, index))?;
                f.seek(SeekFrom::Start(valid_bytes))?;
                (f, index, valid_bytes)
            }
            None => {
                // No usable tail: start a fresh segment after everything
                // seen (quarantined names keep their index).
                let index = max_index + 1;
                let mut f = OpenOptions::new()
                    .create_new(true)
                    .write(true)
                    .read(true)
                    .open(segment_path(dir, index))?;
                write_segment_header(&mut f, next_seq)?;
                f.sync_data()?;
                (f, index, SEGMENT_HEADER_BYTES)
            }
        };

        let wal = Wal {
            dir: dir.to_path_buf(),
            file,
            current_index,
            current_bytes,
            next_seq,
            sealed,
            segment_bytes: config.segment_bytes.max(SEGMENT_HEADER_BYTES + 64),
            policy: config.flush,
            appends_since_sync: 0,
            last_sync: Instant::now(),
            syncs: 0,
        };
        Ok((wal, records, report))
    }

    /// Sequence number of the most recently appended record (0 = none).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Append a record that already carries its sequence number — the
    /// follower side of replication, where the primary assigned the seq.
    /// The record must continue the log exactly (`seq == last_seq + 1`);
    /// a gap or replayed duplicate is rejected so a follower can never
    /// silently diverge from the primary's log.
    pub fn append_existing(&mut self, record: &WalRecord) -> std::io::Result<u64> {
        if record.seq() != self.next_seq {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "replicated record seq {} does not continue the log (next is {})",
                    record.seq(),
                    self.next_seq
                ),
            ));
        }
        let seq = record.seq();
        let payload = record.encode();
        let mut framed = Vec::with_capacity(payload.len() + 8);
        codec::put_u32(&mut framed, payload.len() as u32);
        codec::put_u32(&mut framed, codec::crc32(&payload));
        framed.extend_from_slice(&payload);
        self.file.write_all(&framed)?;
        self.next_seq += 1;
        self.current_bytes += framed.len() as u64;
        self.appends_since_sync += 1;
        self.maybe_sync()?;
        if self.current_bytes >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(seq)
    }

    /// Append one record (the `seq` it carries is assigned here). The
    /// bytes reach the OS before this returns; whether they reach the
    /// platter is the flush policy's decision.
    pub fn append(&mut self, make: impl FnOnce(u64) -> WalRecord) -> std::io::Result<u64> {
        let started = Instant::now();
        let seq = self.next_seq;
        let record = make(seq);
        debug_assert_eq!(record.seq(), seq, "append must use the assigned seq");
        let payload = record.encode();
        let mut framed = Vec::with_capacity(payload.len() + 8);
        codec::put_u32(&mut framed, payload.len() as u32);
        codec::put_u32(&mut framed, codec::crc32(&payload));
        framed.extend_from_slice(&payload);
        self.file.write_all(&framed)?;
        self.next_seq += 1;
        self.current_bytes += framed.len() as u64;
        self.appends_since_sync += 1;
        if smiler_obs::enabled() {
            smiler_obs::count("store.append", "", 1);
            smiler_obs::count("store.append_bytes", "", framed.len() as u64);
            smiler_obs::observe("store.append_seconds", "", started.elapsed().as_secs_f64());
        }
        self.maybe_sync()?;
        if self.current_bytes >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(seq)
    }

    /// Group-commit decision: fsync when the policy says so.
    fn maybe_sync(&mut self) -> std::io::Result<()> {
        let due = match self.policy {
            FlushPolicy::Always => true,
            FlushPolicy::EveryN(n) => self.appends_since_sync >= n.max(1),
            FlushPolicy::IntervalMs(ms) => self.last_sync.elapsed().as_millis() as u64 >= ms.max(1),
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Force an fsync of the current segment (power-loss durability up to
    /// the last appended record).
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.appends_since_sync == 0 {
            return Ok(());
        }
        let started = Instant::now();
        self.file.sync_data()?;
        self.appends_since_sync = 0;
        self.last_sync = Instant::now();
        self.syncs += 1;
        if smiler_obs::enabled() {
            smiler_obs::count("store.fsync", "", 1);
            smiler_obs::observe("store.fsync_seconds", "", started.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Fsyncs this WAL has issued since it was opened. Unlike the global
    /// `store.fsync` counter, this is per-instance — usable from tests
    /// that run concurrently with other stores in the same process.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Seal the current segment and start the next one.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.sync()?;
        self.sealed.push(SegmentMeta {
            index: self.current_index,
            base_seq: 0, // unknown precisely; conservative (never pruned early)
        });
        // Recompute the sealed segment's base conservatively as "first seq
        // it *could* contain": pruning uses the next segment's base, so
        // only `next_seq` matters here.
        if let Some(last) = self.sealed.last_mut() {
            last.base_seq = u64::MAX; // placeholder; fixed below
        }
        let index = self.current_index + 1;
        let mut f = OpenOptions::new()
            .create_new(true)
            .write(true)
            .read(true)
            .open(segment_path(&self.dir, index))?;
        write_segment_header(&mut f, self.next_seq)?;
        f.sync_data()?;
        // Fix the placeholder now that the successor's base is known: a
        // sealed segment holds seqs strictly below the next base.
        if let Some(last) = self.sealed.last_mut() {
            last.base_seq = self.next_seq;
        }
        self.file = f;
        self.current_index = index;
        self.current_bytes = SEGMENT_HEADER_BYTES;
        smiler_obs::count("store.wal.rotations", "", 1);
        Ok(())
    }

    /// Delete sealed segments whose every record is older than `keep_from`
    /// (exclusive): they are fully covered by a retained checkpoint.
    /// Returns how many were removed.
    pub fn prune_below(&mut self, keep_from: u64) -> std::io::Result<usize> {
        // sealed[i] covers seqs in [own base, sealed[i].base_seq) where the
        // stored base_seq is the *successor's* base (see `rotate`); a
        // segment is disposable when that upper bound is ≤ keep_from.
        let mut removed = 0usize;
        let dir = self.dir.clone();
        self.sealed.retain(|meta| {
            if meta.base_seq <= keep_from + 1 {
                if fs::remove_file(segment_path(&dir, meta.index)).is_ok() {
                    removed += 1;
                }
                false
            } else {
                true
            }
        });
        if removed > 0 {
            smiler_obs::count("store.wal.segments_pruned", "", removed as u64);
        }
        Ok(removed)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smiler_wal_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config() -> StoreConfig {
        StoreConfig { flush: FlushPolicy::Always, ..StoreConfig::default() }
    }

    #[test]
    fn tail_read_matches_filtered_full_scan_at_every_cut() {
        let dir = tmpdir("tail_after");
        let config = StoreConfig { segment_bytes: 256, ..config() };
        let (mut wal, _, _) = Wal::open(&dir, &config).unwrap();
        for i in 0..120u32 {
            wal.append(|seq| WalRecord::Observe { seq, sensor: i, value: i as f64 }).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.sealed.len() >= 3, "test needs several segments");
        let full: Vec<WalRecord> = (0..120u32)
            .map(|i| WalRecord::Observe { seq: i as u64 + 1, sensor: i, value: i as f64 })
            .collect();
        for after in [0u64, 1, 17, 60, 119, 120, 500] {
            let tail = read_records_after(&dir, after).unwrap();
            let expect: Vec<WalRecord> = full.iter().filter(|r| r.seq() > after).cloned().collect();
            assert_eq!(tail, expect, "after_seq {after}");
        }
    }

    #[test]
    fn append_and_reopen_replays_in_order() {
        let dir = tmpdir("roundtrip");
        {
            let (mut wal, records, report) = Wal::open(&dir, &config()).unwrap();
            assert!(records.is_empty());
            assert_eq!(report.quarantined_segments, 0);
            for i in 0..10u32 {
                wal.append(|seq| WalRecord::Observe { seq, sensor: i % 3, value: i as f64 * 0.5 })
                    .unwrap();
            }
            wal.append(|seq| WalRecord::Round { seq, horizon: 2, values: vec![1.0, f64::NAN] })
                .unwrap();
        }
        let (wal, records, report) = Wal::open(&dir, &config()).unwrap();
        assert_eq!(records.len(), 11);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(wal.last_seq(), 11);
        for (i, r) in records.iter().take(10).enumerate() {
            match r {
                WalRecord::Observe { seq, sensor, value } => {
                    assert_eq!(*seq, i as u64 + 1);
                    assert_eq!(*sensor, (i % 3) as u32);
                    assert_eq!(*value, i as f64 * 0.5);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match &records[10] {
            WalRecord::Round { horizon, values, .. } => {
                assert_eq!(*horizon, 2);
                assert_eq!(values[0], 1.0);
                assert!(values[1].is_nan(), "NaN must survive the log bitwise");
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_replay_across_files() {
        let dir = tmpdir("rotate");
        let cfg = StoreConfig {
            segment_bytes: 256, // tiny: force many rotations
            flush: FlushPolicy::Always,
            ..StoreConfig::default()
        };
        {
            let (mut wal, _, _) = Wal::open(&dir, &cfg).unwrap();
            for i in 0..50 {
                wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: i as f64 }).unwrap();
            }
        }
        let segs = fs::read_dir(&dir).unwrap().count();
        assert!(segs > 2, "expected several segments, got {segs}");
        let (_, records, report) = Wal::open(&dir, &cfg).unwrap();
        assert_eq!(records.len(), 50);
        assert_eq!(report.quarantined_segments, 0);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq()).collect();
        assert_eq!(seqs, (1..=50).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_to_last_whole_record() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _, _) = Wal::open(&dir, &config()).unwrap();
            for i in 0..5 {
                wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: i as f64 }).unwrap();
            }
        }
        let path = segment_path(&dir, 1);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap(); // cut into the last record
        drop(f);
        let (mut wal, records, report) = Wal::open(&dir, &config()).unwrap();
        assert_eq!(records.len(), 4);
        assert!(report.truncated_bytes > 0);
        assert_eq!(wal.last_seq(), 4);
        // And the log keeps accepting appends at the repaired position.
        let seq = wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: 9.0 }).unwrap();
        assert_eq!(seq, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_inside_final_record_header_is_repaired_at_every_offset() {
        // Regression: the tail-scan bounds check used unchecked
        // `bytes.len() - pos - 8` arithmetic, which underflowed (wrapping
        // in release) when a segment was cut inside a record *header* —
        // fewer than 8 bytes left after `pos`. Sweep every byte offset of
        // the final record's 8-byte `[len][crc]` header (and offset 0, the
        // record boundary itself): each must repair to the last whole
        // record and keep accepting appends.
        const RECORDS: u64 = 5;
        for cut in 0..=8u64 {
            let dir = tmpdir(&format!("hdr_cut_{cut}"));
            {
                let (mut wal, _, _) = Wal::open(&dir, &config()).unwrap();
                for i in 0..RECORDS {
                    wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: i as f64 })
                        .unwrap();
                }
            }
            let path = segment_path(&dir, 1);
            let full = fs::metadata(&path).unwrap().len();
            // One Observe record frames as 8 (header) + 21 (payload).
            let record_bytes = 8 + 21;
            let final_start = full - record_bytes;
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(final_start + cut).unwrap();
            drop(f);

            let (mut wal, records, report) = Wal::open(&dir, &config()).unwrap();
            assert_eq!(records.len(), RECORDS as usize - 1, "cut at header byte {cut}");
            assert_eq!(wal.last_seq(), RECORDS - 1, "cut at header byte {cut}");
            assert_eq!(report.truncated_bytes, cut, "cut at header byte {cut}");
            let seq = wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: 9.0 }).unwrap();
            assert_eq!(seq, RECORDS, "appends resume at the repaired position");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_middle_segment_is_quarantined_not_fatal() {
        let dir = tmpdir("quarantine");
        let cfg = StoreConfig {
            segment_bytes: 256,
            flush: FlushPolicy::Always,
            ..StoreConfig::default()
        };
        {
            let (mut wal, _, _) = Wal::open(&dir, &cfg).unwrap();
            for i in 0..50 {
                wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: i as f64 }).unwrap();
            }
        }
        // Flip a byte in the middle of segment 2's records.
        let path = segment_path(&dir, 2);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (mut wal, records, report) = Wal::open(&dir, &cfg).unwrap();
        assert!(report.quarantined_segments >= 1, "{report:?}");
        // The prefix before the corruption replays; nothing after does.
        assert!(!records.is_empty());
        let seqs: Vec<u64> = records.iter().map(|r| r.seq()).collect();
        assert_eq!(seqs, (1..=records.len() as u64).collect::<Vec<_>>(), "contiguous prefix");
        assert!(records.len() < 50);
        // Quarantined files remain on disk for forensics.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(names.iter().any(|n| n.ends_with(".quarantined")), "{names:?}");
        // Appending continues after the damage.
        wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: 1.0 }).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_policy_batches_fsyncs() {
        // Counted per WAL instance, not via the process-global obs
        // counters: sibling tests appending to their own stores run
        // concurrently and would pollute the global numbers.
        let dir = tmpdir("groupcommit");
        let cfg = StoreConfig { flush: FlushPolicy::EveryN(8), ..StoreConfig::default() };
        {
            let (mut wal, _, _) = Wal::open(&dir, &cfg).unwrap();
            for i in 0..64 {
                wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: i as f64 }).unwrap();
            }
            assert_eq!(wal.syncs(), 8, "64 appends at every-8 = 8 group commits");
        }
        // All records still durable (they reached the OS on every append).
        let (_, records, _) = Wal::open(&dir, &cfg).unwrap();
        assert_eq!(records.len(), 64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_removes_fully_checkpointed_segments() {
        let dir = tmpdir("prune");
        let cfg = StoreConfig {
            segment_bytes: 256,
            flush: FlushPolicy::Always,
            ..StoreConfig::default()
        };
        let (mut wal, _, _) = Wal::open(&dir, &cfg).unwrap();
        for i in 0..60 {
            wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: i as f64 }).unwrap();
        }
        let before = fs::read_dir(&dir).unwrap().count();
        let removed = wal.prune_below(40).unwrap();
        assert!(removed > 0, "expected prunable segments out of {before}");
        // Every record after seq 40 must still replay.
        drop(wal);
        let (_, records, _) = Wal::open(&dir, &cfg).unwrap();
        assert!(records.iter().any(|r| r.seq() == 41), "seq 41 must survive pruning");
        assert_eq!(records.last().unwrap().seq(), 60);
        let _ = fs::remove_dir_all(&dir);
    }
}
