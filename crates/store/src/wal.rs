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
//! A [`Wal`] keeps one ledger of its live segments: `(index, base_seq)` in
//! log order, each `base_seq` read from that segment's own header, the
//! last entry being the segment appends go to. Segment *i* holds the seqs
//! `[base_i, base_{i+1})`; opening, rotation, pruning, tail reads and
//! bootstrap images all derive from that one rule, and only
//! [`Wal::open`] lists the directory.
//!
//! Appends reach the OS immediately (`write_all`), so a *process* kill
//! loses nothing; `fsync` cadence — what a *power* loss can take — is the
//! [`FlushPolicy`]'s call (group commit).
//!
//! Opening takes the recovery floor, the checkpoint's seq (0 without one).
//! Segments the floor covers are never read past their header; the scan
//! starts at the segment holding `floor + 1`. One repair rule: replay ends
//! at the first unreadable header, sequence break or bad record. A segment
//! whose header reads is cut back to its valid prefix there and stays the
//! append tail; every later segment is renamed aside (`.quarantined`).
//! Appends resume at `max(last replayed, floor) + 1`, in a fresh segment
//! with that base when the tail does not end exactly there.

use crate::codec::{self, ByteReader};
use crate::store::{FlushPolicy, SegmentImage, StoreConfig};
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
    /// Segment files found (including quarantined ones).
    pub segments: usize,
    /// Segments renamed aside because replay could not reach them.
    pub quarantined_segments: usize,
    /// Bytes cut off the segment where replay ended.
    pub truncated_bytes: u64,
}

/// One ledger entry: a live segment's file index and the first sequence
/// number it holds, as its own header states.
#[derive(Debug, Clone, Copy)]
struct Segment {
    index: u64,
    base_seq: u64,
}

/// The append side of the log plus the segment ledger.
pub struct Wal {
    dir: PathBuf,
    file: File,
    /// Every live segment in log order; the last one is open for appends.
    ledger: Vec<Segment>,
    /// Bytes in the open segment.
    current_bytes: u64,
    next_seq: u64,
    segment_bytes: u64,
    policy: FlushPolicy,
    appends_since_sync: u64,
    last_sync: Instant,
    syncs: u64,
}

/// Path of segment `index` inside the WAL directory `dir`. Public so the
/// replication layer can install shipped segment files byte-for-byte.
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

/// Create segment `index` holding only a header with `base_seq`, synced.
fn create_segment(dir: &Path, index: u64, base_seq: u64) -> std::io::Result<File> {
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .read(true)
        .open(segment_path(dir, index))?;
    let mut header = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
    header.extend_from_slice(SEGMENT_MAGIC);
    codec::put_u32(&mut header, WAL_VERSION);
    codec::put_u64(&mut header, base_seq);
    file.write_all(&header)?;
    file.sync_data()?;
    Ok(file)
}

/// A segment header's `base_seq`; `None` when the bytes are shorter than a
/// header or carry a foreign magic or version.
fn parse_header(bytes: &[u8]) -> Option<u64> {
    let header = bytes.get(..SEGMENT_HEADER_BYTES as usize)?;
    let mut r = ByteReader::new(&header[8..]);
    if &header[..8] != SEGMENT_MAGIC || r.u32().ok()? != WAL_VERSION {
        return None;
    }
    r.u64().ok()
}

/// Read only a segment's header.
fn read_header(path: &Path) -> std::io::Result<Option<u64>> {
    let mut header = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
    File::open(path)?.take(SEGMENT_HEADER_BYTES).read_to_end(&mut header)?;
    Ok(parse_header(&header))
}

/// Outcome of scanning one segment file.
struct SegmentScan {
    base_seq: u64,
    records: Vec<WalRecord>,
    /// Byte offset just past the last valid record.
    valid_bytes: u64,
    /// Total bytes in the file.
    file_bytes: u64,
}

fn scan_segment(path: &Path) -> std::io::Result<Option<SegmentScan>> {
    Ok(scan_segment_bytes(&fs::read(path)?))
}

/// Decode a segment's valid prefix: whole, CRC-checked records whose seqs
/// continue from the header's base. `None` for an unreadable header.
fn scan_segment_bytes(bytes: &[u8]) -> Option<SegmentScan> {
    let base_seq = parse_header(bytes)?;
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_BYTES as usize;
    let mut expected_seq = base_seq;
    // All bounds arithmetic is checked: a segment truncated anywhere
    // inside the 8-byte `[len][crc]` record header must end the valid
    // prefix, never wrap (an unchecked `len - pos - 8` here underflowed —
    // and wrapped in release — when fewer than 8 bytes remained after
    // `pos`, letting a header-torn tail escape repair). The `while let`
    // ends the scan if the cursor ever passes the end.
    while let Some(remaining) = bytes.len().checked_sub(pos) {
        if remaining < 8 {
            break; // clean end, or a torn length/crc prefix
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
        match WalRecord::decode(payload) {
            Ok(record) if record.seq() == expected_seq => records.push(record),
            _ => break, // undecodable, or a sequence break: do not replay past it
        }
        expected_seq += 1;
        pos += 8 + len as usize;
    }
    Some(SegmentScan { base_seq, records, valid_bytes: pos as u64, file_bytes: bytes.len() as u64 })
}

/// Validate a shipped segment image before installing it in a follower's
/// WAL directory. Returns the byte length of the valid prefix (header plus
/// whole CRC-checked records) and the records it decodes to, or `None`
/// when the header itself is unreadable. A torn tail past the valid prefix
/// is acceptable — the caller installs only the prefix.
pub fn validate_segment_bytes(bytes: &[u8]) -> Option<(u64, Vec<WalRecord>)> {
    scan_segment_bytes(bytes).map(|scan| (scan.valid_bytes, scan.records))
}

fn quarantine(path: &Path) -> std::io::Result<()> {
    let mut target = path.as_os_str().to_owned();
    target.push(".quarantined");
    smiler_obs::count("store.wal.segment_quarantined", "", 1);
    fs::rename(path, PathBuf::from(target))
}

impl Wal {
    /// Open (or create) the log in `dir` above the recovery `floor` (the
    /// checkpoint's seq, 0 without one) and repair it by the module's one
    /// rule: returns the log positioned for appending, every replayable
    /// record with `seq > floor` in sequence order, and a report of what
    /// was repaired.
    pub fn open(
        dir: &Path,
        config: &StoreConfig,
        floor: u64,
    ) -> std::io::Result<(Wal, Vec<WalRecord>, WalOpenReport)> {
        fs::create_dir_all(dir)?;
        let indices = list_segments(dir)?;
        let mut report = WalOpenReport { segments: indices.len(), ..Default::default() };
        let mut bases = Vec::with_capacity(indices.len());
        for &index in &indices {
            bases.push(read_header(&segment_path(dir, index))?);
        }
        // The scan starts at the segment holding `floor + 1`: the last one
        // whose header puts its base at or below it. The floor covers every
        // earlier one, so damage there stops nothing; one whose header does
        // not even read is renamed aside.
        let first = floor.saturating_add(1);
        let start = bases.iter().rposition(|base| base.is_some_and(|b| b <= first)).unwrap_or(0);
        let mut ledger = Vec::with_capacity(indices.len() + 1);
        for (&index, base) in indices.iter().zip(&bases).take(start) {
            match *base {
                Some(base_seq) => ledger.push(Segment { index, base_seq }),
                None => {
                    quarantine(&segment_path(dir, index))?;
                    report.quarantined_segments += 1;
                }
            }
        }

        let mut records = Vec::new();
        // Valid bytes and end seq (one past its last record) of the last
        // segment replayed: the candidate append tail.
        let mut tail: Option<(u64, u64)> = None;
        let mut cut = indices.len();
        for (i, &index) in indices.iter().enumerate().skip(start) {
            let path = segment_path(dir, index);
            let scan = match scan_segment(&path)? {
                Some(scan) if tail.map_or(true, |(_, end)| end == scan.base_seq) => scan,
                _ => {
                    cut = i; // an unreadable header or a sequence break
                    break;
                }
            };
            let end = scan.records.last().map_or(scan.base_seq, |r| r.seq() + 1);
            records.extend(scan.records.into_iter().filter(|r| r.seq() > floor));
            ledger.push(Segment { index, base_seq: scan.base_seq });
            tail = Some((scan.valid_bytes, end));
            if scan.valid_bytes < scan.file_bytes {
                // A bad record: keep the valid prefix as the append tail.
                report.truncated_bytes += scan.file_bytes - scan.valid_bytes;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_bytes)?;
                f.sync_data()?;
                cut = i + 1;
                break;
            }
        }
        for &index in &indices[cut..] {
            quarantine(&segment_path(dir, index))?;
            report.quarantined_segments += 1;
        }
        if report.truncated_bytes > 0 {
            smiler_obs::count("store.wal.truncated_bytes", "", report.truncated_bytes);
        }

        let next_seq = tail.map_or(first, |(_, end)| end.max(first));
        let (file, current_bytes) = match (tail, ledger.last()) {
            (Some((valid_bytes, end)), Some(last)) if end == next_seq => {
                let mut f = OpenOptions::new()
                    .write(true)
                    .read(true)
                    .open(segment_path(dir, last.index))?;
                f.seek(SeekFrom::Start(valid_bytes))?;
                (f, valid_bytes)
            }
            _ => {
                let index = indices.last().map_or(1, |&last| last + 1);
                ledger.push(Segment { index, base_seq: next_seq });
                (create_segment(dir, index, next_seq)?, SEGMENT_HEADER_BYTES)
            }
        };

        let wal = Wal {
            dir: dir.to_path_buf(),
            file,
            ledger,
            current_bytes,
            next_seq,
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
        self.write(record)
    }

    /// Append one record (the `seq` it carries is assigned here). The
    /// bytes reach the OS before this returns; whether they reach the
    /// platter is the flush policy's decision.
    pub fn append(&mut self, make: impl FnOnce(u64) -> WalRecord) -> std::io::Result<u64> {
        self.write(&make(self.next_seq))
    }

    /// The one write path: frame `record`, which must continue the log,
    /// write it, then let the flush policy and the rotation size decide.
    fn write(&mut self, record: &WalRecord) -> std::io::Result<u64> {
        let started = Instant::now();
        let seq = record.seq();
        if seq != self.next_seq {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("record seq {seq} does not continue the log (next is {})", self.next_seq),
            ));
        }
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

    /// Seal the open segment and start the next one at `next_seq`.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.sync()?;
        let index = self.ledger.last().map_or(1, |open| open.index + 1);
        self.file = create_segment(&self.dir, index, self.next_seq)?;
        self.ledger.push(Segment { index, base_seq: self.next_seq });
        self.current_bytes = SEGMENT_HEADER_BYTES;
        smiler_obs::count("store.wal.rotations", "", 1);
        Ok(())
    }

    /// Delete the sealed segments holding only seqs `<= keep_from`: those
    /// whose successor's base is at most `keep_from + 1`. Returns how many
    /// files were removed.
    pub fn prune_below(&mut self, keep_from: u64) -> usize {
        let covered = self
            .ledger
            .windows(2)
            .take_while(|pair| pair[1].base_seq <= keep_from.saturating_add(1))
            .count();
        let removed = self
            .ledger
            .drain(..covered)
            .filter(|segment| fs::remove_file(segment_path(&self.dir, segment.index)).is_ok())
            .count();
        if removed > 0 {
            smiler_obs::count("store.wal.segments_pruned", "", removed as u64);
        }
        removed
    }

    /// Every record with `seq > after_seq`, in sequence order, read from
    /// the ledger's segments without disturbing the append handle. The
    /// read starts at the segment holding `after_seq + 1`, or at the
    /// oldest one when pruning went past it. A segment that no longer
    /// reads whole is an `InvalidData` error, never a silently short tail.
    pub(crate) fn read_after(&self, after_seq: u64) -> std::io::Result<Vec<WalRecord>> {
        let first = after_seq.saturating_add(1);
        let start = self.ledger.iter().rposition(|s| s.base_seq <= first).unwrap_or(0);
        let mut records = Vec::new();
        for segment in &self.ledger[start..] {
            let path = segment_path(&self.dir, segment.index);
            match scan_segment(&path)? {
                Some(scan) if scan.valid_bytes == scan.file_bytes => {
                    records.extend(scan.records.into_iter().filter(|r| r.seq() > after_seq))
                }
                _ => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("WAL segment {} is damaged", path.display()),
                    ))
                }
            }
        }
        Ok(records)
    }

    /// Every live segment's raw bytes in log order, synced first so the
    /// images hold every appended record.
    pub(crate) fn segment_images(&mut self) -> std::io::Result<Vec<SegmentImage>> {
        self.sync()?;
        self.ledger
            .iter()
            .map(|s| {
                Ok(SegmentImage {
                    index: s.index,
                    bytes: fs::read(segment_path(&self.dir, s.index))?,
                })
            })
            .collect()
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
        let (mut wal, _, _) = Wal::open(&dir, &config, 0).unwrap();
        for i in 0..120u32 {
            wal.append(|seq| WalRecord::Observe { seq, sensor: i, value: i as f64 }).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.ledger.len() >= 4, "test needs several segments");
        let full: Vec<WalRecord> = (0..120u32)
            .map(|i| WalRecord::Observe { seq: i as u64 + 1, sensor: i, value: i as f64 })
            .collect();
        for after in [0u64, 1, 17, 60, 119, 120, 500] {
            let tail = wal.read_after(after).unwrap();
            let expect: Vec<WalRecord> = full.iter().filter(|r| r.seq() > after).cloned().collect();
            assert_eq!(tail, expect, "after_seq {after}");
        }
    }

    #[test]
    fn append_and_reopen_replays_in_order() {
        let dir = tmpdir("roundtrip");
        {
            let (mut wal, records, report) = Wal::open(&dir, &config(), 0).unwrap();
            assert!(records.is_empty());
            assert_eq!(report.quarantined_segments, 0);
            for i in 0..10u32 {
                wal.append(|seq| WalRecord::Observe { seq, sensor: i % 3, value: i as f64 * 0.5 })
                    .unwrap();
            }
            wal.append(|seq| WalRecord::Round { seq, horizon: 2, values: vec![1.0, f64::NAN] })
                .unwrap();
        }
        let (wal, records, report) = Wal::open(&dir, &config(), 0).unwrap();
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
            let (mut wal, _, _) = Wal::open(&dir, &cfg, 0).unwrap();
            for i in 0..50 {
                wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: i as f64 }).unwrap();
            }
        }
        let segs = fs::read_dir(&dir).unwrap().count();
        assert!(segs > 2, "expected several segments, got {segs}");
        let (_, records, report) = Wal::open(&dir, &cfg, 0).unwrap();
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
            let (mut wal, _, _) = Wal::open(&dir, &config(), 0).unwrap();
            for i in 0..5 {
                wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: i as f64 }).unwrap();
            }
        }
        let path = segment_path(&dir, 1);
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap(); // cut into the last record
        drop(f);
        let (mut wal, records, report) = Wal::open(&dir, &config(), 0).unwrap();
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
                let (mut wal, _, _) = Wal::open(&dir, &config(), 0).unwrap();
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

            let (mut wal, records, report) = Wal::open(&dir, &config(), 0).unwrap();
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
            let (mut wal, _, _) = Wal::open(&dir, &cfg, 0).unwrap();
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

        let (mut wal, records, report) = Wal::open(&dir, &cfg, 0).unwrap();
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
            let (mut wal, _, _) = Wal::open(&dir, &cfg, 0).unwrap();
            for i in 0..64 {
                wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: i as f64 }).unwrap();
            }
            assert_eq!(wal.syncs(), 8, "64 appends at every-8 = 8 group commits");
        }
        // All records still durable (they reached the OS on every append).
        let (_, records, _) = Wal::open(&dir, &cfg, 0).unwrap();
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
        let (mut wal, _, _) = Wal::open(&dir, &cfg, 0).unwrap();
        for i in 0..60 {
            wal.append(|seq| WalRecord::Observe { seq, sensor: 0, value: i as f64 }).unwrap();
        }
        let before = fs::read_dir(&dir).unwrap().count();
        let removed = wal.prune_below(40);
        assert!(removed > 0, "expected prunable segments out of {before}");
        // Every record after seq 40 must still replay.
        drop(wal);
        let (_, records, _) = Wal::open(&dir, &cfg, 0).unwrap();
        assert!(records.iter().any(|r| r.seq() == 41), "seq 41 must survive pruning");
        assert_eq!(records.last().unwrap().seq(), 60);
        let _ = fs::remove_dir_all(&dir);
    }
}
