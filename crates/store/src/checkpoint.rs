//! Versioned, CRC-sealed checkpoint files with atomic replacement.
//!
//! A checkpoint captures the caller's entire durable state as one opaque
//! payload at a WAL sequence number; recovery loads the newest valid one
//! and replays the WAL from there. The container format:
//!
//! ```text
//! ckpt-0000000000000042.ck
//! ┌───────────────────────────────────────────────────────────┐
//! │ magic "SMLRCKPT" (8) │ version u32 │ seq u64 │            │
//! │ payload_len u64 │ crc32(seq‖payload) u32 │ payload ...    │
//! └───────────────────────────────────────────────────────────┘
//! ```
//!
//! Writes go to a `.tmp` sibling, fsync, then rename over the final name —
//! a crash mid-write leaves either the old checkpoint or a `.tmp` corpse,
//! never a half-written `.ck`. A checkpoint that fails validation on load
//! (bad magic, alien version, short payload, CRC mismatch) is renamed to
//! `.quarantined` and the next-newest one is tried instead: one bad file
//! degrades recovery to an older cut plus a longer WAL replay, it does not
//! abort it.

use crate::codec::{self, ByteReader};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Format version written into every checkpoint header.
pub const CHECKPOINT_VERSION: u32 = 1;

const CHECKPOINT_MAGIC: &[u8; 8] = b"SMLRCKPT";
const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 4;

/// A checkpoint successfully read back from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedCheckpoint {
    /// WAL sequence number the payload covers (replay resumes after it).
    pub seq: u64,
    /// The caller's opaque serialized state.
    pub payload: Vec<u8>,
}

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{seq:016}.ck"))
}

/// CRC over the seq field *and* the payload, so a bit flip anywhere in the
/// header's mutable region is caught, not just in the payload.
fn seal(seq: u64, payload: &[u8]) -> u32 {
    let mut sealed = Vec::with_capacity(8 + payload.len());
    codec::put_u64(&mut sealed, seq);
    sealed.extend_from_slice(payload);
    codec::crc32(&sealed)
}

/// Write `payload` as the checkpoint covering WAL sequence `seq`,
/// atomically (tmp + fsync + rename + dir fsync).
pub fn write(dir: &Path, seq: u64, payload: &[u8]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let final_path = checkpoint_path(dir, seq);
    let tmp_path = final_path.with_extension("ck.tmp");
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(CHECKPOINT_MAGIC);
    codec::put_u32(&mut header, CHECKPOINT_VERSION);
    codec::put_u64(&mut header, seq);
    codec::put_u64(&mut header, payload.len() as u64);
    codec::put_u32(&mut header, seal(seq, payload));
    {
        let mut f = OpenOptions::new().create(true).truncate(true).write(true).open(&tmp_path)?;
        f.write_all(&header)?;
        f.write_all(payload)?;
        f.sync_data()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // Make the rename itself durable: fsync the directory entry.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
    smiler_obs::count("store.checkpoint.written", "", 1);
    smiler_obs::count("store.checkpoint.bytes", "", payload.len() as u64);
    Ok(())
}

fn parse(bytes: &[u8]) -> Option<LoadedCheckpoint> {
    if bytes.len() < HEADER_BYTES || &bytes[..8] != CHECKPOINT_MAGIC {
        return None;
    }
    let mut r = ByteReader::new(&bytes[8..HEADER_BYTES]);
    let version = r.u32().ok()?;
    let seq = r.u64().ok()?;
    let payload_len = r.u64().ok()? as usize;
    let crc = r.u32().ok()?;
    if version != CHECKPOINT_VERSION {
        return None;
    }
    let payload = bytes.get(HEADER_BYTES..HEADER_BYTES + payload_len)?;
    if seal(seq, payload) != crc {
        return None;
    }
    Some(LoadedCheckpoint { seq, payload: payload.to_vec() })
}

/// Sequence numbers of the `.ck` files present in `dir`, ascending.
pub fn list(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut seqs: Vec<u64> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let seq = name.strip_prefix("ckpt-")?.strip_suffix(".ck")?;
                seq.parse().ok()
            })
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    seqs.sort_unstable();
    Ok(seqs)
}

/// Load the newest checkpoint that validates, quarantining any that do
/// not. Returns the checkpoint (if any survives) and how many files were
/// quarantined along the way.
pub fn load_latest(dir: &Path) -> std::io::Result<(Option<LoadedCheckpoint>, usize)> {
    let mut quarantined = 0usize;
    for seq in list(dir)?.into_iter().rev() {
        let path = checkpoint_path(dir, seq);
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        match parse(&bytes) {
            Some(loaded) => {
                smiler_obs::count("store.checkpoint.loaded", "", 1);
                return Ok((Some(loaded), quarantined));
            }
            None => {
                let mut target = path.as_os_str().to_owned();
                target.push(".quarantined");
                fs::rename(&path, PathBuf::from(target))?;
                smiler_obs::count("store.checkpoint.quarantined", "", 1);
                quarantined += 1;
            }
        }
    }
    Ok((None, quarantined))
}

/// Remove all but the newest `keep` checkpoints. Returns the smallest
/// retained sequence number, if any checkpoint remains.
pub fn prune(dir: &Path, keep: usize) -> std::io::Result<Option<u64>> {
    let seqs = list(dir)?;
    let cut = seqs.len().saturating_sub(keep.max(1));
    for &seq in &seqs[..cut] {
        let _ = fs::remove_file(checkpoint_path(dir, seq));
    }
    Ok(seqs.get(cut).copied())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smiler_ckpt_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_load_latest_roundtrips() {
        let dir = tmpdir("roundtrip");
        write(&dir, 10, b"older state").unwrap();
        write(&dir, 25, b"newer state").unwrap();
        let (loaded, quarantined) = load_latest(&dir).unwrap();
        let loaded = loaded.unwrap();
        assert_eq!(loaded.seq, 25);
        assert_eq!(loaded.payload, b"newer state");
        assert_eq!(quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_loads_nothing() {
        let dir = tmpdir("empty");
        let (loaded, quarantined) = load_latest(&dir).unwrap();
        assert!(loaded.is_none());
        assert_eq!(quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = tmpdir("fallback");
        write(&dir, 10, b"good old").unwrap();
        write(&dir, 30, b"doomed").unwrap();
        // Flip one payload byte in the newest checkpoint.
        let path = checkpoint_path(&dir, 30);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let (loaded, quarantined) = load_latest(&dir).unwrap();
        let loaded = loaded.unwrap();
        assert_eq!(loaded.seq, 10, "must fall back to the previous checkpoint");
        assert_eq!(loaded.payload, b"good old");
        assert_eq!(quarantined, 1);
        // The corrupt file was renamed aside, not deleted.
        assert!(!checkpoint_path(&dir, 30).exists());
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(names.iter().any(|n| n.ends_with(".quarantined")), "{names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let dir = tmpdir("flips");
        write(&dir, 7, b"state bytes that matter").unwrap();
        let path = checkpoint_path(&dir, 7);
        let pristine = fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[i] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
            // The CRC covers seq + payload; magic/version/len have their
            // own checks — every single-byte flip must be rejected.
            assert!(parse(&bytes).is_none(), "byte {i} flip went undetected");
        }
        fs::write(&path, &pristine).unwrap();
        let (loaded, _) = load_latest(&dir).unwrap();
        assert_eq!(loaded.unwrap().payload, b"state bytes that matter");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest_n() {
        let dir = tmpdir("prune");
        for seq in [5u64, 10, 15, 20] {
            write(&dir, seq, b"x").unwrap();
        }
        let oldest = prune(&dir, 2).unwrap();
        assert_eq!(oldest, Some(15));
        assert_eq!(list(&dir).unwrap(), vec![15, 20]);
        let _ = fs::remove_dir_all(&dir);
    }
}
