//! The `SMLRREPL` replication frame family.
//!
//! Replication speaks the same length-prefixed, CRC-vouched envelope as
//! the serving protocol ([`crate::frame`]) under its own magic, so a
//! replication port can never be confused with a serving port:
//!
//! ```text
//! [magic "SMLRREPL" : 8][version u32][payload len u32][crc32(payload) u32][payload]
//! ```
//!
//! The conversation is asymmetric. A follower opens with [`ReplMsg::Hello`]
//! carrying the highest WAL seq it holds; the primary answers with either
//! a bootstrap (checkpoint chunks + raw segment-image chunks, closed by
//! [`ReplMsg::BootstrapDone`]) when the follower is too far behind, or
//! goes straight to the streaming tail: one [`ReplMsg::Record`] per WAL
//! record, each carrying the *exact payload bytes the primary's WAL framed
//! on disk* — replication never re-encodes state, which is what keeps a
//! promoted follower bitwise identical to the dead primary. The follower
//! acknowledges durable progress with [`ReplMsg::Ack`]; the primary turns
//! acks into replication-cursor advances (pinning WAL retention) and sends
//! [`ReplMsg::Heartbeat`] when idle so lag is measurable without traffic.
//!
//! Chunked transfers ([`ReplMsg::CheckpointChunk`], [`ReplMsg::SegmentChunk`])
//! exist because the envelope caps payloads at [`MAX_REPL_PAYLOAD_BYTES`]:
//! a multi-megabyte segment image travels as ordered chunks carrying
//! `(offset, total_len)` so the receiver can detect holes.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::frame::{Envelope, FrameError};
use smiler_store::codec::{self, ByteReader};
use smiler_store::WalRecord;

/// Frame magic for replication connections.
pub const REPL_MAGIC: [u8; 8] = *b"SMLRREPL";

/// Replication protocol version.
pub const REPL_VERSION: u32 = 1;

/// Upper bound on one replication frame's payload. Larger than the
/// serving protocol's cap because segment chunks are bulk data.
pub const MAX_REPL_PAYLOAD_BYTES: u32 = 256 * 1024;

/// How many content bytes a checkpoint/segment chunk carries (leaves
/// headroom for the chunk's own header inside the payload cap).
pub const CHUNK_BYTES: usize = 192 * 1024;

// Payload kind tags. Follower→primary uses the low range,
// primary→follower the high range, mirroring the serving protocol.
const KIND_HELLO: u8 = 0x01;
const KIND_ACK: u8 = 0x02;
const KIND_CKPT_CHUNK: u8 = 0x81;
const KIND_SEG_CHUNK: u8 = 0x82;
const KIND_BOOTSTRAP_DONE: u8 = 0x83;
const KIND_RECORD: u8 = 0x84;
const KIND_HEARTBEAT: u8 = 0x85;
const KIND_REPL_ERROR: u8 = 0xC0;

/// One replication protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMsg {
    /// Follower → primary: open the stream. `acked_seq` is the highest
    /// WAL seq the follower already holds durably (0 = empty store).
    Hello {
        /// Stable follower identity (cursor key on the primary).
        follower_id: String,
        /// Highest seq already durable on the follower.
        acked_seq: u64,
    },
    /// Follower → primary: everything through `acked_seq` is durable.
    Ack {
        /// Highest seq now durable on the follower.
        acked_seq: u64,
    },
    /// Primary → follower: one chunk of the bootstrap checkpoint.
    CheckpointChunk {
        /// WAL seq the checkpoint covers.
        seq: u64,
        /// Byte offset of this chunk within the checkpoint payload.
        offset: u64,
        /// Total checkpoint payload length.
        total_len: u64,
        /// The chunk's bytes.
        bytes: Vec<u8>,
    },
    /// Primary → follower: one chunk of a raw WAL segment image.
    SegmentChunk {
        /// The `wal-{index:08}.seg` file index on the primary.
        index: u64,
        /// Byte offset of this chunk within the segment file.
        offset: u64,
        /// Total segment file length.
        total_len: u64,
        /// The chunk's bytes.
        bytes: Vec<u8>,
    },
    /// Primary → follower: bootstrap complete; streaming tail follows.
    BootstrapDone {
        /// The primary's WAL head at bootstrap time.
        last_seq: u64,
    },
    /// Primary → follower: one WAL record, payload bytes verbatim.
    Record {
        /// The record (re-framed from the exact on-disk payload bytes).
        record: WalRecord,
    },
    /// Primary → follower: idle keep-alive carrying the WAL head, so a
    /// follower can compute its staleness window without traffic.
    Heartbeat {
        /// The primary's current WAL head.
        last_seq: u64,
    },
    /// Either direction: the peer must stop (protocol violation, shedding
    /// a stale follower, …). Human-readable, not for dispatching on.
    Error {
        /// What went wrong.
        detail: String,
    },
}

impl ReplMsg {
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            ReplMsg::Hello { follower_id, acked_seq } => {
                codec::put_u8(buf, KIND_HELLO);
                codec::put_str(buf, follower_id);
                codec::put_u64(buf, *acked_seq);
            }
            ReplMsg::Ack { acked_seq } => {
                codec::put_u8(buf, KIND_ACK);
                codec::put_u64(buf, *acked_seq);
            }
            ReplMsg::CheckpointChunk { seq, offset, total_len, bytes } => {
                codec::put_u8(buf, KIND_CKPT_CHUNK);
                codec::put_u64(buf, *seq);
                codec::put_u64(buf, *offset);
                codec::put_u64(buf, *total_len);
                codec::put_u64(buf, bytes.len() as u64);
                buf.extend_from_slice(bytes);
            }
            ReplMsg::SegmentChunk { index, offset, total_len, bytes } => {
                codec::put_u8(buf, KIND_SEG_CHUNK);
                codec::put_u64(buf, *index);
                codec::put_u64(buf, *offset);
                codec::put_u64(buf, *total_len);
                codec::put_u64(buf, bytes.len() as u64);
                buf.extend_from_slice(bytes);
            }
            ReplMsg::BootstrapDone { last_seq } => {
                codec::put_u8(buf, KIND_BOOTSTRAP_DONE);
                codec::put_u64(buf, *last_seq);
            }
            ReplMsg::Record { record } => {
                codec::put_u8(buf, KIND_RECORD);
                let payload = record.encode();
                codec::put_u64(buf, payload.len() as u64);
                buf.extend_from_slice(&payload);
            }
            ReplMsg::Heartbeat { last_seq } => {
                codec::put_u8(buf, KIND_HEARTBEAT);
                codec::put_u64(buf, *last_seq);
            }
            ReplMsg::Error { detail } => {
                codec::put_u8(buf, KIND_REPL_ERROR);
                codec::put_str(buf, detail);
            }
        }
    }

    /// Append this message as a complete `SMLRREPL` wire frame.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let mut payload = Vec::with_capacity(64);
        self.encode_payload(&mut payload);
        encode_repl_frame(buf, &payload);
    }

    /// Decode a replication payload (envelope already stripped/verified).
    pub fn decode(payload: &[u8]) -> Result<ReplMsg, FrameError> {
        let mut r = ByteReader::new(payload);
        let kind = r.u8()?;
        let msg = match kind {
            KIND_HELLO => {
                let follower_id = r.str()?;
                let acked_seq = r.u64()?;
                ReplMsg::Hello { follower_id, acked_seq }
            }
            KIND_ACK => ReplMsg::Ack { acked_seq: r.u64()? },
            KIND_CKPT_CHUNK => {
                let seq = r.u64()?;
                let offset = r.u64()?;
                let total_len = r.u64()?;
                let bytes = r.bytes()?.to_vec();
                ReplMsg::CheckpointChunk { seq, offset, total_len, bytes }
            }
            KIND_SEG_CHUNK => {
                let index = r.u64()?;
                let offset = r.u64()?;
                let total_len = r.u64()?;
                let bytes = r.bytes()?.to_vec();
                ReplMsg::SegmentChunk { index, offset, total_len, bytes }
            }
            KIND_BOOTSTRAP_DONE => ReplMsg::BootstrapDone { last_seq: r.u64()? },
            KIND_RECORD => {
                let bytes = r.bytes()?;
                let record = WalRecord::decode(bytes).map_err(FrameError::BadPayload)?;
                ReplMsg::Record { record }
            }
            KIND_HEARTBEAT => ReplMsg::Heartbeat { last_seq: r.u64()? },
            KIND_REPL_ERROR => ReplMsg::Error { detail: r.str()? },
            other => return Err(FrameError::BadKind(other)),
        };
        if !r.is_empty() {
            return Err(FrameError::TrailingBytes { left: r.remaining() });
        }
        Ok(msg)
    }
}

/// The replication envelope: the serving layout under its own magic.
const REPL: Envelope =
    Envelope { magic: REPL_MAGIC, version: REPL_VERSION, max_payload: MAX_REPL_PAYLOAD_BYTES };

/// Append `payload` to `buf` wrapped in the `SMLRREPL` envelope.
pub fn encode_repl_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    REPL.seal(buf, payload);
}

/// Try to carve one `SMLRREPL` frame off the front of `buf` — the same
/// contract as [`crate::frame::try_frame`], including earliest-possible
/// error reporting on a magic mismatch.
pub fn try_repl_frame(buf: &[u8]) -> Result<Option<(usize, &[u8])>, FrameError> {
    REPL.carve(buf)
}

/// Split `bytes` into [`CHUNK_BYTES`]-sized chunk messages via `make`,
/// which receives `(offset, total_len, chunk)`. Zero-length inputs still
/// produce one (empty) chunk so the receiver learns the total length.
pub fn chunked(bytes: &[u8], mut make: impl FnMut(u64, u64, Vec<u8>) -> ReplMsg) -> Vec<ReplMsg> {
    let total = bytes.len() as u64;
    if bytes.is_empty() {
        return vec![make(0, 0, Vec::new())];
    }
    bytes
        .chunks(CHUNK_BYTES)
        .enumerate()
        .map(|(i, chunk)| make((i * CHUNK_BYTES) as u64, total, chunk.to_vec()))
        .collect()
}

/// Reassembles a chunked transfer, enforcing in-order, hole-free chunks.
#[derive(Debug, Default)]
pub struct ChunkAssembler {
    buf: Vec<u8>,
    total: Option<u64>,
}

impl ChunkAssembler {
    /// Start an empty assembly.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb one chunk. Returns the completed bytes when the final chunk
    /// lands, `Ok(None)` while the transfer is still in flight, and an
    /// error on out-of-order or inconsistent chunks.
    pub fn push(
        &mut self,
        offset: u64,
        total_len: u64,
        bytes: &[u8],
    ) -> Result<Option<Vec<u8>>, String> {
        if let Some(total) = self.total {
            if total != total_len {
                return Err(format!("chunk declares total {total_len}, transfer began as {total}"));
            }
        } else {
            if total_len > (1 << 32) {
                return Err(format!("chunked transfer of {total_len} bytes is implausible"));
            }
            self.total = Some(total_len);
        }
        if offset != self.buf.len() as u64 {
            return Err(format!("chunk at offset {offset}, expected {}", self.buf.len()));
        }
        if self.buf.len() as u64 + bytes.len() as u64 > total_len {
            return Err("chunks overflow the declared total".to_string());
        }
        self.buf.extend_from_slice(bytes);
        if self.buf.len() as u64 == total_len {
            self.total = None;
            return Ok(Some(std::mem::take(&mut self.buf)));
        }
        Ok(None)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn roundtrip(msg: ReplMsg) {
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        let (consumed, payload) = try_repl_frame(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        let back = ReplMsg::decode(payload).unwrap();
        let mut wire2 = Vec::new();
        back.encode(&mut wire2);
        assert_eq!(wire, wire2, "re-encode must be bit-identical");
    }

    #[test]
    fn messages_roundtrip() {
        roundtrip(ReplMsg::Hello { follower_id: "follower-b".into(), acked_seq: 42 });
        roundtrip(ReplMsg::Ack { acked_seq: 99 });
        roundtrip(ReplMsg::CheckpointChunk {
            seq: 7,
            offset: 0,
            total_len: 3,
            bytes: vec![1, 2, 3],
        });
        roundtrip(ReplMsg::SegmentChunk {
            index: 4,
            offset: 192 * 1024,
            total_len: 300_000,
            bytes: vec![0xAB; 100],
        });
        roundtrip(ReplMsg::BootstrapDone { last_seq: 1000 });
        roundtrip(ReplMsg::Record {
            record: WalRecord::Observe { seq: 5, sensor: 2, value: f64::NAN },
        });
        roundtrip(ReplMsg::Record {
            record: WalRecord::Round { seq: 6, horizon: 3, values: vec![-0.0, 1.5] },
        });
        roundtrip(ReplMsg::Heartbeat { last_seq: 123 });
        roundtrip(ReplMsg::Error { detail: "follower too stale".into() });
    }

    #[test]
    fn record_payload_is_wal_bitwise() {
        // The Record message must carry the exact WAL payload encoding —
        // same bytes as the on-disk framing, so nothing is re-interpreted.
        let record = WalRecord::Round { seq: 9, horizon: 0, values: vec![f64::MIN_POSITIVE] };
        let mut wire = Vec::new();
        ReplMsg::Record { record: record.clone() }.encode(&mut wire);
        let (_, payload) = try_repl_frame(&wire).unwrap().unwrap();
        let wal_bytes = record.encode();
        assert!(
            payload.windows(wal_bytes.len()).any(|w| w == &wal_bytes[..]),
            "wire payload must embed the WAL payload bytes verbatim"
        );
    }

    #[test]
    fn serving_and_repl_magics_reject_each_other() {
        let mut repl_wire = Vec::new();
        ReplMsg::Ack { acked_seq: 1 }.encode(&mut repl_wire);
        assert!(matches!(crate::frame::try_frame(&repl_wire), Err(FrameError::BadMagic { .. })));
        let mut net_wire = Vec::new();
        crate::frame::Request::Ping { request_id: 1, tenant: 0 }.encode(&mut net_wire);
        assert!(matches!(try_repl_frame(&net_wire), Err(FrameError::BadMagic { .. })));
    }

    #[test]
    fn chunking_reassembles_and_rejects_holes() {
        let data: Vec<u8> = (0..600_000u32).map(|i| (i % 251) as u8).collect();
        let msgs = chunked(&data, |offset, total_len, bytes| ReplMsg::SegmentChunk {
            index: 1,
            offset,
            total_len,
            bytes,
        });
        assert!(msgs.len() > 2, "600k must span several {CHUNK_BYTES}-byte chunks");
        let mut asm = ChunkAssembler::new();
        let mut done = None;
        for msg in &msgs {
            if let ReplMsg::SegmentChunk { offset, total_len, bytes, .. } = msg {
                done = asm.push(*offset, *total_len, bytes).unwrap();
            }
        }
        assert_eq!(done.as_deref(), Some(&data[..]));

        // Skipping a chunk is an error, not silent corruption.
        let mut asm = ChunkAssembler::new();
        if let ReplMsg::SegmentChunk { offset, total_len, bytes, .. } = &msgs[1] {
            assert!(asm.push(*offset, *total_len, bytes).is_err());
        }

        // Empty payloads still complete (total length 0).
        let empty = chunked(&[], |offset, total_len, bytes| ReplMsg::CheckpointChunk {
            seq: 0,
            offset,
            total_len,
            bytes,
        });
        assert_eq!(empty.len(), 1);
        let mut asm = ChunkAssembler::new();
        assert_eq!(asm.push(0, 0, &[]).unwrap(), Some(Vec::new()));
    }

    #[test]
    fn every_frame_fits_the_payload_cap() {
        let data = vec![0u8; CHUNK_BYTES];
        let mut wire = Vec::new();
        ReplMsg::SegmentChunk { index: 0, offset: 0, total_len: data.len() as u64, bytes: data }
            .encode(&mut wire);
        let (consumed, _) = try_repl_frame(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
    }
}
