//! The `SMLRNET` length-prefixed binary protocol.
//!
//! Every frame on the wire is:
//!
//! ```text
//! [magic "SMLRNET\0" : 8][version u32][payload len u32][crc32(payload) u32][payload]
//! ```
//!
//! — the same little-endian, CRC-vouched codec discipline as the WAL
//! ([`smiler_store::codec`]), whose primitives this module reuses. The
//! magic doubles as a protocol sniff: a connection whose first bytes do
//! not match it (e.g. `GET ` from curl) is handed to the HTTP gateway.
//!
//! Decoding is *strict* and *total*: every malformed input yields a typed
//! [`FrameError`], never a panic or an out-of-bounds slice, and a payload
//! must be consumed exactly (trailing bytes are an error). Requests carry
//! a caller-chosen `request_id` echoed in the response, so a client matches
//! answers by id; this server happens to answer each connection in request
//! order, which the protocol permits but does not promise.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use smiler_store::codec::{self, ByteReader, CodecError};

/// Frame magic; first bytes on the wire of every binary-protocol frame.
pub const MAGIC: [u8; 8] = *b"SMLRNET\0";

/// Protocol version carried in every frame header.
pub const VERSION: u32 = 1;

/// Envelope size: magic + version + length + CRC.
pub const HEADER_BYTES: usize = 20;

/// Upper bound on a declared payload length. Far above any real frame
/// (requests are tens of bytes); a header declaring more than this is
/// corrupt or hostile and is rejected before any allocation.
pub const MAX_PAYLOAD_BYTES: u32 = 64 * 1024;

// Payload kind tags. Requests use the low range, responses the high range,
// so a stray swap of the two decode paths fails loudly as a BadKind.
const KIND_FORECAST: u8 = 0x01;
const KIND_OBSERVE: u8 = 0x02;
const KIND_PING: u8 = 0x03;
const KIND_FORECAST_OK: u8 = 0x81;
const KIND_OBSERVE_OK: u8 = 0x82;
const KIND_PONG: u8 = 0x83;
const KIND_ERROR: u8 = 0xC0;

/// Typed decode errors. Every way a frame can be malformed maps to one
/// variant; none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first bytes did not match [`MAGIC`]. Reported as soon as the
    /// first mismatching byte arrives (the HTTP sniff relies on this).
    BadMagic {
        /// Offset of the first mismatching byte.
        offset: usize,
        /// The byte found there.
        found: u8,
    },
    /// The version field was not [`VERSION`].
    BadVersion {
        /// The version the frame declared.
        got: u32,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD_BYTES`].
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// The payload bytes did not match the header's CRC.
    BadCrc {
        /// CRC the header declared.
        declared: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// The payload ended before the value it promised, or carried a
    /// malformed length-prefixed field.
    BadPayload(CodecError),
    /// The payload's kind tag is not defined by this protocol version.
    BadKind(u8),
    /// The payload decoded cleanly but left unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        left: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { offset, found } => {
                write!(f, "bad magic at byte {offset}: {found:#04x}")
            }
            FrameError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            FrameError::Oversized { len } => {
                write!(f, "declared payload of {len} bytes exceeds {MAX_PAYLOAD_BYTES}")
            }
            FrameError::BadCrc { declared, computed } => {
                write!(
                    f,
                    "payload crc mismatch: header {declared:#010x}, computed {computed:#010x}"
                )
            }
            FrameError::BadPayload(err) => write!(f, "malformed payload: {err}"),
            FrameError::BadKind(kind) => write!(f, "unknown payload kind {kind:#04x}"),
            FrameError::TrailingBytes { left } => {
                write!(f, "payload has {left} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    fn from(err: CodecError) -> Self {
        FrameError::BadPayload(err)
    }
}

/// A request frame's payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Forecast `h` steps ahead for one sensor.
    Forecast {
        /// Caller-chosen id echoed in the response.
        request_id: u64,
        /// Tenant the request is billed to (QoS admission key).
        tenant: u32,
        /// Sensor id within the fleet.
        sensor: u64,
        /// Forecast horizon (steps ahead).
        h: u32,
        /// Latency budget in microseconds; `0` means no deadline.
        deadline_us: u64,
    },
    /// Feed one observed value to a sensor.
    Observe {
        /// Caller-chosen id echoed in the response.
        request_id: u64,
        /// Tenant the request is billed to (QoS admission key).
        tenant: u32,
        /// Sensor id within the fleet.
        sensor: u64,
        /// The observed value, bit-exact (travels as raw IEEE-754 bits).
        value: f64,
    },
    /// Liveness probe; answered by the connection's reader, never queued
    /// at a shard.
    Ping {
        /// Caller-chosen id echoed in the response.
        request_id: u64,
        /// Tenant field, carried for symmetry (pings are not admission
        /// controlled).
        tenant: u32,
    },
}

impl Request {
    /// The caller-chosen request id.
    pub fn request_id(&self) -> u64 {
        match *self {
            Request::Forecast { request_id, .. }
            | Request::Observe { request_id, .. }
            | Request::Ping { request_id, .. } => request_id,
        }
    }

    /// The tenant the request is billed to.
    pub fn tenant(&self) -> u32 {
        match *self {
            Request::Forecast { tenant, .. }
            | Request::Observe { tenant, .. }
            | Request::Ping { tenant, .. } => tenant,
        }
    }

    /// Encode this request's payload (no envelope).
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match *self {
            Request::Forecast { request_id, tenant, sensor, h, deadline_us } => {
                codec::put_u8(buf, KIND_FORECAST);
                codec::put_u64(buf, request_id);
                codec::put_u32(buf, tenant);
                codec::put_u64(buf, sensor);
                codec::put_u32(buf, h);
                codec::put_u64(buf, deadline_us);
            }
            Request::Observe { request_id, tenant, sensor, value } => {
                codec::put_u8(buf, KIND_OBSERVE);
                codec::put_u64(buf, request_id);
                codec::put_u32(buf, tenant);
                codec::put_u64(buf, sensor);
                codec::put_f64(buf, value);
            }
            Request::Ping { request_id, tenant } => {
                codec::put_u8(buf, KIND_PING);
                codec::put_u64(buf, request_id);
                codec::put_u32(buf, tenant);
            }
        }
    }

    /// Append this request as a complete wire frame.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let mut payload = Vec::with_capacity(40);
        self.encode_payload(&mut payload);
        encode_frame(buf, &payload);
    }

    /// Decode a request payload (envelope already stripped and verified).
    pub fn decode(payload: &[u8]) -> Result<Request, FrameError> {
        let mut r = ByteReader::new(payload);
        let kind = r.u8()?;
        let request_id = r.u64()?;
        let tenant = r.u32()?;
        let req = match kind {
            KIND_FORECAST => {
                let sensor = r.u64()?;
                let h = r.u32()?;
                let deadline_us = r.u64()?;
                Request::Forecast { request_id, tenant, sensor, h, deadline_us }
            }
            KIND_OBSERVE => {
                let sensor = r.u64()?;
                let value = r.f64()?;
                Request::Observe { request_id, tenant, sensor, value }
            }
            KIND_PING => Request::Ping { request_id, tenant },
            other => return Err(FrameError::BadKind(other)),
        };
        if !r.is_empty() {
            return Err(FrameError::TrailingBytes { left: r.remaining() });
        }
        Ok(req)
    }
}

/// A served forecast as it travels on the wire. Mean and variance are raw
/// IEEE-754 bits end to end, so a forecast served over the wire is bitwise
/// identical to the in-process [`smiler_core::degrade::Prediction`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireForecast {
    /// Predicted mean (bit-exact).
    pub mean: f64,
    /// Predicted variance (bit-exact).
    pub variance: f64,
    /// Dense rung index of the ladder level that produced the forecast
    /// (`DegradationLevel::index()`).
    pub rung: u8,
    /// Whether the request finished past its deadline.
    pub deadline_missed: bool,
    /// Server-side wall-clock time the request took, in microseconds.
    pub elapsed_us: u64,
}

/// Why the server refused or failed a request; the wire form of
/// `smiler_core::serve::ServeError` plus frontend-only causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Shard queue full; request shed at admission. Callers should degrade
    /// to the last-value hold locally (the shed ladder's bottom rung).
    Overloaded,
    /// Sensor id outside the fleet.
    UnknownSensor,
    /// The server is draining or stopped.
    ShuttingDown,
    /// The sensor faulted serving the request.
    Fault,
    /// The durable store rejected the append.
    Durability,
    /// The tenant's token bucket is empty (QoS admission).
    Throttled,
    /// The request was structurally valid but semantically unusable
    /// (e.g. an HTTP query with a non-numeric sensor id).
    BadRequest,
    /// This node is a cluster follower: writes must go to the primary
    /// (the error detail carries a leader hint).
    NotPrimary,
}

impl ErrorCode {
    /// Stable wire byte for the code.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::UnknownSensor => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::Fault => 4,
            ErrorCode::Durability => 5,
            ErrorCode::Throttled => 6,
            ErrorCode::BadRequest => 7,
            ErrorCode::NotPrimary => 8,
        }
    }

    /// Decode a wire byte.
    pub fn from_u8(byte: u8) -> Option<ErrorCode> {
        Some(match byte {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::UnknownSensor,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::Fault,
            5 => ErrorCode::Durability,
            6 => ErrorCode::Throttled,
            7 => ErrorCode::BadRequest,
            8 => ErrorCode::NotPrimary,
            _ => return None,
        })
    }

    /// Stable label for metrics and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::UnknownSensor => "unknown_sensor",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Fault => "fault",
            ErrorCode::Durability => "durability",
            ErrorCode::Throttled => "throttled",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotPrimary => "not_primary",
        }
    }
}

/// A response frame's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A served forecast.
    Forecast {
        /// Echo of the request's id.
        request_id: u64,
        /// The forecast.
        forecast: WireForecast,
    },
    /// An absorbed (and, when a store is attached, durable) observation.
    ObserveOk {
        /// Echo of the request's id.
        request_id: u64,
    },
    /// Answer to [`Request::Ping`].
    Pong {
        /// Echo of the request's id.
        request_id: u64,
    },
    /// The request was refused or failed; `code` says why.
    Error {
        /// Echo of the request's id (`0` when the request never decoded).
        request_id: u64,
        /// Why.
        code: ErrorCode,
        /// Human-readable detail, for logs — not for dispatching on.
        detail: String,
    },
}

impl Response {
    /// Echo of the originating request's id.
    pub fn request_id(&self) -> u64 {
        match *self {
            Response::Forecast { request_id, .. }
            | Response::ObserveOk { request_id }
            | Response::Pong { request_id }
            | Response::Error { request_id, .. } => request_id,
        }
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Forecast { request_id, forecast } => {
                codec::put_u8(buf, KIND_FORECAST_OK);
                codec::put_u64(buf, *request_id);
                codec::put_f64(buf, forecast.mean);
                codec::put_f64(buf, forecast.variance);
                codec::put_u8(buf, forecast.rung);
                codec::put_u8(buf, u8::from(forecast.deadline_missed));
                codec::put_u64(buf, forecast.elapsed_us);
            }
            Response::ObserveOk { request_id } => {
                codec::put_u8(buf, KIND_OBSERVE_OK);
                codec::put_u64(buf, *request_id);
            }
            Response::Pong { request_id } => {
                codec::put_u8(buf, KIND_PONG);
                codec::put_u64(buf, *request_id);
            }
            Response::Error { request_id, code, detail } => {
                codec::put_u8(buf, KIND_ERROR);
                codec::put_u64(buf, *request_id);
                codec::put_u8(buf, code.as_u8());
                codec::put_str(buf, detail);
            }
        }
    }

    /// Append this response as a complete wire frame.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let mut payload = Vec::with_capacity(48);
        self.encode_payload(&mut payload);
        encode_frame(buf, &payload);
    }

    /// Decode a response payload (envelope already stripped and verified).
    pub fn decode(payload: &[u8]) -> Result<Response, FrameError> {
        let mut r = ByteReader::new(payload);
        let kind = r.u8()?;
        let request_id = r.u64()?;
        let resp = match kind {
            KIND_FORECAST_OK => {
                let mean = r.f64()?;
                let variance = r.f64()?;
                let rung = r.u8()?;
                let flags = r.u8()?;
                let elapsed_us = r.u64()?;
                Response::Forecast {
                    request_id,
                    forecast: WireForecast {
                        mean,
                        variance,
                        rung,
                        deadline_missed: flags & 1 != 0,
                        elapsed_us,
                    },
                }
            }
            KIND_OBSERVE_OK => Response::ObserveOk { request_id },
            KIND_PONG => Response::Pong { request_id },
            KIND_ERROR => {
                let code_byte = r.u8()?;
                let code = ErrorCode::from_u8(code_byte).ok_or(FrameError::BadKind(code_byte))?;
                let detail = r.str()?;
                Response::Error { request_id, code, detail }
            }
            other => return Err(FrameError::BadKind(other)),
        };
        if !r.is_empty() {
            return Err(FrameError::TrailingBytes { left: r.remaining() });
        }
        Ok(resp)
    }
}

/// One frame family's envelope: the magic, version and payload cap that
/// tell the serving protocol and replication ([`crate::repl`]) apart on
/// the wire. Both share the layout, [`HEADER_BYTES`] of header then the
/// payload, and these two routines.
pub(crate) struct Envelope {
    pub(crate) magic: [u8; 8],
    pub(crate) version: u32,
    pub(crate) max_payload: u32,
}

/// The serving protocol's envelope.
const SERVING: Envelope =
    Envelope { magic: MAGIC, version: VERSION, max_payload: MAX_PAYLOAD_BYTES };

impl Envelope {
    /// Append `payload` to `buf` wrapped in this envelope.
    pub(crate) fn seal(&self, buf: &mut Vec<u8>, payload: &[u8]) {
        buf.extend_from_slice(&self.magic);
        codec::put_u32(buf, self.version);
        codec::put_u32(buf, payload.len() as u32);
        codec::put_u32(buf, codec::crc32(payload));
        buf.extend_from_slice(payload);
    }

    /// Try to carve one frame of this family off the front of `buf`
    /// (the contract is [`try_frame`]'s).
    pub(crate) fn carve<'a>(&self, buf: &'a [u8]) -> Result<Option<(usize, &'a [u8])>, FrameError> {
        // Magic: verify every byte that has arrived so far.
        let check = buf.len().min(self.magic.len());
        for (offset, (&got, &want)) in buf.iter().zip(self.magic.iter()).enumerate().take(check) {
            if got != want {
                return Err(FrameError::BadMagic { offset, found: got });
            }
        }
        if buf.len() < HEADER_BYTES {
            return Ok(None);
        }
        let mut r = ByteReader::new(&buf[self.magic.len()..HEADER_BYTES]);
        // The reader covers exactly 12 bytes; these reads cannot fail.
        let version = r.u32()?;
        let len = r.u32()?;
        let declared_crc = r.u32()?;
        if version != self.version {
            return Err(FrameError::BadVersion { got: version });
        }
        if len > self.max_payload {
            return Err(FrameError::Oversized { len });
        }
        let total = HEADER_BYTES + len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let payload = &buf[HEADER_BYTES..total];
        let computed = codec::crc32(payload);
        if computed != declared_crc {
            return Err(FrameError::BadCrc { declared: declared_crc, computed });
        }
        Ok(Some((total, payload)))
    }
}

/// Append `payload` to `buf` wrapped in the frame envelope.
pub fn encode_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    SERVING.seal(buf, payload);
}

/// Try to carve one frame off the front of `buf`.
///
/// - `Ok(None)` — `buf` holds a valid but incomplete prefix; read more.
/// - `Ok(Some((consumed, payload)))` — one whole frame: `consumed` bytes
///   of `buf` cover it, `payload` borrows its verified payload bytes.
/// - `Err(_)` — the prefix can never become a valid frame. Errors are
///   reported as *early* as possible: the first byte that contradicts
///   [`MAGIC`] fails immediately (this is what lets the server sniff HTTP
///   from the first byte of a connection), and a bad version, oversized
///   length, or CRC mismatch fails as soon as the header is complete.
pub fn try_frame(buf: &[u8]) -> Result<Option<(usize, &[u8])>, FrameError> {
    SERVING.carve(buf)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        req.encode(&mut wire);
        let (consumed, payload) = try_frame(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        let back = Request::decode(payload).unwrap();
        // Compare by re-encoding: bitwise equality that, unlike f64
        // PartialEq, also holds for NaN payloads.
        let mut wire2 = Vec::new();
        back.encode(&mut wire2);
        assert_eq!(wire, wire2);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Forecast {
            request_id: 7,
            tenant: 3,
            sensor: 42,
            h: 5,
            deadline_us: 12_000,
        });
        roundtrip_request(Request::Observe {
            request_id: u64::MAX,
            tenant: 0,
            sensor: 0,
            value: f64::from_bits(0x7ff8_dead_beef_0001), // NaN with payload survives
        });
        roundtrip_request(Request::Ping { request_id: 1, tenant: 9 });
    }

    #[test]
    fn responses_roundtrip() {
        let cases = vec![
            Response::Forecast {
                request_id: 11,
                forecast: WireForecast {
                    mean: -0.0, // signed zero must survive
                    variance: 1.25e-300,
                    rung: 2,
                    deadline_missed: true,
                    elapsed_us: 991,
                },
            },
            Response::ObserveOk { request_id: 4 },
            Response::Pong { request_id: 0 },
            Response::Error {
                request_id: 8,
                code: ErrorCode::Overloaded,
                detail: "shard 1 overloaded: queue 64/64".to_string(),
            },
        ];
        for resp in cases {
            let mut wire = Vec::new();
            resp.encode(&mut wire);
            let (consumed, payload) = try_frame(&wire).unwrap().unwrap();
            assert_eq!(consumed, wire.len());
            let back = Response::decode(payload).unwrap();
            // Compare bit patterns explicitly: PartialEq on f64 would pass
            // -0.0 == 0.0 and fail NaN == NaN.
            if let (
                Response::Forecast { forecast: a, .. },
                Response::Forecast { forecast: b, .. },
            ) = (&resp, &back)
            {
                assert_eq!(a.mean.to_bits(), b.mean.to_bits());
                assert_eq!(a.variance.to_bits(), b.variance.to_bits());
            }
            assert_eq!(back.request_id(), resp.request_id());
        }
    }

    #[test]
    fn http_sniff_fails_on_first_byte() {
        match try_frame(b"G") {
            Err(FrameError::BadMagic { offset: 0, found: b'G' }) => {}
            other => panic!("expected immediate BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_frames_carve_cleanly() {
        let mut wire = Vec::new();
        Request::Ping { request_id: 1, tenant: 0 }.encode(&mut wire);
        Request::Ping { request_id: 2, tenant: 0 }.encode(&mut wire);
        let (n1, p1) = try_frame(&wire).unwrap().unwrap();
        assert_eq!(Request::decode(p1).unwrap().request_id(), 1);
        let (n2, p2) = try_frame(&wire[n1..]).unwrap().unwrap();
        assert_eq!(Request::decode(p2).unwrap().request_id(), 2);
        assert_eq!(n1 + n2, wire.len());
    }

    #[test]
    fn oversized_length_rejected_before_buffering() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&VERSION.to_le_bytes());
        wire.extend_from_slice(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(try_frame(&wire), Err(FrameError::Oversized { .. })));
    }
}
