//! Blocking client for the `SMLRNET` binary protocol.
//!
//! [`NetClient`] is the simple request/response interface used by the CLI
//! and tests: one outstanding request at a time, responses matched by id.
//! The open-loop load harness ([`crate::load`]) pipelines instead, using
//! [`NetClient::into_split`] to drive sends and receives from separate
//! threads over the same socket.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::frame::{self, ErrorCode, FrameError, Request, Response, WireForecast};
use smiler_core::degrade::{DegradationLevel, Prediction};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes read timeouts).
    Io(io::Error),
    /// The server sent bytes that do not decode as a response frame.
    Protocol(FrameError),
    /// The server answered with a typed error.
    Server {
        /// Why the server refused or failed.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The server closed the connection mid-response.
    ConnectionClosed,
    /// A response decoded but was not the kind the call expected.
    UnexpectedResponse,
    /// [`crate::run_net_load`] was asked for a run it cannot schedule.
    InvalidLoad(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "socket error: {err}"),
            ClientError::Protocol(err) => write!(f, "protocol error: {err}"),
            ClientError::Server { code, detail } => {
                write!(f, "server error ({}): {detail}", code.as_str())
            }
            ClientError::ConnectionClosed => write!(f, "connection closed mid-response"),
            ClientError::UnexpectedResponse => write!(f, "response kind did not match request"),
            ClientError::InvalidLoad(why) => write!(f, "invalid load: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<FrameError> for ClientError {
    fn from(err: FrameError) -> Self {
        ClientError::Protocol(err)
    }
}

/// Reassemble a [`Prediction`] from its wire form. Mean and variance are
/// bit-exact; `elapsed` is quantised to the protocol's microsecond tick.
pub fn prediction_from_wire(wire: &WireForecast) -> Prediction {
    let level = DegradationLevel::ALL
        .get(wire.rung as usize)
        .copied()
        .unwrap_or(DegradationLevel::LastValue);
    Prediction {
        mean: wire.mean,
        variance: wire.variance,
        level,
        deadline_missed: wire.deadline_missed,
        elapsed: Duration::from_micros(wire.elapsed_us),
    }
}

/// A blocking binary-protocol connection.
pub struct NetClient {
    stream: TcpStream,
    read_buf: Vec<u8>,
    next_id: u64,
    tenant: u32,
}

impl NetClient {
    /// Connect to a serving frontend. Reads time out after 10s so a hung
    /// server surfaces as [`ClientError::Io`] instead of a hang.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<NetClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(NetClient { stream, read_buf: Vec::new(), next_id: 1, tenant: 0 })
    }

    /// Tenant id stamped on subsequent requests (QoS admission key).
    pub fn set_tenant(&mut self, tenant: u32) {
        self.tenant = tenant;
    }

    /// Round-trip one request, returning the matched response.
    fn call(&mut self, req: Request) -> Result<Response, ClientError> {
        let id = req.request_id();
        let mut wire = Vec::new();
        req.encode(&mut wire);
        self.stream.write_all(&wire)?;
        loop {
            let resp = read_response(&mut self.stream, &mut self.read_buf)?;
            // With one request outstanding any other id is a server bug;
            // discard and keep waiting rather than failing the caller.
            if resp.request_id() == id {
                return Ok(resp);
            }
        }
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Forecast `h` steps ahead for `sensor`, with an optional server-side
    /// latency budget.
    pub fn forecast(
        &mut self,
        sensor: u64,
        h: u32,
        budget: Option<Duration>,
    ) -> Result<WireForecast, ClientError> {
        let req = Request::Forecast {
            request_id: self.next_id(),
            tenant: self.tenant,
            sensor,
            h,
            deadline_us: budget.map_or(0, |b| b.as_micros().min(u128::from(u64::MAX)) as u64),
        };
        match self.call(req)? {
            Response::Forecast { forecast, .. } => Ok(forecast),
            Response::Error { code, detail, .. } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Feed one observation to `sensor`, waiting for the (durable, when a
    /// store is attached) acknowledgement.
    pub fn observe(&mut self, sensor: u64, value: f64) -> Result<(), ClientError> {
        let req =
            Request::Observe { request_id: self.next_id(), tenant: self.tenant, sensor, value };
        match self.call(req)? {
            Response::ObserveOk { .. } => Ok(()),
            Response::Error { code, detail, .. } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let req = Request::Ping { request_id: self.next_id(), tenant: self.tenant };
        match self.call(req)? {
            Response::Pong { .. } => Ok(()),
            Response::Error { code, detail, .. } => Err(ClientError::Server { code, detail }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Split into independently-owned send and receive halves (clones of
    /// the same socket) for pipelined use from two threads.
    pub fn into_split(self) -> Result<(NetSender, NetReceiver), ClientError> {
        let write_half = self.stream.try_clone()?;
        Ok((
            NetSender { stream: write_half, tenant: self.tenant },
            NetReceiver { stream: self.stream, read_buf: self.read_buf },
        ))
    }
}

/// Send half of a pipelined connection.
pub struct NetSender {
    stream: TcpStream,
    tenant: u32,
}

impl NetSender {
    /// Send one forecast request without waiting for the response.
    pub fn send_forecast(
        &mut self,
        request_id: u64,
        sensor: u64,
        h: u32,
        budget: Option<Duration>,
    ) -> Result<(), ClientError> {
        let req = Request::Forecast {
            request_id,
            tenant: self.tenant,
            sensor,
            h,
            deadline_us: budget.map_or(0, |b| b.as_micros().min(u128::from(u64::MAX)) as u64),
        };
        let mut wire = Vec::new();
        req.encode(&mut wire);
        self.stream.write_all(&wire)?;
        Ok(())
    }
}

/// Receive half of a pipelined connection.
pub struct NetReceiver {
    stream: TcpStream,
    read_buf: Vec<u8>,
}

impl NetReceiver {
    /// Block until the next response frame arrives.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        read_response(&mut self.stream, &mut self.read_buf)
    }
}

/// Read one complete response frame, buffering partial reads in `buf`.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<Response, ClientError> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((consumed, payload)) = frame::try_frame(buf)? {
            let resp = Response::decode(payload)?;
            buf.drain(..consumed);
            return Ok(resp);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ClientError::ConnectionClosed),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) => return Err(ClientError::Io(err)),
        }
    }
}
