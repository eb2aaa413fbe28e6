//! Connection threads: socket byte → shard queue → response byte.
//!
//! One acceptor thread blocks in `accept`. Every admitted connection gets
//! two threads and nothing else — the same model `smiler-cluster` uses for
//! its followers: a **reader** blocked in `read`, which carves frames (or
//! one HTTP request), debits the tenant's QoS bucket and submits to the
//! shard queues ([`ServeHandle::submit_forecast_traced`] /
//! `submit_observe`, which run shard admission control); and a **writer**,
//! which takes each answer-to-be off a bounded channel, blocks until the
//! shard worker has answered it, renders it and `write_all`s it. Nothing
//! sleeps and nothing polls: an arriving byte, a finished forecast and a
//! freed window slot each wake the one thread waiting for them.
//! `max_connections` bounds the threads at twice its value (plus the
//! acceptor).
//!
//! Answers leave a connection **in request order** — one of the orders
//! request ids always allowed, now the only one. The price is head-of-line
//! blocking *within* a connection: a ping or a cached forecast pipelined
//! behind a slow GP forecast waits for it. Connections never wait for each
//! other; a client that wants independent latencies opens a second one.
//!
//! Backpressure, layer by layer:
//!
//! - **Shard queue full** → the submit returns `ServeError::Overloaded`,
//!   which travels to the client as a typed error frame (or HTTP 503).
//!   The client's degradation ladder takes over from there.
//! - **Connection in-flight window full** → the answer channel holds
//!   `inflight_window` entries, so the reader blocks in `send` and *stops
//!   reading* (a read-stall). Unread bytes accumulate in the kernel
//!   receive buffer until TCP flow control closes the window and the
//!   sender blocks — backpressure all the way to the client without
//!   buffering unbounded requests in userspace.
//! - **Tenant bucket empty** → typed `Throttled` before any queue is
//!   touched, so a hot tenant consumes admission budget only for itself.
//! - **Peer stopped reading** → the writer blocks in `write` for at most
//!   [`WRITE_TIMEOUT`], then the connection is closed. Only that
//!   connection's two threads ever waited.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::frame::{self, ErrorCode, FrameError, Request, Response, WireForecast};
use crate::http::{self, HttpParse, HttpRequest};
use crate::qos::{QosConfig, TenantBuckets};
use smiler_core::degrade::Prediction;
use smiler_core::serve::{PendingForecast, PendingObserve, ServeError, ServeHandle};
use smiler_obs::trace::RequestTrace;
use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{Builder, JoinHandle};
use std::time::{Duration, Instant};

/// Frontend tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Connections beyond this are accepted and immediately closed (the
    /// accept queue must still be drained to avoid a SYN backlog). Each
    /// live connection owns two threads, so this is also the thread bound.
    pub max_connections: usize,
    /// Per-connection bound on requests read but not yet answered.
    /// A full window read-stalls the connection (see module docs).
    pub inflight_window: usize,
    /// Per-tenant token-bucket admission; `None` disables QoS.
    pub qos: Option<QosConfig>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { max_connections: 1024, inflight_window: 32, qos: None }
    }
}

/// How long a writer waits on a peer that does not read before the
/// connection is closed. Kernel socket buffers absorb hundreds of
/// kilobytes of answers first, so only a stuck peer ever meets it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// First and longest pause after a failed `accept`. Descriptor or buffer
/// exhaustion persists until something closes; retrying at once would spin.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);
/// Read chunk size.
const READ_CHUNK: usize = 4096;

/// A running network frontend. [`NetServer::shutdown`] (or dropping the
/// struct) stops accepting, closes every connection and joins every thread.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting connections
    /// in front of `handle`'s shard queues. A QoS rate that is not a
    /// finite number above zero, or a burst below one token (a bucket
    /// that never admits), is refused as [`ErrorKind::InvalidInput`]
    /// before anything binds.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        handle: ServeHandle,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        if let Some(QosConfig { rate, burst }) = config.qos {
            let refuse = |why: String| Err(io::Error::new(ErrorKind::InvalidInput, why));
            if !(rate.is_finite() && rate > 0.0) {
                return refuse(format!("QoS rate {rate} is not a finite number above 0"));
            }
            if !(burst.is_finite() && burst >= 1.0) {
                return refuse(format!("QoS burst {burst} is not a finite number of at least 1"));
            }
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(handle, config));
        let acceptor = {
            let shared = Arc::clone(&shared);
            Builder::new().name("smiler-net-accept".to_string()).spawn(move || {
                accept_loop(&shared, || listener.accept().map(|(stream, _peer)| stream))
            })?
        };
        Ok(NetServer { addr, shared, acceptor: Some(acceptor) })
    }

    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection, and join the acceptor and
    /// every connection thread. Requests already queued at a shard are
    /// waited for (their answers go nowhere); nothing else is.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The acceptor is blocked in `accept`; a throw-away connection to
        // our own port is what wakes it. A wildcard bind is reached through
        // loopback. Should even that fail, the acceptor is left to exit on
        // the next real connection rather than joined forever.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            if let Some(acceptor) = self.acceptor.take() {
                let _ = acceptor.join();
            }
        }
        // `stop` was set before this lock was taken and admission checks it
        // under the same lock, so the registry can only shrink from here.
        let conns = std::mem::take(&mut *lock(&self.shared.conns));
        for live in conns.live.values() {
            let _ = live.stream.shutdown(Shutdown::Both);
        }
        for thread in conns.live.into_values().map(|live| live.thread).chain(conns.ended) {
            let _ = thread.join();
        }
    }
}

/// What the acceptor, the connection threads and the owner share.
struct Shared {
    handle: ServeHandle,
    config: NetConfig,
    qos: Option<Mutex<TenantBuckets>>,
    stop: AtomicBool,
    conns: Mutex<Conns>,
}

/// The live-connection registry: what `max_connections` counts and what
/// shutdown closes and joins.
#[derive(Default)]
struct Conns {
    next_id: u64,
    live: BTreeMap<u64, Live>,
    /// Threads of connections that have ended, joined by the acceptor on
    /// its next admission (at most `max_connections` can pile up).
    ended: Vec<JoinHandle<()>>,
}

struct Live {
    /// A `try_clone` of the connection's socket, kept to shut it down.
    stream: TcpStream,
    thread: JoinHandle<()>,
}

/// Lock a mutex whose data stays valid at every step of every update (a
/// token count, a map insert or remove), so a poisoned guard is usable.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn new(handle: ServeHandle, config: NetConfig) -> Shared {
        Shared {
            handle,
            config,
            qos: config.qos.map(|qos| Mutex::new(TenantBuckets::new(qos))),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Conns::default()),
        }
    }

    /// Debit the tenant's bucket; no QoS configured means admit everything.
    fn within_rate(&self, tenant: u32) -> bool {
        let Some(qos) = &self.qos else { return true };
        let admitted = lock(qos).admit(tenant, Instant::now());
        if !admitted && smiler_obs::enabled() {
            smiler_obs::count("net.qos.throttled", &format!("tenant={tenant}"), 1);
        }
        admitted
    }
}

/// Admit connections until told to stop. `accept` is the listener's
/// blocking accept (a parameter so a test can make it fail).
fn accept_loop(shared: &Arc<Shared>, mut accept: impl FnMut() -> io::Result<TcpStream>) {
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        let accepted = accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted.and_then(|stream| admit_connection(shared, stream)) {
            Ok(()) => backoff = ACCEPT_BACKOFF_MIN,
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                if smiler_obs::enabled() {
                    smiler_obs::count("net.accept_error", "", 1);
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    }
}

/// Register `stream` and start its connection thread, or close it when the
/// server is full. An error means the process is out of descriptors or
/// threads — the same condition a failed `accept` reports.
fn admit_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    let obs = smiler_obs::enabled();
    let mut conns = lock(&shared.conns);
    for thread in std::mem::take(&mut conns.ended) {
        let _ = thread.join();
    }
    if shared.stop.load(Ordering::SeqCst) {
        return Ok(());
    }
    if conns.live.len() >= shared.config.max_connections {
        if obs {
            smiler_obs::count("net.conn_rejected", "", 1);
        }
        return Ok(());
    }
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let registered = stream.try_clone()?;
    let id = conns.next_id;
    conns.next_id += 1;
    // The registry lock is held across the spawn, so a connection that
    // ends at once still finds its entry to remove.
    let thread = {
        let shared = Arc::clone(shared);
        Builder::new()
            .name("smiler-net-conn".to_string())
            .spawn(move || serve_connection(&shared, id, &stream))?
    };
    conns.live.insert(id, Live { stream: registered, thread });
    if obs {
        smiler_obs::count("net.accept", "", 1);
        smiler_obs::gauge_set("net.connections", "", conns.live.len() as f64);
    }
    Ok(())
}

/// One connection, start to finish: the reader on a scoped thread, the
/// writer on this one, then the socket is closed and the registry told.
fn serve_connection(shared: &Shared, id: u64, stream: &TcpStream) {
    let (answers, queued) = sync_channel(shared.config.inflight_window);
    std::thread::scope(|scope| {
        let reader =
            Builder::new().name("smiler-net-read".to_string()).spawn_scoped(scope, move || {
                Reader { shared, answers, proto: Proto::Unknown, greeted: false }.run(stream)
            });
        if reader.is_ok() {
            write_answers(stream, queued);
        }
        // Every answer is out (or the peer stopped taking them): FIN to the
        // peer, and end-of-file to a reader still blocked in `read`.
        let _ = stream.shutdown(Shutdown::Both);
    });
    let mut conns = lock(&shared.conns);
    if let Some(live) = conns.live.remove(&id) {
        conns.ended.push(live.thread);
    }
    if smiler_obs::enabled() {
        smiler_obs::count("net.close", "", 1);
        smiler_obs::gauge_set("net.connections", "", conns.live.len() as f64);
    }
}

/// The writer: answers leave in the order their requests arrived. Returns
/// when the reader has hung up and the queue is drained, or when a write
/// fails ([`WRITE_TIMEOUT`] included); dropping the queue is what tells a
/// reader blocked on a full window.
fn write_answers(mut stream: impl Write, queued: Receiver<Answer>) {
    for answer in queued {
        let bytes = answer.wait();
        if stream.write_all(&bytes).is_err() {
            return;
        }
        if smiler_obs::enabled() {
            smiler_obs::count("net.bytes_out", "", bytes.len() as u64);
        }
    }
}

/// Protocol spoken on a connection, decided by its first bytes.
enum Proto {
    /// No complete frame seen yet.
    Unknown,
    /// `SMLRNET` binary frames.
    Binary,
    /// The HTTP/JSON gateway.
    Http,
}

/// How a request arrived, which is how its answer must be rendered.
#[derive(Clone, Copy)]
enum Format {
    /// A binary frame; carries the request id to echo.
    Binary(u64),
    /// The HTTP gateway; carries the sensor id for the JSON body.
    Http(u64),
}

/// What a request asks of the fleet, whichever way it arrived.
enum Call {
    Forecast { sensor: u64, h: u32, budget: Option<Duration> },
    Observe { sensor: u64, value: f64 },
}

/// One queued answer: rendered already, or waiting on a shard worker.
enum Answer {
    Ready(Vec<u8>),
    Forecast(Format, PendingForecast),
    Observe(Format, PendingObserve),
}

impl Answer {
    /// Block until the shard worker has answered, then render.
    fn wait(self) -> Vec<u8> {
        match self {
            Answer::Ready(bytes) => bytes,
            Answer::Forecast(format, pending) => format.forecast(pending.wait()),
            Answer::Observe(format, pending) => format.observed(pending.wait()),
        }
    }
}

/// The reader's state for one connection.
struct Reader<'a> {
    shared: &'a Shared,
    answers: SyncSender<Answer>,
    proto: Proto,
    /// Whether the first request has been seen (trace `net.accept` mark).
    greeted: bool,
}

impl Reader<'_> {
    /// Read until the peer closes its sending half, the protocol ends the
    /// conversation, or the writer is gone. Returning drops the answer
    /// sender: the writer finishes what is queued, then closes.
    fn run(mut self, mut stream: impl Read) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let n = match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => n,
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            buf.extend_from_slice(&chunk[..n]);
            if smiler_obs::enabled() {
                smiler_obs::count("net.bytes_in", "", n as u64);
            }
            if self.carve(&mut buf).is_break() {
                return;
            }
        }
    }

    /// Carve and admit every complete request in `buf`. `Break` means stop
    /// reading: the one HTTP request was taken, the bytes are no protocol
    /// of ours, or the writer is gone.
    fn carve(&mut self, buf: &mut Vec<u8>) -> ControlFlow<()> {
        let mut consumed = 0usize;
        let flow = loop {
            let rest = &buf[consumed..];
            let (answer, last) = match self.proto {
                Proto::Http => match http::parse(rest) {
                    HttpParse::NeedMore => break ControlFlow::Continue(()),
                    HttpParse::Request(req) => (self.http_request(&req), true),
                    HttpParse::Bad(reason) => (http_error(400, &reason), true),
                    HttpParse::HeadTooLarge => (http_error(431, "request head too large"), true),
                },
                Proto::Unknown | Proto::Binary => match frame::try_frame(rest) {
                    Ok(None) => break ControlFlow::Continue(()),
                    Ok(Some((n, payload))) => {
                        self.proto = Proto::Binary;
                        consumed += n;
                        match Request::decode(payload) {
                            Ok(req) => (self.binary_request(req), false),
                            Err(err) => (bad_frame(&err), true),
                        }
                    }
                    Err(FrameError::BadMagic { .. }) if matches!(self.proto, Proto::Unknown) => {
                        // First bytes are not ours: hand the connection to
                        // the HTTP gateway.
                        self.proto = Proto::Http;
                        if smiler_obs::enabled() {
                            smiler_obs::count("net.http_conns", "", 1);
                        }
                        continue;
                    }
                    Err(err) => (bad_frame(&err), true),
                },
            };
            if self.queue(answer).is_break() || last {
                break ControlFlow::Break(());
            }
        };
        buf.drain(..consumed);
        flow
    }

    /// Hand one answer-to-be to the writer. A full window blocks here —
    /// that *is* the read-stall: nothing more is read until a slot frees.
    fn queue(&self, answer: Answer) -> ControlFlow<()> {
        let answer = match self.answers.try_send(answer) {
            Ok(()) => return ControlFlow::Continue(()),
            Err(TrySendError::Disconnected(_)) => return ControlFlow::Break(()),
            Err(TrySendError::Full(answer)) => answer,
        };
        if smiler_obs::enabled() {
            smiler_obs::count("net.read_stall", "", 1);
        }
        match self.answers.send(answer) {
            Ok(()) => ControlFlow::Continue(()),
            Err(_) => ControlFlow::Break(()),
        }
    }

    /// Route one decoded binary request; pings answer inline.
    fn binary_request(&mut self, req: Request) -> Answer {
        if smiler_obs::enabled() {
            smiler_obs::count("net.frames_in", "", 1);
        }
        match req {
            Request::Ping { request_id, .. } => {
                Answer::Ready(encode(&Response::Pong { request_id }))
            }
            Request::Forecast { request_id, tenant, sensor, h, deadline_us } => {
                let budget = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
                self.admit(Format::Binary(request_id), tenant, Call::Forecast { sensor, h, budget })
            }
            Request::Observe { request_id, tenant, sensor, value } => {
                self.admit(Format::Binary(request_id), tenant, Call::Observe { sensor, value })
            }
        }
    }

    /// Route one HTTP request. `/healthz` and `/status` answer inline;
    /// `/forecast` and `/observe` go through the same admission as binary
    /// frames.
    fn http_request(&mut self, req: &HttpRequest) -> Answer {
        if smiler_obs::enabled() {
            smiler_obs::count("net.http_requests", "", 1);
        }
        let call = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => return http_reply(200, "{\"ok\":true}"),
            ("GET", "/status") => {
                let body = serde_json::to_string(&self.shared.handle.status_report())
                    .unwrap_or_else(|_| "{\"error\":\"status serialization failed\"}".to_string());
                return http_reply(200, &body);
            }
            ("GET", "/forecast") => http_forecast(req),
            ("POST", "/observe") => http_observe(req),
            (_, "/forecast" | "/observe" | "/status" | "/healthz") => {
                return http_error(405, "method not allowed")
            }
            _ => return http_error(404, "no such endpoint"),
        };
        match call {
            Ok((sensor, call)) => {
                let tenant = req.param("tenant").and_then(|t| t.parse().ok()).unwrap_or(0u32);
                self.admit(Format::Http(sensor), tenant, call)
            }
            Err(reason) => http_error(400, &reason),
        }
    }

    /// The one admission path: QoS debit, then the shard queue's own
    /// admission control. Every refusal is a typed answer in `format`.
    fn admit(&mut self, format: Format, tenant: u32, call: Call) -> Answer {
        let first = !std::mem::replace(&mut self.greeted, true);
        if !self.shared.within_rate(tenant) {
            return Answer::Ready(
                format.error(ErrorCode::Throttled, format!("tenant {tenant} over rate")),
            );
        }
        let handle = &self.shared.handle;
        let submitted = match call {
            Call::Forecast { sensor, h, budget } => {
                let trace = begin_trace(handle, sensor, h, first);
                handle
                    .submit_forecast_traced(sensor as usize, h as usize, budget, trace)
                    .map(|pending| Answer::Forecast(format, pending))
            }
            Call::Observe { sensor, value } => handle
                .submit_observe(sensor as usize, value)
                .map(|pending| Answer::Observe(format, pending)),
        };
        submitted.unwrap_or_else(|err| {
            if let (true, ServeError::Overloaded { shard, .. }) = (smiler_obs::enabled(), &err) {
                smiler_obs::count("net.shed", &format!("shard={shard}"), 1);
            }
            Answer::Ready(format.serve_error(&err))
        })
    }
}

/// Begin a request trace at decode time so the connection milestones
/// (`net.accept` on a connection's first request, `net.read`,
/// `net.decode`) share a timeline with the queue/serve milestones the
/// shard worker adds downstream.
fn begin_trace(handle: &ServeHandle, sensor: u64, h: u32, first: bool) -> Option<RequestTrace> {
    if !smiler_obs::trace::active() {
        return None;
    }
    let shard = (sensor as usize) % handle.shard_count().max(1);
    let mut trace = RequestTrace::begin(sensor as usize, h as usize, shard);
    if first {
        trace.mark("net.accept");
    }
    trace.mark("net.read");
    trace.mark("net.decode");
    Some(trace)
}

/// `GET /forecast?sensor=&h=[&deadline_ms=]` as a sensor id and a call.
fn http_forecast(req: &HttpRequest) -> Result<(u64, Call), String> {
    let sensor = req.numeric_param::<u64>("sensor")?;
    let h = req.numeric_param::<u32>("h")?;
    let budget = match req.param("deadline_ms") {
        None => None,
        Some(_) => Some(Duration::from_millis(req.numeric_param::<u64>("deadline_ms")?)),
    };
    Ok((sensor, Call::Forecast { sensor, h, budget }))
}

/// `POST /observe?sensor=&value=` as a sensor id and a call.
fn http_observe(req: &HttpRequest) -> Result<(u64, Call), String> {
    let sensor = req.numeric_param::<u64>("sensor")?;
    let value = req.numeric_param::<f64>("value")?;
    Ok((sensor, Call::Observe { sensor, value }))
}

impl Format {
    fn error(self, code: ErrorCode, detail: String) -> Vec<u8> {
        match self {
            Format::Binary(request_id) => encode(&Response::Error { request_id, code, detail }),
            Format::Http(_) => {
                http::render_response(http::status_for(code), &http::error_body(code, &detail))
            }
        }
    }

    fn serve_error(self, err: &ServeError) -> Vec<u8> {
        self.error(wire_error(err), err.to_string())
    }

    fn forecast(self, reply: Result<Prediction, ServeError>) -> Vec<u8> {
        let p = match reply {
            Ok(p) => p,
            Err(err) => return self.serve_error(&err),
        };
        let forecast = WireForecast {
            mean: p.mean,
            variance: p.variance,
            rung: p.level.index() as u8,
            deadline_missed: p.deadline_missed,
            elapsed_us: p.elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
        };
        match self {
            Format::Binary(request_id) => encode(&Response::Forecast { request_id, forecast }),
            Format::Http(sensor) => http::render_response(
                200,
                &format!(
                    "{{\"sensor\":{},\"mean\":{},\"variance\":{},\"level\":\"{}\",\"deadline_missed\":{},\"elapsed_us\":{}}}",
                    sensor,
                    json_f64(p.mean),
                    json_f64(p.variance),
                    p.level.as_str(),
                    p.deadline_missed,
                    forecast.elapsed_us
                ),
            ),
        }
    }

    fn observed(self, reply: Result<(), ServeError>) -> Vec<u8> {
        match (reply, self) {
            (Err(err), _) => self.serve_error(&err),
            (Ok(()), Format::Binary(request_id)) => encode(&Response::ObserveOk { request_id }),
            (Ok(()), Format::Http(sensor)) => {
                http::render_response(200, &format!("{{\"ok\":true,\"sensor\":{sensor}}}"))
            }
        }
    }
}

/// Encode one binary response frame.
fn encode(resp: &Response) -> Vec<u8> {
    let mut wire = Vec::with_capacity(64);
    resp.encode(&mut wire);
    if smiler_obs::enabled() {
        smiler_obs::count("net.frames_out", "", 1);
    }
    wire
}

/// The typed error frame that answers bytes no request decodes from; the
/// connection closes behind it.
fn bad_frame(err: &FrameError) -> Answer {
    if smiler_obs::enabled() {
        smiler_obs::count("net.decode_error", "", 1);
    }
    Answer::Ready(Format::Binary(0).error(ErrorCode::BadRequest, err.to_string()))
}

/// An HTTP answer that needs no shard.
fn http_reply(status: u16, body: &str) -> Answer {
    Answer::Ready(http::render_response(status, body))
}

/// An HTTP refusal decided by the gateway itself (bad request line, no
/// such endpoint, …).
fn http_error(status: u16, detail: &str) -> Answer {
    http_reply(status, &http::error_body(ErrorCode::BadRequest, detail))
}

/// Wire code for a serving error.
fn wire_error(err: &ServeError) -> ErrorCode {
    match err {
        ServeError::Overloaded { .. } => ErrorCode::Overloaded,
        ServeError::UnknownSensor { .. } => ErrorCode::UnknownSensor,
        ServeError::ShuttingDown => ErrorCode::ShuttingDown,
        ServeError::Fault(_) => ErrorCode::Fault,
        ServeError::Durability { .. } => ErrorCode::Durability,
        ServeError::NotPrimary { .. } => ErrorCode::NotPrimary,
    }
}

/// Format an `f64` for a JSON body: non-finite values become `null` (JSON
/// has no NaN), everything else uses Rust's shortest-roundtrip form.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smiler_core::serve::{ServeConfig, SmilerServer};
    use smiler_core::{PredictorKind, SensorPredictor, SmilerConfig};
    use smiler_gpu::Device;

    /// A failing `accept` (descriptor exhaustion, say) cannot be provoked
    /// from outside without starving every other test in the process of
    /// descriptors, hence the injected `accept`. Six failures must cost the
    /// six doubling pauses, not a spin, and each must be counted.
    #[test]
    fn accept_errors_are_counted_and_back_off() {
        const FAILURES: u32 = 6;
        let device = Arc::new(Device::default_gpu());
        let history = (0..300).map(|i| (f64::from(i) * 0.26).sin()).collect();
        let sensor = SensorPredictor::new(
            Arc::clone(&device),
            0,
            history,
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        let server = SmilerServer::start(device, vec![sensor], ServeConfig::default());
        let shared = Arc::new(Shared::new(server.handle(), NetConfig::default()));
        smiler_obs::set_enabled(true);

        let mut calls = 0;
        let started = Instant::now();
        accept_loop(&shared, || {
            calls += 1;
            if calls > FAILURES {
                shared.stop.store(true, Ordering::SeqCst);
            }
            Err(io::Error::other("too many open files"))
        });
        let paused = started.elapsed();

        assert_eq!(calls, FAILURES + 1, "the loop must retry until told to stop");
        assert!(
            paused >= ACCEPT_BACKOFF_MIN * ((1 << FAILURES) - 1),
            "{FAILURES} failed accepts were retried after only {paused:?}"
        );
        let counted: u64 = smiler_obs::metrics_snapshot()
            .counters
            .iter()
            .filter(|row| row.name == "net.accept_error")
            .map(|row| row.value)
            .sum();
        assert!(counted >= u64::from(FAILURES), "net.accept_error counted {counted}");
        server.shutdown();
    }
}
