//! The reactor loop: socket byte → shard queue → response byte.
//!
//! One thread owns the listener, every connection, the [`Poller`], and the
//! per-tenant QoS buckets. Requests are *admitted* here (QoS debit, then
//! [`ServeHandle::submit_forecast_traced`] / `submit_observe`, which run
//! shard admission control) but *served* by the existing shard workers;
//! the reactor polls its bounded in-flight window with `try_wait` and
//! never blocks on a forecast.
//!
//! Backpressure, layer by layer:
//!
//! - **Shard queue full** → the submit returns `ServeError::Overloaded`,
//!   which travels to the client as a typed error frame (or HTTP 503).
//!   The client's degradation ladder takes over from there.
//! - **Connection in-flight window full** → the reactor *stops reading*
//!   that connection (a read-stall). Unread bytes accumulate in the
//!   kernel receive buffer until TCP flow control closes the window and
//!   the sender blocks — backpressure all the way to the client without
//!   buffering unbounded requests in userspace.
//! - **Tenant bucket empty** → typed `Throttled` before any queue is
//!   touched, so a hot tenant consumes admission budget only for itself.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::frame::{self, ErrorCode, FrameError, Request, Response, WireForecast};
use crate::http::{self, HttpParse, HttpRequest};
use crate::qos::{QosConfig, TenantBuckets};
use crate::reactor::{Event, Poller, Token};
use smiler_core::serve::{ServeError, ServeHandle};
use smiler_obs::trace::RequestTrace;
use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frontend tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Connections beyond this are accepted and immediately closed (the
    /// accept queue must still be drained to avoid a SYN backlog).
    pub max_connections: usize,
    /// Per-connection bound on requests admitted but not yet answered.
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

/// A running network frontend. Dropping the struct *without* calling
/// [`NetServer::shutdown`] detaches the reactor thread (it keeps serving
/// until the process exits); shutdown stops it and joins.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start the reactor thread in
    /// front of `handle`'s shard queues.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        handle: ServeHandle,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let reactor_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("smiler-net-reactor".to_string())
            .spawn(move || run_reactor(listener, handle, config, reactor_stop))?;
        Ok(NetServer { addr: local, stop, thread: Some(thread) })
    }

    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drop every connection, and join the reactor.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // Signal the reactor even on an un-joined drop so a forgotten
        // server does not spin forever.
        self.stop.store(true, Ordering::Release);
    }
}

/// Longest poll before the loop re-checks the stop flag and accept queue.
const POLL_IDLE: Duration = Duration::from_millis(1);
/// Poll timeout while responses are in flight: effectively a yield, so
/// completions are pumped promptly.
const POLL_BUSY: Duration = Duration::from_micros(50);
/// Read chunk size and per-event read budget.
const READ_CHUNK: usize = 4096;
const READ_BUDGET: usize = 64 * 1024;

fn run_reactor(
    listener: TcpListener,
    handle: ServeHandle,
    config: NetConfig,
    stop: Arc<AtomicBool>,
) {
    let mut poller = Poller::new();
    let mut conns: BTreeMap<usize, Conn> = BTreeMap::new();
    let mut qos = config.qos.map(TenantBuckets::new);
    let mut events = Vec::new();
    let mut next_token = 0usize;
    let obs = smiler_obs::enabled();

    while !stop.load(Ordering::Acquire) {
        // Drain the accept queue.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if conns.len() >= config.max_connections {
                        if obs {
                            smiler_obs::count("net.conn_rejected", "", 1);
                        }
                        drop(stream);
                        continue;
                    }
                    let token = Token(next_token);
                    next_token = next_token.wrapping_add(1);
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err()
                        || poller.register(&stream, token).is_err()
                    {
                        continue;
                    }
                    conns.insert(token.0, Conn::new(stream, token));
                    if obs {
                        smiler_obs::count("net.accept", "", 1);
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Pump in-flight completions, re-parse anything a freed window
        // slot unblocked, and flush output on every connection.
        let mut progressed = false;
        let mut busy = false;
        for conn in conns.values_mut() {
            progressed |= conn.make_progress(&handle, qos.as_mut(), &config);
            busy |= !conn.inflight.is_empty();
        }

        // Reap finished connections.
        let before = conns.len();
        conns.retain(|_, conn| {
            if conn.finished() {
                poller.deregister(conn.token);
                false
            } else {
                true
            }
        });
        if obs && conns.len() != before {
            smiler_obs::count("net.close", "", (before - conns.len()) as u64);
            smiler_obs::gauge_set("net.connections", "", conns.len() as f64);
        }

        // Wait for socket readiness, then read and admit.
        let timeout = if progressed {
            Duration::ZERO
        } else if busy {
            POLL_BUSY
        } else {
            POLL_IDLE
        };
        poller.poll(&mut events, timeout);
        for event in &events {
            if let Some(conn) = conns.get_mut(&event.token.0) {
                conn.on_ready(*event, &handle, qos.as_mut(), &config);
            }
        }
    }
    // Dropping `conns` closes every socket; in-flight replies are
    // abandoned (the shard workers discard sends to dropped receivers).
}

/// Protocol spoken on a connection, decided by its first bytes.
enum Proto {
    /// No bytes seen yet.
    Unknown,
    /// `SMLRNET` binary frames.
    Binary,
    /// The HTTP/JSON gateway.
    Http,
}

/// What one admitted request is waiting on.
enum Op {
    Forecast(smiler_core::serve::PendingForecast),
    Observe(smiler_core::serve::PendingObserve),
}

/// An admitted request whose shard reply is pending.
struct Inflight {
    request_id: u64,
    /// `Some` when the request arrived via the HTTP gateway; carries the
    /// sensor id for the JSON body.
    http_sensor: Option<u64>,
    op: Op,
}

struct Conn {
    stream: TcpStream,
    token: Token,
    proto: Proto,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    inflight: Vec<Inflight>,
    /// Close once the write buffer drains (protocol error or HTTP).
    close_after_flush: bool,
    /// The peer closed its sending half.
    peer_closed: bool,
    /// The connection is dead; reap it.
    dead: bool,
    /// Reads are paused because the in-flight window is full.
    stalled: bool,
    /// Whether the first request has been seen (trace `net.accept` mark).
    greeted: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: Token) -> Conn {
        Conn {
            stream,
            token,
            proto: Proto::Unknown,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: Vec::new(),
            close_after_flush: false,
            peer_closed: false,
            dead: false,
            stalled: false,
            greeted: false,
        }
    }

    fn finished(&self) -> bool {
        self.dead
    }

    /// Per-iteration housekeeping: pump completions, re-parse buffered
    /// bytes if a window slot freed, flush, and decide end-of-life.
    fn make_progress(
        &mut self,
        handle: &ServeHandle,
        qos: Option<&mut TenantBuckets>,
        config: &NetConfig,
    ) -> bool {
        let mut progressed = self.pump_completions();
        if self.stalled && self.inflight.len() < config.inflight_window {
            self.stalled = false;
        }
        if !self.stalled && !self.close_after_flush && !self.read_buf.is_empty() {
            progressed |= self.parse_requests(handle, qos, config);
        }
        progressed |= self.flush();
        // A peer that closed its half gets its remaining answers, then the
        // connection is torn down. Buffered bytes at this point are an
        // incomplete tail (parse ran above) and can never complete.
        if self.peer_closed
            && self.inflight.is_empty()
            && self.write_pos == self.write_buf.len()
            && !self.stalled
        {
            self.dead = true;
        }
        progressed
    }

    /// Readiness event: read what is available (unless stalled) and admit
    /// complete requests.
    fn on_ready(
        &mut self,
        event: Event,
        handle: &ServeHandle,
        qos: Option<&mut TenantBuckets>,
        config: &NetConfig,
    ) {
        if event.closed {
            self.peer_closed = true;
            return;
        }
        if !event.readable || self.stalled || self.close_after_flush || self.dead {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut taken = 0usize;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    taken += n;
                    if taken >= READ_BUDGET {
                        break;
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if smiler_obs::enabled() && taken > 0 {
            smiler_obs::count("net.bytes_in", "", taken as u64);
        }
        self.parse_requests(handle, qos, config);
    }

    /// Carve and admit as many buffered requests as the in-flight window
    /// allows. Returns whether anything was admitted or answered.
    fn parse_requests(
        &mut self,
        handle: &ServeHandle,
        mut qos: Option<&mut TenantBuckets>,
        config: &NetConfig,
    ) -> bool {
        let mut consumed = 0usize;
        let mut progressed = false;
        loop {
            if self.inflight.len() >= config.inflight_window {
                if !self.stalled {
                    self.stalled = true;
                    if smiler_obs::enabled() {
                        smiler_obs::count("net.read_stall", "", 1);
                    }
                }
                break;
            }
            if consumed >= self.read_buf.len() || self.close_after_flush {
                break;
            }
            match self.proto {
                Proto::Http => {
                    let parse = http::parse(&self.read_buf[consumed..]);
                    match parse {
                        HttpParse::NeedMore => break,
                        HttpParse::Request(req) => {
                            consumed += req.consumed;
                            self.dispatch_http(req, handle, qos.as_deref_mut());
                            progressed = true;
                        }
                        HttpParse::Bad(reason) => {
                            self.respond_http(ErrorCode::BadRequest, &reason);
                            progressed = true;
                        }
                        HttpParse::HeadTooLarge => {
                            self.write_buf.extend_from_slice(&http::render_response(
                                431,
                                &http::error_body(ErrorCode::BadRequest, "request head too large"),
                            ));
                            self.close_after_flush = true;
                            progressed = true;
                        }
                    }
                }
                Proto::Unknown | Proto::Binary => {
                    match frame::try_frame(&self.read_buf[consumed..]) {
                        Ok(None) => break,
                        Ok(Some((n, _))) => {
                            self.proto = Proto::Binary;
                            let payload = self.read_buf
                                [consumed + frame::HEADER_BYTES..consumed + n]
                                .to_vec();
                            consumed += n;
                            self.dispatch_frame(&payload, handle, qos.as_deref_mut());
                            progressed = true;
                        }
                        Err(FrameError::BadMagic { .. })
                            if matches!(self.proto, Proto::Unknown) && consumed == 0 =>
                        {
                            // First bytes are not ours: hand the
                            // connection to the HTTP gateway.
                            self.proto = Proto::Http;
                            if smiler_obs::enabled() {
                                smiler_obs::count("net.http_conns", "", 1);
                            }
                        }
                        Err(err) => {
                            if smiler_obs::enabled() {
                                smiler_obs::count("net.decode_error", "", 1);
                            }
                            Response::Error {
                                request_id: 0,
                                code: ErrorCode::BadRequest,
                                detail: err.to_string(),
                            }
                            .encode(&mut self.write_buf);
                            self.close_after_flush = true;
                            progressed = true;
                        }
                    }
                }
            }
        }
        if consumed > 0 {
            self.read_buf.drain(..consumed);
        }
        progressed
    }

    /// Decode and admit one binary frame payload.
    fn dispatch_frame(
        &mut self,
        payload: &[u8],
        handle: &ServeHandle,
        qos: Option<&mut TenantBuckets>,
    ) {
        let obs = smiler_obs::enabled();
        let req = match Request::decode(payload) {
            Ok(req) => req,
            Err(err) => {
                if obs {
                    smiler_obs::count("net.decode_error", "", 1);
                }
                Response::Error {
                    request_id: 0,
                    code: ErrorCode::BadRequest,
                    detail: err.to_string(),
                }
                .encode(&mut self.write_buf);
                self.close_after_flush = true;
                return;
            }
        };
        if obs {
            smiler_obs::count("net.frames_in", "", 1);
        }
        match req {
            Request::Ping { request_id, .. } => {
                self.push_response(&Response::Pong { request_id });
            }
            Request::Forecast { request_id, tenant, sensor, h, deadline_us } => {
                if !admit(qos, tenant) {
                    self.push_response(&Response::Error {
                        request_id,
                        code: ErrorCode::Throttled,
                        detail: format!("tenant {tenant} over rate"),
                    });
                    self.greeted = true;
                    return;
                }
                let trace = self.begin_trace(handle, sensor, h);
                let budget = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
                match handle.submit_forecast_traced(sensor as usize, h as usize, budget, trace) {
                    Ok(pending) => self.inflight.push(Inflight {
                        request_id,
                        http_sensor: None,
                        op: Op::Forecast(pending),
                    }),
                    Err(err) => {
                        if obs {
                            if let ServeError::Overloaded { shard, .. } = err {
                                smiler_obs::count("net.shed", &format!("shard={shard}"), 1);
                            }
                        }
                        self.push_response(&Response::Error {
                            request_id,
                            code: wire_error(&err),
                            detail: err.to_string(),
                        });
                    }
                }
                self.greeted = true;
            }
            Request::Observe { request_id, tenant, sensor, value } => {
                if !admit(qos, tenant) {
                    self.push_response(&Response::Error {
                        request_id,
                        code: ErrorCode::Throttled,
                        detail: format!("tenant {tenant} over rate"),
                    });
                    self.greeted = true;
                    return;
                }
                match handle.submit_observe(sensor as usize, value) {
                    Ok(pending) => self.inflight.push(Inflight {
                        request_id,
                        http_sensor: None,
                        op: Op::Observe(pending),
                    }),
                    Err(err) => self.push_response(&Response::Error {
                        request_id,
                        code: wire_error(&err),
                        detail: err.to_string(),
                    }),
                }
                self.greeted = true;
            }
        }
    }

    /// Begin a request trace at decode time so the connection milestones
    /// (`net.accept` on a connection's first request, `net.read`,
    /// `net.decode`) share a timeline with the queue/serve milestones the
    /// shard worker adds downstream.
    fn begin_trace(&mut self, handle: &ServeHandle, sensor: u64, h: u32) -> Option<RequestTrace> {
        if !smiler_obs::trace::active() {
            return None;
        }
        let shard = (sensor as usize) % handle.shard_count().max(1);
        let mut trace = RequestTrace::begin(sensor as usize, h as usize, shard);
        if !self.greeted {
            trace.mark("net.accept");
        }
        trace.mark("net.read");
        trace.mark("net.decode");
        Some(trace)
    }

    /// Route one HTTP request. `/healthz` and `/status` answer inline;
    /// `/forecast` and `/observe` go through the same admission path as
    /// binary frames and complete asynchronously.
    fn dispatch_http(
        &mut self,
        req: HttpRequest,
        handle: &ServeHandle,
        qos: Option<&mut TenantBuckets>,
    ) {
        if smiler_obs::enabled() {
            smiler_obs::count("net.http_requests", "", 1);
        }
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                self.write_buf.extend_from_slice(&http::render_response(200, "{\"ok\":true}"));
                self.close_after_flush = true;
            }
            ("GET", "/status") => {
                let body = serde_json::to_string(&handle.status_report())
                    .unwrap_or_else(|_| "{\"error\":\"status serialization failed\"}".to_string());
                self.write_buf.extend_from_slice(&http::render_response(200, &body));
                self.close_after_flush = true;
            }
            ("GET", "/forecast") => {
                let tenant = req.param("tenant").and_then(|t| t.parse().ok()).unwrap_or(0u32);
                if !admit(qos, tenant) {
                    self.respond_http(ErrorCode::Throttled, &format!("tenant {tenant} over rate"));
                    return;
                }
                let sensor = match req.numeric_param::<u64>("sensor") {
                    Ok(v) => v,
                    Err(reason) => return self.respond_http(ErrorCode::BadRequest, &reason),
                };
                let h = match req.numeric_param::<u32>("h") {
                    Ok(v) => v,
                    Err(reason) => return self.respond_http(ErrorCode::BadRequest, &reason),
                };
                let budget = match req.param("deadline_ms") {
                    None => None,
                    Some(raw) => match raw.parse::<u64>() {
                        Ok(ms) => Some(Duration::from_millis(ms)),
                        Err(_) => {
                            return self.respond_http(
                                ErrorCode::BadRequest,
                                "query parameter 'deadline_ms' is not a valid number",
                            )
                        }
                    },
                };
                let trace = self.begin_trace(handle, sensor, h);
                match handle.submit_forecast_traced(sensor as usize, h as usize, budget, trace) {
                    Ok(pending) => {
                        self.inflight.push(Inflight {
                            request_id: 0,
                            http_sensor: Some(sensor),
                            op: Op::Forecast(pending),
                        });
                        self.greeted = true;
                    }
                    Err(err) => self.respond_http(wire_error(&err), &err.to_string()),
                }
            }
            ("POST", "/observe") => {
                let tenant = req.param("tenant").and_then(|t| t.parse().ok()).unwrap_or(0u32);
                if !admit(qos, tenant) {
                    self.respond_http(ErrorCode::Throttled, &format!("tenant {tenant} over rate"));
                    return;
                }
                let sensor = match req.numeric_param::<u64>("sensor") {
                    Ok(v) => v,
                    Err(reason) => return self.respond_http(ErrorCode::BadRequest, &reason),
                };
                let value = match req.numeric_param::<f64>("value") {
                    Ok(v) => v,
                    Err(reason) => return self.respond_http(ErrorCode::BadRequest, &reason),
                };
                match handle.submit_observe(sensor as usize, value) {
                    Ok(pending) => {
                        self.inflight.push(Inflight {
                            request_id: 0,
                            http_sensor: Some(sensor),
                            op: Op::Observe(pending),
                        });
                        self.greeted = true;
                    }
                    Err(err) => self.respond_http(wire_error(&err), &err.to_string()),
                }
            }
            (_, "/forecast" | "/observe" | "/status" | "/healthz") => {
                self.write_buf.extend_from_slice(&http::render_response(
                    405,
                    &http::error_body(ErrorCode::BadRequest, "method not allowed"),
                ));
                self.close_after_flush = true;
            }
            _ => {
                self.write_buf.extend_from_slice(&http::render_response(
                    404,
                    &http::error_body(ErrorCode::BadRequest, "no such endpoint"),
                ));
                self.close_after_flush = true;
            }
        }
    }

    /// Queue an HTTP error response and close after it flushes.
    fn respond_http(&mut self, code: ErrorCode, detail: &str) {
        let status = http::status_for(code);
        self.write_buf
            .extend_from_slice(&http::render_response(status, &http::error_body(code, detail)));
        self.close_after_flush = true;
    }

    /// Encode one binary response frame.
    fn push_response(&mut self, resp: &Response) {
        resp.encode(&mut self.write_buf);
        if smiler_obs::enabled() {
            smiler_obs::count("net.frames_out", "", 1);
        }
    }

    /// Move completed in-flight requests into the write buffer. Responses
    /// go out in *completion* order; request ids let clients re-match.
    fn pump_completions(&mut self) -> bool {
        let mut progressed = false;
        let mut i = 0;
        while i < self.inflight.len() {
            let reply = match &self.inflight[i].op {
                Op::Forecast(pending) => pending.try_wait().map(CompletedOp::Forecast),
                Op::Observe(pending) => pending.try_wait().map(CompletedOp::Observe),
            };
            match reply {
                None => i += 1,
                Some(done) => {
                    let inflight = self.inflight.swap_remove(i);
                    self.render_completion(&inflight, done);
                    progressed = true;
                }
            }
        }
        progressed
    }

    fn render_completion(&mut self, inflight: &Inflight, done: CompletedOp) {
        match done {
            CompletedOp::Forecast(Ok(p)) => {
                let wire = WireForecast {
                    mean: p.mean,
                    variance: p.variance,
                    rung: p.level.index() as u8,
                    deadline_missed: p.deadline_missed,
                    elapsed_us: p.elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
                };
                match inflight.http_sensor {
                    None => self.push_response(&Response::Forecast {
                        request_id: inflight.request_id,
                        forecast: wire,
                    }),
                    Some(sensor) => {
                        let body = format!(
                            "{{\"sensor\":{},\"mean\":{},\"variance\":{},\"level\":\"{}\",\"deadline_missed\":{},\"elapsed_us\":{}}}",
                            sensor,
                            json_f64(p.mean),
                            json_f64(p.variance),
                            p.level.as_str(),
                            p.deadline_missed,
                            wire.elapsed_us
                        );
                        self.write_buf.extend_from_slice(&http::render_response(200, &body));
                        self.close_after_flush = true;
                    }
                }
            }
            CompletedOp::Observe(Ok(())) => match inflight.http_sensor {
                None => {
                    self.push_response(&Response::ObserveOk { request_id: inflight.request_id })
                }
                Some(sensor) => {
                    let body = format!("{{\"ok\":true,\"sensor\":{sensor}}}");
                    self.write_buf.extend_from_slice(&http::render_response(200, &body));
                    self.close_after_flush = true;
                }
            },
            CompletedOp::Forecast(Err(err)) | CompletedOp::Observe(Err(err)) => {
                match inflight.http_sensor {
                    None => self.push_response(&Response::Error {
                        request_id: inflight.request_id,
                        code: wire_error(&err),
                        detail: err.to_string(),
                    }),
                    Some(_) => self.respond_http(wire_error(&err), &err.to_string()),
                }
            }
        }
    }

    /// Write as much buffered output as the socket accepts.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return progressed;
                }
                Ok(n) => {
                    self.write_pos += n;
                    progressed = true;
                    if smiler_obs::enabled() {
                        smiler_obs::count("net.bytes_out", "", n as u64);
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return progressed;
                }
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
            if self.close_after_flush && self.inflight.is_empty() {
                self.dead = true;
            }
        }
        progressed
    }
}

enum CompletedOp {
    Forecast(Result<smiler_core::degrade::Prediction, ServeError>),
    Observe(Result<(), ServeError>),
}

/// Debit the tenant's bucket; no QoS configured means admit everything.
fn admit(qos: Option<&mut TenantBuckets>, tenant: u32) -> bool {
    match qos {
        None => true,
        Some(buckets) => {
            let admitted = buckets.admit(tenant, Instant::now());
            if !admitted && smiler_obs::enabled() {
                smiler_obs::count("net.qos.throttled", &format!("tenant={tenant}"), 1);
            }
            admitted
        }
    }
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
