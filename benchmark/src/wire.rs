//! The load generator: `SMLRNET` frames over loopback TCP.
//!
//! Two drivers, both over plain `TcpStream`s and the public frame codec:
//!
//! * [`run_paced`] — open loop. One connection, one sender and one
//!   receiver thread; operations go out on a precomputed schedule whether
//!   or not earlier ones were answered, and each latency runs from the
//!   *scheduled* send time, so a stall is charged to every operation it
//!   delays. How late the generator itself ran is reported alongside.
//! * [`run_closed`] — closed loop. One thread per connection (at most
//!   two); each sends its next operation when the previous one completed.
//!
//! An *operation* is one or two frames written together (`Observe` then
//! `Forecast` for a step); it completes when its last response arrives.

use crate::spans::Tracer;
use crate::stats::median_rate;
use crate::Res;
use smiler_net::frame::{self, ErrorCode, Request, Response, WireForecast};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What a forecast operation asked for, so its answer can be scored.
#[derive(Debug, Clone, Copy)]
pub struct Asked {
    /// Sensor id.
    pub sensor: u64,
    /// Per-sensor step index (or request index) — the digest/quality key.
    pub step: u64,
    /// The value the forecast is of, known to the generator.
    pub realised: f64,
}

/// What an operation does, kept beside its encoded frames so the output
/// check can replay a plan in process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// `Observe(sensor, value)` then `Forecast(sensor, h)` in one write.
    Step {
        /// Sensor id.
        sensor: u64,
        /// Observed value.
        value: f64,
        /// Forecast horizon.
        h: u32,
    },
    /// A lone `Forecast(sensor, h)`.
    Forecast {
        /// Sensor id.
        sensor: u64,
        /// Forecast horizon.
        h: u32,
    },
    /// A lone `Observe(sensor, value)`.
    Observe {
        /// Sensor id.
        sensor: u64,
        /// Observed value.
        value: f64,
    },
    /// A `Ping`: answered by the reactor itself, never queued.
    Ping,
}

/// An action's `(sensor, value)` observation and `(sensor, h)` forecast.
pub type Parts = (Option<(u64, f64)>, Option<(u64, u32)>);

impl Action {
    /// What the action observes and what it forecasts, in the order the
    /// server performs them.
    pub fn parts(&self) -> Parts {
        match *self {
            Action::Step { sensor, value, h } => (Some((sensor, value)), Some((sensor, h))),
            Action::Observe { sensor, value } => (Some((sensor, value)), None),
            Action::Forecast { sensor, h } => (None, Some((sensor, h))),
            Action::Ping => (None, None),
        }
    }
}

/// One operation of a plan, pre-encoded so sending is one `write_all`.
#[derive(Debug, Clone)]
pub struct Op {
    wire: Vec<u8>,
    frames: u32,
    /// What the operation does.
    pub action: Action,
    /// `Some` when the operation's last frame is a forecast to be scored.
    pub asked: Option<Asked>,
}

impl Op {
    /// Operation number `idx` of a plan. Frame `slot` of it travels under
    /// request id `idx << 1 | slot`: responses arrive in completion order,
    /// and the id is all the receiver has to place them.
    pub fn new(idx: usize, action: Action, asked: Option<Asked>) -> Op {
        let id = (idx as u64) << 1;
        let observe = |sensor, value| Request::Observe { request_id: id, tenant: 0, sensor, value };
        let forecast = |slot, sensor, h| Request::Forecast {
            request_id: id | slot,
            tenant: 0,
            sensor,
            h,
            deadline_us: 0,
        };
        let reqs = match action {
            Action::Step { sensor, value, h } => {
                vec![observe(sensor, value), forecast(1, sensor, h)]
            }
            Action::Forecast { sensor, h } => vec![forecast(0, sensor, h)],
            Action::Observe { sensor, value } => vec![observe(sensor, value)],
            Action::Ping => vec![Request::Ping { request_id: id, tenant: 0 }],
        };
        let mut wire = Vec::with_capacity(64 * reqs.len());
        for req in &reqs {
            req.encode(&mut wire);
        }
        Op { wire, frames: reqs.len() as u32, action, asked }
    }
}

/// How one operation ended.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Index of the operation in its plan.
    pub op: usize,
    /// Seconds from the scheduled (paced) or actual (closed) send to the
    /// last response.
    pub latency_s: f64,
    /// When the last response arrived, seconds from the phase's start.
    pub at_s: f64,
    /// The forecast served, when the operation asked for one and got it.
    pub forecast: Option<WireForecast>,
    /// Error responses among the operation's frames.
    pub errors: u32,
    /// Of those, how many were sheds or throttles (admission refusals).
    pub refused: u32,
}

/// One phase's outcome.
#[derive(Debug, Default)]
pub struct Phase {
    /// Completed operations per connection, in completion order.
    pub done: Vec<Vec<Done>>,
    /// Paced phases: seconds each send started after its scheduled time.
    pub late_s: Vec<f64>,
    /// Paced phases: operations in flight at the end minus at the 25 % mark.
    pub backlog_growth: i64,
}

impl Phase {
    /// Operations per second as the median over `blocks` blocks of
    /// consecutive completions (see [`median_rate`]).
    pub fn median_rate(&self, blocks: usize) -> f64 {
        let at_s: Vec<f64> = self.all().map(|d| d.at_s).collect();
        median_rate(&at_s, blocks)
    }

    /// Every completed operation, whichever connection served it.
    pub fn all(&self) -> impl Iterator<Item = &Done> {
        self.done.iter().flatten()
    }

    /// Operations completed.
    pub fn completed(&self) -> usize {
        self.done.iter().map(Vec::len).sum()
    }
}

fn connect(addr: SocketAddr) -> Res<TcpStream> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    // A hung server must surface as an error, not hang the benchmark.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(stream)
}

/// Buffered frame reader over one socket.
struct Reader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Reader {
    fn next(&mut self) -> Res<Response> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((used, payload)) =
                frame::try_frame(&self.buf).map_err(|e| format!("response frame: {e}"))?
            {
                let resp = Response::decode(payload).map_err(|e| format!("response: {e}"))?;
                self.buf.drain(..used);
                return Ok(resp);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// Fold one response into its operation's tally; `true` when it was the
/// operation's last frame.
fn absorb(resp: Response, ops: &[Op], tally: &mut [(u32, Done)]) -> Res<Option<usize>> {
    let id = resp.request_id();
    let op = (id >> 1) as usize;
    let entry = tally.get_mut(op).ok_or_else(|| format!("response for unknown request {id}"))?;
    match resp {
        Response::Forecast { forecast, .. } => entry.1.forecast = Some(forecast),
        Response::ObserveOk { .. } | Response::Pong { .. } => {}
        Response::Error { code, .. } => {
            entry.1.errors += 1;
            if matches!(code, ErrorCode::Overloaded | ErrorCode::Throttled) {
                entry.1.refused += 1;
            }
        }
    }
    entry.0 += 1;
    Ok((entry.0 == ops[op].frames).then_some(op))
}

fn fresh_tally(ops: &[Op]) -> Vec<(u32, Done)> {
    (0..ops.len())
        .map(|op| {
            (0, Done { op, latency_s: 0.0, at_s: 0.0, forecast: None, errors: 0, refused: 0 })
        })
        .collect()
}

/// Stamp a completed operation with its latency and record its spans.
/// The server reports only how long it worked, not when: that share is
/// placed at the end of the operation, which leaves transport and queueing
/// as the parent span's self time.
fn finish(
    tracer: &mut Tracer,
    mut outcome: Done,
    phase_start: Instant,
    from: Instant,
    to: Instant,
) -> Done {
    outcome.latency_s = to.saturating_duration_since(from).as_secs_f64();
    outcome.at_s = to.saturating_duration_since(phase_start).as_secs_f64();
    let root = tracer.record("wire.op", None, outcome.op as u64, from, to);
    if let Some(f) = outcome.forecast {
        let server = Duration::from_micros(f.elapsed_us);
        let begin = to.checked_sub(server).unwrap_or(to).max(from);
        tracer.record("server.elapsed", root, outcome.op as u64, begin, to);
    }
    outcome
}

/// Open-loop phase: send `ops[i]` at `schedule[i]` seconds after the phase
/// starts, on one connection, and time each from that scheduled instant.
pub fn run_paced(
    addr: SocketAddr,
    ops: &[Op],
    schedule: &[f64],
    tracer: &mut Tracer,
) -> Res<Phase> {
    assert_eq!(ops.len(), schedule.len(), "one scheduled time per operation");
    let mut writer = connect(addr)?;
    let read_half = writer.try_clone().map_err(|e| format!("clone socket: {e}"))?;
    let completed = AtomicU64::new(0);
    let base = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| base + Duration::from_secs_f64(schedule[i]);
    let mut recv_tracer = tracer.fork();

    let (received, sent) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| -> Res<Vec<Done>> {
            let mut reader = Reader { stream: read_half, buf: Vec::with_capacity(8192) };
            let mut tally = fresh_tally(ops);
            let mut done = Vec::with_capacity(ops.len());
            while done.len() < ops.len() {
                let resp = reader.next()?;
                let Some(op) = absorb(resp, ops, &mut tally)? else { continue };
                let now = Instant::now();
                done.push(finish(&mut recv_tracer, tally[op].1, base, due(op), now));
                completed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(done)
        });

        let mut send = || -> Res<(Vec<f64>, i64)> {
            let mut late = Vec::with_capacity(ops.len());
            let quarter = ops.len() / 4;
            let mut in_flight_at_quarter = 0i64;
            for (i, op) in ops.iter().enumerate() {
                let wait = due(i).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                if i == quarter {
                    in_flight_at_quarter = i as i64 - completed.load(Ordering::Relaxed) as i64;
                }
                late.push(Instant::now().saturating_duration_since(due(i)).as_secs_f64());
                writer.write_all(&op.wire).map_err(|e| format!("send: {e}"))?;
            }
            let in_flight_at_end = ops.len() as i64 - completed.load(Ordering::Relaxed) as i64;
            Ok((late, in_flight_at_end - in_flight_at_quarter))
        };
        let sent = send();
        if sent.is_err() {
            // Unblock the receiver, which would otherwise wait out its read
            // timeout for responses to operations that were never sent.
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        (receiver.join().map_err(|_| "receiver thread panicked".to_string()), sent)
    });
    let (late_s, backlog_growth) = sent?;
    let done = received??;
    tracer.absorb(recv_tracer);
    Ok(Phase { done: vec![done], late_s, backlog_growth })
}

/// When a closed-loop phase stops.
#[derive(Debug, Clone, Copy)]
pub struct Until {
    /// Stop sending once this long has passed…
    pub duration: Duration,
    /// …but not before every connection sent this many operations.
    pub min_ops: usize,
    /// Operations each connection keeps in flight: 1 is the strict
    /// request-reply loop, more is that many callers sharing a connection.
    pub window: usize,
}

impl Until {
    /// Run the whole plan one operation at a time, however long it takes.
    pub fn plan_exhausted() -> Until {
        Until { duration: Duration::MAX, min_ops: 0, window: 1 }
    }
}

/// Closed-loop phase: one thread per plan (one connection each, at most
/// two), each sending its next operation when the previous one completed.
/// A connection stops at the end of its plan or when `until` says so.
pub fn run_closed(
    addr: SocketAddr,
    plans: &[Vec<Op>],
    until: Until,
    tracer: &mut Tracer,
) -> Res<Phase> {
    assert!((1..=2).contains(&plans.len()), "the generator uses at most two connections");
    let streams: Vec<TcpStream> = plans.iter().map(|_| connect(addr)).collect::<Res<_>>()?;
    let start = Instant::now();
    let results: Vec<Res<(Vec<Done>, Tracer)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(streams)
            .map(|(ops, stream)| {
                let mut local = tracer.fork();
                scope.spawn(move || -> Res<(Vec<Done>, Tracer)> {
                    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
                    let mut reader = Reader { stream, buf: Vec::with_capacity(8192) };
                    let mut tally = fresh_tally(ops);
                    let mut done = Vec::with_capacity(ops.len());
                    let mut sent_at = vec![start; ops.len()];
                    let (mut next, mut completed) = (0, 0);
                    loop {
                        while next < ops.len()
                            && next - completed < until.window
                            && !(next >= until.min_ops && start.elapsed() >= until.duration)
                        {
                            sent_at[next] = Instant::now();
                            writer.write_all(&ops[next].wire).map_err(|e| format!("send: {e}"))?;
                            next += 1;
                        }
                        if completed == next {
                            break;
                        }
                        let op = loop {
                            if let Some(op) = absorb(reader.next()?, ops, &mut tally)? {
                                break op;
                            }
                        };
                        completed += 1;
                        let now = Instant::now();
                        done.push(finish(&mut local, tally[op].1, start, sent_at[op], now));
                    }
                    Ok((done, local))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("connection thread panicked".into())))
            .collect()
    });
    let mut phase = Phase::default();
    for result in results {
        let (done, local) = result?;
        phase.done.push(done);
        tracer.absorb(local);
    }
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_name_each_frame_by_plan_position() {
        let asked = Asked { sensor: 3, step: 9, realised: 0.5 };
        let ops = [
            Op::new(0, Action::Observe { sensor: 1, value: 0.25 }, None),
            Op::new(1, Action::Step { sensor: 3, value: -1.5, h: 1 }, Some(asked)),
            Op::new(2, Action::Ping, None),
        ];
        let mut seen = Vec::new();
        for op in &ops {
            let mut rest = &op.wire[..];
            while !rest.is_empty() {
                let (used, payload) = frame::try_frame(rest).unwrap().unwrap();
                seen.push(Request::decode(payload).unwrap());
                rest = &rest[used..];
            }
        }
        assert_eq!(
            seen,
            vec![
                Request::Observe { request_id: 0, tenant: 0, sensor: 1, value: 0.25 },
                Request::Observe { request_id: 2, tenant: 0, sensor: 3, value: -1.5 },
                Request::Forecast { request_id: 3, tenant: 0, sensor: 3, h: 1, deadline_us: 0 },
                Request::Ping { request_id: 4, tenant: 0 },
            ]
        );
        assert_eq!(ops[1].frames, 2);
    }

    #[test]
    fn absorb_completes_an_operation_on_its_last_frame() {
        let asked = Asked { sensor: 0, step: 0, realised: 0.0 };
        let ops = vec![Op::new(0, Action::Step { sensor: 0, value: 1.0, h: 1 }, Some(asked))];
        let mut tally = fresh_tally(&ops);
        let first = absorb(Response::ObserveOk { request_id: 0 }, &ops, &mut tally).unwrap();
        assert_eq!(first, None);
        let shed =
            Response::Error { request_id: 1, code: ErrorCode::Overloaded, detail: String::new() };
        assert_eq!(absorb(shed, &ops, &mut tally).unwrap(), Some(0));
        assert_eq!((tally[0].1.errors, tally[0].1.refused), (1, 1));
        assert!(absorb(Response::Pong { request_id: 8 }, &ops, &mut tally).is_err());
    }
}
