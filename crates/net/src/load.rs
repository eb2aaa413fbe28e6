//! Open-loop load generation over real sockets — the one load generator
//! under `crates/` (`smiler serve` and `tests/net.rs` drive it).
//!
//! A closed-loop client waits for each response before issuing the next
//! request, so a slow server slows the arrival rate and the measured
//! distribution silently excludes the queueing delay a real client
//! population would see (coordinated omission). This harness is
//! *open-loop*: arrivals are a Poisson process whose schedule is fixed up
//! front, every request's latency is measured from its **scheduled** issue
//! time, and a response that arrives late cannot delay the next arrival —
//! the send thread issues on schedule regardless.
//!
//! Each connection runs a send thread (paced by exponential inter-arrival
//! gaps, pipelining into the server's in-flight window) and a receive
//! thread (matching responses to scheduled send times by request id).
//!
//! The schedule is *deterministic but lazily materialised*: both threads
//! regenerate the identical arrival sequence from the same seeded RNG, so
//! the harness never holds a whole run's schedule in memory — a soak run
//! of hundreds of millions of requests costs the same memory as a smoke
//! run (the receive side retains only sent-but-unanswered arrivals).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::client::{ClientError, NetClient};
use crate::frame::{ErrorCode, Response};
use smiler_core::serve::nearest_rank;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Open-loop run parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetLoadGen {
    /// Concurrent TCP connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Aggregate offered arrival rate (requests/second) across all
    /// connections; each connection offers `rps / connections`.
    pub rps: f64,
    /// Forecast horizon per request.
    pub horizon: u32,
    /// Per-request server-side latency budget.
    pub deadline: Option<Duration>,
    /// Tenant id stamped on every request.
    pub tenant: u32,
    /// Seed for the Poisson arrival schedule.
    pub seed: u64,
}

impl Default for NetLoadGen {
    fn default() -> Self {
        NetLoadGen {
            connections: 4,
            requests: 1000,
            rps: 1000.0,
            horizon: 5,
            deadline: Some(Duration::from_millis(50)),
            tenant: 0,
            seed: 0x5EED_0001,
        }
    }
}

/// What an open-loop run measured.
#[derive(Debug, Clone, serde::Serialize)]
pub struct NetLoadReport {
    /// Connections used.
    pub connections: usize,
    /// Requests issued.
    pub requests: usize,
    /// Aggregate offered rate (requests/second).
    pub offered_rps: f64,
    /// Rate actually achieved, completed requests over wall-clock.
    pub achieved_rps: f64,
    /// Requests answered with a forecast.
    pub ok: u64,
    /// Requests shed with a typed `Overloaded`.
    pub shed: u64,
    /// Requests refused by per-tenant QoS.
    pub throttled: u64,
    /// Any other error responses (faults, shutdown, protocol).
    pub errors: u64,
    /// Forecasts that missed their server-side deadline.
    pub deadline_missed: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_seconds: f64,
    /// Latency percentiles (milliseconds) measured from the *scheduled*
    /// issue time of each request — queueing delay included, coordinated
    /// omission excluded by construction. Sheds and errors count too:
    /// the client waited that long for *an* answer.
    pub p50_ms: f64,
    /// 95th percentile (ms).
    pub p95_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// 99.9th percentile (ms).
    pub p999_ms: f64,
    /// Worst observed latency (ms).
    pub max_ms: f64,
}

struct ConnOutcome {
    latencies_ms: Vec<f64>,
    ok: u64,
    shed: u64,
    throttled: u64,
    errors: u64,
    deadline_missed: u64,
}

/// Drive an open-loop run against a serving frontend at `addr`. Sensors
/// are assigned round-robin over `fleet` ids so load spreads across every
/// shard. Returns a report; connection-level failures surface as
/// [`ClientError`], and a run that cannot be scheduled — an empty fleet, a
/// rate that is not a finite number above zero, an expected span
/// (`requests / rps` seconds) no `Duration` holds, no connections, or
/// fewer requests than connections — as [`ClientError::InvalidLoad`]
/// before anything connects.
pub fn run_net_load(
    addr: SocketAddr,
    fleet: usize,
    gen: &NetLoadGen,
) -> Result<NetLoadReport, ClientError> {
    if fleet == 0 {
        return Err(ClientError::InvalidLoad("the fleet has no sensor to forecast".to_string()));
    }
    if !(gen.rps.is_finite() && gen.rps > 0.0) {
        return Err(ClientError::InvalidLoad(format!(
            "offered rate {} is not a finite number above 0",
            gen.rps
        )));
    }
    if Duration::try_from_secs_f64(gen.requests as f64 / gen.rps).is_err() {
        return Err(ClientError::InvalidLoad(format!(
            "{} requests at {} req/s span more seconds than a Duration holds",
            gen.requests, gen.rps
        )));
    }
    if gen.connections == 0 || gen.requests < gen.connections {
        return Err(ClientError::InvalidLoad(format!(
            "{} requests over {} connections: each connection needs at least one",
            gen.requests, gen.connections
        )));
    }
    let connections = gen.connections;
    let per_conn = gen.requests / connections;
    let total_requests = per_conn * connections;
    let conn_rate = gen.rps / connections as f64;
    let sensor_cursor = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut workers = Vec::with_capacity(connections);
    for conn_idx in 0..connections {
        let mut client = NetClient::connect(addr)?;
        client.set_tenant(gen.tenant);
        let (sender, receiver) = client.into_split()?;
        let gen = *gen;
        let cursor = Arc::clone(&sensor_cursor);
        workers.push(std::thread::spawn(move || {
            run_connection(sender, receiver, &gen, conn_idx, conn_rate, per_conn, fleet, &cursor)
        }));
    }

    let mut latencies = Vec::with_capacity(total_requests);
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut throttled = 0u64;
    let mut errors = 0u64;
    let mut deadline_missed = 0u64;
    for worker in workers {
        match worker.join() {
            Ok(Ok(outcome)) => {
                latencies.extend(outcome.latencies_ms);
                ok += outcome.ok;
                shed += outcome.shed;
                throttled += outcome.throttled;
                errors += outcome.errors;
                deadline_missed += outcome.deadline_missed;
            }
            Ok(Err(err)) => return Err(err),
            Err(_) => return Err(ClientError::ConnectionClosed),
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let answered = (ok + shed + throttled + errors) as f64;
    Ok(NetLoadReport {
        connections,
        requests: total_requests,
        offered_rps: gen.rps,
        achieved_rps: answered / elapsed,
        ok,
        shed,
        throttled,
        errors,
        deadline_missed,
        elapsed_seconds: elapsed,
        p50_ms: nearest_rank(&latencies, 0.50),
        p95_ms: nearest_rank(&latencies, 0.95),
        p99_ms: nearest_rank(&latencies, 0.99),
        p999_ms: nearest_rank(&latencies, 0.999),
        max_ms: latencies.last().copied().unwrap_or(0.0),
    })
}

/// A deterministic Poisson arrival stream: arrival k happens at the sum
/// of k exponential inter-arrival gaps, independent of any response. Two
/// instances built from the same `(seed, conn_idx, base)` produce the
/// identical sequence — which is what lets the send and receive threads
/// each walk their own copy instead of sharing a precomputed table.
struct PoissonArrivals {
    rng: StdRng,
    base: Instant,
    offset: f64,
    rate: f64,
    /// Index of the next arrival [`PoissonArrivals::next_arrival`] yields.
    next: u64,
}

impl PoissonArrivals {
    fn new(seed: u64, conn_idx: usize, base: Instant, rate: f64) -> Self {
        PoissonArrivals {
            rng: StdRng::seed_from_u64(seed ^ (conn_idx as u64).wrapping_mul(0x9E37_79B9)),
            base,
            offset: 0.0,
            rate,
            next: 0,
        }
    }

    /// The scheduled time of arrival `self.next`, advancing the stream;
    /// `None` once the offset is past what a `Duration` or the clock holds.
    fn next_arrival(&mut self) -> Option<Instant> {
        let u: f64 = self.rng.gen();
        // Exponential inter-arrival gap; clamp the log's argument away
        // from zero so a pathological draw cannot produce infinity.
        self.offset += -(1.0 - u).max(1e-12).ln() / self.rate;
        self.next += 1;
        Duration::try_from_secs_f64(self.offset).ok().and_then(|d| self.base.checked_add(d))
    }
}

/// The receive side's view of the schedule: regenerates arrivals on demand
/// and holds only the sent-but-unanswered ones, so memory tracks the
/// in-flight window instead of the run length. (The previous
/// implementation precomputed the entire schedule per connection, which
/// made long soak runs — hundreds of millions of requests — OOM the
/// harness before the server broke a sweat.)
struct ScheduleCursor {
    arrivals: PoissonArrivals,
    pending: std::collections::BTreeMap<u64, Instant>,
    /// Ids at or past this bound were never scheduled.
    limit: u64,
}

impl ScheduleCursor {
    fn new(arrivals: PoissonArrivals, limit: u64) -> Self {
        ScheduleCursor { arrivals, pending: std::collections::BTreeMap::new(), limit }
    }

    /// The scheduled time of request `idx`, consuming it. `None` for ids
    /// never scheduled or already consumed (a duplicate response).
    fn take(&mut self, idx: u64) -> Option<Instant> {
        if idx >= self.limit {
            return None;
        }
        while self.arrivals.next <= idx {
            let i = self.arrivals.next;
            if let Some(at) = self.arrivals.next_arrival() {
                self.pending.insert(i, at);
            }
        }
        self.pending.remove(&idx)
    }
}

/// One connection's send+receive pair. Request ids index into the
/// deterministic arrival stream so the receiver can recover each
/// response's scheduled issue time without any per-request coordination.
#[allow(clippy::too_many_arguments)]
fn run_connection(
    mut sender: crate::client::NetSender,
    mut receiver: crate::client::NetReceiver,
    gen: &NetLoadGen,
    conn_idx: usize,
    conn_rate: f64,
    per_conn: usize,
    fleet: usize,
    sensor_cursor: &AtomicU64,
) -> Result<ConnOutcome, ClientError> {
    let base = Instant::now();
    let mut send_arrivals = PoissonArrivals::new(gen.seed, conn_idx, base, conn_rate);
    let recv_arrivals = PoissonArrivals::new(gen.seed, conn_idx, base, conn_rate);
    let fleet = fleet as u64;

    let reader = std::thread::spawn(move || -> Result<ConnOutcome, ClientError> {
        let mut schedule = ScheduleCursor::new(recv_arrivals, per_conn as u64);
        let mut outcome = ConnOutcome {
            latencies_ms: Vec::with_capacity(per_conn),
            ok: 0,
            shed: 0,
            throttled: 0,
            errors: 0,
            deadline_missed: 0,
        };
        for _ in 0..per_conn {
            let resp = receiver.recv()?;
            let scheduled = match schedule.take(resp.request_id()) {
                Some(at) => at,
                None => {
                    outcome.errors += 1;
                    continue;
                }
            };
            // Open-loop latency: from scheduled issue to response arrival.
            outcome.latencies_ms.push(scheduled.elapsed().as_secs_f64() * 1e3);
            match resp {
                Response::Forecast { forecast, .. } => {
                    outcome.ok += 1;
                    if forecast.deadline_missed {
                        outcome.deadline_missed += 1;
                    }
                }
                Response::Error { code: ErrorCode::Overloaded, .. } => outcome.shed += 1,
                Response::Error { code: ErrorCode::Throttled, .. } => outcome.throttled += 1,
                _ => outcome.errors += 1,
            }
        }
        Ok(outcome)
    });

    for idx in 0..per_conn {
        let at = send_arrivals.next_arrival().ok_or_else(|| {
            ClientError::InvalidLoad(format!("arrival {idx} lies past what the clock holds"))
        })?;
        let wait = at.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let sensor = sensor_cursor.fetch_add(1, Ordering::Relaxed) % fleet;
        sender.send_forecast(idx as u64, sensor, gen.horizon, gen.deadline)?;
    }

    match reader.join() {
        Ok(result) => result,
        Err(_) => Err(ClientError::ConnectionClosed),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn arrival_streams_are_deterministic_across_instances() {
        let base = Instant::now();
        let mut a = PoissonArrivals::new(42, 3, base, 1000.0);
        let mut b = PoissonArrivals::new(42, 3, base, 1000.0);
        for _ in 0..1000 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
        // A different connection index yields a different schedule.
        let mut c = PoissonArrivals::new(42, 4, base, 1000.0);
        assert_ne!(a.next_arrival(), c.next_arrival());
    }

    #[test]
    fn an_arrival_past_the_clock_is_none_not_a_panic() {
        let mut arrivals = PoissonArrivals::new(42, 0, Instant::now(), 1e-30);
        assert_eq!(arrivals.next_arrival(), None);
        assert_eq!(arrivals.next, 1, "the stream still advances");
    }

    #[test]
    fn cursor_serves_out_of_order_ids_and_bounds_memory() {
        let base = Instant::now();
        let rate = 10_000.0;
        let mut reference = PoissonArrivals::new(7, 0, base, rate);
        let expected: Vec<Instant> = (0..100).map(|_| reference.next_arrival().unwrap()).collect();

        let mut cursor = ScheduleCursor::new(PoissonArrivals::new(7, 0, base, rate), 100);
        // Out-of-order consumption within an in-flight window.
        for &idx in &[2u64, 0, 1, 5, 3, 4] {
            assert_eq!(cursor.take(idx), Some(expected[idx as usize]), "id {idx}");
        }
        // Consumed entries leave the pending map; only 6..=9 linger after
        // taking 9 (7 and 8 remain pending, 6 generated then taken).
        assert_eq!(cursor.take(9), Some(expected[9]));
        assert!(cursor.pending.len() <= 3, "pending kept {} entries", cursor.pending.len());
        // Duplicates and never-scheduled ids are both None.
        assert_eq!(cursor.take(0), None);
        assert_eq!(cursor.take(100), None);
    }
}
