//! Integration tests for the wire-protocol serving frontend
//! (`smiler-net`): a forecast served over the wire must be bitwise
//! identical to the same request through the in-process `ServeHandle`;
//! overload at 2× saturation must shed typed errors with zero panics or
//! hangs; the HTTP gateway must be curl-able; per-tenant QoS must
//! throttle a hot tenant without starving others; and the frame decoder
//! must survive every truncation and corruption without panicking (the
//! same discipline as the `tests/durability.rs` torn-tail sweep).

use proptest::prelude::*;
use smiler_core::serve::{ServeConfig, SmilerServer};
use smiler_core::{PredictorKind, SensorPredictor, SmilerConfig};
use smiler_gpu::Device;
use smiler_net::client::prediction_from_wire;
use smiler_net::frame::{self, Request, MAGIC, VERSION};
use smiler_net::qos::QosConfig;
use smiler_net::{
    run_net_load, ClientError, ErrorCode, FrameError, NetClient, NetConfig, NetLoadGen, NetServer,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn histories(count: usize, n: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|s| {
            (0..n)
                .map(|i| {
                    let t = (i + s * 13) as f64;
                    (t * std::f64::consts::TAU / 24.0).sin() + 0.05 * (t * 0.7).cos()
                })
                .collect()
        })
        .collect()
}

fn fleet(device: &Arc<Device>, count: usize) -> Vec<SensorPredictor> {
    histories(count, 300)
        .into_iter()
        .enumerate()
        .map(|(id, h)| {
            SensorPredictor::new(
                Arc::clone(device),
                id,
                h,
                SmilerConfig::small_for_tests(),
                PredictorKind::Aggregation,
            )
        })
        .collect()
}

fn start_server(sensors: usize, config: ServeConfig) -> SmilerServer {
    let device = Arc::new(Device::default_gpu());
    let fleet = fleet(&device, sensors);
    SmilerServer::start(device, fleet, config)
}

/// The acceptance bar: a forecast served over a real socket is bitwise
/// identical (mean, variance, rung) to the same request through the
/// in-process handle, for every sensor in the fleet.
#[test]
fn wire_forecast_bitwise_matches_in_process() {
    const SENSORS: usize = 6;
    const H: u32 = 3;

    // Two identically-built fleets: one behind a socket, one in-process.
    // Forecasts must not depend on which path carried the request.
    let wire_server = start_server(SENSORS, ServeConfig::default());
    let local_server = start_server(SENSORS, ServeConfig::default());
    let net =
        NetServer::bind("127.0.0.1:0", wire_server.handle(), NetConfig::default()).expect("bind");

    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    let local = local_server.handle();
    for sensor in 0..SENSORS {
        let over_wire = client.forecast(sensor as u64, H, None).expect("wire forecast");
        let in_process = local.forecast(sensor, H as usize).expect("local forecast");
        assert_eq!(
            over_wire.mean.to_bits(),
            in_process.mean.to_bits(),
            "sensor {sensor}: wire mean differs from in-process"
        );
        assert_eq!(
            over_wire.variance.to_bits(),
            in_process.variance.to_bits(),
            "sensor {sensor}: wire variance differs from in-process"
        );
        let reassembled = prediction_from_wire(&over_wire);
        assert_eq!(reassembled.level, in_process.level, "sensor {sensor}: rung differs");
    }

    net.shutdown();
    local_server.shutdown();
    wire_server.shutdown();
}

/// Observations round-trip the wire and change subsequent forecasts the
/// same way an in-process observe does.
#[test]
fn wire_observe_matches_in_process() {
    let wire_server = start_server(2, ServeConfig::default());
    let local_server = start_server(2, ServeConfig::default());
    let net =
        NetServer::bind("127.0.0.1:0", wire_server.handle(), NetConfig::default()).expect("bind");

    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    let local = local_server.handle();
    for step in 0..8 {
        let value = (step as f64 * 0.37).sin();
        client.observe(0, value).expect("wire observe");
        local.observe(0, value).expect("local observe");
    }
    let over_wire = client.forecast(0, 2, None).expect("wire forecast");
    let in_process = local.forecast(0, 2).expect("local forecast");
    assert_eq!(over_wire.mean.to_bits(), in_process.mean.to_bits());
    assert_eq!(over_wire.variance.to_bits(), in_process.variance.to_bits());

    net.shutdown();
    local_server.shutdown();
    wire_server.shutdown();
}

/// Typed errors travel the wire typed: an out-of-fleet sensor is
/// `UnknownSensor`, not a closed connection or a hang — and the
/// connection stays usable afterwards.
#[test]
fn unknown_sensor_is_a_typed_wire_error() {
    let server = start_server(2, ServeConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default()).expect("bind");

    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    match client.forecast(99, 3, None) {
        Err(ClientError::Server { code: ErrorCode::UnknownSensor, .. }) => {}
        other => panic!("expected typed UnknownSensor, got {other:?}"),
    }
    client.ping().expect("connection survives a typed error");
    client.forecast(0, 3, None).expect("valid requests still serve");

    net.shutdown();
    server.shutdown();
}

/// Open-loop load at ~2× the fleet's saturation point: every request gets
/// a typed answer (forecast or shed), nothing panics, nothing hangs, and
/// at least some requests are shed (proof the ladder engaged).
#[test]
fn overload_sheds_typed_errors_without_hangs() {
    // Tiny queues make saturation cheap to reach.
    let config = ServeConfig { shards: 2, queue_capacity: 4, ..ServeConfig::default() };
    let server = start_server(4, config);
    let net = NetServer::bind(
        "127.0.0.1:0",
        server.handle(),
        NetConfig { inflight_window: 64, ..NetConfig::default() },
    )
    .expect("bind");

    let gen = NetLoadGen {
        connections: 4,
        requests: 600,
        // Far past what 2 shards with queue depth 4 can absorb.
        rps: 20_000.0,
        horizon: 3,
        deadline: Some(Duration::from_millis(50)),
        tenant: 0,
        seed: 0xD06_F00D,
    };
    let report = run_net_load(net.local_addr(), 4, &gen).expect("run completes without hanging");

    let answered = report.ok + report.shed + report.throttled + report.errors;
    assert_eq!(answered as usize, report.requests, "every request must get a typed answer");
    assert!(report.ok > 0, "saturated serving must still answer some requests");
    assert!(report.shed > 0, "2x saturation must shed: {report:?}");
    assert_eq!(report.errors, 0, "only forecasts and typed sheds expected: {report:?}");

    net.shutdown();
    server.shutdown();
}

/// The HTTP gateway answers curl-style requests on the same listener as
/// the binary protocol.
#[test]
fn http_gateway_serves_forecasts_and_health() {
    let server = start_server(3, ServeConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default()).expect("bind");
    let addr = net.local_addr();

    let get = |path: &str| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: smiler\r\n\r\n").expect("send");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read to close");
        body
    };

    let health = get("/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "healthz: {health}");
    assert!(health.contains("{\"ok\":true}"), "healthz body: {health}");

    let forecast = get("/forecast?sensor=1&h=3&deadline_ms=50");
    assert!(forecast.starts_with("HTTP/1.1 200"), "forecast: {forecast}");
    assert!(forecast.contains("\"mean\":"), "forecast body: {forecast}");
    assert!(forecast.contains("\"level\":"), "forecast body: {forecast}");

    let status = get("/status");
    assert!(status.starts_with("HTTP/1.1 200"), "status: {status}");
    assert!(status.contains("\"shed_rate\""), "status body: {status}");

    let missing = get("/forecast?h=3");
    assert!(missing.starts_with("HTTP/1.1 400"), "missing param: {missing}");

    let unknown = get("/forecast?sensor=77&h=3");
    assert!(unknown.starts_with("HTTP/1.1 404"), "unknown sensor: {unknown}");

    let nowhere = get("/nowhere");
    assert!(nowhere.starts_with("HTTP/1.1 404"), "unknown path: {nowhere}");

    // POST /observe through the gateway.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    write!(stream, "POST /observe?sensor=0&value=1.25 HTTP/1.1\r\nHost: smiler\r\n\r\n")
        .expect("send");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read to close");
    assert!(body.starts_with("HTTP/1.1 200"), "observe: {body}");
    assert!(body.contains("\"ok\":true"), "observe body: {body}");

    net.shutdown();
    server.shutdown();
}

/// A tenant that bursts past its token bucket gets typed `Throttled`
/// answers while a well-behaved tenant on the same server is untouched.
#[test]
fn hot_tenant_is_throttled_cold_tenant_is_not() {
    let server = start_server(2, ServeConfig::default());
    let net = NetServer::bind(
        "127.0.0.1:0",
        server.handle(),
        NetConfig { qos: Some(QosConfig { rate: 0.5, burst: 3.0 }), ..NetConfig::default() },
    )
    .expect("bind");

    let mut hot = NetClient::connect(net.local_addr()).expect("connect");
    hot.set_tenant(1);
    let mut throttled = 0;
    let mut served = 0;
    for _ in 0..8 {
        match hot.forecast(0, 2, None) {
            Ok(_) => served += 1,
            Err(ClientError::Server { code: ErrorCode::Throttled, .. }) => throttled += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(served >= 3, "burst within the bucket must serve: served={served}");
    assert!(throttled > 0, "past-burst requests must throttle: throttled={throttled}");

    // Tenant 2's bucket is independent: its burst serves in full.
    let mut cold = NetClient::connect(net.local_addr()).expect("connect");
    cold.set_tenant(2);
    for _ in 0..3 {
        cold.forecast(1, 2, None).expect("cold tenant must not inherit hot tenant's debt");
    }

    net.shutdown();
    server.shutdown();
}

/// A load or QoS config that cannot be honoured is refused with a typed
/// error before anything connects or binds: a rate of zero or NaN would
/// otherwise schedule the first arrival forever out, a rate so small that
/// the run outlasts any `Duration` could not be scheduled at all, an
/// empty fleet has no sensor to send to, and a bucket below one token
/// would throttle every request.
#[test]
fn unschedulable_load_and_qos_configs_are_refused() {
    // Nothing listens here: a refusal must come before any connect.
    let nowhere: std::net::SocketAddr = "127.0.0.1:1".parse().expect("addr");
    let base = NetLoadGen { connections: 2, requests: 4, rps: 100.0, ..NetLoadGen::default() };
    let bad_loads = [
        NetLoadGen { rps: 0.0, ..base },
        NetLoadGen { rps: -1.0, ..base },
        NetLoadGen { rps: f64::NAN, ..base },
        NetLoadGen { rps: f64::INFINITY, ..base },
        NetLoadGen { connections: 0, ..base },
        NetLoadGen { requests: 0, ..base },
        NetLoadGen { requests: 1, ..base },
        NetLoadGen { rps: 1e-30, ..base },
    ];
    for (fleet, gen) in bad_loads.into_iter().map(|gen| (4, gen)).chain([(0, base)]) {
        match run_net_load(nowhere, fleet, &gen) {
            Err(ClientError::InvalidLoad(_)) => {}
            other => panic!("{gen:?}: expected InvalidLoad, got {:?}", other.map(|r| r.requests)),
        }
    }

    let server = start_server(1, ServeConfig::default());
    for (rate, burst) in
        [(f64::NAN, 4.0), (0.0, 4.0), (-1.0, 4.0), (f64::INFINITY, 4.0), (2.0, 0.5)]
    {
        let config = NetConfig { qos: Some(QosConfig { rate, burst }), ..NetConfig::default() };
        match NetServer::bind("127.0.0.1:0", server.handle(), config) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
            Ok(_) => panic!("QoS rate {rate} burst {burst} was accepted"),
        }
    }
    server.shutdown();
}

/// Pipelined requests on one connection all get answers, matched by id.
#[test]
fn pipelined_binary_requests_all_answer() {
    let server = start_server(4, ServeConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default()).expect("bind");

    let client = NetClient::connect(net.local_addr()).expect("connect");
    let (mut tx, mut rx) = client.into_split().expect("split");
    const N: u64 = 32;
    for id in 0..N {
        tx.send_forecast(id, id % 4, 2, None).expect("send");
    }
    let mut seen = vec![false; N as usize];
    for _ in 0..N {
        let resp = rx.recv().expect("response");
        let id = resp.request_id() as usize;
        assert!(!seen[id], "duplicate response for id {id}");
        seen[id] = true;
    }
    assert!(seen.iter().all(|&s| s), "every pipelined request must answer");

    net.shutdown();
    server.shutdown();
}

/// A malformed frame mid-stream draws a typed error response and a clean
/// close — never a hang.
#[test]
fn garbage_after_valid_frames_gets_typed_error_and_close() {
    let server = start_server(1, ServeConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default()).expect("bind");

    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // One valid ping, then garbage that shares the magic but corrupts the
    // version field.
    let mut wire = Vec::new();
    Request::Ping { request_id: 9, tenant: 0 }.encode(&mut wire);
    wire.extend_from_slice(&MAGIC);
    wire.extend_from_slice(&[0xFF; 12]);
    stream.write_all(&wire).expect("send");

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("server must close, not hang");
    // First frame answers the ping; the second response is the typed
    // protocol error.
    let (n1, p1) = frame::try_frame(&raw).expect("first response frames").expect("complete");
    let pong = smiler_net::Response::decode(p1).expect("decodes");
    assert_eq!(pong.request_id(), 9);
    let (_, p2) = frame::try_frame(&raw[n1..]).expect("second response frames").expect("complete");
    match smiler_net::Response::decode(p2).expect("decodes") {
        smiler_net::Response::Error { code: ErrorCode::BadRequest, .. } => {}
        other => panic!("expected BadRequest error frame, got {other:?}"),
    }

    net.shutdown();
    server.shutdown();
}

// ------------------------------------------------------- decoder fuzzing

/// A complete valid frame truncated at *every* prefix length must decode
/// as incomplete or a typed error — never a panic, never an out-of-bounds
/// slice (the wire twin of the WAL torn-tail sweep).
#[test]
fn truncation_at_every_prefix_byte_is_typed() {
    let mut wire = Vec::new();
    Request::Forecast { request_id: 1, tenant: 2, sensor: 3, h: 4, deadline_us: 5 }
        .encode(&mut wire);
    for cut in 0..wire.len() {
        match frame::try_frame(&wire[..cut]) {
            Ok(None) | Err(_) => {}
            Ok(Some(_)) => panic!("a {cut}-byte prefix of a {}-byte frame decoded", wire.len()),
        }
    }
    // The full frame still decodes after the sweep.
    assert!(frame::try_frame(&wire).expect("valid").is_some());
}

/// Single-byte corruption anywhere in a frame must yield a typed error or
/// an incomplete parse — the CRC catches payload flips, the magic/version
/// checks catch header flips — and re-decoding must never panic.
#[test]
fn single_byte_corruption_never_panics() {
    let mut wire = Vec::new();
    Request::Observe { request_id: 7, tenant: 1, sensor: 2, value: 3.25 }.encode(&mut wire);
    for pos in 0..wire.len() {
        for flip in [0x01u8, 0x80u8, 0xFFu8] {
            let mut bad = wire.clone();
            bad[pos] ^= flip;
            if let Ok(Some((consumed, payload))) = frame::try_frame(&bad) {
                // A flip that survives framing (e.g. inside the length
                // making it shorter is impossible — CRC covers payload)
                // must at worst fail typed at the request layer.
                assert!(consumed <= bad.len());
                let _ = Request::decode(payload);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic the frame decoder, and whatever it
    /// carves stays in bounds.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        if let Ok(Some((consumed, payload))) = frame::try_frame(&bytes) {
            prop_assert!(consumed <= bytes.len());
            prop_assert!(payload.len() <= consumed);
            let _ = Request::decode(payload);
            let _ = smiler_net::Response::decode(payload);
        }
    }

    /// A declared length field scanned over its whole range never causes
    /// an allocation blow-up or panic: oversized lengths are rejected
    /// before buffering.
    #[test]
    fn declared_lengths_are_bounded(len in 0u32..=u32::MAX) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&VERSION.to_le_bytes());
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        match frame::try_frame(&wire) {
            Err(FrameError::Oversized { .. }) => {
                prop_assert!(len > frame::MAX_PAYLOAD_BYTES);
            }
            Ok(None) => prop_assert!(len > 0 && len <= frame::MAX_PAYLOAD_BYTES),
            Ok(Some(_)) => prop_assert_eq!(len, 0),
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }

    /// Pipelined back-to-back frames always carve at frame boundaries.
    #[test]
    fn pipelined_frames_carve_exactly(ids in prop::collection::vec(0u64..=u64::MAX, 1..8)) {
        let mut wire = Vec::new();
        for &id in &ids {
            Request::Ping { request_id: id, tenant: 0 }.encode(&mut wire);
        }
        let mut offset = 0;
        for &id in &ids {
            let (n, payload) = frame::try_frame(&wire[offset..])
                .expect("valid stream")
                .expect("complete frame");
            let req = Request::decode(payload).expect("valid ping");
            prop_assert_eq!(req.request_id(), id);
            offset += n;
        }
        prop_assert_eq!(offset, wire.len());
    }
}

/// A chaos feed replayed over the loopback wire with the adaptation
/// layer armed: every delivered observation and every forecast gets
/// exactly one typed terminal (answer or error) over the socket, dirty
/// data never panics the server or wedges the connection, and a load
/// spike mid-feed sheds typed while the connection stays usable.
#[test]
fn chaos_feed_over_the_wire_answers_typed_and_survives_a_load_spike() {
    use smiler_timeseries::synthetic::chaos::{ChaosKind, ChaosSpec};

    let device = Arc::new(Device::default_gpu());
    let spec = ChaosSpec::smoke(17);
    let scenarios: Vec<_> = ChaosKind::all().iter().map(|&k| spec.scenario(k)).collect();
    let config = SmilerConfig {
        regime: smiler_core::RegimeConfig::enabled(),
        ..SmilerConfig::small_for_tests()
    };
    let sensors: Vec<_> = scenarios
        .iter()
        .enumerate()
        .map(|(id, s)| {
            SensorPredictor::new(
                Arc::clone(&device),
                id,
                s.history.clone(),
                config.clone(),
                PredictorKind::Aggregation,
            )
        })
        .collect();
    let server = SmilerServer::start(device, sensors, ServeConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default()).expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");

    // Replay every scenario's delivered feed over the socket.
    for t in 0..scenarios[0].live_len() {
        for (id, s) in scenarios.iter().enumerate() {
            if let Some(v) = s.observed[t] {
                client.observe(id as u64, v).expect("wire observe under chaos");
            }
            if t % 12 == 0 {
                let p = client.forecast(id as u64, 1, None).expect("wire forecast under chaos");
                assert!(p.mean.is_finite(), "{}: non-finite mean over the wire", s.name);
            }
        }
    }

    // Load spike mid-chaos: 2x-saturation traffic against the same
    // listener must shed typed, answer everything, and leave the original
    // connection usable.
    let gen = NetLoadGen {
        connections: 4,
        requests: 400,
        rps: 20_000.0,
        horizon: 1,
        deadline: Some(Duration::from_millis(50)),
        tenant: 0,
        seed: 0x0C0A_57A1,
    };
    let report = run_net_load(net.local_addr(), 4, &gen).expect("load spike completes");
    let answered = report.ok + report.shed + report.throttled + report.errors;
    assert_eq!(answered as usize, report.requests, "exactly one terminal per request");
    assert_eq!(report.errors, 0, "only forecasts and typed sheds expected: {report:?}");

    // The long-lived connection survived the spike.
    let after = client.forecast(0, 1, None).expect("connection survives the spike");
    assert!(after.mean.is_finite());

    net.shutdown();
    server.shutdown();
}

// -------------------------------------------------- connection lifecycle

use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr};
use std::time::Instant;

/// `n` pipelined forecast frames with request ids `0..n`.
fn forecast_frames(n: u64, sensor_of: impl Fn(u64) -> u64) -> Vec<u8> {
    let mut wire = Vec::new();
    for id in 0..n {
        Request::Forecast {
            request_id: id,
            tenant: 0,
            sensor: sensor_of(id),
            h: 2,
            deadline_us: 0,
        }
        .encode(&mut wire);
    }
    wire
}

/// Pipeline forecasts on a non-blocking socket and never read an answer,
/// until the kernel has taken nothing more for a quarter of a second: by
/// then the socket buffers of both directions are full, the server's
/// reader is stalled on its window and its writer is blocked in `write`.
/// (The forecasts name a sensor outside the fleet, so each draws a full
/// typed answer without costing a search.)
fn flood_without_reading(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nonblocking(true).expect("non-blocking client");
    let wire = forecast_frames(256, |_| 99);
    let mut offset = 0;
    let mut last_progress = Instant::now();
    while last_progress.elapsed() < Duration::from_millis(250) {
        match stream.write(&wire[offset..]) {
            Ok(n) => {
                offset = (offset + n) % wire.len();
                last_progress = Instant::now();
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(err) => panic!("flooding failed before the server stalled: {err}"),
        }
    }
    stream
}

/// Whether the server has closed `stream`: reading it to the end finishes
/// in end-of-file or a reset, not in a timeout.
fn is_closed(stream: &mut TcpStream) -> bool {
    stream.set_nonblocking(false).expect("blocking client");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut sink = Vec::new();
    match stream.read_to_end(&mut sink) {
        Ok(_) => true,
        Err(err) => !matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    }
}

/// `shutdown()` with an idle connection, one that never spoke, one in the
/// middle of a pipeline and one whose writer is blocked on a peer that
/// does not read: it returns promptly — it joins the acceptor and every
/// connection thread, so returning at all means none of them is stuck —
/// and every socket is closed behind it.
#[test]
fn shutdown_closes_idle_pipelining_and_blocked_connections() {
    let server = start_server(2, ServeConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default()).expect("bind");
    let addr = net.local_addr();

    let mut silent = TcpStream::connect(addr).expect("connect");
    let mut idle = NetClient::connect(addr).expect("connect");
    idle.ping().expect("ping");
    let mut pipelining = TcpStream::connect(addr).expect("connect");
    pipelining.write_all(&forecast_frames(24, |id| id % 2)).expect("send");
    let mut stuck = flood_without_reading(addr);

    let started = Instant::now();
    net.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown waited {took:?} on somebody");

    assert!(is_closed(&mut silent), "a connection that never spoke outlived shutdown");
    assert!(idle.ping().is_err(), "an idle connection outlived shutdown");
    assert!(is_closed(&mut pipelining), "a pipelining connection outlived shutdown");
    assert!(is_closed(&mut stuck), "a connection with a blocked writer outlived shutdown");

    server.shutdown();
}

/// Dropping the server is shutting it down: the acceptor is woken and
/// joined (or this test hangs), and live connections are closed.
#[test]
fn dropping_the_server_stops_it() {
    let server = start_server(1, ServeConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default()).expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    client.ping().expect("ping");

    drop(net);
    assert!(client.ping().is_err(), "a connection outlived its server");

    server.shutdown();
}

/// A client that pipelines forecasts and never reads an answer costs the
/// server one blocked writer, not its service: a second connection is
/// answered at once while the first is stuck, and the stuck one is closed
/// when the write timeout expires.
#[test]
fn a_peer_that_never_reads_delays_nobody_and_is_closed() {
    let server = start_server(2, ServeConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default()).expect("bind");
    let addr = net.local_addr();

    let stuck = flood_without_reading(addr);

    let mut other = NetClient::connect(addr).expect("a second connection is admitted");
    let started = Instant::now();
    other.ping().expect("ping beside a stuck connection");
    other.forecast(0, 2, None).expect("forecast beside a stuck connection");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "the stuck connection delayed another by {took:?}");

    // The server resets the connection (it closes with the flood unread);
    // the pending socket error shows that without reading a byte, which
    // would un-stick the writer instead.
    let deadline = Instant::now() + Duration::from_secs(30);
    while matches!(stuck.take_error(), Ok(None)) {
        assert!(Instant::now() < deadline, "a peer that never reads was never closed");
        other.ping().expect("the second connection keeps being served meanwhile");
        std::thread::sleep(Duration::from_millis(20));
    }

    net.shutdown();
    server.shutdown();
}

/// A peer that sends N requests and closes its sending half still gets
/// its N answers — in request order — and then end-of-file.
#[test]
fn half_closed_peer_gets_every_answer_in_request_order_then_eof() {
    const N: u64 = 12;
    let server = start_server(2, ServeConfig::default());
    let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default()).expect("bind");

    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(&forecast_frames(N, |id| id % 2)).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("answers, then end-of-file");
    let mut offset = 0;
    for id in 0..N {
        let (n, payload) =
            frame::try_frame(&raw[offset..]).expect("response frames").expect("complete");
        match smiler_net::Response::decode(payload).expect("decodes") {
            smiler_net::Response::Forecast { request_id, .. } => assert_eq!(request_id, id),
            other => panic!("expected the forecast for request {id}, got {other:?}"),
        }
        offset += n;
    }
    assert_eq!(offset, raw.len(), "nothing may follow the last answer");

    net.shutdown();
    server.shutdown();
}

/// `max_connections: 1` closes a second connection without serving it,
/// leaves the first alone, and admits a new one once the first has ended
/// (the registry of live connections is reaped).
#[test]
fn max_connections_closes_the_extra_peer_and_frees_the_slot_afterwards() {
    let server = start_server(1, ServeConfig::default());
    let net = NetServer::bind(
        "127.0.0.1:0",
        server.handle(),
        NetConfig { max_connections: 1, ..NetConfig::default() },
    )
    .expect("bind");
    let addr = net.local_addr();

    let mut first = NetClient::connect(addr).expect("connect");
    first.ping().expect("the first connection is admitted");

    let mut extra = NetClient::connect(addr).expect("the accept queue still takes it");
    assert!(extra.ping().is_err(), "a connection beyond max_connections was served");
    first.ping().expect("the admitted connection is untouched");

    // The slot frees when the server has seen the first connection end;
    // nothing tells a client when that is, so retry until admitted.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !NetClient::connect(addr).is_ok_and(|mut next| next.ping().is_ok()) {
        assert!(Instant::now() < deadline, "the slot of a finished connection was never freed");
        std::thread::sleep(Duration::from_millis(5));
    }

    net.shutdown();
    server.shutdown();
}

// ------------------------------------- replication frames, hostile peers

use smiler_net::repl::{
    encode_repl_frame, try_repl_frame, ChunkAssembler, ReplMsg, MAX_REPL_PAYLOAD_BYTES, REPL_MAGIC,
    REPL_VERSION,
};
use smiler_store::WalRecord;

/// One message of every `SMLRREPL` kind, with every field shape the
/// family has (strings, nested WAL records, chunk bodies).
fn repl_samples() -> Vec<ReplMsg> {
    vec![
        ReplMsg::Hello { follower_id: "follower-b".into(), acked_seq: 42 },
        ReplMsg::Ack { acked_seq: 99 },
        ReplMsg::CheckpointChunk { seq: 7, offset: 3, total_len: 9, bytes: vec![1, 2, 3] },
        ReplMsg::SegmentChunk { index: 4, offset: 0, total_len: 100, bytes: vec![0xAB; 100] },
        ReplMsg::BootstrapDone { last_seq: 1000 },
        ReplMsg::Record { record: WalRecord::Observe { seq: 5, sensor: 2, value: f64::NAN } },
        ReplMsg::Record {
            record: WalRecord::Round { seq: 6, horizon: 3, values: vec![-0.0, 1.5] },
        },
        ReplMsg::Heartbeat { last_seq: 123 },
        ReplMsg::Error { detail: "follower too stale".into() },
    ]
}

/// A message as `(wire frame, payload inside it)`.
fn repl_wire(msg: &ReplMsg) -> (Vec<u8>, Vec<u8>) {
    let mut wire = Vec::new();
    msg.encode(&mut wire);
    let (_, payload) = try_repl_frame(&wire).expect("valid").expect("complete");
    let payload = payload.to_vec();
    (wire, payload)
}

/// Every strict prefix of every replication frame is incomplete or a
/// typed error, and every strict prefix of every payload is a typed
/// decode error: a torn stream can stall a follower, never fool it.
#[test]
fn repl_truncation_at_every_prefix_byte_is_typed() {
    for msg in repl_samples() {
        let (wire, payload) = repl_wire(&msg);
        for cut in 0..wire.len() {
            match try_repl_frame(&wire[..cut]) {
                Ok(None) | Err(_) => {}
                Ok(Some(_)) => panic!("{msg:?}: a {cut}-byte prefix of {} framed", wire.len()),
            }
        }
        for cut in 0..payload.len() {
            assert!(
                ReplMsg::decode(&payload[..cut]).is_err(),
                "{msg:?}: a {cut}-byte prefix of a {}-byte payload decoded",
                payload.len()
            );
        }
        ReplMsg::decode(&payload).expect("the whole payload still decodes");
    }
}

/// A flipped byte anywhere in a frame is caught by the envelope (magic,
/// version, length, CRC) or decodes typed; a flipped byte in a payload
/// re-wrapped under a *valid* CRC — what a buggy or hostile peer sends —
/// reaches `ReplMsg::decode` and must come back as a message or a typed
/// error, never a panic or an allocation sized by the corruption.
#[test]
fn repl_single_byte_corruption_never_panics() {
    for msg in repl_samples() {
        let (wire, payload) = repl_wire(&msg);
        for flip in [0x01u8, 0x80u8, 0xFFu8] {
            for pos in 0..wire.len() {
                let mut bad = wire.clone();
                bad[pos] ^= flip;
                if let Ok(Some((consumed, carved))) = try_repl_frame(&bad) {
                    assert!(consumed <= bad.len());
                    let _ = ReplMsg::decode(carved);
                }
            }
            for pos in 0..payload.len() {
                let mut bad = payload.clone();
                bad[pos] ^= flip;
                let mut rewrapped = Vec::new();
                encode_repl_frame(&mut rewrapped, &bad);
                let (_, carved) =
                    try_repl_frame(&rewrapped).expect("valid envelope").expect("complete");
                let _ = ReplMsg::decode(carved);
            }
        }
    }
}

/// Length bombs, outer and inner. The envelope's declared length is
/// bounded before anything is buffered; a length field *inside* a payload
/// (string, chunk body, nested record) that claims more than the payload
/// holds is a typed error before anything is allocated.
#[test]
fn repl_declared_lengths_are_bounded() {
    for len in [0, 1, 19, MAX_REPL_PAYLOAD_BYTES, MAX_REPL_PAYLOAD_BYTES + 1, 1 << 31, u32::MAX] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&REPL_MAGIC);
        wire.extend_from_slice(&REPL_VERSION.to_le_bytes());
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        match try_repl_frame(&wire) {
            Err(FrameError::Oversized { .. }) => assert!(len > MAX_REPL_PAYLOAD_BYTES),
            Ok(None) => assert!(len > 0 && len <= MAX_REPL_PAYLOAD_BYTES),
            // crc32 of nothing is 0: an empty payload frames, then fails typed.
            Ok(Some((_, payload))) => {
                assert_eq!(len, 0);
                assert!(ReplMsg::decode(payload).is_err());
            }
            Err(other) => panic!("declared length {len}: unexpected {other:?}"),
        }
    }

    for msg in repl_samples() {
        let (_, payload) = repl_wire(&msg);
        // Overwrite every aligned-or-not 8-byte window with a huge length:
        // whichever of them is a length field now lies.
        for pos in 1..payload.len().saturating_sub(7) {
            for bomb in [u64::MAX, 1 << 62, u64::from(u32::MAX), payload.len() as u64] {
                let mut bad = payload.clone();
                bad[pos..pos + 8].copy_from_slice(&bomb.to_le_bytes());
                let _ = ReplMsg::decode(&bad);
            }
        }
    }
}

/// `ChunkAssembler::push` against a peer that lies about offsets and
/// totals: every inconsistency is an error, nothing is buffered beyond
/// what was declared, and an honest transfer still completes.
#[test]
fn chunk_assembler_rejects_bad_offsets_totals_and_overflow() {
    /// `(offset, total_len, body length)` of one push.
    type Chunk = (u64, u64, usize);
    // (chunks pushed in order, index of the push that must fail — `None`
    // when the transfer is honest).
    let cases: &[(&[Chunk], Option<usize>)] = &[
        (&[(0, 6, 3), (3, 6, 3)], None),
        (&[(0, 0, 0)], None),
        (&[(0, 6, 0), (0, 6, 6)], None),
        (&[(3, 6, 3)], Some(0)),
        (&[(0, 6, 3), (4, 6, 2)], Some(1)),
        (&[(0, 6, 3), (0, 6, 3)], Some(1)),
        (&[(0, 6, 3), (2, 6, 3)], Some(1)),
        (&[(0, 6, 3), (3, 7, 3)], Some(1)),
        (&[(0, 6, 3), (3, 6, 4)], Some(1)),
        (&[(0, 2, 3)], Some(0)),
        (&[(0, 0, 1)], Some(0)),
        (&[(0, (1 << 32) + 1, 3)], Some(0)),
        (&[(0, u64::MAX, 3)], Some(0)),
        (&[(u64::MAX, 6, 3)], Some(0)),
        (&[(0, 6, 3), (u64::MAX, 6, 3)], Some(1)),
        (&[(0, 6, 3), (u64::MAX - 1, u64::MAX, 3)], Some(1)),
    ];
    for (chunks, fails_at) in cases {
        let mut assembler = ChunkAssembler::new();
        let mut sent = Vec::new();
        for (i, &(offset, total_len, len)) in chunks.iter().enumerate() {
            let body: Vec<u8> = (0..len).map(|b| (i * 16 + b) as u8).collect();
            let pushed = assembler.push(offset, total_len, &body);
            if *fails_at == Some(i) {
                assert!(pushed.is_err(), "{chunks:?}: push {i} must be refused, got {pushed:?}");
                break;
            }
            sent.extend_from_slice(&body);
            let done = pushed.unwrap_or_else(|err| panic!("{chunks:?}: push {i} refused: {err}"));
            match done {
                Some(bytes) => {
                    assert_eq!(i + 1, chunks.len(), "{chunks:?}: completed early");
                    assert_eq!(bytes, sent, "{chunks:?}: reassembled bytes differ");
                }
                None => assert!(i + 1 < chunks.len(), "{chunks:?}: never completed"),
            }
        }
    }
}
