//! Durability tier-1 suite: crash injection, corruption fallback, and the
//! headline invariant — a fleet killed mid-run and restored from
//! checkpoint + WAL produces **bitwise-identical** predictions to a fleet
//! that never stopped.

use smiler_core::{
    DurableError, DurableSystem, FaultKind, PredictorKind, SensorFault, ServeConfig, ServeError,
    SmilerConfig, SmilerServer, SmilerSystem,
};
use smiler_gpu::Device;
use smiler_store::{FlushPolicy, Store, StoreConfig};
use std::fs::{self, OpenOptions};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smiler_durab_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn store_config() -> StoreConfig {
    StoreConfig { flush: FlushPolicy::Always, ..StoreConfig::default() }
}

fn histories(count: usize, n: usize) -> Vec<Vec<f64>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..count)
        .map(|s| {
            (0..n)
                .map(|i| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((i + s * 17) as f64 * std::f64::consts::TAU / 24.0).sin()
                        + (state % 1000) as f64 / 2500.0
                })
                .collect()
        })
        .collect()
}

/// Deterministic observation for round `r`, sensor `s`.
fn obs(r: usize, s: usize) -> f64 {
    ((r * 7 + s * 13) as f64 * 0.21).sin() * 0.8
}

fn round_values(r: usize, sensors: usize) -> Vec<f64> {
    (0..sensors).map(|s| obs(r, s)).collect()
}

/// The headline invariant, exercised with the full GP pipeline: kill the
/// durable fleet mid-run (no final checkpoint), restore, and require every
/// later prediction to match the never-stopped fleet **bit for bit**.
#[test]
fn restored_fleet_is_bitwise_identical_to_never_stopped() {
    let dir = tmpdir("bitwise");
    let config = SmilerConfig::small_for_tests();
    let kind = PredictorKind::GaussianProcess;
    let fleet = 3usize;
    let h = 3usize;

    let (mut control, _) = SmilerSystem::new(
        Arc::new(Device::default_gpu()),
        histories(fleet, 420),
        config.clone(),
        kind,
    );
    let (mut durable, oom) = DurableSystem::create(
        Arc::new(Device::default_gpu()),
        histories(fleet, 420),
        config,
        kind,
        &dir,
        store_config(),
        /* checkpoint_every */ 8,
    )
    .expect("create durable fleet");
    assert!(oom.is_none());

    // Phase 1: both fleets run 30 rounds; the durable wrapper must not
    // perturb the math.
    for r in 0..30 {
        let values = round_values(r, fleet);
        let a = control.step(h, &values);
        let b = durable.step(h, &values).expect("durable step");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "round {r}: durable wrapper changed mean");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "round {r}: durable wrapper changed var");
        }
    }

    // Kill: drop without a final checkpoint. 30 rounds at cadence 8 leave
    // a WAL tail past the last checkpoint that replay must cover.
    drop(durable);

    let (mut restored, report) =
        DurableSystem::open(Arc::new(Device::default_gpu()), &dir, store_config(), 8)
            .expect("restore after kill");
    assert_eq!(report.sensors, fleet);
    assert!(
        report.replayed_rounds > 0 && report.replayed_rounds < 30,
        "checkpoints must bound the replay tail, replayed {}",
        report.replayed_rounds
    );

    // Phase 2: 20 more rounds in lockstep, bitwise.
    for r in 30..50 {
        let values = round_values(r, fleet);
        let a = control.step(h, &values);
        let b = restored.step(h, &values).expect("durable step after restore");
        for (s, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x.0.to_bits(),
                y.0.to_bits(),
                "round {r} sensor {s}: restored mean {} vs control {}",
                y.0,
                x.0
            );
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "round {r} sensor {s}: variance drifted");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Crash injection: truncate the WAL at **every byte offset** inside the
/// final record; recovery must land exactly on the last whole record.
#[test]
fn torn_tail_at_every_byte_offset_recovers_last_whole_record() {
    // An Observe record frames to 8 (len+crc) + 21 (payload) = 29 bytes.
    const FRAMED: u64 = 29;
    let dir = tmpdir("torn_every_byte");
    for cut in 1..=FRAMED {
        let _ = fs::remove_dir_all(&dir);
        {
            let (mut store, _) = Store::open(&dir, store_config()).expect("create");
            for i in 0..5u32 {
                store
                    .append_observe(i, f64::from_bits(0x7FF8_0000_0000_0000 + i as u64)) // NaN payloads
                    .expect("append");
            }
        }
        let seg = dir.join("wal").join("wal-00000001.seg");
        let len = fs::metadata(&seg).expect("segment exists").len();
        let f = OpenOptions::new().write(true).open(&seg).expect("open segment");
        f.set_len(len - cut).expect("truncate");
        drop(f);

        let (store, recovery) = Store::open(&dir, store_config()).expect("reopen");
        assert_eq!(
            recovery.replay.len(),
            4,
            "cut {cut}: expected exactly the 4 whole records to survive"
        );
        assert_eq!(store.last_seq(), 4, "cut {cut}: append position must follow the repair");
        assert_eq!(recovery.quarantined_segments, 0, "cut {cut}: a torn tail is not corruption");
        if cut < FRAMED {
            assert!(recovery.truncated_bytes > 0, "cut {cut}: should report repaired bytes");
        }
        // The surviving records kept their NaN payloads bitwise.
        for (i, r) in recovery.replay.iter().enumerate() {
            match r {
                smiler_store::WalRecord::Observe { value, .. } => {
                    assert_eq!(value.to_bits(), 0x7FF8_0000_0000_0000 + i as u64);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Corruption fallback: flip one byte in the newest checkpoint; recovery
/// must fall back to the previous checkpoint and cover the difference
/// from the WAL — still bitwise-identical to the never-stopped fleet.
#[test]
fn corrupt_checkpoint_falls_back_and_stays_bitwise() {
    let config = SmilerConfig::small_for_tests();
    let kind = PredictorKind::Aggregation;
    let fleet = 2usize;
    let h = 1usize;

    // Flip a byte near the start, middle and end of the file.
    for probe in 0..3usize {
        let dir = tmpdir(&format!("ckpt_flip_{probe}"));
        let (mut control, _) = SmilerSystem::new(
            Arc::new(Device::default_gpu()),
            histories(fleet, 320),
            config.clone(),
            kind,
        );
        let (mut durable, _) = DurableSystem::create(
            Arc::new(Device::default_gpu()),
            histories(fleet, 320),
            config.clone(),
            kind,
            &dir,
            store_config(),
            /* checkpoint_every */ 6,
        )
        .expect("create");
        for r in 0..20 {
            let values = round_values(r, fleet);
            control.step(h, &values);
            durable.step(h, &values).expect("step");
        }
        drop(durable);

        // Corrupt the newest checkpoint file.
        let ckpt_dir = dir.join("ckpt");
        let newest = fs::read_dir(&ckpt_dir)
            .expect("ckpt dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "ck"))
            .max()
            .expect("at least one checkpoint");
        let mut bytes = fs::read(&newest).expect("read checkpoint");
        let pos = match probe {
            0 => 3,               // header magic
            1 => bytes.len() / 2, // payload middle
            _ => bytes.len() - 1, // payload end
        };
        bytes[pos] ^= 0x40;
        fs::write(&newest, &bytes).expect("write corrupted checkpoint");

        let (mut restored, report) =
            DurableSystem::open(Arc::new(Device::default_gpu()), &dir, store_config(), 6)
                .expect("restore past the corrupt checkpoint");
        assert!(
            report.quarantined_checkpoints >= 1,
            "probe {probe}: the damaged checkpoint must be quarantined"
        );
        for r in 20..32 {
            let values = round_values(r, fleet);
            let a = control.step(h, &values);
            let b = restored.step(h, &values).expect("step after fallback");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0.to_bits(), y.0.to_bits(), "probe {probe} round {r}: mean drifted");
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "probe {probe} round {r}: var drifted");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Checkpoint fallback across a restart and a prune: the fleet runs,
/// restarts, steps until a checkpoint prunes the WAL, then restarts on a
/// corrupted newest checkpoint. The segments behind the older checkpoint
/// must have survived the prune, so the fallback is still bitwise.
#[test]
fn fallback_after_restart_and_prune_stays_bitwise() {
    let dir = tmpdir("fallback_pruned");
    let config = SmilerConfig::small_for_tests();
    let kind = PredictorKind::Aggregation;
    let (fleet, h, every) = (2usize, 1usize, 8u64);
    // A 2-sensor round frames to 41 bytes: six rounds per segment.
    let small = StoreConfig { flush: FlushPolicy::Always, segment_bytes: 256, keep_checkpoints: 2 };
    let (mut control, _) = SmilerSystem::new(
        Arc::new(Device::default_gpu()),
        histories(fleet, 320),
        config.clone(),
        kind,
    );
    let (mut durable, _) = DurableSystem::create(
        Arc::new(Device::default_gpu()),
        histories(fleet, 320),
        config,
        kind,
        &dir,
        small.clone(),
        every,
    )
    .expect("create");
    let mut lockstep = |durable: &mut DurableSystem, rounds: std::ops::Range<usize>| {
        for r in rounds {
            let values = round_values(r, fleet);
            let a = control.step(h, &values);
            let b = durable.step(h, &values).expect("step");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0.to_bits(), y.0.to_bits(), "round {r}: mean drifted");
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "round {r}: var drifted");
            }
        }
    };
    lockstep(&mut durable, 0..20); // checkpoints at seqs 8 and 16
    drop(durable);

    let (mut durable, report) =
        DurableSystem::open(Arc::new(Device::default_gpu()), &dir, small.clone(), every)
            .expect("restart");
    assert_eq!(report.checkpoint_seq, 16);
    lockstep(&mut durable, 20..28); // checkpoint at 28 prunes below 16
    assert!(!dir.join("wal").join("wal-00000001.seg").exists(), "the checkpoint at 28 pruned");
    drop(durable);

    let newest = dir.join("ckpt").join(format!("ckpt-{:016}.ck", 28));
    let mut bytes = fs::read(&newest).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&newest, &bytes).expect("corrupt checkpoint");

    let (mut restored, report) =
        DurableSystem::open(Arc::new(Device::default_gpu()), &dir, small, every)
            .expect("restore past the corrupt checkpoint");
    assert_eq!((report.checkpoint_seq, report.quarantined_checkpoints), (16, 1));
    lockstep(&mut restored, 28..40);
    assert_eq!(report.replayed_rounds, 12, "seqs 17..=28 replay");
    let _ = fs::remove_dir_all(&dir);
}

/// The sharded serving frontend: observations served through a
/// store-attached server survive shutdown (checkpoint on drain) and a
/// `--data-dir` style restart resumes with the absorbed histories.
#[test]
fn served_observations_survive_server_restart() {
    let dir = tmpdir("serve");
    let config = SmilerConfig::small_for_tests();
    let kind = PredictorKind::Aggregation;
    let fleet = 4usize;

    let (durable, _) = DurableSystem::create(
        Arc::new(Device::default_gpu()),
        histories(fleet, 320),
        config.clone(),
        kind,
        &dir,
        store_config(),
        0,
    )
    .expect("create");
    let (system, store) = durable.into_parts();
    let server = SmilerServer::start_with_store(
        Arc::new(Device::default_gpu()),
        system.into_sensors(),
        ServeConfig { shards: 2, ..ServeConfig::default() },
        smiler_store::shared(store),
    );

    let handle = server.handle();
    let mut expected: Vec<Vec<f64>> = vec![Vec::new(); fleet];
    for r in 0..12 {
        for (s, exp) in expected.iter_mut().enumerate() {
            let v = obs(r, s);
            handle.observe(s, v).expect("absorb");
            exp.push(v);
        }
    }
    server.shutdown();

    let (restored, report) =
        DurableSystem::open(Arc::new(Device::default_gpu()), &dir, store_config(), 0)
            .expect("restart from the drained checkpoint");
    assert_eq!(report.sensors, fleet);
    for (s, exp) in expected.iter().enumerate() {
        let history = restored.system().sensor(s).history();
        assert_eq!(history.len(), 320 + 12, "sensor {s} must resume with served values");
        for (i, v) in exp.iter().enumerate() {
            assert_eq!(
                history[320 + i].to_bits(),
                v.to_bits(),
                "sensor {s} served value {i} must survive bitwise"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A restart builds no index and WAL replay only appends: opening a fleet
/// from a 10-round and from a 400-round observe-only tail launches nothing
/// on the device, and the first forecast after each open, which builds
/// each index over the whole history, is bitwise the never-stopped
/// fleet's.
#[test]
fn replay_launches_no_index_work() {
    let config = SmilerConfig::small_for_tests();
    let kind = PredictorKind::GaussianProcess;
    let fleet = 2usize;
    let mut launched = Vec::new();
    for tail in [10usize, 400] {
        let dir = tmpdir(&format!("replay_tail_{tail}"));
        let (mut durable, _) = DurableSystem::create(
            Arc::new(Device::default_gpu()),
            histories(fleet, 420),
            config.clone(),
            kind,
            &dir,
            store_config(),
            0,
        )
        .expect("create");
        let (mut control, _) = SmilerSystem::new(
            Arc::new(Device::default_gpu()),
            histories(fleet, 420),
            config.clone(),
            kind,
        );
        for r in 0..tail {
            durable.observe_all(&round_values(r, fleet)).expect("durable observe");
            control.observe_all(&round_values(r, fleet));
        }
        drop(durable);

        let device = Arc::new(Device::default_gpu());
        let (mut restored, report) =
            DurableSystem::open(Arc::clone(&device), &dir, store_config(), 0).expect("open");
        assert_eq!(report.replayed_rounds, tail);
        launched.push((device.kernel_launches(), device.blocks_launched()));

        let (want, got) = (control.predict_all(1), restored.system_mut().predict_all(1));
        for (s, (x, y)) in want.iter().zip(&got).enumerate() {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "tail {tail} sensor {s}: mean");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "tail {tail} sensor {s}: variance");
        }
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(launched, [(0, 0), (0, 0)], "(launches, blocks) across open, 10- vs 400-round tail");
}

/// Quarantine recovery builds no index either: after `recover_all` the
/// device has launched nothing, and the next step, which builds the
/// indexes, forecasts bitwise what a never-quarantined control does.
#[test]
fn quarantine_recovery_launches_nothing_until_the_next_step() {
    let dir = tmpdir("recover_lazy");
    let config = SmilerConfig::small_for_tests();
    let kind = PredictorKind::GaussianProcess;
    let device = Arc::new(Device::default_gpu());
    let (mut control, _) =
        SmilerSystem::new(Arc::new(Device::default_gpu()), histories(3, 320), config.clone(), kind);
    let (mut durable, _) = DurableSystem::create(
        Arc::clone(&device),
        histories(3, 320),
        config,
        kind,
        &dir,
        store_config(),
        0,
    )
    .expect("create");
    // Observe-only rounds teach nothing but the history, so the sensor
    // rebuilt from checkpoint + WAL is the control's sensor exactly.
    durable.system_mut().sensor_mut(1).inject_fault(smiler_core::FaultKind::PanicOnObserve);
    for r in 0..8 {
        durable.observe_all(&round_values(r, 3)).expect("durable observe");
        control.observe_all(&round_values(r, 3));
    }
    assert_eq!(durable.system().quarantined(), vec![1]);

    assert_eq!(durable.recover_all().expect("recovery"), vec![1]);
    assert_eq!(history_bits(durable.system(), 1), history_bits(&control, 1));
    assert_eq!((device.kernel_launches(), device.blocks_launched()), (0, 0), "recovery");

    let want = control.step(1, &round_values(8, 3));
    let got = durable.step(1, &round_values(8, 3)).expect("step after recovery");
    assert!(device.kernel_launches() > 0, "the step builds the indexes");
    for (s, (x, y)) in want.iter().zip(&got).enumerate() {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "sensor {s}: mean");
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "sensor {s}: variance");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Bitwise view of one sensor's history.
fn history_bits(system: &SmilerSystem, sensor: usize) -> Vec<u64> {
    system.sensor(sensor).history().iter().map(|v| v.to_bits()).collect()
}

/// A never-faulted control fleet and a durable twin at `dir` that run
/// `rounds` steps in lockstep, the twin's sensor 1 quarantined (through
/// the robust path) before round `quarantine_at`.
fn quarantined_run(
    dir: &std::path::Path,
    checkpoint_every: u64,
    quarantine_at: usize,
    rounds: usize,
) -> (SmilerSystem, DurableSystem) {
    let config = SmilerConfig::small_for_tests();
    let kind = PredictorKind::Aggregation;
    let device = || Arc::new(Device::default_gpu());
    let (mut control, _) = SmilerSystem::new(device(), histories(3, 320), config.clone(), kind);
    let (mut durable, _) = DurableSystem::create(
        device(),
        histories(3, 320),
        config,
        kind,
        dir,
        store_config(),
        checkpoint_every,
    )
    .expect("create");
    for r in 0..rounds {
        if r == quarantine_at {
            let system = durable.system_mut();
            system.sensor_mut(1).inject_fault(smiler_core::FaultKind::PanicOnPredict);
            let _ = system.predict_all_robust(1, &smiler_core::RequestPolicy::default());
            assert_eq!(system.quarantined(), vec![1]);
        }
        control.step(1, &round_values(r, 3));
        durable.step(1, &round_values(r, 3)).expect("step");
    }
    (control, durable)
}

/// Quarantine recovery goes through the store: `DurableSystem::recover_all`
/// rebuilds the sensor from the newest checkpoint plus the WAL tail, and
/// its history is the never-faulted control's, value for value — including
/// the rounds before the quarantine that a checkpoint taken while it was
/// fenced off (cadence 4: round 12 here) had to carry over.
#[test]
fn recover_all_reaches_the_store_rung() {
    let dir = tmpdir("ladder");
    let (control, mut durable) = quarantined_run(&dir, 4, 10, 14);
    assert_eq!(durable.recover_all().expect("recovery"), vec![1]);
    assert!(durable.system().quarantined().is_empty());
    assert_eq!(durable.system().sensor(1).history().len(), 320 + 14);
    assert_eq!(history_bits(durable.system(), 1), history_bits(&control, 1));
    // And keeps serving.
    let preds = durable.step(1, &round_values(14, 3)).expect("step after recovery");
    assert!(preds[1].0.is_finite());
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint taken while a sensor is quarantined persists that sensor
/// from checkpoint + WAL, never from a stale copy: after a restart its
/// history is the never-faulted control's, value for value.
#[test]
fn a_checkpoint_taken_while_quarantined_loses_nothing() {
    let dir = tmpdir("quarantine_ckpt");
    let (control, mut durable) = quarantined_run(&dir, 0, 10, 13);
    durable.checkpoint().expect("checkpoint while quarantined");
    drop(durable);

    let (restored, report) =
        DurableSystem::open(Arc::new(Device::default_gpu()), &dir, store_config(), 0)
            .expect("restart");
    assert_eq!((report.sensors, report.replayed_rounds), (3, 0));
    for s in 0..3 {
        assert_eq!(restored.system().sensor(s).history().len(), 320 + 13, "sensor {s}");
        assert_eq!(history_bits(restored.system(), s), history_bits(&control, s), "sensor {s}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A quarantine travels with the sensor through the serving handoff
/// (`into_parts` → `into_sensors` → `start_with_store`): the fenced
/// sensor is not served, and the drain checkpoint persists it from
/// checkpoint + WAL, never from its gapped live history. Sensor 1 gets no
/// observation after the handoff, so after a restart every sensor's
/// history is the never-faulted control's, value for value.
#[test]
fn quarantine_survives_the_serving_handoff() {
    let dir = tmpdir("handoff_quarantine");
    let config = SmilerConfig::small_for_tests();
    let kind = PredictorKind::Aggregation;
    let (mut control, _) =
        SmilerSystem::new(Arc::new(Device::default_gpu()), histories(3, 320), config.clone(), kind);
    let (mut durable, _) = DurableSystem::create(
        Arc::new(Device::default_gpu()),
        histories(3, 320),
        config,
        kind,
        &dir,
        store_config(),
        0,
    )
    .expect("create");
    durable.system_mut().sensor_mut(1).inject_fault(FaultKind::PanicOnObserve);
    for r in 0..4 {
        durable.observe_all(&round_values(r, 3)).expect("durable observe");
        control.observe_all(&round_values(r, 3));
    }
    assert_eq!(durable.system().quarantined(), vec![1]);

    let (system, store) = durable.into_parts();
    let server = SmilerServer::start_with_store(
        Arc::new(Device::default_gpu()),
        system.into_sensors(),
        ServeConfig { shards: 2, ..ServeConfig::default() },
        smiler_store::shared(store),
    );
    match server.handle().forecast(1, 1) {
        Err(ServeError::Fault(SensorFault::Quarantined { .. })) => {}
        other => panic!("a quarantined sensor must stay fenced after the handoff, got {other:?}"),
    }
    server.shutdown();

    let (restored, _) =
        DurableSystem::open(Arc::new(Device::default_gpu()), &dir, store_config(), 0)
            .expect("restart from the drained checkpoint");
    for s in 0..3 {
        assert_eq!(restored.system().sensor(s).history().len(), 320 + 4, "sensor {s}");
        assert_eq!(history_bits(restored.system(), s), history_bits(&control, s), "sensor {s}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A round whose horizon the fleet cannot forecast changes nothing: the
/// in-process step panics before any sensor is touched (no quarantine, no
/// observation absorbed), and the durable step is refused before the WAL
/// append, so the reopened fleet is the live one.
#[test]
fn out_of_range_horizon_round_changes_nothing() {
    let dir = tmpdir("horizon");
    let config = SmilerConfig::small_for_tests();
    let kind = PredictorKind::Aggregation;
    let (mut system, _) =
        SmilerSystem::new(Arc::new(Device::default_gpu()), histories(2, 300), config.clone(), kind);
    for h in [0, config.h_max + 1] {
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            system.step(h, &round_values(0, 2))
        }));
        assert!(step.is_err(), "horizon {h} was served");
        assert!(system.quarantined().is_empty(), "horizon {h} quarantined the fleet");
        assert!((0..2).all(|s| system.sensor(s).history().len() == 300), "horizon {h}");
    }

    let (mut durable, _) = DurableSystem::create(
        Arc::new(Device::default_gpu()),
        histories(2, 300),
        config.clone(),
        kind,
        &dir,
        store_config(),
        0,
    )
    .expect("create");
    durable.step(1, &round_values(0, 2)).expect("in-range round");
    for h in [0, config.h_max + 1] {
        match durable.step(h, &round_values(1, 2)) {
            Err(DurableError::Horizon { h: refused, h_max }) => {
                assert_eq!((refused, h_max), (h, config.h_max))
            }
            other => panic!("horizon {h}: {:?}", other.map(|_| ())),
        }
    }
    assert!(durable.system().quarantined().is_empty());
    let live: Vec<Vec<u64>> = (0..2).map(|s| history_bits(durable.system(), s)).collect();
    drop(durable);
    let (reopened, report) =
        DurableSystem::open(Arc::new(Device::default_gpu()), &dir, store_config(), 0)
            .expect("reopen");
    assert_eq!(report.replayed_rounds, 1, "only the in-range round reached the WAL");
    assert!(reopened.system().quarantined().is_empty());
    let replayed: Vec<Vec<u64>> = (0..2).map(|s| history_bits(reopened.system(), s)).collect();
    assert_eq!(replayed, live);
    let _ = fs::remove_dir_all(&dir);
}
