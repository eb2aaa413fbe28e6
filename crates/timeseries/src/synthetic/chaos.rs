//! Chaos scenarios: deterministic dirty-feed generators for the
//! adaptation layer's evaluation.
//!
//! Each scenario is a clean warm-up history plus a **live feed** of
//! per-tick observations that a harness replays through a predictor (or a
//! full [`SmilerServer`]): the observation stream carries the faults real
//! sensor fleets produce — regime drift, spike storms, stuck-at readings,
//! dropout bursts, silent sensor swaps — while a parallel `truth` track
//! records what the world was actually doing, so accuracy under chaos is
//! scoreable. Load spikes (request-side pressure, not data corruption)
//! live in the serving tests, not here.
//!
//! Everything is a pure function of the seed: two calls with the same
//! seed produce bitwise-identical feeds, which is what lets the chaos
//! bench prove its clean-workload invariance claim.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use rand::Rng;
use smiler_linalg::rng as srng;

/// The fault a scenario injects into the live feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosKind {
    /// No fault at all — the invariance baseline.
    Clean,
    /// A sustained level shift ramping in over a few ticks and holding:
    /// the world changed, the observations are honest.
    Drift,
    /// Isolated measurement spikes plus one dense storm window: the world
    /// did not change, the observations lie.
    SpikeStorm,
    /// The sensor freezes at its last reading for a window, then recovers.
    StuckAt,
    /// Bursts of missing ticks (transport outage): nothing arrives.
    DropoutBurst,
    /// The feed is silently rewired to a different sensor's profile
    /// (maintenance swap): new mean, amplitude and phase, honestly
    /// reported from the swap tick on.
    SensorSwap,
}

impl ChaosKind {
    /// Scenario name as it appears in bench output.
    pub fn name(self) -> &'static str {
        match self {
            ChaosKind::Clean => "clean",
            ChaosKind::Drift => "drift",
            ChaosKind::SpikeStorm => "spike_storm",
            ChaosKind::StuckAt => "stuck_at",
            ChaosKind::DropoutBurst => "dropout_burst",
            ChaosKind::SensorSwap => "sensor_swap",
        }
    }

    /// Every scenario, clean first.
    pub fn all() -> [ChaosKind; 6] {
        [
            ChaosKind::Clean,
            ChaosKind::Drift,
            ChaosKind::SpikeStorm,
            ChaosKind::StuckAt,
            ChaosKind::DropoutBurst,
            ChaosKind::SensorSwap,
        ]
    }
}

/// One generated scenario: warm-up history plus the live feed.
///
/// The live tracks are tick-aligned: index `t` is the tick `t + 1` ticks
/// after the end of `history`. `observed[t] == None` means the sample
/// never arrived (dropout); otherwise it is what the sensor reported,
/// which `corrupt[t]` flags as a lie (spike, stuck reading). `truth[t]`
/// is always the real state of the world, the scoring target.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Scenario name (same as `kind.name()`).
    pub name: &'static str,
    /// The injected fault.
    pub kind: ChaosKind,
    /// Seasonal period of the underlying signal, in ticks.
    pub period: usize,
    /// Clean warm-up history, raw units.
    pub history: Vec<f64>,
    /// Live observations; `None` = dropped tick.
    pub observed: Vec<Option<f64>>,
    /// Ground truth at every live tick.
    pub truth: Vec<f64>,
    /// Whether the delivered observation at each tick is a measurement
    /// fault (false wherever `observed` is `None` or honest).
    pub corrupt: Vec<bool>,
}

impl ChaosScenario {
    /// Number of live ticks.
    pub fn live_len(&self) -> usize {
        self.truth.len()
    }

    /// Ticks whose observation actually arrived.
    pub fn delivered(&self) -> usize {
        self.observed.iter().filter(|o| o.is_some()).count()
    }
}

/// Generation knobs shared by all scenarios.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// RNG seed; every scenario derives its own stream from it.
    pub seed: u64,
    /// Warm-up length in ticks.
    pub history_len: usize,
    /// Live-feed length in ticks.
    pub live_len: usize,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec { seed: 42, history_len: 432, live_len: 240 }
    }
}

impl ChaosSpec {
    /// A short instance for smoke tests.
    pub fn smoke(seed: u64) -> Self {
        ChaosSpec { seed, history_len: 432, live_len: 96 }
    }

    /// Generate every scenario.
    pub fn all(&self) -> Vec<ChaosScenario> {
        ChaosKind::all().iter().map(|&k| self.scenario(k)).collect()
    }

    /// Generate one scenario.
    pub fn scenario(&self, kind: ChaosKind) -> ChaosScenario {
        let mut rng = srng::seeded(self.seed ^ kind_tag(kind).wrapping_mul(0x9E37_79B9));
        let n = self.history_len + self.live_len;
        // The honest world: seasonal signal + weekly modulation + AR(1)
        // noise, in raw units (≈ car-park lots).
        let mut clean = Vec::with_capacity(n);
        let mut ar = 0.0;
        for i in 0..n {
            let x = i as f64 * std::f64::consts::TAU / PERIOD as f64;
            let week = i as f64 * std::f64::consts::TAU / (7 * PERIOD) as f64;
            ar = 0.7 * ar + 4.0 * srng::normal(&mut rng);
            clean.push(400.0 + 150.0 * x.sin() + 40.0 * week.sin() + ar);
        }
        let history = clean[..self.history_len].to_vec();
        let live_clean = &clean[self.history_len..];
        let m = self.live_len;

        let mut truth = live_clean.to_vec();
        let mut observed: Vec<Option<f64>> = live_clean.iter().map(|&v| Some(v)).collect();
        let mut corrupt = vec![false; m];

        match kind {
            ChaosKind::Clean => {}
            ChaosKind::Drift => {
                // Level shift of +180 ramping in over 20 ticks at m/3,
                // then holding: the regime changed for good.
                let onset = m / 3;
                for t in onset..m {
                    let ramp = ((t - onset) as f64 / 20.0).min(1.0);
                    truth[t] += 180.0 * ramp;
                    observed[t] = Some(truth[t]);
                }
            }
            ChaosKind::SpikeStorm => {
                // ~2% isolated spikes across the feed...
                for t in 0..m {
                    if rng.gen::<f64>() < 0.02 {
                        let sign = if rng.gen::<f64>() < 0.5 { -1.0 } else { 1.0 };
                        observed[t] = Some(truth[t] + sign * (200.0 + 150.0 * rng.gen::<f64>()));
                        corrupt[t] = true;
                    }
                }
                // ...plus one dense storm window mid-stream.
                let storm = m / 2;
                for t in storm..(storm + 8).min(m) {
                    let sign = if (t - storm) % 2 == 0 { 1.0 } else { -1.0 };
                    observed[t] = Some(truth[t] + sign * 260.0);
                    corrupt[t] = true;
                }
            }
            ChaosKind::StuckAt => {
                // The sensor freezes at its last honest reading for 60
                // ticks starting at m/3, then recovers.
                let onset = m / 3;
                let stuck =
                    if onset == 0 { history[self.history_len - 1] } else { truth[onset - 1] };
                for t in onset..(onset + 60).min(m) {
                    observed[t] = Some(stuck);
                    corrupt[t] = true;
                }
            }
            ChaosKind::DropoutBurst => {
                // Two transport outages: a short one and a long one.
                let first = m / 4;
                observed[first..(first + 12).min(m)].fill(None);
                let second = (2 * m) / 3;
                observed[second..(second + 30).min(m)].fill(None);
            }
            ChaosKind::SensorSwap => {
                // From m/3 on, the feed honestly reports a *different*
                // sensor: new mean, amplitude and phase.
                let onset = m / 3;
                for t in onset..m {
                    let i = self.history_len + t;
                    let x = i as f64 * std::f64::consts::TAU / PERIOD as f64
                        + std::f64::consts::FRAC_PI_2;
                    truth[t] = 600.0 + 220.0 * x.sin() + 3.0 * srng::normal(&mut rng);
                    observed[t] = Some(truth[t]);
                }
            }
        }

        ChaosScenario { name: kind.name(), kind, period: PERIOD, history, observed, truth, corrupt }
    }
}

/// Seasonal period of the chaos signal, in ticks.
const PERIOD: usize = 24;

fn kind_tag(kind: ChaosKind) -> u64 {
    match kind {
        ChaosKind::Clean => 1,
        ChaosKind::Drift => 2,
        ChaosKind::SpikeStorm => 3,
        ChaosKind::StuckAt => 4,
        ChaosKind::DropoutBurst => 5,
        ChaosKind::SensorSwap => 6,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = ChaosSpec::default();
        for kind in ChaosKind::all() {
            assert_eq!(spec.scenario(kind), spec.scenario(kind), "{}", kind.name());
        }
    }

    #[test]
    fn tracks_are_tick_aligned() {
        let spec = ChaosSpec::default();
        for s in spec.all() {
            assert_eq!(s.history.len(), spec.history_len, "{}", s.name);
            assert_eq!(s.truth.len(), spec.live_len);
            assert_eq!(s.observed.len(), spec.live_len);
            assert_eq!(s.corrupt.len(), spec.live_len);
            assert!(s.history.iter().all(|v| v.is_finite()));
            assert!(s.truth.iter().all(|v| v.is_finite()));
            assert!(s.observed.iter().flatten().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn clean_scenario_is_honest_and_complete() {
        let s = ChaosSpec::default().scenario(ChaosKind::Clean);
        assert_eq!(s.delivered(), s.live_len());
        assert!(!s.corrupt.iter().any(|&c| c));
        for (o, t) in s.observed.iter().zip(&s.truth) {
            assert_eq!(o.unwrap(), *t);
        }
    }

    #[test]
    fn drift_shifts_the_truth_honestly() {
        let s = ChaosSpec::default().scenario(ChaosKind::Drift);
        let clean = ChaosSpec::default().scenario(ChaosKind::Clean);
        // Same world before the onset, +180 after the ramp completes.
        let onset = s.live_len() / 3;
        let late: f64 =
            s.truth[onset + 20..].iter().sum::<f64>() / (s.live_len() - onset - 20) as f64;
        let late_clean: f64 =
            clean.truth[onset + 20..].iter().sum::<f64>() / (clean.live_len() - onset - 20) as f64;
        assert!((late - late_clean - 180.0).abs() < 60.0, "shift {}", late - late_clean);
        assert!(!s.corrupt.iter().any(|&c| c), "drift observations are honest");
    }

    #[test]
    fn spike_storm_lies_but_truth_stays_clean() {
        let s = ChaosSpec::default().scenario(ChaosKind::SpikeStorm);
        let spikes = s.corrupt.iter().filter(|&&c| c).count();
        assert!(spikes >= 8, "storm window alone is 8 spikes, got {spikes}");
        for t in 0..s.live_len() {
            if s.corrupt[t] {
                let lie = (s.observed[t].unwrap() - s.truth[t]).abs();
                assert!(lie >= 150.0, "tick {t}: spike magnitude {lie}");
            }
        }
    }

    #[test]
    fn stuck_at_is_constant_through_the_window() {
        let s = ChaosSpec::default().scenario(ChaosKind::StuckAt);
        let stuck: Vec<f64> =
            (0..s.live_len()).filter(|&t| s.corrupt[t]).map(|t| s.observed[t].unwrap()).collect();
        assert_eq!(stuck.len(), 60);
        assert!(stuck.windows(2).all(|w| w[0] == w[1]), "stuck window must be flat");
    }

    #[test]
    fn dropout_drops_the_advertised_ticks() {
        let spec = ChaosSpec::default();
        let s = spec.scenario(ChaosKind::DropoutBurst);
        assert_eq!(s.live_len() - s.delivered(), 12 + 30);
        assert!(!s.corrupt.iter().any(|&c| c), "dropped ticks are absent, not lies");
    }

    #[test]
    fn sensor_swap_changes_the_profile() {
        let s = ChaosSpec::default().scenario(ChaosKind::SensorSwap);
        let onset = s.live_len() / 3;
        let before: f64 = s.truth[..onset].iter().sum::<f64>() / onset as f64;
        let after: f64 = s.truth[onset..].iter().sum::<f64>() / (s.live_len() - onset) as f64;
        assert!(after - before > 100.0, "swap must move the level: {before} → {after}");
        assert!(!s.corrupt.iter().any(|&c| c), "swapped feed is honest about the new sensor");
    }

    #[test]
    fn smoke_spec_is_smaller_but_complete() {
        let spec = ChaosSpec::smoke(7);
        assert_eq!(spec.all().len(), ChaosKind::all().len());
        assert!(spec.live_len < ChaosSpec::default().live_len);
    }
}
