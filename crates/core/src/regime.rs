//! Online regime detection on the one-step residual stream.
//!
//! SMiLer's ensemble adapts through likelihood smoothing (Eqns 8–9) and a
//! sleep schedule whose spans *double* for chronic under-performers — fine
//! for stationary noise, glacial after a genuine regime change: cells that
//! were right for the old regime keep their weight for many steps, and
//! asleep cells that would fit the new regime stay benched until their
//! span expires. The detector here closes that gap, following the
//! streaming-GP regimes-and-outliers treatment: a two-sided CUSUM over the
//! *standardized* one-step residuals `z = (value − mean)/σ` (the same
//! forecasts [`crate::predictor::QualityStats`] already scores). When the
//! statistic crosses its threshold the sensor declares a **changepoint**
//! and the predictor reacts — λ reset to uniform, every cell woken, GP
//! retrain forced — instead of waiting out the schedule.
//!
//! Outliers are handled separately: a single `|z| > z_outlier` spike is
//! *counted and clipped* before feeding the CUSUM, so an isolated
//! measurement glitch cannot fire a changepoint by itself — only a
//! *sustained* shift accumulates. The clip bounds each step's CUSUM
//! contribution at `z_outlier − drift`.
//!
//! The detector is **quiescent by default** (`enabled: false`): it holds
//! no state, touches no counters, and leaves every prediction bitwise
//! unchanged — proven by the chaos bench's clean-workload invariance
//! check.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Configuration of the per-sensor regime detector.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct RegimeConfig {
    /// Whether the detector runs at all. `false` (the default) is the
    /// pre-adaptation system, bit for bit.
    pub enabled: bool,
    /// CUSUM drift allowance `k`: per-step slack subtracted from `|z|`
    /// before accumulating. Residual drifts below `k·σ` never fire.
    pub drift: f64,
    /// CUSUM fire threshold `h`: the accumulated standardized drift that
    /// declares a changepoint.
    pub threshold: f64,
    /// Standardized-residual magnitude beyond which a step counts as an
    /// outlier and is clipped before entering the CUSUM.
    pub z_outlier: f64,
    /// Steps after a changepoint during which the detector re-arms
    /// (residuals are absorbed without firing) — the retrained model needs
    /// a few steps before its residuals mean anything.
    pub cooldown: usize,
}

impl Default for RegimeConfig {
    fn default() -> Self {
        // Tuned on the chaos suite: real one-step residuals are
        // autocorrelated (the model can never fully absorb AR noise or
        // slow seasonal components it has too little history to learn),
        // so the textbook (k=0.5, h=8) CUSUM false-alarms on workloads a
        // human would call clean. The wider allowance keeps the detector
        // quiescent on the clean chaos feed while still firing within a
        // handful of ticks on genuine level shifts.
        RegimeConfig { enabled: false, drift: 0.75, threshold: 14.0, z_outlier: 5.0, cooldown: 16 }
    }
}

impl RegimeConfig {
    /// The detector with default thresholds switched on.
    pub fn enabled() -> Self {
        RegimeConfig { enabled: true, ..Default::default() }
    }
}

// Hand-written so checkpoints from before the adaptation layer — where the
// field is absent and reads as null — decode to the disabled default
// instead of failing. (The vendored serde shim's derive has no
// `#[serde(default)]`.) Unknown/missing individual fields also default.
impl serde::Deserialize for RegimeConfig {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let mut out = RegimeConfig::default();
        let map = match content {
            serde::Content::Null => return Ok(out),
            other => other.as_map().ok_or_else(|| {
                serde::DeError::custom(format!("expected map for RegimeConfig, got {other:?}"))
            })?,
        };
        for (key, value) in map {
            match key.as_str() {
                "enabled" => {
                    out.enabled = value.as_bool().ok_or_else(|| {
                        serde::DeError::custom("RegimeConfig.enabled: expected bool")
                    })?;
                }
                "drift" => {
                    out.drift = value.as_f64().ok_or_else(|| {
                        serde::DeError::custom("RegimeConfig.drift: expected number")
                    })?;
                }
                "threshold" => {
                    out.threshold = value.as_f64().ok_or_else(|| {
                        serde::DeError::custom("RegimeConfig.threshold: expected number")
                    })?;
                }
                "z_outlier" => {
                    out.z_outlier = value.as_f64().ok_or_else(|| {
                        serde::DeError::custom("RegimeConfig.z_outlier: expected number")
                    })?;
                }
                "cooldown" => {
                    out.cooldown = value.as_u64().ok_or_else(|| {
                        serde::DeError::custom("RegimeConfig.cooldown: expected integer")
                    })? as usize;
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

/// What one scored residual told the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegimeEvent {
    /// An isolated outlier: `|z|` exceeded `z_outlier`. Clipped before the
    /// CUSUM — no adaptation, just bookkeeping (and robust-likelihood
    /// fodder).
    Outlier {
        /// The standardized residual that tripped the outlier rule.
        z: f64,
    },
    /// A sustained shift: the CUSUM crossed its threshold. The predictor
    /// must adapt (λ reset, wake all cells, force retrain).
    Changepoint {
        /// The CUSUM statistic at firing time.
        statistic: f64,
    },
}

/// Point-in-time view of a detector (status surface + tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct RegimeSnapshot {
    /// Upward CUSUM statistic `S⁺`.
    pub s_pos: f64,
    /// Downward CUSUM statistic `S⁻`.
    pub s_neg: f64,
    /// Changepoints declared over the sensor's lifetime.
    pub changepoints: u64,
    /// Outliers counted over the sensor's lifetime.
    pub outliers: u64,
    /// Steps of re-arm cooldown remaining (0 = armed).
    pub cooldown_remaining: usize,
}

/// Two-sided CUSUM changepoint detector with outlier clipping.
#[derive(Debug, Clone)]
pub struct RegimeDetector {
    config: RegimeConfig,
    s_pos: f64,
    s_neg: f64,
    cooldown_remaining: usize,
    changepoints: u64,
    outliers: u64,
}

impl RegimeDetector {
    /// A detector in its armed, zero-statistic state.
    pub fn new(config: RegimeConfig) -> Self {
        RegimeDetector {
            config,
            s_pos: 0.0,
            s_neg: 0.0,
            cooldown_remaining: 0,
            changepoints: 0,
            outliers: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RegimeConfig {
        &self.config
    }

    /// Whether the detector participates at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Current state (status surface + tests).
    pub fn snapshot(&self) -> RegimeSnapshot {
        RegimeSnapshot {
            s_pos: self.s_pos,
            s_neg: self.s_neg,
            changepoints: self.changepoints,
            outliers: self.outliers,
            cooldown_remaining: self.cooldown_remaining,
        }
    }

    /// Stand the detector down for at least `steps` scored residuals and
    /// void the accumulated statistics. Called by the ingestion layer when
    /// it fabricates data (interpolated gap fills, dropout missing-marks):
    /// residuals scored against values that never happened are transport
    /// artifacts, not evidence of a regime change. No-op when disabled.
    pub fn holdoff(&mut self, steps: usize) {
        if !self.config.enabled {
            return;
        }
        self.s_pos = 0.0;
        self.s_neg = 0.0;
        self.cooldown_remaining = self.cooldown_remaining.max(steps);
    }

    /// Absorb one standardized one-step residual. Returns the event the
    /// residual triggered, if any. Disabled detectors absorb nothing and
    /// always return `None`.
    pub fn observe_z(&mut self, z: f64) -> Option<RegimeEvent> {
        if !self.config.enabled || !z.is_finite() {
            return None;
        }
        // Outlier rule first: count and clip so an isolated spike bounds
        // its own CUSUM contribution.
        let mut event = None;
        let z_clipped = if z.abs() > self.config.z_outlier {
            self.outliers += 1;
            event = Some(RegimeEvent::Outlier { z });
            z.signum() * self.config.z_outlier
        } else {
            z
        };
        self.s_pos = (self.s_pos + z_clipped - self.config.drift).max(0.0);
        self.s_neg = (self.s_neg - z_clipped - self.config.drift).max(0.0);
        if self.cooldown_remaining > 0 {
            // Re-arming: keep accumulating so a shift that *persists*
            // through the cooldown fires again promptly, but do not fire.
            self.cooldown_remaining -= 1;
            return event;
        }
        let statistic = self.s_pos.max(self.s_neg);
        if statistic > self.config.threshold {
            self.s_pos = 0.0;
            self.s_neg = 0.0;
            self.cooldown_remaining = self.config.cooldown;
            self.changepoints += 1;
            return Some(RegimeEvent::Changepoint { statistic });
        }
        event
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn armed() -> RegimeDetector {
        RegimeDetector::new(RegimeConfig::enabled())
    }

    #[test]
    fn disabled_detector_is_inert() {
        let mut d = RegimeDetector::new(RegimeConfig::default());
        for _ in 0..100 {
            assert_eq!(d.observe_z(50.0), None);
        }
        assert_eq!(d.snapshot(), RegimeSnapshot::default());
    }

    #[test]
    fn small_residuals_never_fire() {
        let mut d = armed();
        for i in 0..500 {
            let z = if i % 2 == 0 { 0.4 } else { -0.4 };
            assert_eq!(d.observe_z(z), None, "step {i}");
        }
        let s = d.snapshot();
        assert_eq!(s.changepoints, 0);
        assert_eq!(s.outliers, 0);
    }

    #[test]
    fn sustained_shift_fires_a_changepoint() {
        let mut d = armed();
        let mut fired_at = None;
        for i in 0..50 {
            if let Some(RegimeEvent::Changepoint { statistic }) = d.observe_z(2.0) {
                assert!(statistic > d.config().threshold);
                fired_at = Some(i);
                break;
            }
        }
        // (2.0 − 0.75) per step ⇒ crosses 14.0 on the 12th residual.
        assert_eq!(fired_at, Some(11));
        assert_eq!(d.snapshot().changepoints, 1);
        assert_eq!(d.snapshot().cooldown_remaining, d.config().cooldown);
    }

    #[test]
    fn downward_shift_fires_too() {
        let mut d = armed();
        let fired =
            (0..50).any(|_| matches!(d.observe_z(-2.0), Some(RegimeEvent::Changepoint { .. })));
        assert!(fired);
    }

    #[test]
    fn isolated_spikes_count_as_outliers_not_changepoints() {
        let mut d = armed();
        for round in 0..20 {
            // One huge spike...
            match d.observe_z(60.0) {
                Some(RegimeEvent::Outlier { z }) => assert_eq!(z, 60.0),
                other => panic!("round {round}: expected outlier, got {other:?}"),
            }
            // ...surrounded by quiet steps that bleed the statistic off.
            for _ in 0..8 {
                let e = d.observe_z(0.0);
                assert!(
                    !matches!(e, Some(RegimeEvent::Changepoint { .. })),
                    "round {round}: spike alone must not fire"
                );
            }
        }
        let s = d.snapshot();
        assert_eq!(s.outliers, 20);
        assert_eq!(s.changepoints, 0);
    }

    #[test]
    fn spike_storm_is_a_changepoint_eventually() {
        // Back-to-back outliers *are* a sustained shift: each clipped
        // contribution is z_outlier − drift, so the CUSUM still climbs.
        let mut d = armed();
        let fired =
            (0..10).any(|_| matches!(d.observe_z(30.0), Some(RegimeEvent::Changepoint { .. })));
        assert!(fired, "a storm of spikes must eventually fire");
        assert!(d.snapshot().outliers >= 2);
    }

    #[test]
    fn cooldown_suppresses_refiring_then_rearms() {
        let mut d = armed();
        while !matches!(d.observe_z(2.0), Some(RegimeEvent::Changepoint { .. })) {}
        let cooldown = d.config().cooldown;
        // Residuals keep shifting during the cooldown: no second fire.
        for i in 0..cooldown {
            assert!(
                !matches!(d.observe_z(2.0), Some(RegimeEvent::Changepoint { .. })),
                "step {i} inside cooldown fired"
            );
        }
        // Armed again: the still-shifted stream fires promptly.
        let refired =
            (0..10).any(|_| matches!(d.observe_z(2.0), Some(RegimeEvent::Changepoint { .. })));
        assert!(refired);
        assert_eq!(d.snapshot().changepoints, 2);
    }

    #[test]
    fn holdoff_voids_evidence_and_stands_down() {
        let mut d = armed();
        // Almost at the threshold...
        for _ in 0..5 {
            d.observe_z(2.0);
        }
        assert!(d.snapshot().s_pos > 0.0);
        d.holdoff(10);
        let s = d.snapshot();
        assert_eq!((s.s_pos, s.s_neg), (0.0, 0.0), "statistics voided");
        assert_eq!(s.cooldown_remaining, 10);
        // Shifted residuals during the holdoff cannot fire...
        for _ in 0..10 {
            assert!(!matches!(d.observe_z(3.0), Some(RegimeEvent::Changepoint { .. })));
        }
        // ...but a shift that persists past it still does.
        let fired =
            (0..10).any(|_| matches!(d.observe_z(3.0), Some(RegimeEvent::Changepoint { .. })));
        assert!(fired);
    }

    #[test]
    fn holdoff_on_disabled_detector_is_inert() {
        let mut d = RegimeDetector::new(RegimeConfig::default());
        d.holdoff(50);
        assert_eq!(d.snapshot(), RegimeSnapshot::default());
    }

    #[test]
    fn non_finite_residuals_are_dropped() {
        let mut d = armed();
        assert_eq!(d.observe_z(f64::NAN), None);
        assert_eq!(d.observe_z(f64::INFINITY), None);
        assert_eq!(d.snapshot(), RegimeSnapshot::default());
    }
}
