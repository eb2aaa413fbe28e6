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
//!
//! [`Adaptation`] owns the whole regime-side policy of one sensor: the
//! detector, the outlier-cleaning gates and the post-changepoint bias
//! corrector. The predictor only asks it to [`Adaptation::judge`] an
//! arriving value and acts on the [`Judgement`] (DESIGN §14).

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Configuration of the per-sensor regime detector.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
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

/// Integral gain of the post-changepoint bias corrector: the fraction of
/// each served one-step residual folded into the correction.
const BIAS_GAIN: f64 = 0.35;
/// Per-step cap on a single bias increment (normalised units), so one
/// spiked observation cannot yank the correction.
const BIAS_STEP_CAP: f64 = 0.3;
/// How many scored steps the corrector stays in its adaptation phase
/// after a changepoint before bleeding off.
const BIAS_WINDOW: usize = 64;
/// Multiplicative bleed-off once the adaptation window expires.
const BIAS_DECAY: f64 = 0.8;
/// Longest run of outlier observations that will be cleaned (clipped to
/// the forecast band) before raw values pass through again: an isolated
/// glitch is absorbed, a sustained change is not masked.
const MAX_CONSECUTIVE_CLEANS: usize = 3;

/// What [`Adaptation::judge`] made of one arriving value.
#[derive(Debug)]
pub(crate) struct Judgement {
    /// The value as the sensor reported it.
    pub(crate) raw: f64,
    /// The one-step forecast `(mean, variance)` this value realised; `None`
    /// when none was pending for it or the value is not finite.
    pub(crate) scored: Option<(f64, f64)>,
    /// What the detector made of the standardized residual.
    pub(crate) event: Option<RegimeEvent>,
    /// The value the history will hold: `raw`, or `raw` clipped to the
    /// forecast's `z_outlier` band when the clean gates let it be cleaned.
    pub(crate) entered: f64,
}

/// The regime-side state and policy of one sensor: the detector, the
/// pending one-step forecast it scores, the outlier-cleaning gates and the
/// post-changepoint bias corrector. Every mechanism is event-gated, so a
/// disabled (or quiet) detector leaves forecasts bitwise unchanged.
#[derive(Debug)]
pub(crate) struct Adaptation {
    detector: RegimeDetector,
    /// The most recent `h = 1` forecast awaiting its realisation:
    /// `(target series length, mean, variance)`.
    pending_one_step: Option<(usize, f64, f64)>,
    /// Post-changepoint residual bias (integral controller), added to
    /// ensemble-path forecast means while the kNN neighbourhood still
    /// reflects the old regime; exactly `0.0` unless a changepoint fired.
    bias: f64,
    /// Steps of active bias adaptation remaining (0 = corrector idle; the
    /// accumulated bias then bleeds off multiplicatively).
    bias_steps: usize,
    /// Length of the current run of cleaned values.
    consecutive_cleans: usize,
    /// The previous raw observation (pre-cleaning): an outlier that
    /// exactly repeats it is a stuck-at symptom, never cleaned.
    last_raw: f64,
}

impl Adaptation {
    pub(crate) fn new(config: RegimeConfig) -> Self {
        Adaptation {
            detector: RegimeDetector::new(config),
            pending_one_step: None,
            bias: 0.0,
            bias_steps: 0,
            consecutive_cleans: 0,
            last_raw: f64::NAN,
        }
    }

    pub(crate) fn snapshot(&self) -> RegimeSnapshot {
        self.detector.snapshot()
    }

    /// See [`RegimeDetector::holdoff`].
    pub(crate) fn holdoff(&mut self, steps: usize) {
        self.detector.holdoff(steps);
    }

    /// Remember a fresh one-step forecast so the value that brings the
    /// series to length `target` can be scored against it.
    pub(crate) fn record_forecast(&mut self, target: usize, mean: f64, variance: f64) {
        self.pending_one_step = Some((target, mean, variance));
    }

    /// A fused ensemble mean re-centred by the bias corrector. The bias is
    /// exactly `0.0` unless a changepoint fired, so clean workloads come
    /// back bitwise untouched.
    pub(crate) fn debias(&self, mean: f64) -> f64 {
        if self.bias != 0.0 {
            mean + self.bias
        } else {
            mean
        }
    }

    /// Discard the bias: a stuck sensor's residuals describe the fault,
    /// not a regime.
    pub(crate) fn forget_bias(&mut self) {
        self.bias = 0.0;
        self.bias_steps = 0;
    }

    /// Score the value that brings the series to length `arriving` against
    /// the pending one-step forecast (a stale one is dropped), feed the
    /// standardized residual to the detector and decide what enters the
    /// history.
    ///
    /// An outlier is cleaned — clipped to the forecast's `z_outlier` band,
    /// so a spike cannot poison the query suffix and every neighbourhood
    /// that will ever retrieve it — only while three gates hold: the
    /// detector is armed (in cooldown or holdoff it is saying residuals
    /// cannot be trusted), the value is not an exact repeat of the previous
    /// one (a stuck-at signature, not a spike), and the run of cleaned
    /// values is shorter than [`MAX_CONSECUTIVE_CLEANS`] (past that the
    /// "glitch" hypothesis lost: the world changed or the sensor is stuck).
    pub(crate) fn judge(&mut self, arriving: usize, raw: f64) -> Judgement {
        let scored = match self.pending_one_step.take() {
            Some((target, mean, variance)) if target == arriving && raw.is_finite() => {
                Some((mean, variance))
            }
            _ => None,
        };
        let mut judgement = Judgement { raw, scored, event: None, entered: raw };
        if !self.detector.enabled() {
            return judgement;
        }
        if let Some((mean, variance)) = scored {
            let armed = self.detector.snapshot().cooldown_remaining == 0;
            let sigma = variance.max(0.0).sqrt().max(1e-12);
            judgement.event = self.detector.observe_z((raw - mean) / sigma);
            match judgement.event {
                Some(RegimeEvent::Outlier { z }) => {
                    if armed
                        && raw != self.last_raw
                        && self.consecutive_cleans < MAX_CONSECUTIVE_CLEANS
                    {
                        self.consecutive_cleans += 1;
                        let clip = self.detector.config().z_outlier * sigma;
                        judgement.entered = mean + (raw - mean).clamp(-clip, clip);
                        smiler_obs::count("regime.cleaned", "", 1);
                    }
                    if smiler_obs::enabled() {
                        smiler_obs::count("regime.outliers", "", 1);
                        smiler_obs::observe("regime.outlier_z", "", z.abs());
                    }
                }
                _ => self.consecutive_cleans = 0,
            }
        }
        self.last_raw = raw;
        judgement
    }

    /// The bias corrector's update for a scored value: during the
    /// post-changepoint window fold the residual (capped) into the bias —
    /// unless it was an outlier, a glitch rather than the new level — and
    /// once the window expires bleed the correction off to exactly zero.
    /// Both branches are unreachable until a changepoint arms the corrector.
    pub(crate) fn steer_bias(&mut self, judgement: &Judgement) {
        let Some((mean, _)) = judgement.scored else { return };
        if self.bias_steps > 0 {
            self.bias_steps -= 1;
            if !matches!(judgement.event, Some(RegimeEvent::Outlier { .. })) {
                self.bias +=
                    (BIAS_GAIN * (judgement.raw - mean)).clamp(-BIAS_STEP_CAP, BIAS_STEP_CAP);
            }
            if smiler_obs::enabled() {
                smiler_obs::gauge_set("regime.bias", "", self.bias);
            }
        } else if self.bias != 0.0 {
            self.bias *= BIAS_DECAY;
            if self.bias.abs() < 1e-9 {
                self.bias = 0.0;
            }
        }
    }

    /// Arm (or re-arm) the bias corrector after a changepoint. The
    /// accumulated correction is kept: a second changepoint mid-relocation
    /// extends the window rather than discarding what was learned.
    pub(crate) fn arm_bias(&mut self) {
        self.bias_steps = BIAS_WINDOW;
    }

    #[cfg(test)]
    pub(crate) fn bias(&self) -> f64 {
        self.bias
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

    /// The clean gates, one row per rule. Every value is scored against a
    /// `N(0, 1)` forecast, so a cleaned outlier (|z| > 5) enters as ±5.
    /// Outliers alternate in sign so the CUSUM never fires on them.
    #[test]
    fn judge_applies_the_clean_gates() {
        let (on, off) = (RegimeConfig::enabled(), RegimeConfig::default());
        // (case, detector, holdoff before the first value, raw values,
        //  entered values, changepoints declared)
        type Case = (&'static str, RegimeConfig, usize, &'static [f64], &'static [f64], u64);
        let cases: [Case; 6] = [
            (
                "three distinct outliers are cleaned, the fourth enters raw",
                on,
                0,
                &[10.0, -10.0, 11.0, -11.0],
                &[5.0, -5.0, 5.0, -11.0],
                0,
            ),
            (
                "a non-outlier resets the run",
                on,
                0,
                &[10.0, -10.0, 0.5, 11.0, -11.0, 12.0],
                &[5.0, -5.0, 0.5, 5.0, -5.0, 5.0],
                0,
            ),
            (
                "an exact repeat of the last raw value is never cleaned",
                on,
                0,
                &[10.0, 10.0, -10.0],
                &[5.0, 10.0, -5.0],
                0,
            ),
            ("holdoff stands cleaning down", on, 2, &[10.0, -10.0, 11.0], &[10.0, -10.0, 5.0], 0),
            (
                // (3 − 0.75) per step crosses 14 on the seventh value.
                "post-changepoint cooldown stands cleaning down",
                on,
                0,
                &[3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 10.0],
                &[3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 10.0],
                1,
            ),
            (
                "a disabled detector enters raw values",
                off,
                0,
                &[10.0, -10.0, 11.0, -11.0],
                &[10.0, -10.0, 11.0, -11.0],
                0,
            ),
        ];
        for (case, config, holdoff, raws, entered, changepoints) in cases {
            let mut a = Adaptation::new(config);
            a.holdoff(holdoff);
            for (i, (&raw, &want)) in raws.iter().zip(entered).enumerate() {
                a.record_forecast(i, 0.0, 1.0);
                let j = a.judge(i, raw);
                assert_eq!(j.scored, Some((0.0, 1.0)), "{case}: value {i} scored");
                assert_eq!(j.entered, want, "{case}: value {i} entered");
            }
            assert_eq!(a.snapshot().changepoints, changepoints, "{case}");
            if !config.enabled {
                let fresh = Adaptation::new(config);
                assert_eq!(format!("{a:?}"), format!("{fresh:?}"), "{case}: state untouched");
            }
        }
    }
}
