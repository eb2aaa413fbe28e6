//! Graceful degradation for the serving path.
//!
//! A prediction system deployed as infrastructure must degrade rather than
//! fail: a malformed observation, a non-PD Gram matrix or a blown latency
//! budget on one sensor must never take the fleet down. This module defines
//! the per-request **degradation ladder** — each rung trades accuracy for
//! latency and robustness — together with the request policy that drives
//! rung selection and the typed errors the serving path returns instead of
//! panicking.
//!
//! The ladder, least to most degraded:
//!
//! 1. [`DegradationLevel::FullEnsemble`] — the paper's full pipeline:
//!    suffix kNN search, per-column online GP hyperparameter training,
//!    ensemble fusion.
//! 2. [`DegradationLevel::CachedHyper`] — search and GP inference run, but
//!    hyperparameter (re)training is skipped: each column reuses its last
//!    trained hyperparameters (columns never trained fall back to
//!    aggregation).
//! 3. [`DegradationLevel::Aggregation`] — search runs, but every cell
//!    predicts by aggregation over the kNN labels (no GP math at all).
//! 4. [`DegradationLevel::LastValue`] — no search: hold the last finite
//!    observation with a wide variance.
//!
//! Rung selection combines the caller's deadline budget (checkpointed at
//! request entry and after the search step) with the sensor's recent error
//! state (consecutive GP failures park the sensor on aggregation for a
//! cooldown period).

use smiler_index::SearchError;
use std::time::Duration;

/// One rung of the degradation ladder. Ordered: a *greater* level is *more*
/// degraded, so `a.max(b)` means "at least as degraded as both".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize)]
pub enum DegradationLevel {
    /// Full pipeline: search + online GP training + ensemble fusion.
    FullEnsemble,
    /// Search + GP inference with cached hyperparameters (no retraining).
    CachedHyper,
    /// Search + aggregation over kNN labels (no GP).
    Aggregation,
    /// Last finite observation held, wide variance (no search).
    LastValue,
}

impl DegradationLevel {
    /// Every rung, least to most degraded; position i satisfies
    /// `ALL[i].index() == i`. Lets telemetry keep dense per-rung arrays.
    pub const ALL: [DegradationLevel; 4] = [
        DegradationLevel::FullEnsemble,
        DegradationLevel::CachedHyper,
        DegradationLevel::Aggregation,
        DegradationLevel::LastValue,
    ];

    /// Dense index of the rung (0 = full ensemble … 3 = last value).
    pub fn index(self) -> usize {
        match self {
            DegradationLevel::FullEnsemble => 0,
            DegradationLevel::CachedHyper => 1,
            DegradationLevel::Aggregation => 2,
            DegradationLevel::LastValue => 3,
        }
    }

    /// Stable label for metrics and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradationLevel::FullEnsemble => "full_ensemble",
            DegradationLevel::CachedHyper => "cached_hyper",
            DegradationLevel::Aggregation => "aggregation",
            DegradationLevel::LastValue => "last_value",
        }
    }

    /// The more degraded of the two rungs.
    pub fn at_least(self, other: DegradationLevel) -> DegradationLevel {
        self.max(other)
    }

    /// The entry rung a serving queue at `depth`/`capacity` should impose:
    /// below half full nothing degrades, then each quarter of remaining
    /// headroom steps one rung down the ladder. A full (or zero-capacity)
    /// queue maps to the last-value hold — the same rung shed callers are
    /// told to fall back to ([`ServeError::shed_level`]).
    ///
    /// [`ServeError::shed_level`]: crate::serve::ServeError::shed_level
    pub fn for_queue_pressure(depth: usize, capacity: usize) -> DegradationLevel {
        if capacity == 0 || depth >= capacity {
            DegradationLevel::LastValue
        } else if depth * 2 < capacity {
            DegradationLevel::FullEnsemble
        } else if depth * 4 < capacity * 3 {
            DegradationLevel::CachedHyper
        } else {
            DegradationLevel::Aggregation
        }
    }
}

/// After this many consecutive steps with GP failures, the sensor is parked
/// on [`DegradationLevel::Aggregation`] for [`GP_COOLDOWN_STEPS`] steps.
pub(crate) const GP_FAILURE_THRESHOLD: u32 = 3;
/// Length of the aggregation cooldown after repeated GP failures.
pub(crate) const GP_COOLDOWN_STEPS: u32 = 8;

/// Per-request serving policy: how much latency the request may spend and
/// which rung it may start from.
///
/// The default policy (no deadline, full ensemble) makes the robust path
/// bit-identical to the original pipeline on healthy sensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestPolicy {
    /// Wall-clock budget for one prediction request. Checkpoints: already
    /// exhausted at entry → [`DegradationLevel::LastValue`]; exhausted
    /// after the search step → [`DegradationLevel::Aggregation`]; more
    /// than half spent after the search step →
    /// [`DegradationLevel::CachedHyper`]. `None` disables deadline
    /// degradation.
    pub deadline: Option<Duration>,
    /// The least degraded rung this request may use (callers can force a
    /// cheap prediction by starting further down the ladder).
    pub entry_level: DegradationLevel,
}

impl Default for RequestPolicy {
    fn default() -> Self {
        RequestPolicy { deadline: None, entry_level: DegradationLevel::FullEnsemble }
    }
}

impl RequestPolicy {
    /// The default policy with a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        RequestPolicy { deadline: Some(deadline), ..RequestPolicy::default() }
    }
}

/// A served prediction: the forecast plus how it was produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted mean.
    pub mean: f64,
    /// Predicted variance.
    pub variance: f64,
    /// The ladder rung that produced the forecast.
    pub level: DegradationLevel,
    /// Whether the request finished past its deadline (degradation bounds
    /// the overrun; it cannot cancel work already in flight).
    pub deadline_missed: bool,
    /// Wall-clock time the request took.
    pub elapsed: Duration,
}

impl Prediction {
    /// Whether the forecast came from anything below the full pipeline.
    pub fn degraded(&self) -> bool {
        self.level != DegradationLevel::FullEnsemble
    }
}

/// Typed errors of the fallible serving path — returned where the legacy
/// API panicked. A returned error means even the bottom of the ladder
/// could not produce a forecast (or the caller broke the contract).
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// The requested horizon is zero or exceeds the configured `h_max`.
    HorizonOutOfRange {
        /// The requested horizon.
        h: usize,
        /// The largest configured horizon.
        h_max: usize,
    },
    /// The suffix kNN search failed and the failure was not degradable
    /// (e.g. caller bookkeeping passed an out-of-range candidate bound).
    Search(SearchError),
    /// The history holds no finite value to fall back on.
    NoFiniteHistory,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::HorizonOutOfRange { h, h_max } => {
                write!(f, "horizon {h} out of configured range 1..={h_max}")
            }
            PredictError::Search(e) => write!(f, "suffix kNN search failed: {e}"),
            PredictError::NoFiniteHistory => {
                write!(f, "history holds no finite value to fall back on")
            }
        }
    }
}

impl std::error::Error for PredictError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PredictError::Search(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SearchError> for PredictError {
    fn from(e: SearchError) -> Self {
        PredictError::Search(e)
    }
}

/// Rolling error bookkeeping of one sensor, driving the cooldown rung and
/// the health metrics. Checkpointed with the sensor: a restored sensor
/// that was cooling down must keep cooling down, or a restart would
/// silently clear the degradation a failing Gram matrix earned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorState {
    /// Consecutive prediction steps in which at least one GP column failed
    /// to factorise (reset by a clean full/cached-hyper step).
    pub consecutive_gp_failures: u32,
    /// Remaining steps of the aggregation cooldown (0 = not cooling down).
    pub cooldown_remaining: u32,
    /// Total GP column failures over the sensor's lifetime.
    pub total_gp_failures: u64,
    /// Total search errors over the sensor's lifetime.
    pub total_search_errors: u64,
}

impl ErrorState {
    /// Whether the sensor currently serves degraded by its own error state
    /// (as opposed to deadline pressure).
    pub fn cooling_down(&self) -> bool {
        self.cooldown_remaining > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_orders_by_degradation() {
        use DegradationLevel::*;
        assert!(FullEnsemble < CachedHyper);
        assert!(CachedHyper < Aggregation);
        assert!(Aggregation < LastValue);
        assert_eq!(FullEnsemble.at_least(Aggregation), Aggregation);
        assert_eq!(LastValue.at_least(CachedHyper), LastValue);
    }

    #[test]
    fn default_policy_is_transparent() {
        let p = RequestPolicy::default();
        assert_eq!(p.deadline, None);
        assert_eq!(p.entry_level, DegradationLevel::FullEnsemble);
    }

    #[test]
    fn errors_display_and_chain() {
        let e = PredictError::Search(SearchError::NonFiniteQuery { length: 8 });
        assert!(e.to_string().contains("non-finite"));
        assert!(std::error::Error::source(&e).is_some());
        let e = PredictError::HorizonOutOfRange { h: 0, h_max: 30 };
        assert!(e.to_string().contains("out of configured range"));
    }
}
