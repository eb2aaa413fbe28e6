//! Sensor time series.

/// An append-only sensor time series.
///
/// The semi-lazy predictor keeps the entire history of every sensor "as part
/// of the data" (paper §1); this type is that history. Observations arrive
/// through [`TimeSeries::push`] during continuous prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Stable identifier of the sensor this series belongs to.
    sensor_id: usize,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Create a series for `sensor_id` from existing history.
    pub fn new(sensor_id: usize, values: Vec<f64>) -> Self {
        TimeSeries { sensor_id, values }
    }

    /// Create an empty series for `sensor_id`.
    pub fn empty(sensor_id: usize) -> Self {
        TimeSeries { sensor_id, values: Vec::new() }
    }

    /// The sensor identifier.
    pub fn sensor_id(&self) -> usize {
        self.sensor_id
    }

    /// Number of observations `|C|`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All observations.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Observation at timestamp `t`, if recorded.
    pub fn get(&self, t: usize) -> Option<f64> {
        self.values.get(t).copied()
    }

    /// Append a newly observed value (continuous prediction, Def. 4.1).
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_extends_history() {
        let mut s = TimeSeries::empty(1);
        assert!(s.is_empty());
        s.push(1.5);
        s.push(2.5);
        assert_eq!(s.len(), 2);
        assert_eq!(s.values(), &[1.5, 2.5]);
    }
}
