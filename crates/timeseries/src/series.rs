//! Sensor time series and segment views.

/// A borrowed view of the segment `C_{t,d}` — `d` contiguous observations of
/// a series starting at timestamp `t` (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentRef<'a> {
    /// Start timestamp `t` within the owning series.
    pub start: usize,
    /// The observations `c_t … c_{t+d-1}`.
    pub values: &'a [f64],
}

impl<'a> SegmentRef<'a> {
    /// Segment length `d`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Timestamp one past the segment's last observation.
    pub fn end(&self) -> usize {
        self.start + self.values.len()
    }
}

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

    /// The segment `C_{t,d}`, or `None` if it does not fit in the history.
    pub fn segment(&self, start: usize, len: usize) -> Option<SegmentRef<'_>> {
        let end = start.checked_add(len)?;
        if end > self.values.len() {
            return None;
        }
        Some(SegmentRef { start, values: &self.values[start..end] })
    }

    /// Iterator over every `(start, segment)` pair of length `d`.
    pub fn segments(&self, d: usize) -> impl Iterator<Item = SegmentRef<'_>> + '_ {
        let count = if d == 0 || d > self.values.len() { 0 } else { self.values.len() - d + 1 };
        (0..count).map(move |t| SegmentRef { start: t, values: &self.values[t..t + d] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        TimeSeries::new(7, (0..10).map(|i| i as f64).collect())
    }

    #[test]
    fn segment_bounds() {
        let s = series();
        assert_eq!(s.segment(2, 3).unwrap().values, &[2.0, 3.0, 4.0]);
        assert_eq!(s.segment(8, 2).unwrap().values, &[8.0, 9.0]);
        assert!(s.segment(8, 3).is_none());
        assert!(s.segment(usize::MAX, 2).is_none());
    }

    #[test]
    fn push_extends_history() {
        let mut s = TimeSeries::empty(1);
        assert!(s.is_empty());
        s.push(1.5);
        s.push(2.5);
        assert_eq!(s.len(), 2);
        assert_eq!(s.values(), &[1.5, 2.5]);
    }

    #[test]
    fn segments_iterator_covers_all_offsets() {
        let s = series();
        let segs: Vec<_> = s.segments(8).collect();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].start, 0);
        assert_eq!(segs[2].start, 2);
        assert_eq!(s.segments(11).count(), 0);
        assert_eq!(s.segments(0).count(), 0);
    }

    #[test]
    fn segment_ref_end() {
        let s = series();
        let seg = s.segment(3, 4).unwrap();
        assert_eq!(seg.end(), 7);
        assert_eq!(seg.len(), 4);
        assert!(!seg.is_empty());
    }
}
