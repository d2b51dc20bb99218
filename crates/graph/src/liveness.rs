//! Lifetime intervals over the schedule.

/// A closed interval `[start, end]` of schedule steps during which a data
/// structure must be resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// First step at which the structure is live.
    pub start: usize,
    /// Last step at which the structure is live (inclusive).
    pub end: usize,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(end >= start, "interval end {end} before start {start}");
        Interval { start, end }
    }

    /// Whether two intervals share any step. Structures with overlapping
    /// intervals can never share memory.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Number of steps covered.
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Intervals are never empty (they cover at least one step).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether a step falls inside the interval.
    pub fn contains(&self, step: usize) -> bool {
        (self.start..=self.end).contains(&step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_is_symmetric_and_inclusive() {
        let a = Interval::new(0, 5);
        let b = Interval::new(5, 9);
        let c = Interval::new(6, 7);
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn single_step_intervals() {
        let a = Interval::new(3, 3);
        assert_eq!(a.len(), 1);
        assert!(a.contains(3));
        assert!(!a.contains(2));
        assert!(a.overlaps(&Interval::new(3, 3)));
    }

    #[test]
    #[should_panic(expected = "interval end")]
    fn reversed_interval_panics() {
        Interval::new(4, 2);
    }
}
