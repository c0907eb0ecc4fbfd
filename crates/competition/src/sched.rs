//! Deterministic proportional-speed quantum scheduling.
//!
//! The paper runs competing strategies "simultaneously with the
//! proportional speed". On one thread that means interleaving their
//! `step()` calls so that over any window the number of quanta granted to
//! each competitor tracks its speed weight. The [`ProportionalScheduler`]
//! implements this with deficit counters — the classic weighted-round-robin
//! construction — so the interleaving is deterministic and exactly
//! proportional in the long run. The join race schedules its lanes with
//! it, and so does the inline background driver under the single-table
//! tactics (`rdb_core::tactics`).

/// Weighted round-robin dispenser of quanta.
#[derive(Debug, Clone)]
pub struct ProportionalScheduler {
    speeds: Vec<f64>,
    credits: Vec<f64>,
    active: Vec<bool>,
}

impl ProportionalScheduler {
    /// Creates a scheduler over competitors with the given speed weights.
    ///
    /// # Panics
    /// If `speeds` is empty or any speed is not finite and positive.
    pub fn new(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty());
        assert!(
            speeds.iter().all(|s| s.is_finite() && *s > 0.0),
            "speeds must be positive"
        );
        let n = speeds.len();
        ProportionalScheduler {
            speeds,
            credits: vec![0.0; n],
            active: vec![true; n],
        }
    }

    /// Number of competitors (active or not).
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// True if no competitors remain active.
    pub fn is_empty(&self) -> bool {
        !self.active.iter().any(|a| *a)
    }

    /// Number of still-active competitors.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Removes a competitor from rotation (abandoned or completed).
    pub fn deactivate(&mut self, idx: usize) {
        self.active[idx] = false;
    }

    /// True if competitor `idx` is still scheduled.
    pub fn is_active(&self, idx: usize) -> bool {
        self.active[idx]
    }

    /// Picks the next competitor to receive one quantum, or `None` when
    /// all are deactivated.
    ///
    /// Each call adds every active competitor's speed to its credit, then
    /// runs the highest-credit competitor and debits it by the total active
    /// speed — guaranteeing long-run proportionality with bounded
    /// short-term deviation.
    // Not an `Iterator`: the yielded sequence depends on `deactivate`
    // calls interleaved between polls.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<usize> {
        let total: f64 = self
            .speeds
            .iter()
            .zip(&self.active)
            .filter(|(_, a)| **a)
            .map(|(s, _)| s)
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut best: Option<usize> = None;
        for i in 0..self.speeds.len() {
            if !self.active[i] {
                continue;
            }
            self.credits[i] += self.speeds[i];
            if best.is_none_or(|b| self.credits[i] > self.credits[b]) {
                best = Some(i);
            }
        }
        let chosen = best?;
        self.credits[chosen] -= total;
        Some(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(sched: &mut ProportionalScheduler, quanta: usize) -> Vec<usize> {
        let mut counts = vec![0usize; sched.len()];
        for _ in 0..quanta {
            if let Some(i) = sched.next() {
                counts[i] += 1;
            }
        }
        counts
    }

    #[test]
    fn equal_speeds_alternate_evenly() {
        let mut s = ProportionalScheduler::new(vec![1.0, 1.0]);
        let counts = tally(&mut s, 1000);
        assert_eq!(counts[0], 500);
        assert_eq!(counts[1], 500);
    }

    #[test]
    fn proportionality_holds_for_uneven_speeds() {
        let mut s = ProportionalScheduler::new(vec![3.0, 1.0]);
        let counts = tally(&mut s, 4000);
        assert!((counts[0] as i64 - 3000).abs() <= 2, "{counts:?}");
        assert!((counts[1] as i64 - 1000).abs() <= 2, "{counts:?}");
    }

    #[test]
    fn three_way_fractional_speeds() {
        let mut s = ProportionalScheduler::new(vec![0.5, 0.25, 0.25]);
        let counts = tally(&mut s, 4000);
        assert!((counts[0] as i64 - 2000).abs() <= 3, "{counts:?}");
        assert!((counts[1] as i64 - 1000).abs() <= 3, "{counts:?}");
        assert!((counts[2] as i64 - 1000).abs() <= 3, "{counts:?}");
    }

    #[test]
    fn deactivation_reroutes_quanta() {
        let mut s = ProportionalScheduler::new(vec![1.0, 1.0]);
        for _ in 0..10 {
            s.next();
        }
        s.deactivate(1);
        let counts = tally(&mut s, 100);
        assert_eq!(counts[1], 0);
        assert_eq!(counts[0], 100);
        assert_eq!(s.active_count(), 1);
    }

    #[test]
    fn all_deactivated_yields_none() {
        let mut s = ProportionalScheduler::new(vec![1.0]);
        s.deactivate(0);
        assert!(s.next().is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn short_term_deviation_is_bounded() {
        // At every prefix, the dispensed counts never deviate from the
        // ideal share by more than one quantum per competitor.
        let speeds = [2.0, 1.0, 1.0];
        let mut s = ProportionalScheduler::new(speeds.to_vec());
        let mut counts = [0f64; 3];
        let total: f64 = speeds.iter().sum();
        for step in 1..=2000 {
            let i = s.next().unwrap();
            counts[i] += 1.0;
            for c in 0..3 {
                let ideal = step as f64 * speeds[c] / total;
                assert!(
                    (counts[c] - ideal).abs() <= 1.0 + 1e-9,
                    "step {step}: counts {counts:?} vs ideal {ideal}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_rejected() {
        ProportionalScheduler::new(vec![1.0, 0.0]);
    }
}
