//! The kill rules: the paper's two switch criteria, decided in one place.
//!
//! 1. **Projection criterion** (two-stage competition, Section 6): a
//!    competitor is terminated "when the projected retrieval cost
//!    approaches (e.g. becomes 95% of) the guaranteed best retrieval
//!    cost".
//! 2. **Spend criterion** (direct competition): "we handle this case by
//!    extending the strategy switch criterion with an index scan cost
//!    limit set to some proportion of the guaranteed best cost" — a
//!    competitor whose own spend reaches that proportion is cut off even
//!    if its projection still looks fine.
//!
//! These rules are what bounds the loss of a wrong guess, so every
//! competition in the workspace — the joint scan, the union scan, the
//! borrowing foreground, the join lanes and the analytic two-stage model —
//! asks [`KillRules::judge`] and nothing else compares a projection or a
//! spend against a guaranteed best. What a caller varies is what it
//! *passes*: an unrefined projection is `None`, a rule that does not apply
//! gets a spend of zero, a floor on the bound is applied to the arguments.

/// The two thresholds, as fractions of the guaranteed-best cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillRules {
    /// Kill when the projected total reaches this fraction of the
    /// guaranteed best.
    pub switch_threshold: f64,
    /// Kill when the competitor's own spend reaches this fraction of the
    /// guaranteed best.
    pub spend_limit: f64,
}

impl Default for KillRules {
    /// The paper's values: 95 % and one half.
    fn default() -> Self {
        KillRules {
            switch_threshold: 0.95,
            spend_limit: 0.5,
        }
    }
}

/// Which rule killed a competitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kill {
    /// The projection criterion fired.
    Projected,
    /// The spend criterion fired.
    Spend,
}

impl KillRules {
    /// Judges one competitor against the guaranteed best: `Some(rule)` if
    /// it must die, `None` if it may keep running.
    ///
    /// The projection is judged first, so a competitor that trips both
    /// rules at once dies as [`Kill::Projected`]; a competitor whose
    /// projection is not refined yet (`None`) can only die on spend.
    /// Both comparisons are inclusive: reaching the line is crossing it.
    #[inline]
    pub fn judge(&self, projected: Option<f64>, spent: f64, guaranteed_best: f64) -> Option<Kill> {
        if projected.is_some_and(|p| p >= self.switch_threshold * guaranteed_best) {
            Some(Kill::Projected)
        } else if spent >= self.spend_limit * guaranteed_best {
            Some(Kill::Spend)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_table() {
        let rules = KillRules::default();
        let g = 200.0;
        let (line_p, line_s) = (0.95 * g, 0.5 * g);
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let inf = f64::INFINITY;
        /// (case, projected, spent, guaranteed best, verdict)
        type Case = (&'static str, Option<f64>, f64, f64, Option<Kill>);
        #[rustfmt::skip]
        let cases: &[Case] = &[
            ("healthy",                      Some(10.0),          1.0,           g,   None),
            ("projection exactly on 0.95 g", Some(line_p),        0.0,           g,   Some(Kill::Projected)),
            ("projection one ulp under",     Some(below(line_p)), 0.0,           g,   None),
            ("spend exactly on 0.5 g",       Some(10.0),          line_s,        g,   Some(Kill::Spend)),
            ("spend one ulp under",          Some(10.0),          below(line_s), g,   None),
            ("both fire: projection names",  Some(line_p),        line_s,        g,   Some(Kill::Projected)),
            ("unrefined: huge spend only",   None,                line_s,        g,   Some(Kill::Spend)),
            ("unrefined and frugal",         None,                below(line_s), g,   None),
            ("g = 0: any projection dies",   Some(0.0),           0.0,           0.0, Some(Kill::Projected)),
            ("g = 0: unrefined dies broke",  None,                0.0,           0.0, Some(Kill::Spend)),
            ("g = inf: nothing finite dies", Some(1e300),         1e300,         inf, None),
            ("g = inf: unrefined neither",   None,                1e300,         inf, None),
        ];
        for &(name, projected, spent, best, want) in cases {
            assert_eq!(rules.judge(projected, spent, best), want, "{name}");
        }
    }

    #[test]
    fn bad_projection_gets_abandoned() {
        // Projects above 95% of a guaranteed best of 100: dies at its
        // first judgement, whatever it has spent; a rival projecting 10
        // carries on.
        let rules = KillRules::default();
        assert_eq!(rules.judge(Some(99.0), 1.0, 100.0), Some(Kill::Projected));
        assert_eq!(rules.judge(Some(10.0), 1.0, 100.0), None);
    }

    #[test]
    fn spend_limit_cuts_off_expensive_scans() {
        // The projection looks great but each quantum costs 30 against a
        // guaranteed best of 100: the direct-competition criterion fires
        // on the second quantum, not before and no later.
        let rules = KillRules::default();
        let spends = [30.0, 60.0, 90.0];
        let verdicts: Vec<_> = spends
            .iter()
            .map(|&s| rules.judge(Some(1.0), s, 100.0))
            .collect();
        assert_eq!(verdicts, [None, Some(Kill::Spend), Some(Kill::Spend)]);
    }

    #[test]
    fn tightened_guaranteed_best_kills_marginal_competitors() {
        // Fine against 1000 (90 < 950); once a rival completes and the
        // bound tightens to 80, the same projection is over the line.
        let rules = KillRules::default();
        assert_eq!(rules.judge(Some(90.0), 0.1, 1000.0), None);
        assert_eq!(rules.judge(Some(90.0), 0.2, 80.0), Some(Kill::Projected));
    }
}
