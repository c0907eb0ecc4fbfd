//! Two-stage competition (paper Section 3).
//!
//! Plan `A₂` breaks into a cheap first stage `A′` and an expensive second
//! stage `A″`, with a reliable estimator of the `A″` cost becoming
//! available *while `A′` runs* — in the executor, `A′` is an index scan
//! whose growing RID list continuously predicts the final fetch cost `A″`.
//! At each point of `A′` we compare the refreshed projection against the
//! guaranteed-best alternative `A₁` and either continue or switch.
//!
//! This module provides a faithful, simulation-backed model of that
//! policy: the projection starts at the prior mean and converges linearly
//! to the true (sampled) `A″` cost as `A′` progresses, which mirrors how a
//! RID count observed over the first `t` fraction of an index scan pins
//! down the final list size.

use rand::Rng;

use crate::dist::CostDist;
use crate::rules::KillRules;

/// Parameters of a two-stage competition run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStageConfig {
    /// Cost of running the whole first stage `A′`.
    pub stage1_cost: f64,
    /// Switch when the projected `A″` cost reaches this fraction of the
    /// guaranteed-best cost (the paper's "e.g. becomes 95%").
    pub switch_threshold: f64,
    /// Number of checkpoints during `A′` at which the projection is
    /// refreshed and the criterion evaluated.
    pub checkpoints: u32,
    /// Relative noise amplitude of the stage-2 estimator at the start of
    /// `A′`; the noise shrinks linearly to zero as `A′` completes (a
    /// scale-up estimate from a partial scan behaves this way).
    pub noise_amp: f64,
}

impl Default for TwoStageConfig {
    fn default() -> Self {
        TwoStageConfig {
            stage1_cost: 1.0,
            switch_threshold: 0.95,
            checkpoints: 20,
            noise_amp: 0.5,
        }
    }
}

/// Aggregate result of simulating the two-stage policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStageOutcome {
    /// Expected cost of the adaptive policy.
    pub expected_cost: f64,
    /// Expected cost of always running `A₂ = A′ + A″` to completion.
    pub commit_a2_cost: f64,
    /// Expected cost of always running `A₁`.
    pub commit_a1_cost: f64,
    /// Fraction of runs in which the policy abandoned `A₂`.
    pub abandon_rate: f64,
}

impl TwoStageOutcome {
    /// Cost of the best *static* commitment.
    pub fn best_static(&self) -> f64 {
        self.commit_a1_cost.min(self.commit_a2_cost)
    }

    /// `best_static / adaptive` — >1 means the adaptive policy wins.
    pub fn speedup(&self) -> f64 {
        self.best_static() / self.expected_cost
    }
}

/// Simulates the two-stage competition: `A′` runs checkpoint by
/// checkpoint; at each checkpoint the estimator reports the true `A″`
/// cost perturbed by multiplicative noise that shrinks as `A′`
/// progresses (a RID count scaled up from the scanned fraction behaves
/// exactly like this); if the projection exceeds `switch_threshold ×` the
/// guaranteed-best cost (`a1`'s mean), `A₂` is abandoned and `A₁` runs,
/// having sunk only the `A′` spend so far.
pub fn two_stage_cost<R: Rng>(
    a1: &CostDist,
    a2_stage2: &CostDist,
    config: &TwoStageConfig,
    rng: &mut R,
    trials: u32,
) -> TwoStageOutcome {
    let guaranteed_best = a1.mean();
    // The model has no spend criterion: `A′` is never cut off on its own
    // cost, only on what it predicts for `A″`.
    let rules = KillRules {
        switch_threshold: config.switch_threshold,
        spend_limit: f64::INFINITY,
    };
    let mut total = 0.0;
    let mut abandons = 0u32;
    for _ in 0..trials {
        let true_a2 = a2_stage2.sample(rng);
        let a1_run = a1.sample(rng);
        let mut spent = 0.0;
        let mut switched = false;
        for cp in 1..=config.checkpoints {
            let t = cp as f64 / config.checkpoints as f64;
            spent = config.stage1_cost * t;
            let noise = (1.0 - t) * config.noise_amp * (2.0 * rng.gen::<f64>() - 1.0);
            let projected = true_a2 * (1.0 + noise);
            if rules.judge(Some(projected), spent, guaranteed_best).is_some() {
                switched = true;
                break;
            }
        }
        total += if switched {
            abandons += 1;
            spent + a1_run
        } else {
            config.stage1_cost + true_a2
        };
    }
    // Static baselines (expected values; a2 includes its first stage).
    TwoStageOutcome {
        expected_cost: total / trials as f64,
        commit_a2_cost: config.stage1_cost + a2_stage2.mean(),
        commit_a1_cost: a1.mean(),
        abandon_rate: abandons as f64 / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2026)
    }

    #[test]
    fn adaptive_beats_both_static_commitments_under_uncertainty() {
        // A1 is moderately expensive but predictable; A2's second stage is
        // L-shaped: often almost free, sometimes catastrophic.
        let a1 = CostDist::Fixed(50.0);
        let a2 = CostDist::l_shape(2.0, 400.0); // mean ≈ 101.5
        let out = two_stage_cost(&a1, &a2, &TwoStageConfig::default(), &mut rng(), 100_000);
        assert!(
            out.expected_cost < out.commit_a1_cost,
            "adaptive {} vs A1 {}",
            out.expected_cost,
            out.commit_a1_cost
        );
        assert!(out.expected_cost < out.commit_a2_cost);
        assert!(out.speedup() > 1.5, "speedup {}", out.speedup());
        assert!(out.abandon_rate > 0.2 && out.abandon_rate < 0.8);
    }

    #[test]
    fn no_l_shape_needed_for_two_stage_to_work() {
        // Paper: "Note that for this competition to be effective, an
        // L-shape assumption of A1, A2 cost distributions is no longer
        // necessary." Uniform works too.
        let a1 = CostDist::Fixed(50.0);
        let a2 = CostDist::Uniform { lo: 0.0, hi: 150.0 };
        let out = two_stage_cost(&a1, &a2, &TwoStageConfig::default(), &mut rng(), 100_000);
        assert!(
            out.expected_cost < out.best_static(),
            "adaptive {} vs best static {}",
            out.expected_cost,
            out.best_static()
        );
    }

    #[test]
    fn certain_cheap_a2_never_abandoned() {
        let a1 = CostDist::Fixed(100.0);
        let a2 = CostDist::Fixed(5.0);
        let out = two_stage_cost(&a1, &a2, &TwoStageConfig::default(), &mut rng(), 10_000);
        assert_eq!(out.abandon_rate, 0.0);
        assert!((out.expected_cost - 6.0).abs() < 1e-9, "stage1 + 5");
    }

    #[test]
    fn certain_expensive_a2_abandoned_immediately() {
        let a1 = CostDist::Fixed(10.0);
        let a2 = CostDist::Fixed(500.0);
        let cfg = TwoStageConfig::default();
        let out = two_stage_cost(&a1, &a2, &cfg, &mut rng(), 10_000);
        assert_eq!(out.abandon_rate, 1.0);
        // Abandons at the first checkpoint: 1/checkpoints of stage1 + A1.
        let expect = cfg.stage1_cost / cfg.checkpoints as f64 + 10.0;
        assert!((out.expected_cost - expect).abs() < 1e-9);
    }

    #[test]
    fn stage1_cost_bounds_the_overhead() {
        // Even in the worst case (always abandon late), the policy can lose
        // at most the stage-1 cost relative to committing to A1.
        let a1 = CostDist::Fixed(20.0);
        let a2 = CostDist::Uniform { lo: 18.0, hi: 22.0 };
        let cfg = TwoStageConfig {
            stage1_cost: 0.5,
            ..TwoStageConfig::default()
        };
        let out = two_stage_cost(&a1, &a2, &cfg, &mut rng(), 50_000);
        assert!(out.expected_cost <= a1.mean() + cfg.stage1_cost + 1.0);
    }

    #[test]
    fn threshold_sensitivity_is_monotone_in_abandon_rate() {
        let a1 = CostDist::Fixed(50.0);
        let a2 = CostDist::l_shape(2.0, 400.0);
        let strict = two_stage_cost(
            &a1,
            &a2,
            &TwoStageConfig {
                switch_threshold: 0.5,
                ..TwoStageConfig::default()
            },
            &mut rng(),
            50_000,
        );
        let lenient = two_stage_cost(
            &a1,
            &a2,
            &TwoStageConfig {
                switch_threshold: 2.0,
                ..TwoStageConfig::default()
            },
            &mut rng(),
            50_000,
        );
        assert!(strict.abandon_rate > lenient.abandon_rate);
    }
}
