//! E1–E5, NWAY and E17: the §2 selectivity-distribution algebra and the §3
//! competition models. No engine runs here, so there is no clock to read:
//! these rows print units only. Each Monte-Carlo table seeds its own RNG.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdb_bench::report::{fmt, sparkline};
use rdb_competition::{
    direct_competition_cost, optimal_switch_point, simultaneous_cost, simultaneous_cost_n,
    two_stage_cost, CostDist, TwoStageConfig,
};
use rdb_dist::figures::{figure_2_1, figure_2_2};
use rdb_dist::{apply_spec, fit_hyperbola, join_unique, Correlation, Pdf, ShapeSummary};

use super::{Fixtures, Part};

fn hyperbolic(b: f64, max: f64) -> CostDist {
    CostDist::Hyperbolic { b, max }
}

fn uniform(lo: f64, hi: f64) -> CostDist {
    CostDist::Uniform { lo, hi }
}

/// A label, then `values` formatted.
fn row<const N: usize>(label: String, values: [f64; N]) -> Vec<String> {
    std::iter::once(label).chain(values.map(fmt)).collect()
}

/// E1, Figure 2.1: the uniform selectivity distribution transformed by
/// AND/OR chains under correlation assumptions.
pub(super) fn e1(_: &Fixtures) -> Vec<Part<'_>> {
    let rows = figure_2_1()
        .iter()
        .map(|p| {
            let s = p.summary();
            let mut r = row(p.label.clone(), [s.mean, s.std_dev, s.skewness, s.median]);
            r.insert(1, sparkline(&p.pdf, 24));
            r.extend([s.mass_low, s.mass_high].map(fmt));
            r
        })
        .collect();
    vec![Part::Units(
        "Figure 2.1: transformations of the uniform selectivity distribution".into(),
        "panel|density|mean|sd|skew|median|P(s<=.1)|P(s>.9)",
        rows,
    )]
}

/// E2, §2: truncated hyperbolas fitted to AND/OR chains. Exact error
/// values depend on the hyperbola family; the claim is their magnitude
/// and their strict decrease with chain length.
pub(super) fn e2(_: &Fixtures) -> Vec<Part<'_>> {
    let rows = ["&X", "&&X", "&&&X", "||X", "&|X"]
        .iter()
        .map(|spec| {
            let pdf = apply_spec(spec, &Pdf::uniform(), Correlation::Unknown);
            let (fit, shape) = (fit_hyperbola(&pdf), ShapeSummary::of(&pdf));
            let l_shaped = shape.is_l_shaped_at_zero() || shape.is_l_shaped_at_one();
            vec![
                spec.to_string(),
                fmt(fit.rel_error),
                format!("1/{:.0}", 1.0 / fit.rel_error.max(1e-9)),
                fmt(fit.b),
                if fit.mirrored { "at s=1" } else { "at s=0" }.into(),
                if l_shaped { "L-shape" } else { "-" }.into(),
            ]
        })
        .collect();
    vec![Part::Units(
        "Hyperbola fits (paper: &X ~ 1/4, &&X ~ 1/7, &&&X ~ 1/23)".into(),
        "chain|rel.err|~1/k|b|legs|shape",
        rows,
    )]
}

/// E3, Figure 2.2: a precise estimate (bell m=0.2, e=0.005) destroyed
/// step by step by AND/OR applications under unknown correlation, ending
/// in L-shapes: §2's statements (1)–(3).
pub(super) fn e3(_: &Fixtures) -> Vec<Part<'_>> {
    let panels = figure_2_2();
    let rows = panels
        .iter()
        .map(|p| {
            let s = p.summary();
            let verdict = if s.is_l_shaped_at_zero() {
                "L at 0"
            } else if s.is_l_shaped_at_one() {
                "L at 1"
            } else if s.std_dev < 0.01 {
                "precise"
            } else {
                "spread"
            };
            let mut r = row(p.label.clone(), [s.mean, s.std_dev, s.skewness]);
            r.insert(1, sparkline(&p.pdf, 24));
            r.push(verdict.into());
            r
        })
        .collect();
    let sd = |label: &str| {
        let panel = panels.iter().find(|p| p.label == label).expect("panel");
        panel.summary().std_dev
    };
    let (base_sd, and_sd) = (sd("X"), sd("&X"));
    vec![Part::Units(
        format!(
            "Figure 2.2: degradation of certainty (bell m=0.2, e=0.005); statement (1): one \
             AND multiplies the spread {}x (e=0.005 -> {and_sd:.3})",
            fmt(and_sd / base_sd)
        ),
        "chain|density|mean|sd|skew|verdict",
        rows,
    )]
}

/// E4, §3 direct competition: with both plan costs L-shaped (knee c ≪
/// tail), run the risky plan to its knee and switch, at an expected
/// (m₂+c₂+M₁)/2, "about twice smaller than the traditional M₁"; and the
/// simultaneous proportional-speed variant for hyperbolic shapes.
pub(super) fn e4(_: &Fixtures) -> Vec<Part<'_>> {
    let direct = [
        (1.0, 200.0, 240.0),
        (1.0, 100.0, 100.0),
        (2.0, 400.0, 2000.0),
        (5.0, 50.0, 80.0),
    ]
    .iter()
    .map(|&(knee, tail1, tail2)| {
        let (a1, a2) = (
            CostDist::l_shape(knee, tail1),
            CostDist::l_shape(knee, tail2),
        );
        let m1 = a1.mean();
        let formula = (a2.mean_below(knee).unwrap_or(0.0) + knee + m1) / 2.0;
        let out = direct_competition_cost(&a1, &a2, knee);
        let (s_opt, best) = optimal_switch_point(&a1, &a2);
        let cells = [
            m1,
            formula,
            out.expected_cost,
            out.speedup(),
            s_opt,
            best.expected_cost,
        ];
        row(format!("c={knee} M1={}", fmt(m1)), cells)
    })
    .collect();
    let mut rng = StdRng::seed_from_u64(20_260_705);
    let simultaneous = [0.005, 0.02, 0.1]
        .iter()
        .map(|&b| {
            let (a1, a2) = (hyperbolic(b, 200.0), hyperbolic(b, 240.0));
            let seq = direct_competition_cost(&a1, &a2, a2.quantile(0.5)).expected_cost;
            let sim = simultaneous_cost(&a1, &a2, 1.0, None, &mut rng, 200_000).expected_cost;
            let cap = Some(a2.quantile(0.6));
            let capped = simultaneous_cost(&a1, &a2, 1.0, cap, &mut rng, 200_000).expected_cost;
            let m1 = a1.mean();
            row(format!("b={b}"), [m1, seq, sim, capped, m1 / capped])
        })
        .collect();
    vec![
        Part::Units(
            "Direct competition (paper Section 3): A1, A2 two-piece L-shapes, 50% of mass \
             below the knee, tail beyond"
                .into(),
            "scenario|traditional M1|(m2+c2+M1)/2|switch@knee|speedup|opt.switch|opt.cost",
            direct,
        ),
        Part::Units(
            "Simultaneous proportional-speed run (hyperbolic shapes)".into(),
            "shape|traditional|sequential@median|simultaneous|simult.+cap|best speedup",
            simultaneous,
        ),
    ]
}

/// E5, §3 two-stage competition: a cheap stage A′ continuously refines
/// the estimate of the expensive A″.
pub(super) fn e5(_: &Fixtures) -> Vec<Part<'_>> {
    let mut rng = StdRng::seed_from_u64(42);
    let fixed = CostDist::Fixed;
    let rows = [
        ("L-shaped A2", fixed(50.0), CostDist::l_shape(2.0, 400.0)),
        (
            "uniform A2 (no L-shape needed)",
            fixed(50.0),
            uniform(0.0, 150.0),
        ),
        ("hyperbolic A2", fixed(30.0), hyperbolic(0.02, 300.0)),
    ]
    .iter()
    .map(|(label, a1, a2)| {
        let out = two_stage_cost(a1, a2, &TwoStageConfig::default(), &mut rng, 200_000);
        let costs = [
            out.commit_a1_cost,
            out.commit_a2_cost,
            out.expected_cost,
            out.speedup(),
        ];
        let mut r = row(label.to_string(), costs);
        r.push(format!("{:.0}%", out.abandon_rate * 100.0));
        r
    })
    .collect();
    vec![Part::Units(
        "Two-stage competition (paper Section 3): A2 = cheap stage A' + expensive A''".into(),
        "scenario|commit A1|commit A2|two-stage|speedup vs best static|abandon rate",
        rows,
    )]
}

/// §3's "several local plans simultaneously": N-way races. Sharp L-shapes
/// reward extra independent racers, each another shot at a near-free run;
/// flat shapes make every extra racer pure overhead.
pub(super) fn n_way(_: &Fixtures) -> Vec<Part<'_>> {
    let mut rng = StdRng::seed_from_u64(99);
    let rows = [
        ("sharp L (b=0.001)", hyperbolic(0.001, 1000.0)),
        ("medium (b=0.02)", hyperbolic(0.02, 1000.0)),
        ("flat (uniform)", uniform(400.0, 600.0)),
    ]
    .iter()
    .map(|&(label, plan)| {
        let mut race = |n| simultaneous_cost_n(&vec![plan; n], &vec![1.0; n], &mut rng, 100_000);
        row(label.into(), [plan.mean()])
            .into_iter()
            .chain((1..=4).map(|n| fmt(race(n).expected_cost)))
            .collect()
    })
    .collect();
    vec![Part::Units(
        "N-way simultaneous races (sharp vs flat cost shapes)".into(),
        "shape|single mean|1 racer|2 racers|3 racers|4 racers",
        rows,
    )]
}

/// E17, error propagation à la Ioannidis & Christodoulakis \[IoCh91\]: a
/// precise estimate through n JOIN-like (AND) steps under unknown
/// correlation. The relative error multiplies with every join.
pub(super) fn e17(_: &Fixtures) -> Vec<Part<'_>> {
    let base = Pdf::bell(0.3, 0.01);
    let mut current = base.clone();
    let mut rows = Vec::new();
    let mut prev_rel_spread: f64 = 0.0;
    for n in 0..=5 {
        let s = ShapeSummary::of(&current);
        let rel_spread = if s.mean > 1e-9 {
            s.std_dev / s.mean
        } else {
            f64::INFINITY
        };
        let mut r = row(format!("{n} joins"), [s.mean, s.std_dev, rel_spread]);
        r.insert(1, sparkline(&current, 24));
        r.push(match n {
            0 => "-".into(),
            _ => format!("x{:.1}", rel_spread / prev_rel_spread.max(1e-12)),
        });
        r.push(
            if s.is_l_shaped_at_zero() {
                "L-shape (Zipf-like)"
            } else if s.std_dev < 0.02 {
                "precise"
            } else {
                "spread"
            }
            .into(),
        );
        rows.push(r);
        prev_rel_spread = rel_spread;
        current = join_unique(&current, &base, Correlation::Unknown);
    }
    vec![Part::Units(
        "Error growth with join chain length [IoCh91 via Section 2]: each step joins an \
         equally-estimated relation (bell m=0.3, e=0.01) under unknown correlation"
            .into(),
        "chain|density|mean|sd|sd/mean|spread growth|shape",
        rows,
    )]
}
