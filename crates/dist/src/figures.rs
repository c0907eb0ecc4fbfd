//! Data series for the paper's Figure 2.1 and Figure 2.2.
//!
//! Each panel is a labelled distribution; rows E1 and E3 of `rdb-bench`'s
//! `paper` binary print them as aligned series, and the integration tests
//! assert the qualitative shape claims the figures illustrate.

use crate::ops::Correlation;
use crate::pdf::Pdf;
use crate::shape::ShapeSummary;
use crate::spec::apply_spec;

/// One labelled distribution of a figure.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Figure label, e.g. `"&X (c=+1)"`.
    pub label: String,
    /// The transformed distribution.
    pub pdf: Pdf,
}

impl Panel {
    /// Shape summary of the panel's distribution.
    pub fn summary(&self) -> ShapeSummary {
        ShapeSummary::of(&self.pdf)
    }
}

fn corr_label(corr: Correlation) -> String {
    match corr {
        Correlation::Exact(c) => format!("c={c:+.1}"),
        Correlation::Unknown => "unknown".to_owned(),
    }
}

/// Figure 2.1: transformations of the **uniform** selectivity distribution.
///
/// The paper shows AND/OR chains under correlation assumptions +1, 0, −0.9
/// and "unknown". Returns every (spec × correlation) panel in that grid.
pub fn figure_2_1() -> Vec<Panel> {
    let base = Pdf::uniform();
    let correlations = [
        Correlation::Exact(1.0),
        Correlation::Exact(0.0),
        Correlation::Exact(-0.9),
        Correlation::Unknown,
    ];
    let specs = ["&X", "&&X", "&&&X", "|X", "||X", "&|X", "|&X"];
    let mut panels = Vec::new();
    for spec in specs {
        for corr in correlations {
            panels.push(Panel {
                label: format!("{spec} ({})", corr_label(corr)),
                pdf: apply_spec(spec, &base, corr),
            });
        }
    }
    panels
}

/// Figure 2.2: degradation of certainty — AND/OR chains with unknown
/// correlation applied to an estimate bell with mean `m = 0.2` and error
/// `e = 0.005`, exactly the parameters quoted in the figure caption.
pub fn figure_2_2() -> Vec<Panel> {
    figure_2_2_with(0.2, 0.005)
}

/// Figure 2.2 engine with configurable bell parameters.
pub fn figure_2_2_with(m: f64, e: f64) -> Vec<Panel> {
    let base = Pdf::bell(m, e);
    let specs = [
        "X", "&X", "|X", "||X", "|||X", "&&X", "|||||&X", "&&&X",
    ];
    let mut panels = vec![];
    for spec in specs {
        panels.push(Panel {
            label: spec.to_owned(),
            pdf: apply_spec(spec, &base, Correlation::Unknown),
        });
    }
    panels
}

/// Mixed-operand panels: AND/OR of predicates with **different**
/// distributions. Section 2: "The effect of ANDing/ORing of predicates
/// with different distributions is largely the same as in the cases
/// above." Returns (label, result) pairs combining a uniform, a tight
/// bell, and an already-L-shaped operand.
pub fn mixed_operand_panels() -> Vec<Panel> {
    use crate::ops::{and, or};
    let uniform = Pdf::uniform();
    let bell = Pdf::bell(0.3, 0.01);
    let l_shape = apply_spec("&&X", &uniform, Correlation::Unknown);
    vec![
        Panel {
            label: "bell & uniform".into(),
            pdf: and(&bell, &uniform, Correlation::Unknown),
        },
        Panel {
            label: "bell | uniform".into(),
            pdf: or(&bell, &uniform, Correlation::Unknown),
        },
        Panel {
            label: "bell & L-shape".into(),
            pdf: and(&bell, &l_shape, Correlation::Unknown),
        },
        Panel {
            label: "uniform & L-shape".into(),
            pdf: and(&uniform, &l_shape, Correlation::Unknown),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(panels: &'a [Panel], label: &str) -> &'a Panel {
        panels
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("panel {label:?} missing"))
    }

    #[test]
    fn figure_2_1_has_all_grid_panels() {
        let panels = figure_2_1();
        assert_eq!(panels.len(), 7 * 4);
        assert!(panels.iter().all(|p| (p.pdf.total_mass() - 1.0).abs() < 1e-9));
    }

    #[test]
    fn fig2_1_skewness_grows_with_operator_count() {
        let panels = figure_2_1();
        let s1 = find(&panels, "&X (unknown)").summary().skewness;
        let s2 = find(&panels, "&&X (unknown)").summary().skewness;
        let s3 = find(&panels, "&&&X (unknown)").summary().skewness;
        assert!(
            s1 < s2 && s2 < s3,
            "skewness must increase with ANDs: {s1} {s2} {s3}"
        );
    }

    #[test]
    fn fig2_1_skewness_grows_as_correlation_decreases() {
        let panels = figure_2_1();
        let plus = find(&panels, "&X (c=+1.0)").summary().skewness;
        let zero = find(&panels, "&X (c=+0.0)").summary().skewness;
        let neg = find(&panels, "&X (c=-0.9)").summary().skewness;
        assert!(
            plus < zero && zero < neg,
            "skewness by correlation: {plus} {zero} {neg}"
        );
    }

    #[test]
    fn fig2_1_balanced_mix_restores_symmetry() {
        let panels = figure_2_1();
        for label in ["&|X (unknown)", "|&X (unknown)"] {
            let s = find(&panels, label).summary();
            assert!(
                (s.mean - 0.5).abs() < 0.08,
                "{label} mean {} should be near 0.5",
                s.mean
            );
            assert!(s.skewness.abs() < 1.0, "{label} skew {}", s.skewness);
        }
    }

    #[test]
    fn fig2_2_single_op_nullifies_relative_precision() {
        // Paper statement (1): one AND or OR instantly grows the spread to
        // the order of the distance from the interval end (0.2), destroying
        // the original e=0.005 precision.
        let panels = figure_2_2();
        let base = find(&panels, "X").summary().std_dev;
        let anded = find(&panels, "&X").summary().std_dev;
        let ored = find(&panels, "|X").summary().std_dev;
        assert!(base < 0.01);
        assert!(anded > 10.0 * base, "&X spread {anded} vs base {base}");
        assert!(ored > 10.0 * base, "|X spread {ored} vs base {base}");
    }

    #[test]
    fn fig2_2_ors_spread_then_l_shape() {
        // Paper statement (2)/(3): repeated ORing spreads the bell toward
        // the centre and eventually produces an L-shape at the right end.
        let panels = figure_2_2();
        let or1 = find(&panels, "|X").summary();
        let or2 = find(&panels, "||X").summary();
        let or3 = find(&panels, "|||X").summary();
        assert!(
            or1.mean < or2.mean && or2.mean < or3.mean,
            "ORs keep pushing mass right: {} {} {}",
            or1.mean,
            or2.mean,
            or3.mean
        );
        assert!(
            or1.std_dev < or2.std_dev,
            "each OR roughly doubles the spread while the bell travels"
        );
        // Once past the centre, further ORs pile mass on the s=1 end.
        let long = find(&panels, "|||||&X").summary();
        assert!(long.mass_high > 0.3, "L-shape at one forming: {long:?}");
        assert!(long.skewness < -0.5);
    }

    #[test]
    fn mixed_operands_behave_like_same_distribution_cases() {
        // Paper: different operand distributions change nothing essential:
        // ANDing a precise bell with anything uncertain destroys the
        // precision, and any AND with an L-shape stays L-shaped.
        let panels = mixed_operand_panels();
        let get = |label: &str| {
            panels
                .iter()
                .find(|p| p.label == label)
                .unwrap_or_else(|| panic!("{label}"))
                .summary()
        };
        let band = get("bell & uniform");
        assert!(band.std_dev > 0.05, "precision destroyed: {band:?}");
        assert!(band.mean < 0.3, "AND lowers the mean");
        let bor = get("bell | uniform");
        assert!(bor.mean > 0.3, "OR raises the mean");
        assert!(get("bell & L-shape").is_l_shaped_at_zero());
        assert!(get("uniform & L-shape").is_l_shaped_at_zero());
    }

    #[test]
    fn fig2_2_ands_on_low_bell_make_l_shape_at_zero() {
        let panels = figure_2_2();
        let s = find(&panels, "&&&X").summary();
        assert!(
            s.is_l_shaped_at_zero(),
            "repeated ANDs on a 0.2-bell must concentrate at zero: {s:?}"
        );
    }
}
