#![forbid(unsafe_code)]

//! # rdb-dist
//!
//! The probability-distribution study of Section 2 of *Dynamic Query
//! Optimization in Rdb/VMS* (Antoshenkov, ICDE 1993), as an executable
//! library.
//!
//! A Boolean restriction's **selectivity** `s = r/c ∈ [0,1]` is modelled as
//! a probability density over `[0,1]` ([`Pdf`]). The paper computes how the
//! operators NOT, AND, OR (and JOIN, which behaves like AND on unique join
//! keys) transform such densities under *correlation assumptions*
//! `c ∈ [−1,+1]` between the operand predicates, including the **unknown
//! correlation** case — a uniform mixture over all `c` — and demonstrates:
//!
//! * uniform operands turn into crescent / triangle / L-shaped results
//!   whose skewness grows with operator count and AND/OR disbalance
//!   (Figure 2.1, reproduced by [`figures::figure_2_1`]);
//! * bell-shaped (well-estimated) operands degrade stepwise into the same
//!   L-shapes (Figure 2.2, reproduced by [`figures::figure_2_2`]);
//! * the asymmetric results are well approximated by truncated hyperbolas,
//!   with fit error shrinking as skewness grows ([`hyperbola`]).
//!
//! The densities are a study library: the engine does not call it, and
//! `rdb-competition`'s cost models keep their own distribution type
//! (`CostDist`). `paper`'s model rows and `tests/paper_claims.rs` are its
//! callers.

pub mod figures;
pub mod hyperbola;
pub mod ops;
pub mod pdf;
pub mod shape;
pub mod spec;

pub use hyperbola::{fit_hyperbola, HyperbolaFit};
pub use ops::{and, join_unique, not, or, Correlation};
pub use pdf::Pdf;
pub use shape::ShapeSummary;
pub use spec::apply_spec;
