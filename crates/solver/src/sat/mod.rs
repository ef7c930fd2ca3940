//! A small CDCL propositional satisfiability solver.
//!
//! This is the boolean engine underneath the lazy SMT loop in
//! [`crate::theory`]. It implements the standard conflict-driven clause
//! learning architecture: two-watched-literal unit propagation, first-UIP
//! conflict analysis, activity-based decision heuristics (a VSIDS variant),
//! phase saving, Luby-sequence restarts, and periodic reduction of the
//! learnt-clause database by LBD (literal block distance) and activity.

mod solver;
mod types;

pub use solver::SatSolver;
pub use types::{BVar, Lit, SatResult};
