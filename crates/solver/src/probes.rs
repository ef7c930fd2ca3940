//! Thread-local counters for the work below the [`crate::Solver`] façade.
//!
//! The CDCL search, the theory modules and the persistent core count their
//! work here, in the [`SolverStats`] shape, instead of threading a
//! statistics handle through every signature: the interval-propagation
//! round ceiling and the model-reconstruction fallback are free functions
//! deep in [`crate::lia`], and the theory-module dispatcher runs
//! identically under the persistent core and the per-check scratch engine.
//! [`crate::solver::Solver`] attributes the difference across each check to
//! its own statistics ([`counted`]). Workers are thread-confined (one
//! solver per worker thread), so the accounting never mixes two solvers'
//! events.

use std::cell::RefCell;

use crate::solver::SolverStats;

thread_local! {
    static PROBES: RefCell<SolverStats> = RefCell::new(SolverStats::default());
}

/// The cumulative counters of the current thread.
pub fn totals() -> SolverStats {
    PROBES.with(|cell| *cell.borrow())
}

/// Runs `f` and returns its result together with what it counted on this
/// thread.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, SolverStats) {
    let before = totals();
    let result = f();
    (result, totals().since(&before))
}

/// Applies one in-place mutation to the thread's counters.
pub(crate) fn bump(f: impl FnOnce(&mut SolverStats)) {
    PROBES.with(|cell| f(&mut cell.borrow_mut()));
}
