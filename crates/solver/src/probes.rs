//! Thread-local probe counters for theory-layer events.
//!
//! Several counters this crate reports live in code with no statistics
//! handle in scope: the interval-propagation round ceiling and the
//! model-reconstruction fallback are free functions deep in [`crate::lia`],
//! and the theory-module dispatcher runs identically under the persistent
//! core and the per-check scratch engine. Instead of threading a counter
//! through every signature, those sites bump a thread-local cell here and
//! [`crate::solver::Solver::check`] attributes the *delta* across each
//! check to its own [`crate::solver::SolverStats`]. Workers are
//! thread-confined (one solver per worker thread), so the delta accounting
//! never mixes two solvers' events.

use std::cell::Cell;

/// A snapshot of the thread-local theory-layer counters. All counters are
/// cumulative for the current thread; consumers subtract snapshots (see
/// [`TheoryProbes::delta_since`]) to attribute events to one check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TheoryProbes {
    /// Conjunctions routed to the difference-logic module.
    pub dl_checks: u64,
    /// Difference-logic refutations (negative constraint cycles found).
    pub dl_conflicts: u64,
    /// Potential-repair edge relaxations performed by the difference-logic
    /// module across all checks.
    pub dl_propagations: u64,
    /// Dispatcher routings to the difference-logic module (equals
    /// `dl_checks`; kept separate so the dispatch split is explicit).
    pub theory_dispatch_dl: u64,
    /// Dispatcher routings to the general LIA module (conjunctions outside
    /// the difference fragment, or every conjunction when
    /// `TheoryConfig::theory_dl` is off).
    pub theory_dispatch_lia: u64,
    /// Lazy-SMT loops that exhausted `TheoryConfig::max_iterations` and
    /// degraded the verdict to `Unknown`.
    pub theory_iterations_exhausted: u64,
    /// Interval-propagation fixpoint loops cut off by the
    /// `MAX_PROPAGATION_ROUNDS` ceiling (the difference-cycle divergence
    /// symptom the DL module removes).
    pub propagation_ceiling_hits: u64,
    /// Models found by the LIA search that failed re-verification after
    /// eliminated variables were reconstructed (the verdict conservatively
    /// degrades to `Unknown`).
    pub model_reconstruction_failures: u64,
}

impl TheoryProbes {
    /// Field-wise difference `self − earlier`, for attributing the events
    /// between two snapshots to one solver check.
    pub fn delta_since(&self, earlier: &TheoryProbes) -> TheoryProbes {
        TheoryProbes {
            dl_checks: self.dl_checks - earlier.dl_checks,
            dl_conflicts: self.dl_conflicts - earlier.dl_conflicts,
            dl_propagations: self.dl_propagations - earlier.dl_propagations,
            theory_dispatch_dl: self.theory_dispatch_dl - earlier.theory_dispatch_dl,
            theory_dispatch_lia: self.theory_dispatch_lia - earlier.theory_dispatch_lia,
            theory_iterations_exhausted: self.theory_iterations_exhausted
                - earlier.theory_iterations_exhausted,
            propagation_ceiling_hits: self.propagation_ceiling_hits
                - earlier.propagation_ceiling_hits,
            model_reconstruction_failures: self.model_reconstruction_failures
                - earlier.model_reconstruction_failures,
        }
    }
}

thread_local! {
    static PROBES: Cell<TheoryProbes> = const { Cell::new(TheoryProbes {
        dl_checks: 0,
        dl_conflicts: 0,
        dl_propagations: 0,
        theory_dispatch_dl: 0,
        theory_dispatch_lia: 0,
        theory_iterations_exhausted: 0,
        propagation_ceiling_hits: 0,
        model_reconstruction_failures: 0,
    }) };
}

/// The cumulative probe counters of the current thread.
pub fn totals() -> TheoryProbes {
    PROBES.with(|cell| cell.get())
}

/// Applies one mutation to the thread's counters.
pub(crate) fn bump(f: impl FnOnce(&mut TheoryProbes)) {
    PROBES.with(|cell| {
        let mut probes = cell.get();
        f(&mut probes);
        cell.set(probes);
    });
}
