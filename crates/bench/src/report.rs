//! Rendering harness results in the shape of the paper's Table 1, plus a
//! machine-readable JSON report carrying the prover-session statistics.

use std::fmt::Write as _;

use serde::{JsonObject, Serialize};

use crate::harness::{ProgramResult, StatsSummary, Verdict};

/// Renders results as a text table with the same columns as Table 1:
/// program, lines, order, time to analyse the correct variant, time to
/// refute the incorrect variant. Cells show the verdict marker when the
/// outcome is not the expected one (so "probable"/"budget" stand out the
/// way the paper's `*` rows do).
pub fn render_table(results: &[ProgramResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>6} {:>16} {:>18}",
        "Program", "Lines", "Order", "Correct (ms)", "Incorrect (ms)"
    );
    let mut current_group = None;
    for result in results {
        if current_group != Some(&result.group) {
            let _ = writeln!(out, "--- {}", result.group);
            current_group = Some(&result.group);
        }
        let correct_cell = match result.correct_verdict {
            Verdict::Verified => format!("{}", result.correct_ms),
            other => format!("{} ({})", result.correct_ms, other.marker()),
        };
        let faulty_cell = match result.faulty_verdict {
            Verdict::Counterexample => format!("{}", result.faulty_ms),
            other if result.expected_unsolved => {
                format!("{} ({})*", result.faulty_ms, other.marker())
            }
            other => format!("{} ({})", result.faulty_ms, other.marker()),
        };
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>6} {:>16} {:>18}",
            result.name, result.lines, result.order, correct_cell, faulty_cell
        );
    }
    out
}

/// A short summary: how many rows match the paper's expectation.
pub fn summarize(results: &[ProgramResult]) -> String {
    let total = results.len();
    let matching = results.iter().filter(|r| r.matches_expectation()).count();
    let counterexamples = results
        .iter()
        .filter(|r| r.faulty_verdict == Verdict::Counterexample)
        .count();
    let verified = results
        .iter()
        .filter(|r| r.correct_verdict == Verdict::Verified)
        .count();
    format!(
        "{matching}/{total} rows match the paper's expectation \
         ({verified} correct variants verified, {counterexamples} faulty variants refuted \
         with validated concrete counterexamples)"
    )
}

/// Sums the prover-session statistics over all rows.
pub fn total_stats(results: &[ProgramResult]) -> StatsSummary {
    let mut total = StatsSummary::default();
    for result in results {
        total.merge(&result.stats);
    }
    total
}

/// Sums the cross-variant cache hits over all rows.
pub fn total_cross_variant_hits(results: &[ProgramResult]) -> u64 {
    results.iter().map(|r| r.cross_variant_cache_hits).sum()
}

/// Sums the warm-started lemmas over all rows (each row's per-program pool
/// is warm-started independently from the store).
pub fn total_lemmas_warm_started(results: &[ProgramResult]) -> u64 {
    results.iter().map(|r| r.lemmas_warm_started).sum()
}

/// Sums the incrementally skipped exports over all rows.
pub fn total_exports_skipped(results: &[ProgramResult]) -> u64 {
    results.iter().map(|r| r.exports_skipped).sum()
}

/// A one-line rendering of the aggregated solver statistics: how much work
/// the incremental prover session and the shared verdict cache saved.
pub fn summarize_stats(results: &[ProgramResult]) -> String {
    let total = total_stats(results);
    format!(
        "solver stats: {} prover queries, {} cache hits ({} shared, {} cross-variant), \
         {} full + {} delta heap encodings ({} reused), {} heap snapshots \
         ({} map nodes copied, {} journal bytes shared), {} solver checks \
         ({} conflicts, {} propagations, {} clauses reused, {} atoms interned, \
         {} cone vars pruned, {} clauses learnt, {} deleted, {} luby restarts, \
         {} lemmas published, {} imported), {} dl checks \
         ({} conflicts, {} relaxations, {} dl + {} lia dispatches, \
         {} iteration exhaustions, {} ceiling hits, {} reconstruction failures), \
         store: {} hits, {} misses, {} writes, {} lemmas warm-started, \
         {} exports skipped, in {} ms",
        total.queries,
        total.cache_hits,
        total.shared_cache_hits,
        total_cross_variant_hits(results),
        total.full_encodings,
        total.delta_encodings,
        total.reused_encodings,
        total.snapshots,
        total.nodes_copied,
        total.journal_bytes_shared,
        total.solver_checks,
        total.solver_conflicts,
        total.solver_propagations,
        total.clauses_reused,
        total.atoms_interned,
        total.cone_vars_pruned,
        total.learnt_clauses,
        total.clauses_deleted,
        total.restarts_luby,
        total.lemmas_published,
        total.lemmas_imported,
        total.dl_checks,
        total.dl_conflicts,
        total.dl_propagations,
        total.theory_dispatch_dl,
        total.theory_dispatch_lia,
        total.theory_iterations_exhausted,
        total.propagation_ceiling_hits,
        total.model_reconstruction_failures,
        total.store_hits,
        total.store_misses,
        total.store_writes,
        total_lemmas_warm_started(results),
        total_exports_skipped(results),
        total.solver_ms,
    )
}

/// Per-row and aggregate wall-clock timing (the `--timing` view): analysis
/// milliseconds for each variant and their sum per row, the aggregate
/// analysis time across rows, and the harness's end-to-end monotonic
/// wall-clock (which also covers parsing and, under `--workers`, reflects
/// thread-level overlap).
pub fn timing_table(results: &[ProgramResult], wall_ms: u128) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>12}",
        "Program", "Correct(ms)", "Faulty(ms)", "Total(ms)"
    );
    let mut aggregate = 0u128;
    for result in results {
        let total = result.correct_ms + result.faulty_ms;
        aggregate += total;
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>12}",
            result.name, result.correct_ms, result.faulty_ms, total
        );
    }
    let _ = writeln!(
        out,
        "timing: {} rows, {} ms analysis time, {} ms wall-clock",
        results.len(),
        aggregate,
        wall_ms
    );
    out
}

/// The summed per-row analysis time (correct + faulty variants), in
/// milliseconds.
pub fn total_analysis_ms(results: &[ProgramResult]) -> u128 {
    results.iter().map(|r| r.correct_ms + r.faulty_ms).sum()
}

/// Renders the full result set as a JSON document (an object with a `rows`
/// array, aggregate `stats`, and monotonic wall-clock timing), for
/// downstream tooling. `wall_ms` is the harness's end-to-end run time as
/// measured by a monotonic clock ([`std::time::Instant`]).
pub fn to_json(results: &[ProgramResult], wall_ms: u128) -> String {
    JsonObject::new()
        .raw_field("rows", results.to_json())
        .field("stats", &total_stats(results))
        .field(
            "cross_variant_cache_hits",
            &total_cross_variant_hits(results),
        )
        .field("lemmas_warm_started", &total_lemmas_warm_started(results))
        .field("exports_skipped", &total_exports_skipped(results))
        .field("analysis_ms", &total_analysis_ms(results))
        .field("wall_ms", &wall_ms)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, verdict: Verdict) -> ProgramResult {
        ProgramResult {
            name: name.to_string(),
            group: "G".to_string(),
            lines: 10,
            order: 1,
            correct_verdict: Verdict::Verified,
            correct_ms: 5,
            faulty_verdict: verdict,
            faulty_ms: 7,
            expected_unsolved: false,
            stats: StatsSummary {
                queries: 20,
                cache_hits: 4,
                shared_cache_hits: 2,
                store_hits: 1,
                store_misses: 3,
                store_writes: 2,
                full_encodings: 2,
                delta_encodings: 5,
                reused_encodings: 3,
                snapshots: 9,
                nodes_copied: 11,
                journal_bytes_shared: 13,
                solver_checks: 11,
                solver_conflicts: 6,
                solver_propagations: 40,
                clauses_reused: 15,
                atoms_interned: 17,
                cone_vars_pruned: 19,
                learnt_clauses: 21,
                clauses_deleted: 8,
                restarts_luby: 3,
                lemmas_published: 5,
                lemmas_imported: 2,
                dl_checks: 7,
                dl_conflicts: 4,
                dl_propagations: 23,
                theory_dispatch_dl: 7,
                theory_dispatch_lia: 4,
                theory_iterations_exhausted: 1,
                propagation_ceiling_hits: 0,
                model_reconstruction_failures: 0,
                solver_ms: 1,
            },
            cross_variant_cache_hits: 1,
            worker_summaries: vec![StatsSummary {
                queries: 20,
                ..StatsSummary::default()
            }],
            lemmas_warm_started: 2,
            exports_skipped: 1,
        }
    }

    #[test]
    fn table_contains_rows_and_headers() {
        let rows = vec![
            sample("a", Verdict::Counterexample),
            sample("b", Verdict::ProbableError),
        ];
        let table = render_table(&rows);
        assert!(table.contains("Program"));
        assert!(table.contains("a"));
        assert!(table.contains("probable"));
    }

    #[test]
    fn summary_counts_expectations() {
        let rows = vec![
            sample("a", Verdict::Counterexample),
            sample("b", Verdict::ProbableError),
        ];
        let summary = summarize(&rows);
        assert!(summary.starts_with("1/2"));
    }

    #[test]
    fn stats_summary_aggregates_rows() {
        let rows = vec![
            sample("a", Verdict::Counterexample),
            sample("b", Verdict::Verified),
        ];
        let total = total_stats(&rows);
        assert_eq!(total.queries, 40);
        assert_eq!(total.cache_hits, 8);
        let line = summarize_stats(&rows);
        assert!(line.contains("40 prover queries"));
        assert!(line.contains("8 cache hits"));
    }

    #[test]
    fn json_report_carries_rows_and_stats() {
        let rows = vec![sample("a", Verdict::Counterexample)];
        let json = to_json(&rows, 123);
        assert!(json.starts_with('{'));
        assert!(json.contains("\"rows\":[{"));
        assert!(json.contains("\"stats\":{\"queries\":20"));
        assert!(json.contains("\"snapshots\":9"));
        assert!(json.contains("\"nodes_copied\":11"));
        assert!(json.contains("\"journal_bytes_shared\":13"));
        assert!(json.contains("\"dl_checks\":7"));
        assert!(json.contains("\"dl_conflicts\":4"));
        assert!(json.contains("\"theory_dispatch_dl\":7"));
        assert!(json.contains("\"propagation_ceiling_hits\":0"));
        assert!(json.contains("\"model_reconstruction_failures\":0"));
        assert!(json.contains("\"store_hits\":1"));
        assert!(json.contains("\"store_misses\":3"));
        assert!(json.contains("\"store_writes\":2"));
        assert!(json.contains("\"lemmas_warm_started\":2"));
        assert!(json.contains("\"exports_skipped\":1"));
        assert!(json.contains("\"analysis_ms\":12"), "5 + 7 ms of analysis");
        assert!(json.contains("\"wall_ms\":123"));
    }

    #[test]
    fn timing_table_reports_rows_and_aggregates() {
        let rows = vec![
            sample("a", Verdict::Counterexample),
            sample("b", Verdict::Verified),
        ];
        let table = timing_table(&rows, 99);
        assert!(table.contains("Correct(ms)"));
        assert!(table.contains("a"));
        assert!(
            table.contains("2 rows, 24 ms analysis time, 99 ms wall-clock"),
            "{table}"
        );
        assert_eq!(total_analysis_ms(&rows), 24);
    }
}
