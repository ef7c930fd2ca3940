//! Rendering harness results in the shape of the paper's Table 1, plus a
//! machine-readable JSON report carrying the prover-session statistics.

use std::fmt::Write as _;

use cpcf::SessionStats;
use serde::{JsonObject, Serialize};

use crate::harness::{stats_json, ProgramResult, Verdict};

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
pub fn total_stats(results: &[ProgramResult]) -> SessionStats {
    let mut total = SessionStats::default();
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

/// A one-line rendering of the aggregated statistics: every session
/// counter as `name=value` in declaration order (`time` in milliseconds),
/// then the row-level totals.
pub fn summarize_stats(results: &[ProgramResult]) -> String {
    let mut line = String::from("solver stats:");
    let row_totals = [
        (
            "cross_variant_cache_hits",
            total_cross_variant_hits(results),
        ),
        ("lemmas_warm_started", total_lemmas_warm_started(results)),
        ("exports_skipped", total_exports_skipped(results)),
    ];
    for (i, (name, value)) in total_stats(results)
        .fields()
        .into_iter()
        .chain(row_totals)
        .enumerate()
    {
        let separator = if i == 0 { " " } else { ", " };
        let _ = write!(line, "{separator}{name}={value}");
    }
    line
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
        .raw_field("stats", stats_json(&total_stats(results)))
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
        // Every counter nonzero, so a key dropped from a report shows.
        let stats = <SessionStats as folic::counters::Counter>::sample(&mut 0);
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
            stats,
            cross_variant_cache_hits: 1,
            worker_summaries: vec![stats],
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
        let one = rows[0].stats.fields();
        let total = total_stats(&rows).fields();
        let line = summarize_stats(&rows);
        for ((name, single), (_, summed)) in one.iter().zip(&total) {
            assert_eq!(*summed, 2 * single, "{name} sums over rows");
            assert!(line.contains(&format!(" {name}={summed}")), "{line}");
        }
        assert!(line.starts_with("solver stats: queries="), "{line}");
        assert!(line.ends_with(", exports_skipped=2"), "{line}");
    }

    #[test]
    fn json_report_carries_rows_and_stats() {
        let rows = vec![sample("a", Verdict::Counterexample)];
        let json = to_json(&rows, 123);
        assert!(json.starts_with('{'));
        assert!(json.contains("\"rows\":[{"));
        assert!(json.contains("\"stats\":{\"queries\":"));
        for (name, value) in total_stats(&rows).fields() {
            assert!(json.contains(&format!("\"{name}\":{value}")), "{name}");
        }
        assert!(json.contains("\"lemmas_warm_started\":2"));
        assert!(json.contains("\"exports_skipped\":1"));
        assert!(json.contains("\"analysis_ms\":12"), "5 + 7 ms of analysis");
        assert!(json.contains("\"wall_ms\":123"));
    }

    #[test]
    fn json_report_carries_every_key_the_ci_guards_grep() {
        let json = to_json(&[sample("a", Verdict::Counterexample)], 1);
        for key in [
            "snapshots",
            "clauses_reused",
            "cone_vars_pruned",
            "learnt_clauses",
            "lemmas_imported",
            "theory_dispatch_dl",
            "propagation_ceiling_hits",
            "store_hits",
            "lemmas_warm_started",
            "exports_skipped",
        ] {
            let pattern = format!("\"{key}\":");
            let at = json
                .rfind(&pattern)
                .unwrap_or_else(|| panic!("{key} missing"));
            let value = &json[at + pattern.len()..];
            assert!(value.starts_with(|c: char| c.is_ascii_digit()), "{key}");
        }
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
