//! Running the analysis on corpus programs and collecting Table 1 rows.
//!
//! [`run_all`] shards the corpus programs across [`BenchOptions::workers`]
//! threads; inside `cpcf` each module's exports are analyzed one after
//! another on the thread that runs the program. Each program gets one
//! [`SharedVerdictCache`] spanning its correct and faulty variant runs; the
//! cache's epoch counter makes the cross-variant verdict reuse measurable
//! ([`ProgramResult::cross_variant_cache_hits`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cpcf::{
    analyze_module, AnalyzeOptions, EvalOptions, ExportAnalysis, Expr, SessionStats,
    SharedVerdictCache,
};
use serde::{JsonObject, Serialize};

use crate::corpus::{BenchProgram, Group};

/// Options for a harness run.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Options handed to the analyzer.
    pub analyze: AnalyzeOptions,
    /// How many threads [`run_all`] shards the programs across; `0` means
    /// one per hardware thread. Defaults to `1`.
    pub workers: usize,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            analyze: AnalyzeOptions {
                eval: EvalOptions {
                    fuel: 3_000,
                    max_branches: 32,
                    havoc_depth: 2,
                    ..EvalOptions::default()
                },
                context_depth: 2,
                ..AnalyzeOptions::default()
            },
            workers: 1,
        }
    }
}

impl BenchOptions {
    /// A drastically reduced budget for tests that analyse many programs:
    /// deep enough to find the shallow bugs, small enough that a single run
    /// takes milliseconds.
    pub fn quick() -> Self {
        BenchOptions {
            analyze: AnalyzeOptions {
                eval: EvalOptions {
                    fuel: 800,
                    max_branches: 16,
                    havoc_depth: 1,
                    ..EvalOptions::default()
                },
                context_depth: 1,
                ..AnalyzeOptions::default()
            },
            workers: 1,
        }
    }

    /// The same budget with the incremental prover session replaced by the
    /// original fresh-solver-per-query engine (the reference engine).
    pub fn fresh_per_query(mut self) -> Self {
        self.analyze.eval.prove.fresh_per_query = true;
        self
    }

    /// The same budget with [`run_all`]'s programs sharded over `workers`
    /// threads. `0` means "auto": one worker per hardware thread.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// Resolves a requested worker count to an actual one: `0` ("auto") becomes
/// the machine's available parallelism (1 when that cannot be determined),
/// any other value is taken as-is.
fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// The aggregate verdict for one program variant (all of its exports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every export verified.
    Verified,
    /// Some export has a validated concrete counterexample.
    Counterexample,
    /// Some export has an unconfirmed (probable) violation and none has a
    /// confirmed counterexample.
    ProbableError,
    /// The budget ran out before anything conclusive was found.
    Exhausted,
    /// The program failed to parse (a harness bug, not a benchmark result).
    ParseError,
}

impl Verdict {
    /// Short marker used in the rendered table.
    pub fn marker(self) -> &'static str {
        match self {
            Verdict::Verified => "ok",
            Verdict::Counterexample => "cex",
            Verdict::ProbableError => "probable",
            Verdict::Exhausted => "budget",
            Verdict::ParseError => "parse!",
        }
    }
}

impl Serialize for Verdict {
    fn to_json(&self) -> String {
        serde::escape_string(self.marker())
    }
}

/// Renders prover-session statistics as a flat JSON object, one key per
/// counter in declaration order ([`SessionStats::fields`]; the nested
/// solver counters are flattened, and `time` is in milliseconds).
pub fn stats_json(stats: &SessionStats) -> String {
    stats
        .fields()
        .iter()
        .fold(JsonObject::new(), |object, (name, value)| {
            object.field(name, value)
        })
        .finish()
}

/// The Table 1 row produced for one corpus program.
#[derive(Debug, Clone)]
pub struct ProgramResult {
    /// Program name.
    pub name: String,
    /// Group title.
    pub group: String,
    /// Source lines of the analysed (faulty) variant.
    pub lines: usize,
    /// Highest contract order among the exports.
    pub order: u32,
    /// Verdict on the correct variant (expected: `Verified`).
    pub correct_verdict: Verdict,
    /// Analysis time for the correct variant, in milliseconds.
    pub correct_ms: u128,
    /// Verdict on the faulty variant (expected: `Counterexample`, or
    /// `ProbableError` for the `*`-marked rows).
    pub faulty_verdict: Verdict,
    /// Analysis time for the faulty variant, in milliseconds.
    pub faulty_ms: u128,
    /// True for rows the paper itself reports as unsolved ("others-w").
    pub expected_unsolved: bool,
    /// Prover-session statistics summed over both variants.
    pub stats: SessionStats,
    /// Shared-cache hits during the faulty variant run on verdicts computed
    /// during the correct variant run (both variants share one cache whose
    /// epoch is advanced between them). Zero when the cache is disabled
    /// (fresh-per-query mode).
    pub cross_variant_cache_hits: u64,
    /// Stored theory lemmas re-published into this program's lemma pool
    /// before analysis (zero without `--store`, and on the cold run).
    pub lemmas_warm_started: u64,
    /// Exports answered straight from the store because their
    /// dependency-cone hash was unchanged (zero without `--incremental`).
    pub exports_skipped: u64,
}

impl Serialize for ProgramResult {
    fn to_json(&self) -> String {
        JsonObject::new()
            .field("name", &self.name)
            .field("group", &self.group)
            .field("lines", &self.lines)
            .field("order", &self.order)
            .field("correct_verdict", &self.correct_verdict)
            .field("correct_ms", &self.correct_ms)
            .field("faulty_verdict", &self.faulty_verdict)
            .field("faulty_ms", &self.faulty_ms)
            .field("expected_unsolved", &self.expected_unsolved)
            .raw_field("stats", stats_json(&self.stats))
            .field("cross_variant_cache_hits", &self.cross_variant_cache_hits)
            .field("lemmas_warm_started", &self.lemmas_warm_started)
            .field("exports_skipped", &self.exports_skipped)
            .finish()
    }
}

impl ProgramResult {
    /// True if the row behaves as the paper's evaluation expects: the
    /// correct variant verifies and the faulty variant produces a
    /// counterexample (or, for the `*` rows, a probable violation or an
    /// exhausted budget).
    pub fn matches_expectation(&self) -> bool {
        let correct_ok = self.correct_verdict == Verdict::Verified;
        let faulty_ok = if self.expected_unsolved {
            matches!(
                self.faulty_verdict,
                Verdict::ProbableError | Verdict::Exhausted
            )
        } else {
            self.faulty_verdict == Verdict::Counterexample
        };
        correct_ok && faulty_ok
    }
}

/// The contract order of an export's contract expression (the paper's
/// "Order" column: `int → int` is order 1, `(int → int) → int` order 2, …).
pub fn contract_order(contract: &Expr) -> u32 {
    match contract {
        Expr::CArrow(doms, rng) => {
            let dom_order = doms.iter().map(contract_order).max().unwrap_or(0) + 1;
            dom_order.max(contract_order(rng))
        }
        Expr::CAnd(parts) | Expr::COr(parts) | Expr::COneOf(parts) => {
            parts.iter().map(contract_order).max().unwrap_or(0)
        }
        Expr::CCons(a, b) => contract_order(a).max(contract_order(b)),
        Expr::CListOf(inner) => contract_order(inner),
        _ => 0,
    }
}

fn analyze_variant(
    source: &str,
    options: &BenchOptions,
) -> (Verdict, u128, u32, SessionStats, u64) {
    let start = Instant::now();
    let Ok((program, _)) = cpcf::parse_program(source) else {
        return (Verdict::ParseError, 0, 0, SessionStats::default(), 0);
    };
    let module_name = program
        .modules
        .last()
        .map(|m| m.name.clone())
        .unwrap_or_else(|| "main".to_string());
    let order = program
        .module(&module_name)
        .map(|m| {
            m.provides
                .iter()
                .map(|p| contract_order(&p.contract))
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    let report = analyze_module(&program, &module_name, &options.analyze);
    let elapsed = start.elapsed().as_millis();
    let mut verdict = Verdict::Verified;
    for (_, export) in &report.exports {
        match export {
            ExportAnalysis::Counterexample(_) => {
                verdict = Verdict::Counterexample;
                break;
            }
            ExportAnalysis::ProbableError(_) => verdict = Verdict::ProbableError,
            ExportAnalysis::Exhausted => {
                if verdict == Verdict::Verified {
                    verdict = Verdict::Exhausted;
                }
            }
            ExportAnalysis::Verified => {}
        }
    }
    (
        verdict,
        elapsed,
        order,
        report.stats,
        report.skipped.len() as u64,
    )
}

/// Runs both variants of a corpus program. The two runs share one
/// [`SharedVerdictCache`] with an epoch boundary between them, so the faulty
/// run reuses every verdict the correct run computed on their (large) shared
/// evaluation prefix — and the reuse is reported as
/// [`ProgramResult::cross_variant_cache_hits`]. The variants likewise share
/// one [`cpcf::SharedLemmaPool`]: theory lemmas derived while analysing the
/// correct variant prune the faulty variant's searches.
pub fn run_program(program: &BenchProgram, options: &BenchOptions) -> ProgramResult {
    eprintln!("[table1] analysing {} ...", program.name);
    let mut options = options.clone();
    // With a persistent store attached (`--store`), the per-program shared
    // cache gains the disk tier: misses fall through to verdicts an earlier
    // process proved, and new verdicts are appended for the next one.
    let cache = match &options.analyze.store {
        Some(store) => SharedVerdictCache::with_store(store.clone()),
        None => SharedVerdictCache::new(),
    };
    options.analyze.shared_cache = Some(cache.clone());
    let pool = options
        .analyze
        .shared_lemmas
        .get_or_insert_with(cpcf::SharedLemmaPool::new);
    // Warm-start the program's lemma pool from the store up front so the
    // per-program count is attributable; the analyzer leaves a pool it was
    // handed to its owner.
    let lemmas_warm_started = match &options.analyze.store {
        Some(store) => store.warm_start_lemmas(pool),
        None => 0,
    };
    let (correct_verdict, correct_ms, order, correct_stats, correct_skipped) =
        analyze_variant(program.correct, &options);
    cache.advance_epoch();
    let (faulty_verdict, faulty_ms, faulty_order, faulty_stats, faulty_skipped) =
        analyze_variant(program.faulty, &options);
    eprintln!(
        "[table1]   {}: correct {:?} in {} ms, faulty {:?} in {} ms",
        program.name, correct_verdict, correct_ms, faulty_verdict, faulty_ms
    );
    let mut stats = correct_stats;
    stats.merge(&faulty_stats);
    ProgramResult {
        name: program.name.to_string(),
        group: program.group.title().to_string(),
        lines: program.lines(),
        order: order.max(faulty_order),
        correct_verdict,
        correct_ms,
        faulty_verdict,
        faulty_ms,
        expected_unsolved: program.expected_unsolved,
        stats,
        cross_variant_cache_hits: cache.cross_epoch_hits(),
        lemmas_warm_started,
        exports_skipped: correct_skipped + faulty_skipped,
    }
}

/// Runs a list of programs, sharding them across `options.workers` threads
/// (each program's two variants stay on one thread so the cross-variant
/// cache sharing is preserved). Results come back in corpus order
/// regardless of completion order.
pub fn run_all(programs: &[BenchProgram], options: &BenchOptions) -> Vec<ProgramResult> {
    // `workers: 0` means "auto" (one per hardware thread), then capped by
    // the number of programs there actually are to run.
    let workers = resolve_workers(options.workers).clamp(1, programs.len().max(1));
    if workers <= 1 {
        return programs.iter().map(|p| run_program(p, options)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<ProgramResult>> = vec![None; programs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut rows = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(program) = programs.get(index) else {
                            break;
                        };
                        rows.push((index, run_program(program, options)));
                    }
                    rows
                })
            })
            .collect();
        for handle in handles {
            for (index, row) in handle.join().expect("bench worker panicked") {
                slots[index] = Some(row);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every program slot is filled"))
        .collect()
}

/// Runs every program of a group.
pub fn run_group(group: Group, options: &BenchOptions) -> Vec<ProgramResult> {
    run_all(&crate::corpus::group_programs(group), options)
}

/// The result of running one program under both prover engines.
#[derive(Debug, Clone)]
pub struct DifferentialResult {
    /// The row produced with the incremental prover session (the default).
    pub incremental: ProgramResult,
    /// The row produced with the `fresh_per_query` reference engine (the
    /// original solver-per-query engine).
    pub fresh: ProgramResult,
}

impl DifferentialResult {
    /// True if both engines agreed on both variants' verdicts.
    pub fn verdicts_match(&self) -> bool {
        self.incremental.correct_verdict == self.fresh.correct_verdict
            && self.incremental.faulty_verdict == self.fresh.faulty_verdict
    }
}

/// Runs a program with the incremental session and with the
/// `fresh_per_query` reference engine, for differential comparison. The
/// incremental leg pins `fresh_per_query = false`, so the two legs run
/// different engines whatever the caller's options select.
pub fn run_program_differential(
    program: &BenchProgram,
    options: &BenchOptions,
) -> DifferentialResult {
    let mut incremental_options = options.clone();
    incremental_options.analyze.eval.prove.fresh_per_query = false;
    let incremental = run_program(program, &incremental_options);
    let fresh = run_program(program, &options.clone().fresh_per_query());
    DifferentialResult { incremental, fresh }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::group_programs;

    #[test]
    fn contract_order_matches_paper_convention() {
        let first = cpcf::parse_expr("(-> integer? integer?)").expect("parses");
        assert_eq!(contract_order(&first), 1);
        let second = cpcf::parse_expr("(-> (-> integer? integer?) integer?)").expect("parses");
        assert_eq!(contract_order(&second), 2);
        let third =
            cpcf::parse_expr("(-> (-> (-> integer? integer?) integer?) integer?)").expect("parses");
        assert_eq!(contract_order(&third), 3);
        let flat = cpcf::parse_expr("(and/c integer? pair?)").expect("parses");
        assert_eq!(contract_order(&flat), 0);
    }

    #[test]
    fn intro1_row_matches_the_paper_shape() {
        let program = group_programs(crate::corpus::Group::Kobayashi)
            .into_iter()
            .find(|p| p.name == "intro1")
            .expect("intro1 exists");
        let result = run_program(&program, &BenchOptions::default());
        assert_eq!(result.correct_verdict, Verdict::Verified);
        assert_eq!(result.faulty_verdict, Verdict::Counterexample);
        assert!(result.matches_expectation());
    }

    #[test]
    fn unsolved_rows_report_probable_errors() {
        let program = group_programs(crate::corpus::Group::Others)
            .into_iter()
            .find(|p| p.name == "w-square-div")
            .expect("w-square-div exists");
        let result = run_program(&program, &BenchOptions::default());
        assert!(result.expected_unsolved);
        assert_ne!(result.faulty_verdict, Verdict::ParseError);
    }

    #[test]
    fn occurrence_incremental_matches_fresh_and_caches() {
        // The acceptance check for the incremental prover session: on the
        // occurrence group, verdicts are identical between the incremental
        // and fresh-per-query engines, the cache is exercised, and far fewer
        // full-heap encodings than queries are needed.
        let options = BenchOptions::quick();
        let programs: Vec<_> = group_programs(crate::corpus::Group::Occurrence)
            .into_iter()
            .take(2)
            .collect();
        let mut incremental_total = SessionStats::default();
        for program in &programs {
            let differential = run_program_differential(program, &options);
            assert!(
                differential.verdicts_match(),
                "{}: incremental ({:?}/{:?}) and fresh ({:?}/{:?}) engines disagree",
                program.name,
                differential.incremental.correct_verdict,
                differential.incremental.faulty_verdict,
                differential.fresh.correct_verdict,
                differential.fresh.faulty_verdict,
            );
            incremental_total.merge(&differential.incremental.stats);
            // The reference engine re-encodes the heap for every solver-backed query.
            let fresh = &differential.fresh.stats;
            assert_eq!(fresh.cache_hits, 0, "fresh mode must not use the cache");
        }
        assert!(
            incremental_total.cache_hits >= 1,
            "no cache hits: {incremental_total:?}"
        );
        assert!(
            incremental_total.full_encodings < incremental_total.queries,
            "incremental mode should encode the heap far less often than it queries: \
             {incremental_total:?}"
        );
    }

    #[test]
    fn program_results_serialize_to_json() {
        let result = ProgramResult {
            name: "a".to_string(),
            group: "G".to_string(),
            lines: 10,
            order: 1,
            correct_verdict: Verdict::Verified,
            correct_ms: 5,
            faulty_verdict: Verdict::Counterexample,
            faulty_ms: 7,
            expected_unsolved: false,
            stats: SessionStats {
                queries: 10,
                cache_hits: 3,
                ..SessionStats::default()
            },
            cross_variant_cache_hits: 2,
            lemmas_warm_started: 4,
            exports_skipped: 1,
        };
        let json = result.to_json();
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"correct_verdict\":\"ok\""));
        assert!(json.contains("\"stats\":{\"queries\":10,"));
        for (name, value) in result.stats.fields() {
            assert!(json.contains(&format!("\"{name}\":{value}")), "{name}");
        }
        assert!(json.contains("\"cross_variant_cache_hits\":2"));
        assert!(json.contains("\"lemmas_warm_started\":4"));
        assert!(json.contains("\"exports_skipped\":1"));
    }

    #[test]
    fn variants_share_verdicts_across_the_epoch_boundary() {
        let program = group_programs(crate::corpus::Group::Kobayashi)
            .into_iter()
            .find(|p| p.name == "intro1")
            .expect("intro1 exists");
        let result = run_program(&program, &BenchOptions::quick());
        assert!(
            result.cross_variant_cache_hits > 0,
            "the faulty variant must reuse verdicts from the correct run: {result:?}"
        );
        assert!(
            result.stats.cache_hits >= result.cross_variant_cache_hits,
            "cache hits include the cross-variant ones: {:?}",
            result.stats
        );
    }

    #[test]
    fn run_all_keeps_corpus_order_under_program_sharding() {
        let programs: Vec<_> = group_programs(crate::corpus::Group::Games)
            .into_iter()
            .chain(
                group_programs(crate::corpus::Group::Occurrence)
                    .into_iter()
                    .take(3),
            )
            .collect();
        let row_verdicts = |rows: &[ProgramResult]| -> Vec<(String, Verdict, Verdict)> {
            rows.iter()
                .map(|r| (r.name.clone(), r.correct_verdict, r.faulty_verdict))
                .collect()
        };
        let sequential = run_all(&programs, &BenchOptions::quick());
        let sharded = run_all(&programs, &BenchOptions::quick().with_workers(3));
        let names: Vec<&str> = sharded.iter().map(|r| r.name.as_str()).collect();
        let expected: Vec<&str> = programs.iter().map(|p| p.name).collect();
        assert_eq!(names, expected);
        assert_eq!(row_verdicts(&sequential), row_verdicts(&sharded));
    }

    #[test]
    fn zero_workers_resolves_to_available_parallelism() {
        let auto = resolve_workers(0);
        assert!(auto >= 1, "auto never resolves below one worker");
        assert_eq!(
            auto,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        // Positive requests pass through unchanged.
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(7), 7);
    }

    #[test]
    fn cdcl_counters_flow_into_row_stats() {
        // fold-div's division constraints introduce witness variables with
        // boolean structure (implication/disjunction side conditions), and
        // its verification queries are UNSAT-heavy — the lazy SMT loop must
        // run the CDCL core, so its counters must surface as nonzero.
        let program = group_programs(crate::corpus::Group::Kobayashi)
            .into_iter()
            .find(|p| p.name == "fold-div")
            .expect("fold-div exists");
        let result = run_program(&program, &BenchOptions::quick());
        assert!(
            result.stats.solver.propagations > 0,
            "no CDCL propagations surfaced: {:?}",
            result.stats
        );
        assert!(
            result.stats.solver.conflicts > 0,
            "no CDCL conflicts surfaced: {:?}",
            result.stats
        );
    }
}
