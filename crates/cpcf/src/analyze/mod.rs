//! The analysis driver: soft contract verification with counterexamples.
//!
//! For every contracted export of a module, the analyzer synthesizes the
//! most general unknown context allowed by the contract — opaque arguments
//! for every `->` domain, iterated when the range is itself a function
//! contract — and runs the symbolic evaluator. Errors blamed on the module
//! are candidate violations; for each one the heap's model is used to
//! reconstruct concrete inputs, the program is re-run concretely, and only a
//! confirmed blame is reported as a counterexample (otherwise the export is
//! flagged as a *probable* violation, exactly like the paper's tool when the
//! solver cannot produce a model).
//!
//! The driver is split by concern:
//!
//! * [`mod@self`] — options, verdicts and the [`ModuleReport`];
//! * `context` — most-general-context synthesis and counterexample
//!   instantiation ([`instantiate`]);
//! * `export` — the single-export analysis and concrete validation;
//! * `cone` — dependency-cone hashes for incremental re-verification.
//!
//! [`analyze_module`] analyzes a module's exports one after another on the
//! calling thread, through one long-lived [`crate::ProverSession`].

mod cone;
mod context;
mod export;

pub use cone::export_cone_hash;
pub use context::instantiate;

use folic::SharedLemmaPool;

use crate::cex::Counterexample;
use crate::eval::EvalOptions;
use crate::prove::{SessionStats, SharedVerdictCache};
use crate::syntax::{CBlame, Program};

/// The blame party used for the synthesized unknown context.
pub const CONTEXT_PARTY: &str = "context";

/// Options controlling an analysis run.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Evaluator options (fuel, branching, havoc depth).
    pub eval: EvalOptions,
    /// How many nested `->` ranges the synthesized context applies.
    pub context_depth: u32,
    /// A verdict cache shared across this run's prover sessions and, when
    /// the same handle is passed to several runs, across runs — e.g. the
    /// correct and faulty variants of a benchmark program. `None` gives
    /// every session a cache of its own.
    pub shared_cache: Option<SharedVerdictCache>,
    /// A theory-lemma pool shared across this run's prover sessions (and,
    /// when the same handle spans several runs, across runs). `None` makes
    /// the analysis create a pool for this run.
    pub shared_lemmas: Option<SharedLemmaPool>,
    /// A persistent [`crate::AnalysisStore`]. When set, the analysis
    /// warm-starts a lemma pool it created from it before analyzing (a pool
    /// passed in `shared_lemmas` is the caller's to warm), records every
    /// freshly computed per-export verdict under its dependency-cone hash
    /// ([`export_cone_hash`]), and records the lemmas the run published. (The
    /// *verdict-cache* tier is wired separately: build the shared cache
    /// with [`SharedVerdictCache::with_store`].)
    pub store: Option<crate::store::AnalysisStore>,
    /// Incremental re-verification: when `store` is set, exports whose
    /// dependency-cone hash matches a stored verdict are skipped entirely
    /// (the stored [`ExportAnalysis`] is returned and the export listed in
    /// [`ModuleReport::skipped`]); only edited cones are re-analyzed.
    pub incremental: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            eval: EvalOptions::default(),
            context_depth: 3,
            shared_cache: None,
            shared_lemmas: None,
            store: None,
            incremental: false,
        }
    }
}

/// The verdict for a single contracted export.
#[derive(Debug, Clone, PartialEq)]
pub enum ExportAnalysis {
    /// No error blamed on the module is reachable within the budget, and the
    /// whole (finite) interaction space was explored.
    Verified,
    /// A confirmed, concrete counterexample.
    Counterexample(Counterexample),
    /// An error was reached symbolically but no concrete counterexample
    /// could be confirmed.
    ProbableError(CBlame),
    /// The evaluation budget was exhausted before the space was covered.
    Exhausted,
}

impl ExportAnalysis {
    /// True if the export was verified.
    pub fn is_verified(&self) -> bool {
        matches!(self, ExportAnalysis::Verified)
    }

    /// The counterexample, if any.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            ExportAnalysis::Counterexample(c) => Some(c),
            _ => None,
        }
    }
}

/// The analysis report for one module.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleReport {
    /// The analysed module.
    pub module: String,
    /// Per-export verdicts, in module (declaration) order.
    pub exports: Vec<(String, ExportAnalysis)>,
    /// Aggregated prover-session statistics over every export analysis
    /// (including counterexample validation re-runs): query counts, cache
    /// hits, and how many full versus incremental heap encodings the solver
    /// interaction needed.
    pub stats: SessionStats,
    /// Exports whose verdict was reused from the persistent store because
    /// their dependency-cone hash was unchanged (incremental mode only; a
    /// subset of the `exports` names, in module order). Empty outside
    /// [`AnalyzeOptions::incremental`] runs.
    pub skipped: Vec<String>,
}

impl ModuleReport {
    /// True if every export was verified.
    pub fn all_verified(&self) -> bool {
        self.exports.iter().all(|(_, a)| a.is_verified())
    }

    /// The first counterexample found, if any.
    pub fn first_counterexample(&self) -> Option<&Counterexample> {
        self.exports.iter().find_map(|(_, a)| a.counterexample())
    }
}

/// Analyzes the last module of the program with default options.
pub fn analyze(program: &Program) -> ModuleReport {
    let name = program
        .modules
        .last()
        .map(|m| m.name.clone())
        .unwrap_or_else(|| "main".to_string());
    analyze_module(program, &name, &AnalyzeOptions::default())
}

/// Analyzes the named module: its exports one after another, in declaration
/// order, through one prover session.
pub fn analyze_module(
    program: &Program,
    module_name: &str,
    options: &AnalyzeOptions,
) -> ModuleReport {
    let mut report = ModuleReport {
        module: module_name.to_string(),
        exports: Vec::new(),
        stats: SessionStats::default(),
        skipped: Vec::new(),
    };
    let Some(module) = program.module(module_name) else {
        return report;
    };
    // One lemma pool per module run: the export session and every throwaway
    // validation session get a handle to the same pool, so theory lemmas
    // derived against one export prune the searches of the others. An
    // explicit pool in the options wins; its owner has already warm-started
    // it from the store. A pool created here is warm-started before any
    // session exists: stored theory lemmas are universally valid arithmetic
    // facts, so the first CDCL search of this run already begins with the
    // previous run's learned blocking clauses.
    let store = options.store.as_ref();
    let mut options = options.clone();
    let pool = options
        .shared_lemmas
        .get_or_insert_with(|| {
            let pool = SharedLemmaPool::new();
            if let Some(store) = store {
                store.warm_start_lemmas(&pool);
            }
            pool
        })
        .clone();
    // The pool's earlier lemmas came from the store's warm start or from
    // earlier runs sharing the pool, which recorded their own; this run
    // records only the lemmas published from here on.
    let lemma_cursor = pool.len();

    // Created on the first export that needs analysis, so a fully
    // incremental run builds no solver at all.
    let mut session = None;
    for provide in &module.provides {
        // Dependency-cone hashes are computed whenever a store is attached:
        // incremental mode reads them to skip unchanged cones, and every
        // mode writes freshly computed verdicts under them.
        let cone_hash = store.map(|_| cone::export_cone_hash(program, module, provide));
        let reused = match (store, cone_hash) {
            (Some(store), Some(hash)) if options.incremental => {
                store.lookup_export(&module.name, &provide.name, hash)
            }
            _ => None,
        };
        if let Some(analysis) = reused {
            report.exports.push((provide.name.clone(), analysis));
            report.skipped.push(provide.name.clone());
            continue;
        }
        // Heaps are thread-local (Rc-based environments), so the per-thread
        // sharing counters attribute this export's snapshot/copy-on-write
        // work exactly; the delta rides along in the export's SessionStats.
        let sharing_before = crate::pmap::sharing_totals();
        let current = session
            .take()
            .unwrap_or_else(|| export::new_session(&options));
        let (verdict, export_stats, reusable) =
            export::analyze_export(program, module, provide, &options, current);
        session = Some(reusable);
        report.stats.merge(&export_stats);
        report
            .stats
            .merge(&crate::pmap::sharing_totals().since(&sharing_before));
        if let (Some(store), Some(hash)) = (store, cone_hash) {
            store.record_export(&module.name, &provide.name, hash, &verdict);
        }
        report.exports.push((provide.name.clone(), verdict));
    }

    // Persist the theory lemmas this run published, then flush so a crashed
    // *next* process still reads a clean file.
    if let Some(store) = store {
        store.record_lemmas(&pool, lemma_cursor);
        store.flush();
    }
    report
}

/// Convenience: parse and analyze source text, returning the report of the
/// last module.
///
/// # Errors
///
/// Returns a parse error message when the source is malformed.
pub fn analyze_source(source: &str) -> Result<ModuleReport, String> {
    analyze_source_with(source, &AnalyzeOptions::default())
}

/// [`analyze_source`] with explicit options.
///
/// # Errors
///
/// Returns a parse error message when the source is malformed.
pub fn analyze_source_with(source: &str, options: &AnalyzeOptions) -> Result<ModuleReport, String> {
    let (program, _structs) = crate::parse::parse_program(source).map_err(|e| e.to_string())?;
    let name = program
        .modules
        .last()
        .map(|m| m.name.clone())
        .unwrap_or_else(|| "main".to_string());
    Ok(analyze_module(&program, &name, options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::Expr;

    #[test]
    fn safe_increment_is_verified() {
        let report = analyze_source(
            r#"
            (module inc
              (provide [f (-> integer? integer?)])
              (define (f x) (+ x 1)))
            "#,
        )
        .expect("parses");
        assert!(report.all_verified(), "report: {report:?}");
    }

    #[test]
    fn quickcheck_hard_division_yields_counterexample() {
        // f n = 1 / (100 - n): needs exactly n = 100 (§5.2 of the paper).
        let report = analyze_source(
            r#"
            (module div100
              (provide [f (-> integer? integer?)])
              (define (f n) (/ 1 (- 100 n))))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(cex.validated);
        assert!(
            cex.bindings.iter().any(|(_, e)| *e == Expr::Int(100)),
            "expected the input 100, got {:?}",
            cex.bindings
        );
    }

    #[test]
    fn guarded_division_is_verified() {
        let report = analyze_source(
            r#"
            (module safe-div
              (provide [f (-> integer? integer?)])
              (define (f n) (if (zero? n) 0 (/ 100 n))))
            "#,
        )
        .expect("parses");
        assert!(report.all_verified(), "report: {report:?}");
    }

    #[test]
    fn precondition_protects_division() {
        // The contract requires a non-zero argument, so no error is reachable.
        let report = analyze_source(
            r#"
            (module safe-div2
              (provide [f (-> (and/c integer? (lambda (n) (not (zero? n)))) integer?)])
              (define (f n) (/ 100 n)))
            "#,
        )
        .expect("parses");
        assert!(report.all_verified(), "report: {report:?}");
    }

    #[test]
    fn weak_contract_lets_complex_numbers_through() {
        // `<` requires reals but the contract only demands number?: the
        // argmin-style counterexample (§5.2).
        let report = analyze_source(
            r#"
            (module cmp
              (provide [smaller? (-> number? boolean?)])
              (define (smaller? x) (< x 0)))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(cex.validated);
        assert!(
            cex.bindings
                .iter()
                .any(|(_, e)| matches!(e, Expr::Complex(_, _))),
            "expected a complex input, got {:?}",
            cex.bindings
        );
    }

    #[test]
    fn higher_order_argument_counterexample() {
        // The exported function applies its functional argument and divides
        // by the result minus 100: the counterexample must provide a function
        // returning 100.
        let report = analyze_source(
            r#"
            (module ho
              (provide [f (-> (-> integer? integer?) integer? integer?)])
              (define (f g n) (/ 1 (- 100 (g n)))))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(cex.validated);
        assert!(
            cex.bindings
                .iter()
                .any(|(_, e)| matches!(e, Expr::Lam { .. })),
            "expected a functional input, got {:?}",
            cex.bindings
        );
    }

    #[test]
    fn car_of_possibly_empty_list_is_caught() {
        let report = analyze_source(
            r#"
            (module head
              (provide [head (-> (listof integer?) integer?)])
              (define (head xs) (car xs)))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(cex.validated);
    }

    #[test]
    fn nonempty_list_contract_verifies_car() {
        let report = analyze_source(
            r#"
            (module head
              (provide [head (-> (and/c (listof integer?) pair?) integer?)])
              (define (head xs) (car xs)))
            "#,
        )
        .expect("parses");
        assert!(report.all_verified(), "report: {report:?}");
    }

    #[test]
    fn range_contract_violations_blame_the_module() {
        // The module promises a positive result but returns the argument
        // unchanged.
        let report = analyze_source(
            r#"
            (module pos
              (provide [f (-> integer? (and/c integer? (lambda (r) (> r 0))))])
              (define (f x) x))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(cex.validated);
    }

    #[test]
    fn struct_accessors_are_checked() {
        let report = analyze_source(
            r#"
            (module tree
              (struct node (left right))
              (provide [left-of (-> any/c any/c)])
              (define (left-of t) (node-left t)))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(
            cex.validated,
            "accessing a field of a non-node must be caught"
        );
    }

    #[test]
    fn struct_contract_protects_accessors() {
        let report = analyze_source(
            r#"
            (module tree
              (struct node (left right))
              (provide [left-of (-> node? any/c)])
              (define (left-of t) (node-left t)))
            "#,
        )
        .expect("parses");
        assert!(report.all_verified(), "report: {report:?}");
    }

    /// A module with several exports of mixed verdicts.
    const MULTI_EXPORT: &str = r#"
        (module multi
          (provide [safe (-> integer? integer?)]
                   [crash (-> integer? integer?)]
                   [guarded (-> integer? integer?)]
                   [wrong-range (-> integer? (and/c integer? (lambda (r) (> r 0))))])
          (define (safe x) (+ x 1))
          (define (crash n) (/ 1 (- 100 n)))
          (define (guarded n) (if (zero? n) 0 (/ 100 n)))
          (define (wrong-range x) x))
    "#;

    fn verdict_kinds(report: &ModuleReport) -> Vec<(&str, &'static str)> {
        report
            .exports
            .iter()
            .map(|(name, analysis)| {
                let kind = match analysis {
                    ExportAnalysis::Verified => "verified",
                    ExportAnalysis::Counterexample(_) => "counterexample",
                    ExportAnalysis::ProbableError(_) => "probable",
                    ExportAnalysis::Exhausted => "exhausted",
                };
                (name.as_str(), kind)
            })
            .collect()
    }

    #[test]
    fn multi_export_verdicts_keep_declaration_order() {
        let report = analyze_source(MULTI_EXPORT).expect("parses");
        assert_eq!(
            verdict_kinds(&report),
            vec![
                ("safe", "verified"),
                ("crash", "counterexample"),
                ("guarded", "verified"),
                ("wrong-range", "counterexample"),
            ],
            "one verdict per export, in module declaration order"
        );
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn shared_cache_feeds_later_runs() {
        let cache = SharedVerdictCache::new();
        let options = AnalyzeOptions {
            shared_cache: Some(cache.clone()),
            ..AnalyzeOptions::default()
        };
        let first = analyze_source_with(MULTI_EXPORT, &options).expect("parses");
        assert!(
            !cache.is_empty(),
            "the run must populate the shared cache: {:?}",
            first.stats
        );
        cache.advance_epoch();
        let second = analyze_source_with(MULTI_EXPORT, &options).expect("parses");
        assert_eq!(verdict_kinds(&first), verdict_kinds(&second));
        assert!(
            cache.cross_epoch_hits() > 0,
            "the second run must reuse verdicts computed by the first"
        );
        assert!(
            second.stats.cache_hits > first.stats.cache_hits,
            "the second run answers more queries from the cache: {:?} vs {:?}",
            first.stats,
            second.stats
        );
    }
}
