//! Corpus-wide soundness and store checks: for every program in every
//! corpus group, every counterexample the analysis reports must carry a
//! concrete, re-run-confirmed validation, and a store-backed incremental
//! re-run must repeat the cold verdicts while answering exports from the
//! store.
//!
//! The comparison uses verdict *classifications* (plus blame and validation
//! status), not counterexample bindings: bindings come from a solver model,
//! and a warm run may replay a stored verdict instead of re-deriving it.

use cpcf::{
    analyze_module, AnalysisStore, AnalyzeOptions, EngineFingerprint, ExportAnalysis, ModuleReport,
};
use scv_bench::corpus::all_programs;
use scv_bench::harness::BenchOptions;

/// The harness's reduced `quick` budget, small enough that walking the whole
/// corpus three times stays fast.
fn quick_options() -> AnalyzeOptions {
    BenchOptions::quick().analyze
}

/// Asserts the invariant the analyzer promises: a `Counterexample` verdict is only ever reported after the concrete
/// re-run confirmed the blame, so `validated` must be set on every row.
fn assert_counterexamples_validated(report: &ModuleReport, program: &str, variant: &str) {
    for (export, analysis) in &report.exports {
        if let ExportAnalysis::Counterexample(cex) = analysis {
            assert!(
                cex.validated,
                "{program} ({variant} variant), export {export}: \
                 unvalidated counterexample reported: {cex:?}"
            );
        }
    }
}

/// The model-independent portion of an export verdict.
fn signature(analysis: &ExportAnalysis) -> String {
    match analysis {
        ExportAnalysis::Verified => "verified".to_string(),
        ExportAnalysis::Counterexample(cex) => format!(
            "counterexample[{}@{:?} validated={}]",
            cex.blame.party, cex.blame.label, cex.validated
        ),
        ExportAnalysis::ProbableError(blame) => {
            format!("probable[{}@{:?}]", blame.party, blame.label)
        }
        ExportAnalysis::Exhausted => "exhausted".to_string(),
    }
}

fn report_signature(report: &ModuleReport) -> Vec<(String, String)> {
    report
        .exports
        .iter()
        .map(|(name, analysis)| (name.clone(), signature(analysis)))
        .collect()
}

fn analyze_with_options(source: &str, options: &AnalyzeOptions) -> ModuleReport {
    let (program, _) = cpcf::parse_program(source).expect("corpus programs parse");
    let module = program
        .modules
        .last()
        .map(|m| m.name.clone())
        .expect("corpus programs have a module");
    analyze_module(&program, &module, options)
}

/// One pass over the corpus: every report's signature in corpus order, and
/// how many exports the pass answered from the store.
type Pass = (Vec<Vec<(String, String)>>, usize);

/// Analyzes every corpus variant twice through one fresh store with
/// incremental re-verification on — cold, then warm.
fn store_backed_corpus_run() -> [Pass; 2] {
    let dir =
        std::env::temp_dir().join(format!("cpcf-parallel-equivalence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = quick_options();
    options.incremental = true;
    let fingerprint = EngineFingerprint::for_analyze(&options);
    let passes = ["cold", "warm"].map(|_pass| {
        let store = AnalysisStore::open(&dir, fingerprint).expect("store opens");
        options.store = Some(store.clone());
        let mut signatures = Vec::new();
        let mut skipped = 0;
        for program in all_programs() {
            for (variant, source) in [("correct", program.correct), ("faulty", program.faulty)] {
                let report = analyze_with_options(source, &options);
                assert_counterexamples_validated(&report, program.name, variant);
                skipped += report.skipped.len();
                signatures.push(report_signature(&report));
            }
        }
        store.flush();
        (signatures, skipped)
    });
    let _ = std::fs::remove_dir_all(&dir);
    passes
}

#[test]
fn corpus_counterexamples_are_validated() {
    let options = quick_options();
    let mut checked = 0usize;
    let mut counterexamples = 0usize;
    for program in all_programs() {
        for (variant, source) in [("correct", program.correct), ("faulty", program.faulty)] {
            let report = analyze_with_options(source, &options);
            assert_counterexamples_validated(&report, program.name, variant);
            counterexamples += report
                .exports
                .iter()
                .filter(|(_, analysis)| analysis.counterexample().is_some())
                .count();
            checked += 1;
        }
    }
    assert!(
        checked >= 50,
        "expected to cover the whole corpus, checked only {checked} variants"
    );
    assert!(counterexamples > 0, "the corpus produced no counterexample");
}

#[test]
fn store_backed_warm_incremental_pass_repeats_cold_verdicts() {
    let [(cold, cold_skipped), (warm, warm_skipped)] = store_backed_corpus_run();
    // The store is a pure cache: the warm pass repeats the cold verdicts.
    assert_eq!(
        cold, warm,
        "warm incremental verdicts differ from the cold run"
    );
    // Each variant is analysed once per pass, so the cold pass skips an
    // export only where a correct and a faulty variant share a dependency
    // cone; the warm pass, with no edits since the cold one, must take the
    // incremental path for every export.
    let exports: usize = warm.iter().map(Vec::len).sum();
    assert!(cold_skipped < exports, "the cold pass skipped every export");
    assert_eq!(warm_skipped, exports, "the warm pass re-analysed an export");
}
