//! # cpcf — Contract PCF and soft contract verification with counterexamples
//!
//! This crate scales the counterexample-generation technique of *“Relatively
//! Complete Counterexamples for Higher-Order Programs”* (Nguyễn & Van Horn,
//! PLDI 2015) from the typed core calculus (see the `spcf` crate) to an
//! untyped, higher-order language with the features the paper's evaluation
//! needs (§4–§5):
//!
//! * dynamic typing with run-time tag tests (`number?`, `procedure?`, …) and
//!   a slice of the numeric tower including exact complex numbers;
//! * user-defined structures (`struct`), pairs and lists;
//! * first-class, higher-order contracts (`->`, `and/c`, `or/c`, `cons/c`,
//!   `listof`, `one-of/c`, `any/c`, flat predicates) with blame;
//! * mutable boxes;
//! * a module system with contracted exports (`provide`).
//!
//! The analysis ([`analyze`]) plays the role of the paper's SCV tool: for
//! each contracted export it synthesizes the most general unknown context
//! allowed by the contract, executes the module symbolically against it,
//! and, at every error blamed on the module, asks the first-order solver
//! (the `folic` crate) for a model of the heap, reconstructs concrete —
//! possibly higher-order — inputs, re-runs them concretely, and reports a
//! validated [`Counterexample`].
//!
//! ## Architecture
//!
//! * [`syntax`] / [`parse`] — the CPCF AST and its s-expression surface
//!   syntax.
//! * [`heap`] — the symbolic heap. Every mutation that can affect the
//!   heap's first-order encoding is recorded in a **constraint journal**
//!   ([`heap::JournalEvent`]) with a running fingerprint; a branch-cloned
//!   heap extends its parent's journal, so consumers can compute exactly
//!   the delta between two states on the same path. `Heap::clone` is an
//!   O(1) snapshot: the stores are persistent copy-on-write maps
//!   ([`pmap`]) and the journal an `Arc`-shared chunk chain, so the
//!   evaluator's pervasive state splits share structure instead of deep
//!   copying.
//! * [`pmap`] — the persistent map (path-copying AVL over `Arc` nodes)
//!   backing the heap, plus the thread-local sharing counters
//!   ([`sharing_totals`]) that make the copy-on-write machinery's work
//!   observable in [`SessionStats`] and the bench reports.
//! * [`prove`] — the prover. [`ProverSession`] is a *stateful, incremental*
//!   query engine: it keeps one live `folic` solver whose assertion stack
//!   mirrors a journal prefix, asserts only unseen journal suffixes
//!   (bracketing branch-local state in `push`/`pop` scopes), and memoizes
//!   `(heap fingerprint, query) → Proof` verdicts. A non-monotone
//!   overwrite ([`heap::JournalEvent::Rebase`]) re-encodes the heap on the
//!   same live solver. [`ProveConfig::fresh_per_query`] selects the
//!   original solver-per-query engine as the reference for differential
//!   testing, and [`SessionStats`] makes the saving measurable.
//! * [`eval`] — the symbolic evaluator, split by concern: `eval` (the
//!   dispatcher and continuation plumbing), `eval::branch` (truthiness, tag
//!   predicates, structural refinement), `eval::apply` (application and the
//!   demonic context), `eval::contracts` (monitoring and blame) and
//!   `eval::prims` (primitives and symbolic arithmetic). The evaluation
//!   context ([`Ctx`]) threads the prover session mutably through all of
//!   them, so neither it nor the option types are `Copy`.
//! * [`cex`] — counterexample reconstruction from a solver model.
//! * [`analyze`] — the driver, split into context synthesis and per-export
//!   analysis. A module's exports are analyzed one after another on the
//!   calling thread through one long-lived [`ProverSession`]. A
//!   [`SharedVerdictCache`] passed in the options lets verdicts flow across
//!   runs (e.g. the correct/faulty variants of a benchmark). [`ModuleReport`]
//!   carries the aggregated [`SessionStats`] so harnesses can report solver
//!   work per benchmark. Alongside verdicts, sessions exchange **theory
//!   lemmas** through a [`SharedLemmaPool`] (atom ids are process-global in
//!   `folic`, so a lemma is meaningful in every session). Every run shares
//!   lemmas: the driver creates a pool whenever the options carry none.
//! * [`store`] — warm starts across *processes*: an append-only,
//!   content-addressed on-disk store ([`AnalysisStore`]) persisting proved
//!   verdicts (keyed by heap fingerprint), theory lemmas (by atom content)
//!   and per-export verdicts keyed by a dependency-cone hash
//!   ([`analyze::export_cone_hash`]). A [`SharedVerdictCache`] built
//!   [`with_store`](SharedVerdictCache::with_store) gains the disk tier;
//!   [`AnalyzeOptions::incremental`] skips exports whose cone hash already
//!   has a stored verdict. Schema-versioned, engine-fingerprinted
//!   ([`EngineFingerprint`]) and CRC-framed: a mismatched, truncated or
//!   corrupted file degrades to a cold start, never to a wrong verdict.
//!
//! ## Example
//!
//! ```
//! use cpcf::{analyze_source, ExportAnalysis};
//!
//! let report = analyze_source(
//!     r#"
//!     (module div100
//!       (provide [f (-> integer? integer?)])
//!       (define (f n) (/ 1 (- 100 n))))
//!     "#,
//! )
//! .expect("parses");
//!
//! match &report.exports[0].1 {
//!     ExportAnalysis::Counterexample(cex) => {
//!         assert!(cex.validated);
//!         // The breaking input is exactly 100 — the case random testing
//!         // misses with its default small-integer generators (§5.2).
//!     }
//!     other => panic!("expected a counterexample, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod cex;
pub mod eval;
pub mod heap;
pub mod numeric;
pub mod parse;
pub mod pmap;
pub mod prove;
pub mod store;
pub mod syntax;

pub use analyze::{
    analyze, analyze_module, analyze_source, analyze_source_with, AnalyzeOptions, ExportAnalysis,
    ModuleReport,
};
pub use cex::Counterexample;
pub use eval::{Ctx, EvalOptions, Outcome};
pub use folic::{default_lemma_sharing, SharedLemmaPool};
pub use heap::{CRefinement, ContractVal, Env, Heap, Loc, SVal, Tag};
pub use numeric::Number;
pub use parse::{parse_expr, parse_program, ParseError, Parser};
pub use pmap::{sharing_totals, PMap};
pub use prove::{ProveConfig, ProverSession, SessionStats, SharedVerdictCache};
pub use store::{AnalysisStore, EngineFingerprint, StoreCounters};
pub use syntax::{CBlame, Definition, Expr, Label, Module, Prim, Program, Provide, StructDef};
