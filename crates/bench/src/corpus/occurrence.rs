//! Ports of the Tobin-Hochstadt & Felleisen 2010 occurrence-typing
//! benchmarks (the third Table 1 group). The paper aggregates 14 small
//! dynamically-typed modules into one row; we keep that aggregate module
//! and widen the group with mutable-box rows in the same occurrence-typed
//! style: union-contracted values flowing *through a box*, so every call
//! journals a non-monotone overwrite of the box's content — the workload
//! that exercises the prover's re-encode path and per-query cone slicing (each
//! box cell is its own constraint island until a comparison links it).

use super::{BenchProgram, Group};

/// The programs of this group.
pub fn programs() -> Vec<BenchProgram> {
    vec![
        BenchProgram {
            name: "occurrence",
            group: Group::Occurrence,
            correct: r#"
(module occurrence
  (provide [succ-or-len (-> (or/c integer? string?) integer?)]
           [safe-inc (-> any/c integer?)]
           [bool-to-int (-> (or/c integer? boolean?) integer?)]
           [first-or-zero (-> any/c integer?)])
  (define (succ-or-len x) (if (integer? x) (+ x 1) (string-length x)))
  (define (safe-inc x) (if (integer? x) (+ x 1) 0))
  (define (bool-to-int x) (if (integer? x) x (if x 1 0)))
  (define (first-or-zero x) (if (pair? x) (if (integer? (car x)) (car x) 0) 0)))
"#,
            faulty: r#"
(module occurrence
  (provide [succ-or-len (-> (or/c integer? string?) integer?)]
           [safe-inc (-> any/c integer?)]
           [bool-to-int (-> (or/c integer? boolean?) integer?)]
           [first-or-zero (-> any/c integer?)])
  (define (succ-or-len x) (if (integer? x) (+ x 1) (string-length x)))
  (define (safe-inc x) (+ x 1))
  (define (bool-to-int x) (if (integer? x) x (if x 1 0)))
  (define (first-or-zero x) (if (pair? x) (if (integer? (car x)) (car x) 0) 0)))
"#,
            diff: "safe-inc no longer tests integer? before adding, so any non-number \
                   input crashes it",
            expected_unsolved: false,
        },
        // A union-contracted value stored through a box before the
        // occurrence test: the set-box! overwrites the cell's previous
        // (integer) content, journalling a rebase on every call. The
        // faulty variant drops the zero? guard on the integer side, so the
        // counterexample witness is numeric (v = 0) and validates.
        BenchProgram {
            name: "box-swap",
            group: Group::Occurrence,
            correct: r#"
(module box-swap
  (provide [toggle (-> (or/c integer? boolean?) integer?)])
  (define cell (box 0))
  (define (toggle v)
    (begin
      (set-box! cell v)
      (if (integer? (unbox cell))
          (if (zero? (unbox cell)) 1 (/ 100 (unbox cell)))
          0))))
"#,
            faulty: r#"
(module box-swap
  (provide [toggle (-> (or/c integer? boolean?) integer?)])
  (define cell (box 0))
  (define (toggle v)
    (begin
      (set-box! cell v)
      (if (integer? (unbox cell))
          (/ 100 (unbox cell))
          0))))
"#,
            diff: "divides by the unboxed value without the zero? test, so storing 0 \
                   through the box divides by zero",
            expected_unsolved: false,
        },
        // An accumulator cell whose every overwrite depends on the cell's
        // previous content ((+ (unbox acc) n)) — the journalled rebase
        // carries a constraint chaining old state to new, the hardest case
        // for the re-encode bookkeeping.
        BenchProgram {
            name: "box-acc",
            group: Group::Occurrence,
            correct: r#"
(module box-acc
  (provide [bump (-> integer? integer?)])
  (define acc (box 0))
  (define (bump n)
    (begin
      (if (>= n 0) (set-box! acc (+ (unbox acc) n)) 0)
      (assert (>= (unbox acc) 0))
      (unbox acc))))
"#,
            faulty: r#"
(module box-acc
  (provide [bump (-> integer? integer?)])
  (define acc (box 0))
  (define (bump n)
    (begin
      (set-box! acc (+ (unbox acc) n))
      (assert (>= (unbox acc) 0))
      (unbox acc))))
"#,
            diff: "accumulates unconditionally, so a negative argument drives the \
                   cell below zero and fails the invariant assert",
            expected_unsolved: false,
        },
        // An (or/c integer? string?) union routed through a box; the
        // faulty variant swaps the occurrence-test branches.
        BenchProgram {
            name: "union-cell",
            group: Group::Occurrence,
            correct: r#"
(module union-cell
  (provide [store-len (-> (or/c integer? string?) integer?)])
  (define cell (box 0))
  (define (store-len v)
    (begin
      (set-box! cell v)
      (if (string? (unbox cell))
          (string-length (unbox cell))
          (unbox cell)))))
"#,
            faulty: r#"
(module union-cell
  (provide [store-len (-> (or/c integer? string?) integer?)])
  (define cell (box 0))
  (define (store-len v)
    (begin
      (set-box! cell v)
      (if (string? (unbox cell))
          (unbox cell)
          (string-length (unbox cell))))))
"#,
            diff: "swaps the occurrence-test branches, calling string-length on the \
                   integer side of the union",
            expected_unsolved: false,
        },
        // A resource-protocol state machine whose state cell is overwritten
        // with a *symbolic* value in the faulty variant — the journalled
        // rebase carries the argument's constraints, which the re-encode
        // must drop and the counterexample search must solve (n ≠ 1).
        BenchProgram {
            name: "box-flip",
            group: Group::Occurrence,
            correct: r#"
(module box-flip
  (provide [flip (-> integer? integer?)])
  (define st (box 0))
  (define (flip n)
    (begin
      (assert (zero? (unbox st)))
      (set-box! st 1)
      (assert (= (unbox st) 1))
      (set-box! st 0)
      n)))
"#,
            faulty: r#"
(module box-flip
  (provide [flip (-> integer? integer?)])
  (define st (box 0))
  (define (flip n)
    (begin
      (assert (zero? (unbox st)))
      (set-box! st n)
      (assert (= (unbox st) 1))
      (set-box! st 0)
      n)))
"#,
            diff: "stores the argument instead of the literal 1, so the protocol \
                   assert fails for every n other than 1",
            expected_unsolved: false,
        },
        // A monotone-maximum cell: the guarded overwrite keeps the invariant
        // (unbox best) ≥ 0; storing unconditionally lets a negative argument
        // through, and refuting it needs the solver to reason about the
        // overwritten cell's new numeric refinement.
        BenchProgram {
            name: "box-max",
            group: Group::Occurrence,
            correct: r#"
(module box-max
  (provide [observe (-> integer? integer?)])
  (define best (box 0))
  (define (observe n)
    (begin
      (if (> n (unbox best)) (set-box! best n) 0)
      (assert (>= (unbox best) 0))
      (unbox best))))
"#,
            faulty: r#"
(module box-max
  (provide [observe (-> integer? integer?)])
  (define best (box 0))
  (define (observe n)
    (begin
      (set-box! best n)
      (assert (>= (unbox best) 0))
      (unbox best))))
"#,
            diff: "stores every observation unconditionally, so a negative argument \
                   breaks the non-negativity invariant of the cell",
            expected_unsolved: false,
        },
    ]
}
