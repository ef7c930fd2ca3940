//! The `gen-paths` corpus: seeded programs whose answer is known by
//! construction.
//!
//! Every program comes as a correct and a faulty variant. The faulty one
//! carries a planted witness, an input that makes the module blame itself;
//! the correct one guards its `error` behind a contradictory condition, so
//! no input reaches it. The benchmark's tests confirm both facts with an
//! interpreter of their own (`refint`), independent of the analyzer.
//!
//! The seed draws names, constants and witnesses, never the mix: every seed
//! yields the same number of programs of each family and arity, so the
//! workload's cost and its known-answer shares do not depend on the seed.

/// Which shape a generated program has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `k` integer arguments, each classified by a threshold branch; the
    /// bug fires when every classification is 0, so the evaluator must
    /// keep all `2^k` paths to find it.
    BranchSum(usize),
    /// A first-order callback `(-> (-> integer? integer?) integer? integer?)`.
    Callback1,
    /// A second-order callback `(-> (-> (-> integer? integer?) integer?) integer?)`.
    Callback2,
}

/// One input to an export: an integer or a function given as source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// An integer argument.
    Int(i64),
    /// A `lambda` expression in the surface syntax.
    Fun(String),
}

/// A generated program in both variants.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// Unique name within one corpus, also the module name.
    pub name: String,
    /// The program's shape.
    #[cfg_attr(not(test), allow(dead_code))] // read by the known-answer tests
    pub family: Family,
    /// The variant no input can make blame itself.
    pub correct: String,
    /// The variant `witness` makes blame itself.
    pub faulty: String,
    /// Arguments of the export `run` that reach the faulty variant's `error`.
    #[cfg_attr(not(test), allow(dead_code))] // read by the known-answer tests
    pub witness: Vec<Input>,
}

/// Arities of the branch-sum probes. The analyzer's budget cuts a path set
/// at 32 branches (`2^5`), so the range runs well past the cut: probes with
/// 6 or more arguments expose the silent truncation.
pub const BRANCH_SUM_ARITIES: std::ops::RangeInclusive<usize> = 2..=10;
/// Probes per arity.
const BRANCH_SUM_REPS: usize = 2;
/// First-order callback programs.
const CALLBACK1_COUNT: usize = 12;
/// Second-order callback programs; half target 0, half a non-zero constant.
const CALLBACK2_COUNT: usize = 12;

/// SplitMix64: a small, fixed generator so the corpus for a seed never
/// changes with a dependency's version.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The whole corpus for `seed`.
pub fn corpus(seed: u64) -> Vec<GenProgram> {
    let mut rng = Rng::new(seed);
    let mut programs = Vec::new();
    for k in BRANCH_SUM_ARITIES {
        for rep in 0..BRANCH_SUM_REPS {
            programs.push(branch_sum(&mut rng, k, rep));
        }
    }
    for index in 0..CALLBACK1_COUNT {
        programs.push(callback1(&mut rng, index));
    }
    for index in 0..CALLBACK2_COUNT {
        programs.push(callback2(&mut rng, index, index % 2 == 0));
    }
    programs
}

/// `(s x)` is 1 above the threshold `c` and 0 at or below it. The faulty
/// variant errs when every argument classifies as 0 (all arguments at most
/// `c`); the correct one when the sum exceeds `k`, which it never does.
fn branch_sum(rng: &mut Rng, k: usize, rep: usize) -> GenProgram {
    let name = format!("bsum{k}-{rep}");
    let c = rng.range(-1, 0);
    let args: Vec<String> = (1..=k).map(|i| format!("a{i}")).collect();
    let mut summands: Vec<String> = args.iter().map(|a| format!("(s {a})")).collect();
    rng.shuffle(&mut summands);
    let contract = format!("(-> {}integer?)", "integer? ".repeat(k));
    let module = |target: String| {
        format!(
            "(module {name}\n  (provide [run {contract}])\n  (define (s x) (if (> x {c}) 1 0))\n  \
             (define (run {}) (if (= (+ {}) {target}) (error \"boom\") 0)))\n",
            args.join(" "),
            summands.join(" "),
        )
    };
    let witness = (0..k).map(|_| Input::Int(c - rng.range(0, 1))).collect();
    GenProgram {
        correct: module(format!("{}", k + 1)),
        faulty: module("0".to_string()),
        name,
        family: Family::BranchSum(k),
        witness,
    }
}

/// The callback's answer `v` is compared with the target `t`; the faulty
/// variant errs on `v = t`, the correct one on `v = t` and `v > t` at once.
fn callback1(rng: &mut Rng, index: usize) -> GenProgram {
    let name = format!("cb1-{index}");
    let t = rng.range(-2, 2);
    let d = rng.range(0, 2);
    let module = |guard: &str| {
        format!(
            "(module {name}\n  (provide [run (-> (-> integer? integer?) integer? integer?)])\n  \
             (define (run h n)\n    (let ([v (h (+ n {d}))])\n      \
             (if (= v {t}) {guard} (+ v 1)))))\n"
        )
    };
    GenProgram {
        correct: module(&format!("(if (> v {t}) (error \"boom\") v)")),
        faulty: module("(error \"boom\")"),
        witness: vec![
            Input::Fun(format!("(lambda (x) {t})")),
            Input::Int(rng.range(-3, 3)),
        ],
        name,
        family: Family::Callback1,
    }
}

/// The export hands the unknown `k` a shifting function and compares its
/// answer with the target; `zero_target` pins the target to 0.
fn callback2(rng: &mut Rng, index: usize, zero_target: bool) -> GenProgram {
    let name = format!("cb2-{index}");
    let t = if zero_target {
        0
    } else {
        rng.range(1, 2) * if rng.range(0, 1) == 0 { -1 } else { 1 }
    };
    let d = rng.range(0, 2);
    let module = |guard: &str| {
        format!(
            "(module {name}\n  (provide [run (-> (-> (-> integer? integer?) integer?) integer?)])\n  \
             (define (run k)\n    (let ([v (k (lambda (x) (+ x {d})))])\n      \
             (if (= v {t}) {guard} 0))))\n"
        )
    };
    GenProgram {
        correct: module(&format!("(if (< v {t}) (error \"boom\") 0)")),
        faulty: module("(error \"boom\")"),
        witness: vec![Input::Fun(format!("(lambda (f) {t})"))],
        name,
        family: Family::Callback2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refint::{Module, Party, Value};

    const SEEDS: [u64; 2] = [1, 2];

    fn values(module: &Module, inputs: &[Input]) -> Vec<Value> {
        inputs
            .iter()
            .map(|input| match input {
                Input::Int(n) => Value::Int(*n),
                Input::Fun(src) => module.context_value(src),
            })
            .collect()
    }

    /// A small input box for each family: integers in `-1..=1` for the
    /// branch-sum arguments (both sides of every threshold), and for
    /// callbacks the constant, identity and shifting functions over
    /// `-3..=3`, which cover every target the generator draws.
    fn input_box(family: Family) -> Vec<Vec<Input>> {
        let small = -3..=3;
        match family {
            Family::BranchSum(k) => {
                let mut inputs = vec![Vec::new()];
                for _ in 0..k {
                    inputs = inputs
                        .into_iter()
                        .flat_map(|prefix: Vec<Input>| {
                            (-1..=1).map(move |n| {
                                let mut next = prefix.clone();
                                next.push(Input::Int(n));
                                next
                            })
                        })
                        .collect();
                }
                inputs
            }
            Family::Callback1 => {
                let mut callbacks = vec!["(lambda (x) x)".to_string()];
                for c in small.clone() {
                    callbacks.push(format!("(lambda (x) {c})"));
                    callbacks.push(format!("(lambda (x) (+ x {c}))"));
                }
                callbacks
                    .iter()
                    .flat_map(|h| {
                        small
                            .clone()
                            .map(move |n| vec![Input::Fun(h.clone()), Input::Int(n)])
                    })
                    .collect()
            }
            Family::Callback2 => small
                .flat_map(|c| {
                    [
                        format!("(lambda (f) {c})"),
                        format!("(lambda (f) (f {c}))"),
                        format!("(lambda (f) (+ (f {c}) 1))"),
                    ]
                })
                .map(|k| vec![Input::Fun(k)])
                .collect(),
        }
    }

    #[test]
    fn every_planted_witness_blames_the_faulty_variant_only() {
        for seed in SEEDS {
            for program in corpus(seed) {
                let faulty = Module::load(&program.faulty);
                let args = values(&faulty, &program.witness);
                assert_eq!(
                    faulty.call_export(&args).err(),
                    Some(Party::Module),
                    "seed {seed}: the witness of {} does not blame it",
                    program.name
                );
                let correct = Module::load(&program.correct);
                let args = values(&correct, &program.witness);
                assert!(
                    correct.call_export(&args).is_ok(),
                    "seed {seed}: the witness of {} blames its correct variant",
                    program.name
                );
            }
        }
    }

    #[test]
    fn no_correct_variant_blames_over_the_input_box() {
        for seed in SEEDS {
            for program in corpus(seed) {
                let correct = Module::load(&program.correct);
                let faulty = Module::load(&program.faulty);
                let mut faulty_blamed = false;
                for inputs in input_box(program.family) {
                    let args = values(&correct, &inputs);
                    assert!(
                        correct.call_export(&args).is_ok(),
                        "seed {seed}: {} blames on {inputs:?}",
                        program.name
                    );
                    faulty_blamed |= faulty.call_export(&values(&faulty, &inputs)).is_err();
                }
                // The box is not vacuous: it reaches the faulty variant's bug.
                assert!(
                    faulty_blamed,
                    "seed {seed}: the box misses the bug of {}",
                    program.name
                );
            }
        }
    }

    #[test]
    fn branch_sum_arities_straddle_the_branch_cut() {
        let cut = scv_bench::BenchOptions::default().analyze.eval.max_branches;
        assert!(BRANCH_SUM_ARITIES.clone().any(|k| (1usize << k) <= cut));
        assert!(BRANCH_SUM_ARITIES.clone().any(|k| (1usize << k) > cut));
    }

    #[test]
    fn the_seed_draws_programs_but_not_the_mix() {
        let families = |seed| corpus(seed).iter().map(|p| p.family).collect::<Vec<_>>();
        let texts = |seed| {
            corpus(seed)
                .into_iter()
                .map(|p| p.faulty)
                .collect::<Vec<_>>()
        };
        assert_eq!(families(1), families(7));
        assert_eq!(texts(1), texts(1));
        assert_ne!(texts(1), texts(7));
    }
}
