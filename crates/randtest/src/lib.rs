//! # randtest — a QuickCheck-style random-testing baseline
//!
//! The paper positions symbolic counterexample generation as a complement to
//! random testing (§5.2, §6): random testers such as QuickCheck draw inputs
//! from a bounded distribution (integers in `-99..=99` by default, per the
//! paper's discussion with the QuickCheck authors) and therefore miss bugs
//! that require specific values such as `n = 100` in `1/(100 - n)`.
//!
//! This crate implements exactly that baseline for CPCF modules: for each
//! contracted export it generates random concrete inputs whose shape is
//! derived from the contract (integers, booleans, lists, pairs and constant
//! random functions), runs the module concretely, and reports the first
//! input on which the module itself is blamed.
//!
//! The [`heaptrace`] module applies the same methodology one level down: a
//! seeded generator of random symbolic-heap mutation/query traces, used as
//! the differential oracle proving the incremental prover session
//! observationally equivalent to the fresh-solver-per-query reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heaptrace;
pub mod shadow;

pub use heaptrace::{HeapTrace, TraceConfig, TraceStep};
pub use shadow::ShadowHeap;

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cpcf::analyze::{instantiate, CONTEXT_PARTY};
use cpcf::eval::{eval, Ctx, EvalOptions, Outcome};
use cpcf::heap::{empty_env, Heap};
use cpcf::syntax::{Expr, Label, Prim, Program};

/// Configuration of the random tester.
#[derive(Debug, Clone, Copy)]
pub struct RandTestConfig {
    /// Number of random inputs tried per export.
    pub num_tests: u32,
    /// Inclusive range integers are drawn from. The QuickCheck default the
    /// paper quotes is `-99..=99`.
    pub int_range: (i64, i64),
    /// RNG seed, for reproducibility.
    pub seed: u64,
    /// Fuel for each concrete run.
    pub fuel: u64,
}

impl Default for RandTestConfig {
    fn default() -> Self {
        RandTestConfig {
            num_tests: 200,
            int_range: (-99, 99),
            seed: 0xC0FFEE,
            fuel: 40_000,
        }
    }
}

/// The verdict of random testing one export.
#[derive(Debug, Clone, PartialEq)]
pub enum RandTestResult {
    /// No failing input was found within the budget.
    Passed {
        /// Number of tests executed.
        tests: u32,
    },
    /// A failing input was found.
    Failed {
        /// Number of tests executed up to and including the failure.
        tests: u32,
        /// The failing concrete inputs, in argument order.
        inputs: Vec<Expr>,
    },
}

impl RandTestResult {
    /// True if a failing input was found.
    pub fn found_bug(&self) -> bool {
        matches!(self, RandTestResult::Failed { .. })
    }
}

/// The random tester.
#[derive(Debug)]
pub struct RandTester {
    config: RandTestConfig,
    rng: StdRng,
}

impl RandTester {
    /// Creates a tester with the given configuration.
    pub fn new(config: RandTestConfig) -> Self {
        RandTester {
            rng: StdRng::seed_from_u64(config.seed),
            config,
        }
    }

    /// Randomly tests the named export of the program's named module.
    pub fn test_export(
        &mut self,
        program: &Program,
        module_name: &str,
        export: &str,
    ) -> RandTestResult {
        let Some(module) = program.module(module_name) else {
            return RandTestResult::Passed { tests: 0 };
        };
        let Some(provide) = module.provides.iter().find(|p| p.name == export) else {
            return RandTestResult::Passed { tests: 0 };
        };
        // The same most-general-context expression the symbolic analysis
        // uses, instantiated with random values instead of opaque ones.
        let mut next_label = 500_000;
        let mut fresh = || {
            let label = Label(next_label);
            next_label += 1;
            label
        };
        let mut context = Expr::Mon {
            contract: Box::new(provide.contract.clone()),
            value: Box::new(Expr::var(export)),
            pos: module_name.to_string(),
            neg: CONTEXT_PARTY.to_string(),
            label: fresh(),
        };
        let mut labelled_domains: Vec<(Label, Expr)> = Vec::new();
        let mut contract = &provide.contract;
        while let Expr::CArrow(doms, rng) = contract {
            let args: Vec<Expr> = doms
                .iter()
                .map(|dom| {
                    let label = fresh();
                    labelled_domains.push((label, dom.clone()));
                    Expr::Opaque(label)
                })
                .collect();
            context = Expr::app(context, args);
            contract = rng;
        }

        for test in 1..=self.config.num_tests {
            let bindings: HashMap<Label, Expr> = labelled_domains
                .iter()
                .map(|(label, dom)| (*label, self.random_value(dom, 2)))
                .collect();
            let concrete = instantiate(&context, &bindings);
            if self.run_once(program, &concrete, module_name) {
                let inputs = labelled_domains
                    .iter()
                    .map(|(label, _)| bindings[label].clone())
                    .collect();
                return RandTestResult::Failed {
                    tests: test,
                    inputs,
                };
            }
        }
        RandTestResult::Passed {
            tests: self.config.num_tests,
        }
    }

    /// Runs the program once with a fully concrete context expression,
    /// returning true if the module is blamed.
    fn run_once(&mut self, program: &Program, context: &Expr, module_name: &str) -> bool {
        let options = EvalOptions {
            fuel: self.config.fuel,
            ..EvalOptions::default()
        };
        let mut ctx = Ctx::new(options);
        for module in &program.modules {
            for def in &module.structs {
                ctx.structs.insert(def.name.clone(), def.clone());
            }
        }
        let mut heap = Heap::new();
        let env = empty_env();
        for module in &program.modules {
            for definition in &module.definitions {
                let outcomes = eval(&mut ctx, &env, &module.name, &definition.body, &heap);
                match outcomes
                    .into_iter()
                    .find_map(|(o, h)| o.value().map(|l| (l, h)))
                {
                    Some((loc, new_heap)) => {
                        heap = new_heap;
                        ctx.globals.insert(definition.name.clone(), loc);
                    }
                    None => return false,
                }
            }
        }
        let outcomes = eval(&mut ctx, &env, CONTEXT_PARTY, context, &heap);
        outcomes
            .iter()
            .any(|(o, _)| matches!(o, Outcome::Err(blame) if blame.party == module_name))
    }

    /// Generates a random concrete value whose shape fits the contract.
    fn random_value(&mut self, contract: &Expr, depth: u32) -> Expr {
        let (lo, hi) = self.config.int_range;
        match contract {
            Expr::CArrow(doms, _) => {
                // A random constant function of the right arity.
                let params: Vec<String> = (0..doms.len()).map(|i| format!("x{i}")).collect();
                let result = Expr::Int(self.rng.gen_range(lo..=hi));
                Expr::lam(params, result)
            }
            Expr::CAnd(parts) => parts
                .first()
                .map(|p| self.random_value(p, depth))
                .unwrap_or_else(|| Expr::Int(self.rng.gen_range(lo..=hi))),
            Expr::COr(parts) => {
                if parts.is_empty() {
                    Expr::Int(self.rng.gen_range(lo..=hi))
                } else {
                    let index = self.rng.gen_range(0..parts.len());
                    self.random_value(&parts[index].clone(), depth)
                }
            }
            Expr::CCons(car, cdr) => Expr::Prim(
                Prim::Cons,
                vec![
                    self.random_value(car, depth.saturating_sub(1)),
                    self.random_value(cdr, depth.saturating_sub(1)),
                ],
                Label(u32::MAX),
            ),
            Expr::CListOf(element) => {
                let length = self.rng.gen_range(0..4);
                let mut list = Expr::Nil;
                for _ in 0..length {
                    list = Expr::Prim(
                        Prim::Cons,
                        vec![self.random_value(element, depth.saturating_sub(1)), list],
                        Label(u32::MAX),
                    );
                }
                list
            }
            Expr::COneOf(options) => {
                if options.is_empty() {
                    Expr::Int(self.rng.gen_range(lo..=hi))
                } else {
                    options[self.rng.gen_range(0..options.len())].clone()
                }
            }
            Expr::Var(name) if name.contains("boolean") => Expr::Bool(self.rng.gen_bool(0.5)),
            // Flat contracts (Lam, Var, any/c) and everything else: mostly
            // integers, with the occasional boolean to exercise type-test
            // branches.
            _ => {
                if self.rng.gen_range(0..10) == 0 {
                    Expr::Bool(self.rng.gen_bool(0.5))
                } else {
                    Expr::Int(self.rng.gen_range(lo..=hi))
                }
            }
        }
    }
}

/// Convenience: random-test the first export of the last module.
///
/// # Errors
///
/// Returns an error string when the source fails to parse or has no exports.
pub fn test_source(source: &str, config: RandTestConfig) -> Result<RandTestResult, String> {
    let (program, _) = cpcf::parse_program(source).map_err(|e| e.to_string())?;
    let module = program
        .modules
        .last()
        .map(|m| m.name.clone())
        .ok_or_else(|| "empty program".to_string())?;
    let export = program
        .module(&module)
        .and_then(|m| m.provides.first())
        .map(|p| p.name.clone())
        .ok_or_else(|| "module has no exports".to_string())?;
    let mut tester = RandTester::new(config);
    Ok(tester.test_export(&program, &module, &export))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIV100: &str = r#"
    (module div100
      (provide [f (-> integer? integer?)])
      (define (f n) (/ 1 (- 100 n))))
    "#;

    const DIV_ANY: &str = r#"
    (module divany
      (provide [f (-> integer? integer?)])
      (define (f n) (/ 1 n)))
    "#;

    const SAFE: &str = r#"
    (module safe
      (provide [f (-> integer? integer?)])
      (define (f n) (+ n 1)))
    "#;

    #[test]
    fn default_range_misses_the_boundary_bug() {
        // The paper's point: with integers drawn from -99..=99, n = 100 is
        // never generated, so random testing misses the bug.
        let result = test_source(DIV100, RandTestConfig::default()).expect("parses");
        assert!(!result.found_bug());
    }

    #[test]
    fn widened_range_eventually_finds_it() {
        let config = RandTestConfig {
            int_range: (-200, 200),
            num_tests: 5_000,
            ..RandTestConfig::default()
        };
        let result = test_source(DIV100, config).expect("parses");
        assert!(result.found_bug(), "a wide enough generator hits n = 100");
    }

    #[test]
    fn easy_bugs_are_found_quickly() {
        // 1/n fails for n = 0, which the generator produces with probability
        // ~1/200 per test; 2000 tests make the hit near-certain for any seed.
        let config = RandTestConfig {
            num_tests: 2_000,
            ..RandTestConfig::default()
        };
        let result = test_source(DIV_ANY, config).expect("parses");
        assert!(result.found_bug());
    }

    #[test]
    fn safe_modules_pass() {
        let result = test_source(SAFE, RandTestConfig::default()).expect("parses");
        assert!(!result.found_bug());
        assert_eq!(result, RandTestResult::Passed { tests: 200 });
    }

    #[test]
    fn higher_order_arguments_get_random_functions() {
        let source = r#"
        (module ho
          (provide [f (-> (-> integer? integer?) integer?)])
          (define (f g) (/ 1 (g 7))))
        "#;
        let config = RandTestConfig {
            num_tests: 2_000,
            ..RandTestConfig::default()
        };
        let result = test_source(source, config).expect("parses");
        // The random constant function returns 0 sometimes, so the bug is
        // findable by random testing too — the difference is in guarantees.
        assert!(result.found_bug());
    }

    #[test]
    fn results_are_reproducible_for_a_fixed_seed() {
        let a = test_source(DIV_ANY, RandTestConfig::default()).expect("parses");
        let b = test_source(DIV_ANY, RandTestConfig::default()).expect("parses");
        assert_eq!(a, b);
    }
}
