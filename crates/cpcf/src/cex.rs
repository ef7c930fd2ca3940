//! Counterexample reconstruction for CPCF: turning the heap at an error
//! state plus a first-order model into concrete input expressions.

use std::collections::BTreeSet;

use folic::Model;

use crate::heap::{CRefinement, Heap, Loc, SVal, Tag};
use crate::numeric::Number;
use crate::prove::ProverSession;
use crate::syntax::{CBlame, Expr, Label, Prim};

/// A concrete counterexample for a module export.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The blame the counterexample triggers.
    pub blame: CBlame,
    /// Concrete expressions for each opaque input label.
    pub bindings: Vec<(Label, Expr)>,
    /// Whether a concrete re-run confirmed the blame. The analyzer reports
    /// a counterexample only once this holds.
    pub validated: bool,
}

impl Counterexample {
    /// The binding for a given opaque label.
    pub fn binding(&self, label: Label) -> Option<&Expr> {
        self.bindings
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, e)| e)
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.blame)?;
        writeln!(f, "breaking inputs:")?;
        for (label, expr) in &self.bindings {
            writeln!(f, "  {label} = {expr:?}")?;
        }
        Ok(())
    }
}

/// Builds the bindings (opaque label → concrete expression) from an error
/// state's heap, or `None` when the path condition has no model.
pub fn reconstruct_bindings(
    session: &mut ProverSession,
    heap: &Heap,
    labels: &[Label],
) -> Option<Vec<(Label, Expr)>> {
    let model = session.heap_model(heap)?;
    let bindings = labels
        .iter()
        .map(|label| {
            let expr = match heap.opaque_loc(*label) {
                Some(loc) => reconstruct(heap, &model, loc, &mut BTreeSet::new()),
                None => Expr::Int(0),
            };
            (*label, expr)
        })
        .collect();
    Some(bindings)
}

/// Reconstructs a concrete literal expression for the value at `loc`.
pub fn reconstruct(heap: &Heap, model: &Model, loc: Loc, visiting: &mut BTreeSet<Loc>) -> Expr {
    if visiting.contains(&loc) {
        return Expr::Int(0);
    }
    visiting.insert(loc);
    let result = match heap.try_get(loc) {
        None => Expr::Int(0),
        Some(SVal::Num(Number::Int(n))) => Expr::Int(*n),
        Some(SVal::Num(Number::Complex(re, im))) => Expr::Complex(*re, *im),
        Some(SVal::Bool(b)) => Expr::Bool(*b),
        Some(SVal::Str(s)) => Expr::Str(s.clone()),
        Some(SVal::Nil) => Expr::Nil,
        Some(SVal::Pair(car, cdr)) => Expr::Prim(
            Prim::Cons,
            vec![
                reconstruct(heap, model, *car, visiting),
                reconstruct(heap, model, *cdr, visiting),
            ],
            Label(u32::MAX),
        ),
        Some(SVal::StructVal { tag, fields }) => Expr::StructMake(
            tag.clone(),
            fields
                .iter()
                .map(|f| reconstruct(heap, model, *f, visiting))
                .collect(),
        ),
        Some(SVal::BoxVal(inner)) => Expr::Prim(
            Prim::MakeBox,
            vec![reconstruct(heap, model, *inner, visiting)],
            Label(u32::MAX),
        ),
        Some(SVal::Closure { params, .. }) => {
            // A concrete closure flowing in from the program itself: stand in
            // with a constant function of the right arity.
            Expr::lam(params.clone(), Expr::Int(0))
        }
        Some(SVal::Guarded { .. }) | Some(SVal::Contract(_)) => Expr::Int(0),
        Some(SVal::Opaque {
            refinements,
            entries,
        }) => reconstruct_opaque(heap, model, loc, refinements, entries, visiting),
    };
    visiting.remove(&loc);
    result
}

fn reconstruct_opaque(
    heap: &Heap,
    model: &Model,
    loc: Loc,
    refinements: &[CRefinement],
    entries: &[(Loc, Loc)],
    visiting: &mut BTreeSet<Loc>,
) -> Expr {
    let is_procedure =
        refinements.contains(&CRefinement::Is(Tag::Procedure)) || !entries.is_empty();
    if is_procedure {
        // λx. if (equal? x k₁) v₁ (… default)
        let mut body = Expr::Int(0);
        for (argument, result) in entries.iter().rev() {
            let key = reconstruct(heap, model, *argument, visiting);
            let value = reconstruct(heap, model, *result, visiting);
            body = Expr::ite(
                Expr::Prim(Prim::Equal, vec![Expr::var("x"), key], Label(u32::MAX)),
                value,
                body,
            );
        }
        return Expr::lam(vec!["x"], body);
    }
    if refinements.contains(&CRefinement::IsFalse) {
        return Expr::Bool(false);
    }
    if refinements.contains(&CRefinement::Is(Tag::Boolean)) {
        return Expr::Bool(true);
    }
    if refinements.contains(&CRefinement::Is(Tag::StringT)) {
        return Expr::Str(String::new());
    }
    if refinements.contains(&CRefinement::Is(Tag::Null)) {
        return Expr::Nil;
    }
    // Default: a numeric value from the model (covers Integer/Real/Number
    // refinements, numeric constraints, and completely unconstrained values).
    Expr::Int(model.value_or_zero(loc.solver_var()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use folic::CmpOp;

    use crate::heap::CSymExpr;

    #[test]
    fn numbers_come_from_the_model() {
        let mut heap = Heap::new();
        let loc = heap.alloc_opaque(Label(1));
        heap.refine(loc, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(100)));
        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        assert_eq!(bindings[0].1, Expr::Int(100));
    }

    #[test]
    fn structures_reconstruct_recursively() {
        let mut heap = Heap::new();
        let loc = heap.alloc_opaque(Label(1));
        let car = heap.alloc(SVal::Num(Number::Int(1)));
        let cdr = heap.alloc(SVal::Nil);
        heap.set(loc, SVal::Pair(car, cdr));
        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        match &bindings[0].1 {
            Expr::Prim(Prim::Cons, parts, _) => {
                assert_eq!(parts[0], Expr::Int(1));
                assert_eq!(parts[1], Expr::Nil);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn opaque_functions_become_case_lambdas() {
        let mut heap = Heap::new();
        let f = heap.alloc_opaque(Label(1));
        let key = heap.alloc(SVal::Num(Number::Int(0)));
        let value = heap.alloc(SVal::Num(Number::Int(100)));
        heap.set(
            f,
            SVal::Opaque {
                refinements: vec![CRefinement::Is(Tag::Procedure)],
                entries: vec![(key, value)],
            },
        );
        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        assert!(matches!(bindings[0].1, Expr::Lam { .. }));
    }

    #[test]
    fn complex_numbers_survive_reconstruction() {
        let mut heap = Heap::new();
        let loc = heap.alloc_opaque(Label(1));
        heap.set(loc, SVal::Num(Number::complex(0, 1)));
        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        assert_eq!(bindings[0].1, Expr::Complex(0, 1));
    }

    #[test]
    fn contradictory_heaps_have_no_bindings() {
        let mut heap = Heap::new();
        let loc = heap.alloc_opaque(Label(1));
        heap.refine(loc, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(0)));
        heap.refine(loc, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(1)));
        let mut session = ProverSession::new();
        assert!(reconstruct_bindings(&mut session, &heap, &[Label(1)]).is_none());
    }
}
