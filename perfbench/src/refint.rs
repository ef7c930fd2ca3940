//! A reference interpreter for the fragment `gen` emits, written apart from
//! the analyzer so the known answers of `gen-paths` are checked by code
//! that shares nothing with the code under test.
//!
//! The fragment: one module with `define`d functions and one export `run`,
//! integer literals, strings (only as `error` messages), `if`, `let`,
//! `lambda`, application, `+ - * = < >` and `error`. Contracts are
//! `integer?` and `->` over them, monitored with blame: a contract on a
//! function value checks its arguments against the negative party and its
//! result against the positive one.

use std::collections::HashMap;
use std::rc::Rc;

/// An s-expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Sexp {
    /// A symbol, number or string token.
    Atom(String),
    /// A parenthesized or bracketed list.
    List(Vec<Sexp>),
}

/// Reads every s-expression in `src`.
pub fn read(src: &str) -> Vec<Sexp> {
    let mut tokens = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&ch) = chars.peek() {
        match ch {
            '(' | '[' | ')' | ']' => {
                tokens.push(ch.to_string());
                chars.next();
            }
            '"' => {
                let mut text = String::from('"');
                chars.next();
                for c in chars.by_ref() {
                    text.push(c);
                    if c == '"' {
                        break;
                    }
                }
                tokens.push(text);
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            _ => {
                let mut atom = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || "()[]".contains(c) {
                        break;
                    }
                    atom.push(c);
                    chars.next();
                }
                tokens.push(atom);
            }
        }
    }
    let mut stack: Vec<Vec<Sexp>> = vec![Vec::new()];
    for token in tokens {
        match token.as_str() {
            "(" | "[" => stack.push(Vec::new()),
            ")" | "]" => {
                let list = stack.pop().expect("balanced parentheses");
                stack
                    .last_mut()
                    .expect("balanced parentheses")
                    .push(Sexp::List(list));
            }
            _ => stack
                .last_mut()
                .expect("balanced parentheses")
                .push(Sexp::Atom(token)),
        }
    }
    assert_eq!(stack.len(), 1, "unbalanced parentheses");
    stack.pop().expect("one top level")
}

/// Who broke a contract or raised an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Party {
    /// The analyzed module.
    Module,
    /// The export's caller, which supplied the inputs.
    Context,
}

/// A run-time value.
#[derive(Clone)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A closure owned by `party`.
    Closure(Rc<Closure>),
    /// A function wrapped in an arrow contract.
    Guarded(Rc<Guard>),
}

/// A `lambda` closed over its environment.
pub struct Closure {
    params: Vec<String>,
    body: Sexp,
    env: Env,
    party: Party,
}

/// A function value monitored by `(-> doms... rng)`.
pub struct Guard {
    contract: Sexp,
    inner: Value,
    positive: Party,
    negative: Party,
}

type Env = Rc<Vec<(String, Value)>>;

/// A loaded module: its top-level functions and the export's contract.
pub struct Module {
    defs: HashMap<String, Value>,
    contract: Sexp,
}

impl Module {
    /// Loads `src`, whose single module provides `run`.
    pub fn load(src: &str) -> Module {
        let top = read(src);
        let Some(Sexp::List(items)) = top.first() else {
            panic!("no module form");
        };
        let mut defs = HashMap::new();
        let mut contract = None;
        for item in &items[2..] {
            let Sexp::List(form) = item else {
                panic!("unexpected top-level atom");
            };
            match (&form[0], &form[1]) {
                (Sexp::Atom(k), Sexp::List(spec)) if k == "provide" => {
                    contract = Some(spec[1].clone());
                }
                (Sexp::Atom(k), Sexp::List(head)) if k == "define" => {
                    let name = atom(&head[0]).to_string();
                    let params = head[1..].iter().map(|p| atom(p).to_string()).collect();
                    let closure = Closure {
                        params,
                        body: form[2].clone(),
                        env: Rc::new(Vec::new()),
                        party: Party::Module,
                    };
                    defs.insert(name, Value::Closure(Rc::new(closure)));
                }
                _ => panic!("unsupported top-level form"),
            }
        }
        Module {
            defs,
            contract: contract.expect("the module provides run"),
        }
    }

    /// Calls the export with `args` through its contract; `Err` names the
    /// party blamed.
    pub fn call_export(&self, args: &[Value]) -> Result<Value, Party> {
        let run = Value::Guarded(Rc::new(Guard {
            contract: self.contract.clone(),
            inner: self.defs["run"].clone(),
            positive: Party::Module,
            negative: Party::Context,
        }));
        self.apply(&run, args.to_vec())
    }

    /// Evaluates `src`, an expression of the context (such as a `lambda`
    /// input), in an empty environment.
    pub fn context_value(&self, src: &str) -> Value {
        let expr = read(src).pop().expect("one expression");
        self.eval(&expr, &Rc::new(Vec::new()), Party::Context)
            .expect("context inputs evaluate")
    }

    fn apply(&self, f: &Value, args: Vec<Value>) -> Result<Value, Party> {
        match f {
            Value::Closure(closure) => {
                assert_eq!(closure.params.len(), args.len(), "arity mismatch");
                let mut env: Vec<(String, Value)> = closure.env.as_ref().clone();
                env.extend(closure.params.iter().cloned().zip(args));
                self.eval(&closure.body, &Rc::new(env), closure.party)
            }
            Value::Guarded(guard) => {
                let Sexp::List(parts) = &guard.contract else {
                    panic!("arrow contract expected");
                };
                let (range, domains) = parts[1..].split_last().expect("arrow has a range");
                let args = domains
                    .iter()
                    .zip(args)
                    .map(|(dom, arg)| monitor(dom, arg, guard.negative, guard.positive))
                    .collect::<Result<Vec<_>, _>>()?;
                let result = self.apply(&guard.inner, args)?;
                monitor(range, result, guard.positive, guard.negative)
            }
            _ => panic!("application of a non-function"),
        }
    }

    fn eval(&self, expr: &Sexp, env: &Env, party: Party) -> Result<Value, Party> {
        match expr {
            Sexp::Atom(token) => Ok(self.lookup(token, env)),
            Sexp::List(items) => match &items[0] {
                Sexp::Atom(k) if k == "if" => match self.eval(&items[1], env, party)? {
                    Value::Bool(false) => self.eval(&items[3], env, party),
                    _ => self.eval(&items[2], env, party),
                },
                Sexp::Atom(k) if k == "let" => {
                    let Sexp::List(bindings) = &items[1] else {
                        panic!("let bindings");
                    };
                    let mut extended = env.as_ref().clone();
                    for binding in bindings {
                        let Sexp::List(pair) = binding else {
                            panic!("let binding");
                        };
                        let value = self.eval(&pair[1], env, party)?;
                        extended.push((atom(&pair[0]).to_string(), value));
                    }
                    self.eval(&items[2], &Rc::new(extended), party)
                }
                Sexp::Atom(k) if k == "lambda" => {
                    let Sexp::List(params) = &items[1] else {
                        panic!("lambda parameters");
                    };
                    Ok(Value::Closure(Rc::new(Closure {
                        params: params.iter().map(|p| atom(p).to_string()).collect(),
                        body: items[2].clone(),
                        env: env.clone(),
                        party,
                    })))
                }
                Sexp::Atom(k) if k == "error" => Err(party),
                Sexp::Atom(op) if is_prim(op) => {
                    let args = items[1..]
                        .iter()
                        .map(|arg| match self.eval(arg, env, party)? {
                            Value::Int(n) => Ok(n),
                            _ => Err(party),
                        })
                        .collect::<Result<Vec<i64>, Party>>()?;
                    Ok(prim(op, &args))
                }
                head => {
                    let f = self.eval(head, env, party)?;
                    let args = items[1..]
                        .iter()
                        .map(|arg| self.eval(arg, env, party))
                        .collect::<Result<Vec<_>, _>>()?;
                    if !matches!(f, Value::Closure(_) | Value::Guarded(_)) {
                        return Err(party);
                    }
                    self.apply(&f, args)
                }
            },
        }
    }

    fn lookup(&self, token: &str, env: &Env) -> Value {
        if let Ok(n) = token.parse::<i64>() {
            return Value::Int(n);
        }
        if let Some((_, value)) = env.iter().rev().find(|(name, _)| name == token) {
            return value.clone();
        }
        self.defs
            .get(token)
            .cloned()
            .unwrap_or_else(|| panic!("unbound identifier `{token}`"))
    }
}

fn atom(sexp: &Sexp) -> &str {
    match sexp {
        Sexp::Atom(a) => a,
        Sexp::List(_) => panic!("atom expected"),
    }
}

fn is_prim(op: &str) -> bool {
    matches!(op, "+" | "-" | "*" | "=" | "<" | ">")
}

fn prim(op: &str, args: &[i64]) -> Value {
    match op {
        "+" => Value::Int(args.iter().sum()),
        "*" => Value::Int(args.iter().product()),
        "-" => Value::Int(args[0] - args[1..].iter().sum::<i64>()),
        "=" => Value::Bool(args[0] == args[1]),
        "<" => Value::Bool(args[0] < args[1]),
        ">" => Value::Bool(args[0] > args[1]),
        _ => unreachable!("checked by is_prim"),
    }
}

/// Checks `value` against `contract`: a flat `integer?` blames `positive`
/// at once, an arrow wraps the function for later checks.
fn monitor(
    contract: &Sexp,
    value: Value,
    positive: Party,
    negative: Party,
) -> Result<Value, Party> {
    match contract {
        Sexp::Atom(name) if name == "integer?" => match value {
            Value::Int(_) => Ok(value),
            _ => Err(positive),
        },
        Sexp::List(_) => match value {
            Value::Closure(_) | Value::Guarded(_) => Ok(Value::Guarded(Rc::new(Guard {
                contract: contract.clone(),
                inner: value,
                positive,
                negative,
            }))),
            _ => Err(positive),
        },
        other => panic!("unsupported contract {other:?}"),
    }
}
