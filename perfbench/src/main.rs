//! The analyzer's benchmark: time to verdict and verdict correctness, end
//! to end and per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-cold|table1-edit|gen-paths --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one thread, one analysis worker. A run sets its workload
//! up several times (`setup_s` is the median), then makes passes over it
//! until `--seconds` have passed (at least [`MIN_PASSES`]). Every verdict
//! is checked against its known answer, and every pass must repeat the
//! first pass's verdicts and exact counters. `pass_s` and `setup_s` are
//! scaled to a nominal host by a reference kernel timed at the start of
//! each segment of a pass or set-up (see [`layers::HostClock`]); the
//! report prints the raw wall times beside them. The report goes to
//! standard output; its last line is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced run
//! alternates untraced and traced passes: layer times come from the traced
//! ones, and the median difference between a traced pass and the untraced
//! pass before it, on the nominal host, is the tracing overhead. The spans of a traced run are written to `perfbench/work/`.

mod gen;
mod layers;
#[cfg(test)]
mod refint;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{counter_index, peak_rss_mb, HostClock, HostTimes, Tracer, Verdict, COUNTERS};
use workload::{Pass, Prepared, Row, Workload};

/// Fewest passes a run makes, whatever `--seconds` says: the determinism
/// guard needs two, a traced run two of each kind.
const MIN_PASSES: usize = 4;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?.clone();
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let number = |flag: &str| -> Result<f64, String> {
        let text = value(flag)?;
        text.parse::<f64>()
            .map_err(|_| format!("{flag}: not a number: `{text}`"))
    };
    let seconds = number("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|_| "--seed: not a whole number".to_string())?;
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    match run(&args, &work) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<(), String> {
    let store_dir = work.join(format!("store-{}", std::process::id()));
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..args.workload.setup_reps() {
        // Drop the previous set-up (and its store) before timing the next.
        drop(prepared.take());
        let mut clock = HostClock::start()?;
        prepared = Some(workload::setup(
            args.workload,
            args.seed,
            &store_dir,
            &mut clock,
        )?);
        setups.push(clock.finish());
    }
    let prepared = prepared.expect("at least one set-up");
    let m = measure(args, &prepared, setups)?;

    let mut out = String::new();
    report(&mut out, args, &prepared, &m);
    let metrics = if args.trace {
        let metrics = per_layer(&m);
        report_layers(&mut out, &metrics, &m.passes);
        write_trace(&mut out, work, args, &m.passes)?;
        metrics
    } else {
        end_to_end(&prepared, &m)
    };
    print!("{out}");

    let attempted: usize = m.passes.iter().map(|p| p.analyses).sum();
    let failed: usize = m.passes.iter().map(|p| p.failed).sum();
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        m.guard.is_empty()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// What a run measured.
struct Measured {
    /// The host's times of each set-up.
    setups: Vec<HostTimes>,
    /// Every timed pass; only the first keeps its rows.
    passes: Vec<Pass>,
    /// The first pass's rows, which every pass must repeat.
    first: Vec<Row>,
    /// For each row position of a pass, its time and solver time in µs in
    /// every pass.
    samples: Vec<Vec<(f32, f32)>>,
    /// The determinism guard's findings; empty when every pass repeated
    /// the first.
    guard: Vec<String>,
}

/// Makes the timed passes. The first pass's rows are kept; every later
/// pass is compared with them and keeps only its per-row times, so the
/// run's own memory does not grow with the number of passes and inflate
/// `peak_rss_mb`.
fn measure(args: &Args, prepared: &Prepared, setups: Vec<HostTimes>) -> Result<Measured, String> {
    let epoch = Instant::now();
    let mut m = Measured {
        setups,
        passes: Vec::new(),
        first: Vec::new(),
        samples: Vec::new(),
        guard: Vec::new(),
    };
    let budget = Duration::from_secs_f64(args.seconds);
    while m.passes.len() < MIN_PASSES || epoch.elapsed() < budget {
        let traced = args.trace && m.passes.len() % 2 == 1;
        let mut pass = prepared.pass(Tracer::new(epoch, traced))?;
        if m.passes.is_empty() {
            m.samples = vec![Vec::new(); pass.rows.len()];
        } else {
            let problems =
                determinism_guard(prepared, m.passes.len(), &m.first, &m.passes[0], &pass);
            m.guard.extend(problems);
        }
        for (slot, row) in m.samples.iter_mut().zip(&pass.rows) {
            slot.push((micros(row.time), micros(row.solver)));
        }
        let rows = std::mem::take(&mut pass.rows);
        if m.passes.is_empty() {
            m.first = rows;
        }
        m.passes.push(pass);
    }
    Ok(m)
}

/// A named metric with its unit.
type Metric = (&'static str, f64, &'static str);

/// Median of `values` (the mean of the middle two for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn micros(d: Duration) -> f32 {
    (d.as_secs_f64() * 1e6) as f32
}

/// Describes every difference between pass `number` and the first pass,
/// whose rows are `first`: the verdict vector, the exact counters and the
/// store file sizes must repeat.
fn determinism_guard(
    prepared: &Prepared,
    number: usize,
    first: &[Row],
    first_pass: &Pass,
    pass: &Pass,
) -> Vec<String> {
    let mut problems = Vec::new();
    if pass.rows.len() != first.len() {
        problems.push(format!(
            "pass {number}: {} analyses, not {}",
            pass.rows.len(),
            first.len()
        ));
    }
    for (a, b) in first.iter().zip(&pass.rows) {
        let program = &prepared.pairs[a.pair].name;
        let variant = if a.faulty { 'f' } else { 'c' };
        if a.verdict != b.verdict {
            problems.push(format!(
                "pass {number}: {program}/{variant} (round {}) verdict {} became {}",
                a.round,
                a.verdict.marker(),
                b.verdict.marker()
            ));
        }
        let mut changed: Vec<String> = COUNTERS
            .iter()
            .zip(a.counters.iter().zip(&b.counters))
            .filter(|(_, (x, y))| x != y)
            .map(|(name, (x, y))| format!("{name} {x} -> {y}"))
            .collect();
        if a.skipped != b.skipped {
            changed.push(format!(
                "store.exports_skipped {} -> {}",
                a.skipped, b.skipped
            ));
        }
        if a.warm_started != b.warm_started {
            changed.push(format!(
                "store.lemmas_warm_started {} -> {}",
                a.warm_started, b.warm_started
            ));
        }
        if !changed.is_empty() {
            problems.push(format!(
                "pass {number}: {program}/{variant} (round {}) counters changed: {}",
                a.round,
                changed.join(", ")
            ));
        }
    }
    if pass.file_bytes != first_pass.file_bytes {
        problems.push(format!(
            "pass {number}: store file bytes {:?} became {:?}",
            first_pass.file_bytes, pass.file_bytes
        ));
    }
    problems
}

/// Verdict shares of one pass (every pass has the same verdicts, or the
/// guard fails the run).
struct Shares {
    attempted: usize,
    failed: Vec<String>,
    unsound: usize,
    faulty: usize,
    refuted: usize,
    correct: usize,
    verified: usize,
}

fn shares(prepared: &Prepared, rows: &[Row]) -> Shares {
    let mut s = Shares {
        attempted: rows.len(),
        failed: Vec::new(),
        unsound: 0,
        faulty: 0,
        refuted: 0,
        correct: 0,
        verified: 0,
    };
    for row in rows {
        if !row.answer.accepts(row.verdict) {
            let variant = if row.faulty { 'f' } else { 'c' };
            s.failed.push(format!(
                "{}/{variant} {}",
                prepared.pairs[row.pair].name,
                row.verdict.marker()
            ));
        }
        if row.answer.faulty() {
            s.faulty += 1;
            s.refuted += usize::from(row.verdict == Verdict::Counterexample);
            s.unsound += usize::from(row.verdict == Verdict::Verified);
        } else {
            s.correct += 1;
            s.verified += usize::from(row.verdict == Verdict::Verified);
        }
    }
    s
}

fn ratio(numerator: usize, denominator: usize) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The end-to-end metrics of an untraced run. `fail_share` and
/// `unsound_share` are reported as their complements, `answer_share` and
/// `sound_share`, so that no metric is ever 0 (a perfect engine would read
/// 0 on both).
fn end_to_end(prepared: &Prepared, m: &Measured) -> Vec<Metric> {
    let (passes, setups) = (&m.passes, &m.setups);
    let s = shares(prepared, &m.first);
    vec![
        (
            "pass_s",
            median(passes.iter().map(|p| p.nominal).collect()),
            "s",
        ),
        (
            "setup_s",
            median(setups.iter().map(|t| t.nominal).collect()),
            "s",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        (
            "answer_share",
            1.0 - ratio(s.failed.len(), s.attempted),
            "ratio",
        ),
        ("sound_share", 1.0 - ratio(s.unsound, s.attempted), "ratio"),
        ("cex_share", ratio(s.refuted, s.faulty), "ratio"),
        ("verified_share", ratio(s.verified, s.correct), "ratio"),
    ]
}

/// The per-layer metrics of a traced run: medians over its traced passes
/// of each layer's time, and the exact counters of a pass (those of the
/// first pass, which every pass repeats).
fn per_layer(m: &Measured) -> Vec<Metric> {
    let (first, passes) = (&m.first, &m.passes);
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.tracer.on).collect();
    let layer = |f: &dyn Fn(&Pass) -> f64| median(traced.iter().map(|p| f(p)).collect());
    let solver_ms = |p: &Pass| ms(p.solver);
    let spans_ms = |p: &Pass| {
        [
            "parse",
            "analyze",
            "store.open",
            "store.warm_start",
            "store.flush",
        ]
        .iter()
        .map(|name| ms(p.tracer.total(name)))
        .sum::<f64>()
    };
    let count = |name: &str| {
        let index = counter_index(name);
        first.iter().map(|r| r.counters[index]).sum::<u64>() as f64
    };
    let verdicts = |v: Verdict| first.iter().filter(|r| r.verdict == v).count() as f64;
    let hits = count("store.hits");
    let misses = count("store.misses");
    let traced_wall = layer(&|p| ms(p.wall));
    // Each traced pass against the untraced pass just before it, both on
    // the nominal host, so the host's drift over the run cancels out of
    // the overhead.
    let overhead = median(
        passes
            .windows(2)
            .filter(|pair| pair[1].tracer.on && !pair[0].tracer.on)
            .map(|pair| (pair[1].nominal - pair[0].nominal) * 1e3)
            .collect(),
    );
    vec![
        (
            "parse.us",
            layer(&|p| p.tracer.total("parse").as_secs_f64() * 1e6),
            "us",
        ),
        (
            "analyze.ms",
            layer(&|p| ms(p.tracer.total("analyze"))),
            "ms",
        ),
        (
            "analyze_self.ms",
            layer(&|p| ms(p.tracer.total("analyze")) - solver_ms(p)),
            "ms",
        ),
        ("eval.snapshots", count("eval.snapshots"), "count"),
        ("eval.nodes_copied", count("eval.nodes_copied"), "count"),
        (
            "eval.journal_bytes_shared",
            count("eval.journal_bytes_shared"),
            "bytes",
        ),
        ("eval.exhausted", verdicts(Verdict::Exhausted), "count"),
        ("prove.queries", count("prove.queries"), "count"),
        ("prove.num_queries", count("prove.num_queries"), "count"),
        ("prove.model_queries", count("prove.model_queries"), "count"),
        (
            "prove.cache_hit_ratio",
            count("prove.cache_hits") / count("prove.queries").max(1.0),
            "ratio",
        ),
        (
            "prove.full_encodings",
            count("prove.full_encodings"),
            "count",
        ),
        (
            "prove.delta_encodings",
            count("prove.delta_encodings"),
            "count",
        ),
        ("solver.ms", layer(&solver_ms), "ms"),
        ("solver.checks", count("solver.checks"), "count"),
        ("solver.conflicts", count("solver.conflicts"), "count"),
        ("solver.propagations", count("solver.propagations"), "count"),
        (
            "solver.cone_vars_pruned",
            count("solver.cone_vars_pruned"),
            "count",
        ),
        ("solver.dispatch_dl", count("solver.dispatch_dl"), "count"),
        ("solver.dispatch_lia", count("solver.dispatch_lia"), "count"),
        ("solver.ceiling_hits", count("solver.ceiling_hits"), "count"),
        (
            "solver.lemmas_imported",
            count("solver.lemmas_imported"),
            "count",
        ),
        ("cex.validated", verdicts(Verdict::Counterexample), "count"),
        ("cex.probable", verdicts(Verdict::ProbableError), "count"),
        (
            "store.open_ms",
            layer(&|p| ms(p.tracer.total("store.open"))),
            "ms",
        ),
        (
            "store.warm_start_ms",
            layer(&|p| ms(p.tracer.total("store.warm_start"))),
            "ms",
        ),
        (
            "store.flush_ms",
            layer(&|p| ms(p.tracer.total("store.flush"))),
            "ms",
        ),
        ("store.hits", hits, "count"),
        ("store.misses", misses, "count"),
        ("store.hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
        ("store.writes", count("store.writes"), "count"),
        (
            "store.lemmas_warm_started",
            first.iter().map(|r| r.warm_started).sum::<u64>() as f64,
            "count",
        ),
        (
            "store.exports_skipped",
            first.iter().map(|r| r.skipped).sum::<u64>() as f64,
            "count",
        ),
        (
            "store.file_bytes",
            median(passes[0].file_bytes.iter().map(|&b| b as f64).collect()),
            "bytes",
        ),
        ("harness.ms", layer(&|p| ms(p.wall) - spans_ms(p)), "ms"),
        ("trace.pass_ms", traced_wall, "ms"),
        ("trace.overhead_ms", overhead, "ms"),
        (
            "host.oncpu_ms",
            median(passes.iter().map(|p| ms(p.oncpu)).collect()),
            "ms",
        ),
        (
            "host.runq_ms",
            median(passes.iter().map(|p| ms(p.runq)).collect()),
            "ms",
        ),
        (
            "host.ref_us",
            median(
                passes
                    .iter()
                    .map(|p| p.reference.as_secs_f64() * 1e6)
                    .collect(),
            ),
            "us",
        ),
    ]
}

/// The human-readable report: host columns per pass, one row per program
/// with its median time per variant, the known-answer failures by name and
/// the determinism guard's findings.
fn report(out: &mut String, args: &Args, prepared: &Prepared, m: &Measured) {
    let (first, passes, setups, guard) = (&m.first, &m.passes, &m.setups, &m.guard);
    let walls: Vec<f64> = passes.iter().map(|p| secs(p.wall)).collect();
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0, f64::max);
    let _ = writeln!(
        out,
        "perfbench workload={} seed={} seconds={} trace={} passes={} pass_s median {:.4} (wall median {:.4}, min {:.4}, max {:.4}) setup_s median {:.4} (wall median {:.4}) over {} set-ups",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        passes.len(),
        median(passes.iter().map(|p| p.nominal).collect()),
        median(walls.clone()),
        min,
        max,
        median(setups.iter().map(|t| t.nominal).collect()),
        median(setups.iter().map(|t| secs(t.wall)).collect()),
        setups.len()
    );
    let _ = writeln!(
        out,
        "{:>5} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "pass", "traced", "wall_ms", "oncpu_ms", "runq_ms", "ref_us", "nominal_ms"
    );
    for (i, pass) in passes.iter().enumerate() {
        let _ = writeln!(
            out,
            "{i:>5} {:>6} {:>10.2} {:>10.2} {:>10.2} {:>10.1} {:>10.2}",
            u8::from(pass.tracer.on),
            ms(pass.wall),
            ms(pass.oncpu),
            ms(pass.runq),
            pass.reference.as_secs_f64() * 1e6,
            pass.nominal * 1e3
        );
    }

    // One row per program: median time of each variant, and of the solver
    // inside it, over every pass (and every store round) that analyzed it.
    let mut times: BTreeMap<(usize, bool), (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (row, row_samples) in first.iter().zip(&m.samples) {
        let (total, solver) = times.entry((row.pair, row.faulty)).or_default();
        total.extend(row_samples.iter().map(|s| f64::from(s.0)));
        solver.extend(row_samples.iter().map(|s| f64::from(s.1)));
    }
    let verdict_of = |pair: usize, faulty: bool| {
        first
            .iter()
            .find(|r| r.pair == pair && r.faulty == faulty)
            .map_or("-".to_string(), |r| {
                let mark = if r.answer.accepts(r.verdict) {
                    ""
                } else {
                    " FAIL"
                };
                format!("{}{mark}", r.verdict.marker())
            })
    };
    let _ = writeln!(
        out,
        "{:<16} {:>14} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "program", "correct", "c_us", "c_solver_us", "faulty", "f_us", "f_solver_us"
    );
    for (index, pair) in prepared.pairs.iter().enumerate() {
        let us = |faulty: bool| {
            times.get(&(index, faulty)).map_or(
                ("-".to_string(), "-".to_string()),
                |(total, solver)| {
                    (
                        format!("{:.1}", median(total.clone())),
                        format!("{:.1}", median(solver.clone())),
                    )
                },
            )
        };
        let (c_us, c_solver) = us(false);
        let (f_us, f_solver) = us(true);
        let _ = writeln!(
            out,
            "{:<16} {:>14} {c_us:>12} {c_solver:>12} {:>14} {f_us:>12} {f_solver:>12}",
            pair.name,
            verdict_of(index, false),
            verdict_of(index, true),
        );
    }

    let s = shares(prepared, first);
    let _ = writeln!(
        out,
        "per pass: fail_share {}/{} = {:.4}, unsound_share {}/{} = {:.4}, cex_share {}/{}, verified_share {}/{}",
        s.failed.len(),
        s.attempted,
        ratio(s.failed.len(), s.attempted),
        s.unsound,
        s.attempted,
        ratio(s.unsound, s.attempted),
        s.refuted,
        s.faulty,
        s.verified,
        s.correct
    );
    // Each failing variant once, with how many store rounds repeat it.
    let mut failed: Vec<(&String, usize)> = Vec::new();
    for failure in &s.failed {
        match failed.iter_mut().find(|(f, _)| *f == failure) {
            Some((_, count)) => *count += 1,
            None => failed.push((failure, 1)),
        }
    }
    let failed: Vec<String> = failed
        .into_iter()
        .map(|(f, n)| {
            if n == 1 {
                f.clone()
            } else {
                format!("{f} x{n}")
            }
        })
        .collect();
    let _ = writeln!(out, "known-answer failures: {}", failed.join(", "));
    if guard.is_empty() {
        let _ = writeln!(
            out,
            "determinism guard: all {} passes repeat the first pass's verdicts and counters",
            passes.len()
        );
    } else {
        for problem in guard {
            let _ = writeln!(out, "determinism guard FAILED: {problem}");
        }
    }
}

/// Which end-to-end metric each per-layer metric should move, where its
/// layer does most of its work, and where it should not move.
const LAYER_MAP: [(&str, &str, &str, &str); 10] = [
    ("parse.", "pass_s", "gen-paths", "table1-cold"),
    ("analyze", "pass_s", "gen-paths", "-"),
    (
        "eval.",
        "pass_s, answer_share, sound_share",
        "gen-paths",
        "table1-edit",
    ),
    ("prove.", "pass_s", "table1-cold", "gen-paths"),
    ("solver.", "pass_s", "table1-cold", "gen-paths"),
    ("cex.", "cex_share", "gen-paths", "-"),
    (
        "store.",
        "pass_s, setup_s",
        "table1-edit",
        "table1-cold, gen-paths",
    ),
    ("harness.", "- (near 0)", "-", "-"),
    ("trace.", "- (tracing overhead)", "-", "-"),
    ("host.", "- (diagnostic)", "-", "-"),
];

fn report_layers(out: &mut String, metrics: &[Metric], passes: &[Pass]) {
    let _ = writeln!(
        out,
        "{:<28} {:>16} {:<6} {:<34} {:<12} no change on",
        "per-layer metric", "value", "unit", "should move", "most work"
    );
    for (name, value, unit) in metrics {
        let (_, moves, most, none) = LAYER_MAP
            .iter()
            .find(|(prefix, ..)| name.starts_with(prefix))
            .copied()
            .unwrap_or(("", "-", "-", "-"));
        let _ = writeln!(
            out,
            "{name:<28} {value:>16.3} {unit:<6} {moves:<34} {most:<12} {none}"
        );
    }
    let get = |key: &str| metrics.iter().find(|m| m.0 == key).map_or(0.0, |m| m.1);
    let traced = passes.iter().filter(|p| p.tracer.on).count();
    let _ = writeln!(
        out,
        "layers of a traced pass (medians over {traced}): parse {:.3} + analyze {:.3} (solver {:.3}, self {:.3}) + store {:.3} + harness {:.3} ms; traced pass {:.3} ms, tracing overhead {:.3} ms on the nominal host",
        get("parse.us") / 1e3,
        get("analyze.ms"),
        get("solver.ms"),
        get("analyze_self.ms"),
        get("store.open_ms") + get("store.warm_start_ms") + get("store.flush_ms"),
        get("harness.ms"),
        get("trace.pass_ms"),
        get("trace.overhead_ms"),
    );
}

/// Writes every span of the traced passes, one JSON object a line, with
/// the pass as parent and the program and variant as request id.
fn write_trace(out: &mut String, work: &Path, args: &Args, passes: &[Pass]) -> Result<(), String> {
    let mut text = String::new();
    for (number, pass) in passes.iter().enumerate().filter(|(_, p)| p.tracer.on) {
        let _ = writeln!(
            text,
            "{{\"name\": \"pass\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": null, \"request\": \"pass{number}\"}}",
            pass.begin.as_secs_f64() * 1e6,
            pass.end.as_secs_f64() * 1e6,
        );
        for span in &pass.tracer.spans {
            let _ = writeln!(
                text,
                "{{\"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": \"pass{number}\", \"request\": \"{}\"}}",
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
                span.request
            );
        }
    }
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let path = work.join(format!("trace-{}-{}.jsonl", args.name, args.seed));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = writeln!(out, "spans written to {}", path.display());
    Ok(())
}
