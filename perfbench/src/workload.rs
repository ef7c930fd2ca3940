//! The three workloads: how each is set up from a seed and what one timed
//! pass over it does.
//!
//! * `table1-cold`: both variants of the 41 Table 1 programs, no store.
//!   Each program's variants share one verdict cache and lemma pool, as in
//!   the Table 1 harness, so the faulty run inherits the correct run's work.
//! * `table1-edit`: the edit-and-re-verify loop through the persistent
//!   store. Set-up analyzes every correct variant into a fresh store and
//!   keeps its bytes. The seed splits the programs into four quarters; a
//!   pass is four rounds, and round `r` restores the stored bytes, reopens
//!   the store and re-verifies the corpus incrementally with quarter `r`
//!   edited (its programs swapped for their faulty variant, a
//!   one-definition change). Every program is edited exactly once per
//!   pass, so the work of a pass does not depend on which quarter the seed
//!   put it in, and restoring the bytes keeps the store from drifting.
//! * `gen-paths`: the seeded known-answer programs of [`crate::gen`].

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cpcf::{
    analyze_module, AnalysisStore, AnalyzeOptions, EngineFingerprint, SharedLemmaPool,
    SharedVerdictCache,
};

use crate::gen::{self, Rng};
use crate::layers::{counters, verdict_of, Counters, HostClock, Tracer, Verdict};

/// The workloads the benchmark knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table 1 corpus, cold.
    Table1Cold,
    /// The edit-and-re-verify loop through the store.
    Table1Edit,
    /// Generated known-answer programs.
    GenPaths,
}

impl Workload {
    /// The workload named on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "table1-cold" => Some(Workload::Table1Cold),
            "table1-edit" => Some(Workload::Table1Edit),
            "gen-paths" => Some(Workload::GenPaths),
            _ => None,
        }
    }

    /// How many times a run sets the workload up; `setup_s` is the median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Table1Edit => 5,
            Workload::Table1Cold | Workload::GenPaths => 15,
        }
    }
}

/// What a variant's verdict must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// A correct variant: no blame is reachable.
    Verified,
    /// A faulty variant: a validated counterexample exists.
    Refuted,
    /// A faulty variant the paper itself leaves unsolved (the `w-*` rows):
    /// a probable error or an exhausted budget also count as right.
    Unsolved,
}

impl Answer {
    /// Whether `verdict` is this known answer.
    pub fn accepts(self, verdict: Verdict) -> bool {
        match self {
            Answer::Verified => verdict == Verdict::Verified,
            Answer::Refuted => verdict == Verdict::Counterexample,
            Answer::Unsolved => verdict != Verdict::Verified,
        }
    }

    /// Whether a blame is reachable in the variant.
    pub fn faulty(self) -> bool {
        self != Answer::Verified
    }
}

/// A program in both variants, parsed once at set-up to check it.
pub struct Pair {
    /// Row name, unique within the workload.
    pub name: String,
    /// The module `analyze_module` analyzes.
    pub module: String,
    /// Correct source.
    pub correct: String,
    /// Faulty source.
    pub faulty: String,
    /// Known answer of the faulty variant.
    pub faulty_answer: Answer,
}

/// One variant analysis of a pass.
#[derive(Debug, Clone)]
pub struct Row {
    /// Index of the program in the workload.
    pub pair: usize,
    /// Store round (0 outside `table1-edit`).
    pub round: usize,
    /// Whether the faulty variant was analyzed.
    pub faulty: bool,
    /// Its known answer.
    pub answer: Answer,
    /// The analyzer's verdict.
    pub verdict: Verdict,
    /// Wall time of parsing plus analysis.
    pub time: Duration,
    /// Time inside the solver, from `SessionStats`.
    pub solver: Duration,
    /// The exact counters of the analysis.
    pub counters: Counters,
    /// Exports answered from the store without analysis.
    pub skipped: u64,
    /// Stored lemmas the benchmark's warm start published.
    pub warm_started: u64,
}

/// One timed pass.
pub struct Pass {
    /// Start of the pass, from the start of the run.
    pub begin: Duration,
    /// End of the pass, from the start of the run.
    pub end: Duration,
    /// Wall time of the pass, the reference kernels left out.
    pub wall: Duration,
    /// Wall time of the pass on the nominal host, in seconds.
    pub nominal: f64,
    /// On-CPU time of the pass, the reference kernels left out.
    pub oncpu: Duration,
    /// Run-queue wait of the pass, the reference kernels left out.
    pub runq: Duration,
    /// Mean time of the reference kernels run in the pass.
    pub reference: Duration,
    /// Every variant analysis, in order. A run keeps only the first
    /// pass's rows; later passes are compared with them and dropped.
    pub rows: Vec<Row>,
    /// Variant analyses made.
    pub analyses: usize,
    /// Variant analyses whose verdict is not the known answer.
    pub failed: usize,
    /// Time inside the solver, summed over the pass.
    pub solver: Duration,
    /// Store file size after each round's flush (`table1-edit` only).
    pub file_bytes: Vec<u64>,
    /// Spans, when the pass was traced.
    pub tracer: Tracer,
}

/// A workload ready for timed passes.
pub struct Prepared {
    /// The programs.
    pub pairs: Vec<Pair>,
    options: AnalyzeOptions,
    edit: Option<EditState>,
}

/// The store state of `table1-edit`.
struct EditState {
    dir: PathBuf,
    fingerprint: EngineFingerprint,
    file: PathBuf,
    snapshot: Vec<u8>,
    /// `edited[r][i]`: program `i` is edited in round `r`.
    edited: Vec<Vec<bool>>,
}

/// Removes the run's store directory when the run ends.
impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(edit) = &self.edit {
            let _ = std::fs::remove_dir_all(&edit.dir);
        }
    }
}

/// The engine configuration of every workload: the Table 1 harness's
/// budgets, one worker.
fn options() -> AnalyzeOptions {
    scv_bench::BenchOptions::default().with_workers(1).analyze
}

fn table1_pairs() -> Vec<Pair> {
    let mut pairs: Vec<Pair> = Vec::new();
    for program in scv_bench::all_programs() {
        let mut name = program.name.to_string();
        if pairs.iter().any(|p| p.name == name) {
            name = format!("{name}-{:?}", program.group).to_lowercase();
        }
        pairs.push(Pair {
            name,
            module: String::new(),
            correct: program.correct.to_string(),
            faulty: program.faulty.to_string(),
            faulty_answer: if program.expected_unsolved {
                Answer::Unsolved
            } else {
                Answer::Refuted
            },
        });
    }
    pairs
}

fn gen_pairs(seed: u64) -> Vec<Pair> {
    gen::corpus(seed)
        .into_iter()
        .map(|p| Pair {
            name: p.name,
            module: String::new(),
            correct: p.correct,
            faulty: p.faulty,
            faulty_answer: Answer::Refuted,
        })
        .collect()
}

/// Parses both variants of every pair and records the analyzed module.
fn check_parse(pairs: &mut [Pair]) -> Result<(), String> {
    for pair in pairs {
        let mut modules = Vec::new();
        for source in [&pair.correct, &pair.faulty] {
            let (program, _) = cpcf::parse_program(source)
                .map_err(|e| format!("{}: does not parse: {e}", pair.name))?;
            let module = program
                .modules
                .last()
                .ok_or_else(|| format!("{}: no module", pair.name))?;
            modules.push(module.name.clone());
        }
        if modules[0] != modules[1] {
            return Err(format!(
                "{}: the variants name different modules",
                pair.name
            ));
        }
        pair.module = modules.pop().expect("two variants");
    }
    Ok(())
}

/// Sets `workload` up for `seed`. `work` is a directory the run owns;
/// `clock` times the set-up.
pub fn setup(
    workload: Workload,
    seed: u64,
    work: &Path,
    clock: &mut HostClock,
) -> Result<Prepared, String> {
    let mut pairs = match workload {
        Workload::Table1Cold | Workload::Table1Edit => table1_pairs(),
        Workload::GenPaths => gen_pairs(seed),
    };
    check_parse(&mut pairs)?;
    let options = options();
    let edit = match workload {
        Workload::Table1Edit => Some(populate_store(&pairs, &options, seed, work, clock)?),
        _ => None,
    };
    Ok(Prepared {
        pairs,
        options,
        edit,
    })
}

/// Analyzes every correct variant into a fresh store, keeps the store's
/// bytes and draws the four edited quarters.
fn populate_store(
    pairs: &[Pair],
    options: &AnalyzeOptions,
    seed: u64,
    dir: &Path,
    clock: &mut HostClock,
) -> Result<EditState, String> {
    let _ = std::fs::remove_dir_all(dir);
    let fingerprint = EngineFingerprint::for_analyze(options);
    let io = |e: std::io::Error| format!("store in {}: {e}", dir.display());
    let store = AnalysisStore::open(dir, fingerprint).map_err(io)?;
    let file = store.path().to_path_buf();
    let mut tracer = Tracer::new(Instant::now(), false);
    for (index, pair) in pairs.iter().enumerate() {
        clock.boundary()?;
        analyze_variant(options, Some(&store), &mut tracer, pair, index, 0, false);
    }
    store.flush();
    drop(store);
    let snapshot = std::fs::read(&file).map_err(io)?;

    Ok(EditState {
        dir: dir.to_path_buf(),
        fingerprint,
        file,
        snapshot,
        edited: quarters(pairs.len(), seed),
    })
}

/// Splits programs `0..n` into four seeded quarters: `edited[r][i]` says
/// whether program `i` is edited in round `r`.
fn quarters(n: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed).shuffle(&mut order);
    let mut edited = vec![vec![false; n]; 4];
    for (position, &index) in order.iter().enumerate() {
        edited[position % 4][index] = true;
    }
    edited
}

/// Parses and analyzes one variant of `pair` with a fresh verdict cache
/// and lemma pool, through `store` when given.
fn analyze_variant(
    options: &AnalyzeOptions,
    store: Option<&AnalysisStore>,
    tracer: &mut Tracer,
    pair: &Pair,
    index: usize,
    round: usize,
    faulty: bool,
) -> Row {
    let cache = match store {
        Some(store) => SharedVerdictCache::with_store(store.clone()),
        None => SharedVerdictCache::new(),
    };
    let pool = lemma_pool();
    let warm_started = match (store, &pool) {
        (Some(store), Some(pool)) => {
            tracer.span("store.warm_start", &request(pair, faulty), || {
                store.warm_start_lemmas(pool)
            })
        }
        _ => 0,
    };
    let mut options = options.clone();
    options.shared_cache = Some(cache);
    options.shared_lemmas = pool;
    options.store = store.cloned();
    options.incremental = store.is_some();
    run_analysis(&options, tracer, pair, index, round, faulty, warm_started)
}

/// A lemma pool when `CPCF_LEMMA_SHARING` allows one, as in the Table 1
/// harness.
fn lemma_pool() -> Option<SharedLemmaPool> {
    cpcf::default_lemma_sharing().then(SharedLemmaPool::new)
}

/// The span request id of a variant, such as `sum/f`.
fn request(pair: &Pair, faulty: bool) -> String {
    format!("{}/{}", pair.name, if faulty { 'f' } else { 'c' })
}

fn run_analysis(
    options: &AnalyzeOptions,
    tracer: &mut Tracer,
    pair: &Pair,
    index: usize,
    round: usize,
    faulty: bool,
    warm_started: u64,
) -> Row {
    let request = request(pair, faulty);
    let source = if faulty { &pair.faulty } else { &pair.correct };
    let start = Instant::now();
    let (program, _) = tracer
        .span("parse", &request, || cpcf::parse_program(source))
        .expect("checked at set-up");
    let report = tracer.span("analyze", &request, || {
        analyze_module(&program, &pair.module, options)
    });
    let time = start.elapsed();
    Row {
        pair: index,
        round,
        faulty,
        answer: if faulty {
            pair.faulty_answer
        } else {
            Answer::Verified
        },
        verdict: verdict_of(&report.exports),
        time,
        solver: report.stats.solver.time,
        counters: counters(&report.stats),
        skipped: report.skipped.len() as u64,
        warm_started,
    }
}

impl Prepared {
    /// Runs one pass; `tracer` records its spans when tracing is on.
    pub fn pass(&self, mut tracer: Tracer) -> Result<Pass, String> {
        let begin = tracer.now();
        let mut clock = HostClock::start()?;
        let mut rows = Vec::new();
        let mut file_bytes = Vec::new();
        match &self.edit {
            None => {
                for (index, pair) in self.pairs.iter().enumerate() {
                    clock.boundary()?;
                    // Both variants share one cache and lemma pool; the
                    // epoch boundary makes the faulty run's reuse visible.
                    let cache = SharedVerdictCache::new();
                    let mut options = self.options.clone();
                    options.shared_cache = Some(cache.clone());
                    options.shared_lemmas = lemma_pool();
                    rows.push(run_analysis(
                        &options,
                        &mut tracer,
                        pair,
                        index,
                        0,
                        false,
                        0,
                    ));
                    cache.advance_epoch();
                    rows.push(run_analysis(&options, &mut tracer, pair, index, 0, true, 0));
                }
            }
            Some(edit) => {
                for (round, edited) in edit.edited.iter().enumerate() {
                    clock.boundary()?;
                    let io = |e: std::io::Error| format!("store round {round}: {e}");
                    std::fs::write(&edit.file, &edit.snapshot).map_err(io)?;
                    let label = format!("round{round}");
                    let store = tracer
                        .span("store.open", &label, || {
                            AnalysisStore::open(&edit.dir, edit.fingerprint)
                        })
                        .map_err(io)?;
                    for (index, pair) in self.pairs.iter().enumerate() {
                        rows.push(analyze_variant(
                            &self.options,
                            Some(&store),
                            &mut tracer,
                            pair,
                            index,
                            round,
                            edited[index],
                        ));
                    }
                    tracer.span("store.flush", &label, || store.flush());
                    drop(store);
                    file_bytes.push(std::fs::metadata(&edit.file).map_err(io)?.len());
                }
            }
        }
        let host = clock.finish();
        Ok(Pass {
            begin,
            end: tracer.now(),
            wall: host.wall,
            nominal: host.nominal,
            oncpu: host.oncpu,
            runq: host.runq,
            reference: host.reference,
            analyses: rows.len(),
            failed: rows.iter().filter(|r| !r.answer.accepts(r.verdict)).count(),
            solver: rows.iter().map(|r| r.solver).sum(),
            rows,
            file_bytes,
            tracer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::quarters;

    #[test]
    fn every_program_is_edited_in_exactly_one_round() {
        for seed in [1, 2, 3] {
            let edited = quarters(41, seed);
            assert_eq!(edited.len(), 4);
            for program in 0..41 {
                assert_eq!(edited.iter().filter(|round| round[program]).count(), 1);
            }
            for round in &edited {
                assert!((10..=11).contains(&round.iter().filter(|&&e| e).count()));
            }
        }
        assert_ne!(quarters(41, 1), quarters(41, 2));
    }
}
