//! Regenerates the paper's Table 1: for every corpus program, analyse the
//! correct variant (expected: verified) and the erroneous variant (expected:
//! a validated concrete counterexample), reporting sizes, contract orders,
//! analysis times and the prover-session statistics.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin table1 \
//!     [--group kobayashi|terauchi|occurrence|games|others] \
//!     [--workers N] [--differential] \
//!     [--store DIR] [--incremental] [--json]
//! ```
//!
//! `--workers N` shards the programs over `N` threads (`0` means one worker
//! per hardware thread; default: 1); `--differential` runs both the
//! incremental prover session and the fresh-solver-per-query reference
//! engine and checks the verdicts agree; `--store DIR` attaches the
//! persistent analysis store in `DIR` (verdicts and theory lemmas survive
//! the process: the first run
//! populates it, later runs warm-start from it — see the store section of
//! this crate's README); `--incremental` additionally skips exports whose
//! dependency-cone hash already has a stored verdict (requires `--store`);
//! `--json` emits the machine-readable report (per-row and aggregate
//! stats — including encoding, heap snapshot/sharing, cross-variant
//! cache-hit and store counters — plus `analysis_ms`/`wall_ms` timing) on
//! stdout. The text report ends with the Table 1 summary, the one-line
//! `timing:` aggregate (monotonic clock) and the `solver stats:` line.

use std::time::Instant;

use scv_bench::corpus::{all_programs, group_programs, Group};
use scv_bench::harness::{run_all, run_program_differential, BenchOptions};
use scv_bench::report::{render_table, summarize, summarize_stats, timing_line, to_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let group = args
        .iter()
        .position(|a| a == "--group")
        .and_then(|i| args.get(i + 1))
        .map(|name| match name.as_str() {
            "kobayashi" => Group::Kobayashi,
            "terauchi" => Group::Terauchi,
            "occurrence" => Group::Occurrence,
            "games" => Group::Games,
            "others" => Group::Others,
            other => {
                eprintln!("unknown group `{other}`");
                std::process::exit(2);
            }
        });
    let json = args.iter().any(|a| a == "--json");
    let differential = args.iter().any(|a| a == "--differential");
    let workers = args.iter().position(|a| a == "--workers").map(|i| {
        let Some(value) = args.get(i + 1) else {
            eprintln!("--workers requires a count");
            std::process::exit(2);
        };
        value.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("invalid worker count `{value}`");
            std::process::exit(2);
        })
    });
    let store_dir = args.iter().position(|a| a == "--store").map(|i| {
        let Some(value) = args.get(i + 1) else {
            eprintln!("--store requires a directory");
            std::process::exit(2);
        };
        value.clone()
    });
    let incremental = args.iter().any(|a| a == "--incremental");
    if incremental && store_dir.is_none() {
        eprintln!("--incremental requires --store DIR");
        std::process::exit(2);
    }

    let programs = match group {
        Some(group) => group_programs(group),
        None => all_programs(),
    };
    let mut options = BenchOptions::default();
    if let Some(workers) = workers {
        options = options.with_workers(workers);
    }
    if let Some(dir) = &store_dir {
        // The engine fingerprint is computed after every engine-shaping flag
        // has been applied, so each configuration gets its own store file.
        let fingerprint = cpcf::EngineFingerprint::for_analyze(&options.analyze);
        match cpcf::AnalysisStore::open(dir, fingerprint) {
            Ok(store) => {
                eprintln!(
                    "[table1] store {}: {} verdicts, {} lemmas, {} export cones",
                    store.path().display(),
                    store.verdict_count(),
                    store.lemma_count(),
                    store.cone_count(),
                );
                options.analyze.store = Some(store);
                options.analyze.incremental = incremental;
            }
            Err(error) => {
                eprintln!("cannot open store in `{dir}`: {error}");
                std::process::exit(2);
            }
        }
    }

    if differential {
        let mut mismatches = 0usize;
        let mut incremental_rows = Vec::new();
        let mut fresh_rows = Vec::new();
        for program in &programs {
            let result = run_program_differential(program, &options);
            if !result.verdicts_match() {
                eprintln!(
                    "[differential] MISMATCH on {}: incremental {:?}/{:?} vs fresh {:?}/{:?}",
                    program.name,
                    result.incremental.correct_verdict,
                    result.incremental.faulty_verdict,
                    result.fresh.correct_verdict,
                    result.fresh.faulty_verdict,
                );
                mismatches += 1;
            }
            incremental_rows.push(result.incremental);
            fresh_rows.push(result.fresh);
        }
        println!("{}", render_table(&incremental_rows));
        println!("{}", summarize(&incremental_rows));
        println!("incremental {}", summarize_stats(&incremental_rows));
        println!("fresh       {}", summarize_stats(&fresh_rows));
        if mismatches == 0 {
            println!(
                "differential check: all {} programs agree between the incremental \
                 session and the fresh-per-query baseline",
                programs.len()
            );
        } else {
            println!("differential check: {mismatches} verdict mismatches");
            std::process::exit(1);
        }
        return;
    }

    let start = Instant::now();
    let results = run_all(&programs, &options);
    let wall_ms = start.elapsed().as_millis();
    if json {
        println!("{}", to_json(&results, wall_ms));
        return;
    }
    println!("{}", render_table(&results));
    println!("{}", summarize(&results));
    println!("{}", timing_line(&results, wall_ms));
    println!("{}", summarize_stats(&results));
}
