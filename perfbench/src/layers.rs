//! What one variant analysis and one pass leave behind: the exact counters
//! read from `SessionStats`, the spans the benchmark records around its own
//! calls into each layer, and the host's view of the pass.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cpcf::{ExportAnalysis, SessionStats};
pub use scv_bench::Verdict;

/// Names of the exact counters taken from each analysis's `SessionStats`.
/// They repeat exactly from pass to pass, which the determinism guard
/// checks, and the traced run reports their per-pass sums.
pub const COUNTERS: [&str; 20] = [
    "prove.queries",
    "prove.num_queries",
    "prove.model_queries",
    "prove.cache_hits",
    "prove.full_encodings",
    "prove.delta_encodings",
    "solver.checks",
    "solver.conflicts",
    "solver.propagations",
    "solver.cone_vars_pruned",
    "solver.dispatch_dl",
    "solver.dispatch_lia",
    "solver.ceiling_hits",
    "solver.lemmas_imported",
    "eval.snapshots",
    "eval.nodes_copied",
    "eval.journal_bytes_shared",
    "store.hits",
    "store.misses",
    "store.writes",
];

/// The [`COUNTERS`] of one analysis, in the same order.
pub type Counters = [u64; COUNTERS.len()];

/// Reads the [`COUNTERS`] out of a report's statistics.
pub fn counters(stats: &SessionStats) -> Counters {
    let s = &stats.solver;
    [
        stats.queries,
        stats.num_queries,
        stats.model_queries,
        stats.cache_hits,
        stats.full_encodings,
        stats.delta_encodings,
        s.checks,
        s.conflicts,
        s.propagations,
        s.cone_vars_pruned,
        s.theory_dispatch_dl,
        s.theory_dispatch_lia,
        s.propagation_ceiling_hits,
        s.lemmas_imported,
        stats.snapshots,
        stats.nodes_copied,
        stats.journal_bytes_shared,
        stats.store_hits,
        stats.store_misses,
        stats.store_writes,
    ]
}

/// The index of a counter in [`COUNTERS`].
pub fn counter_index(name: &str) -> usize {
    COUNTERS
        .iter()
        .position(|c| *c == name)
        .unwrap_or_else(|| panic!("unknown counter {name}"))
}

/// A variant's verdict, in the Table 1 harness's terms: the strongest of
/// its exports' verdicts, ranked counterexample > probable error >
/// exhausted budget > verified. Only a validated counterexample counts as
/// one.
pub fn verdict_of(exports: &[(String, ExportAnalysis)]) -> Verdict {
    let mut verdict = Verdict::Verified;
    for (_, export) in exports {
        match export {
            ExportAnalysis::Counterexample(cex) if cex.validated => return Verdict::Counterexample,
            ExportAnalysis::Counterexample(_) | ExportAnalysis::ProbableError(_) => {
                verdict = Verdict::ProbableError;
            }
            ExportAnalysis::Exhausted if verdict == Verdict::Verified => {
                verdict = Verdict::Exhausted;
            }
            _ => {}
        }
    }
    verdict
}

/// One span: a call the benchmark made into a layer during a traced pass.
/// Its parent is the pass; `request` names the program and variant (or the
/// store round) the call served.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call: `parse`, `analyze`, `store.open`, `store.warm_start`
    /// or `store.flush`.
    pub name: &'static str,
    /// The program and variant, such as `sum/f`, or `round2` for a store
    /// call that serves a whole round.
    pub request: String,
    /// Start, from the start of the run.
    pub start: Duration,
    /// End, from the start of the run.
    pub end: Duration,
}

/// Records spans when tracing is on and does nothing else otherwise.
pub struct Tracer {
    epoch: Instant,
    /// Whether spans are recorded.
    pub on: bool,
    /// Spans recorded so far in this pass.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `epoch`, recording only when `on`.
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// Runs `f`, recording it as span `name` when tracing is on.
    pub fn span<T>(&mut self, name: &'static str, request: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            request: request.to_string(),
            start,
            end,
        });
        out
    }

    /// Time since the run's epoch.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Total time of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }
}

/// The calling thread's scheduler accounting: time on a CPU and time
/// waiting on a run queue, in nanoseconds (`/proc/thread-self/schedstat`).
/// Zero where the file is missing.
pub fn schedstat() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// The reference kernel's time on the nominal host that a [`HostClock`]
/// scales to; it takes about this long on the 2-vCPU host of the README's
/// measurements when other tenants are quiet.
const REFERENCE_NOMINAL: Duration = Duration::from_millis(20);

/// Largest `VmHWM` seen before a reference kernel reset it, in kB.
static PEAK_KB: AtomicU64 = AtomicU64::new(0);

/// Times a fixed computation that shares no code with the analyzer but
/// works the way it does: hashing, small allocations and scattered reads
/// over a few MiB. It builds a `HashMap` of 2^16 three-word vectors under
/// random keys, looks up as many random keys and frees it all. Run at the
/// start of each segment a [`HostClock`] measures, it tracks how fast the
/// host runs such work at that moment: other tenants' contention for the
/// shared core, caches and memory slows it as it slows the analyzer, and
/// on-CPU time and run-queue wait cannot show that.
///
/// Afterwards the kernel hands its freed memory back to the system and
/// resets the process's `VmHWM`, so that [`peak_rss_mb`] measures the
/// analyzer, not the kernel.
fn reference_kernel() -> Result<Duration, String> {
    extern "C" {
        /// glibc: returns free heap memory to the system.
        fn malloc_trim(pad: usize) -> i32;
    }
    PEAK_KB.fetch_max(vm_hwm_kb(), Ordering::Relaxed);
    let n = 1u64 << 16;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut key = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % (4 * n)
    };
    let start = Instant::now();
    let mut map = HashMap::new();
    for i in 0..n {
        map.insert(key(), vec![i; 3]);
    }
    let mut sum = 0u64;
    for _ in 0..n {
        if let Some(v) = map.get(&key()) {
            sum = sum.wrapping_add(v[1]);
        }
    }
    std::hint::black_box(sum);
    drop(map);
    let elapsed = start.elapsed();
    // SAFETY: malloc_trim only releases memory the allocator holds free.
    unsafe { malloc_trim(0) };
    // "5" resets the peak resident set to the current one (proc(5)).
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
    Ok(elapsed)
}

/// How long a segment of a pass runs before the next program or round
/// boundary closes it and the reference kernel is timed again: the host's
/// speed changes within seconds, and a kernel time stands for it only so
/// long.
const SEGMENT: Duration = Duration::from_millis(200);

/// The time of a pass or a set-up on the host, measured in segments that
/// each last at least [`SEGMENT`] and end at a program or store-round
/// boundary (or at the end). Each segment begins with the reference
/// kernel, which is not part of the time measured, and its wall time is
/// scaled to the nominal host by [`REFERENCE_NOMINAL`] over that kernel's
/// time.
pub struct HostClock {
    times: HostTimes,
    kernels: u32,
    start: Instant,
    cpu: u64,
    runq: u64,
    reference: Duration,
}

/// What a [`HostClock`] measured, the reference kernels left out.
pub struct HostTimes {
    /// Wall time.
    pub wall: Duration,
    /// Wall time on the nominal host, in seconds.
    pub nominal: f64,
    /// On-CPU time.
    pub oncpu: Duration,
    /// Run-queue wait.
    pub runq: Duration,
    /// Mean time of the reference kernels.
    pub reference: Duration,
}

impl HostClock {
    /// Runs the reference kernel and opens the first segment.
    pub fn start() -> Result<HostClock, String> {
        let mut clock = HostClock {
            times: HostTimes {
                wall: Duration::ZERO,
                nominal: 0.0,
                oncpu: Duration::ZERO,
                runq: Duration::ZERO,
                reference: Duration::ZERO,
            },
            kernels: 0,
            start: Instant::now(),
            cpu: 0,
            runq: 0,
            reference: Duration::ZERO,
        };
        clock.open()?;
        Ok(clock)
    }

    /// A program or round boundary: closes the open segment and opens a
    /// new one once the open one has lasted [`SEGMENT`].
    pub fn boundary(&mut self) -> Result<(), String> {
        if self.start.elapsed() >= SEGMENT {
            self.close();
            self.open()?;
        }
        Ok(())
    }

    /// Closes the open segment and returns the times measured.
    pub fn finish(mut self) -> HostTimes {
        self.close();
        self.times.reference /= self.kernels;
        self.times
    }

    fn open(&mut self) -> Result<(), String> {
        self.reference = reference_kernel()?;
        self.kernels += 1;
        (self.cpu, self.runq) = schedstat();
        self.start = Instant::now();
        Ok(())
    }

    fn close(&mut self) {
        let wall = self.start.elapsed();
        let (cpu, runq) = schedstat();
        let t = &mut self.times;
        t.wall += wall;
        t.nominal +=
            wall.as_secs_f64() * REFERENCE_NOMINAL.as_secs_f64() / self.reference.as_secs_f64();
        t.oncpu += Duration::from_nanos(cpu.saturating_sub(self.cpu));
        t.runq += Duration::from_nanos(runq.saturating_sub(self.runq));
        t.reference += self.reference;
    }
}

fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The process's peak resident set (`VmHWM`) over its whole life, the
/// reference kernel left out, in MB.
pub fn peak_rss_mb() -> f64 {
    let now = vm_hwm_kb();
    PEAK_KB.fetch_max(now, Ordering::Relaxed).max(now) as f64 / 1024.0
}
