//! Parallel deterministic sweep engine with crash-safe execution.
//!
//! Every paper artifact is a grid of *independent* simulation runs
//! (mechanism × workload × load point × seed). Each run owns a private
//! [`SimRng`](afc_netsim::rng::SimRng) seeded from its spec alone and
//! shares no mutable state with any other run, so the grid is
//! embarrassingly parallel. This module provides the one executor all
//! harness binaries use:
//!
//! - [`run_sweep`] shards a job list across a work-stealing pool of std
//!   threads (no external dependencies) and reassembles results **in spec
//!   order**, so output is bit-identical regardless of thread count.
//! - [`SweepSpec`] / [`RunSpec`] describe a grid declaratively as plain
//!   data, with a canonical serialization ([`SweepResults::serialize`])
//!   used by the determinism regression tests.
//!
//! # Crash safety
//!
//! Three layers make long sweeps survivable:
//!
//! 1. **Panic isolation** — every job runs under
//!    [`std::panic::catch_unwind`] and gets [`JOB_ATTEMPTS`] tries. A job
//!    that panics every time yields a structured [`JobFailure`] in its own
//!    result slot; the pool and every other job are unaffected.
//! 2. **Manifests** — [`SweepSpec::execute_resumable`] records each
//!    completed job in a checksummed JSON manifest ([`SweepManifest`]),
//!    rewritten atomically after every completion, so an interrupted
//!    process resumes exactly the missing jobs (`--resume`).
//! 3. **Atomic artifacts** — [`write_atomic`] writes result files via a
//!    fsynced sibling temp file plus rename, so a crash mid-write never
//!    leaves a torn CSV.
//!
//! # Determinism contract
//!
//! 1. Workers receive disjoint job indices from an atomic cursor; which
//!    worker executes which job is racy, but results land in a slot keyed
//!    by job index, so the reassembled `Vec` is always in spec order.
//! 2. Job closures must be pure functions of `(index, job)` — they must
//!    not read or write state shared with other jobs. All simulator
//!    entropy comes from the per-run seed.
//! 3. Wall-clock timing is observed by the engine (for the per-run timing
//!    report) but never fed back into results.
//!
//! Setting `AFC_SWEEP_SELFCHECK=1` makes [`SweepSpec::execute`] re-run the
//! whole spec serially and assert the serialized results are byte-identical
//! to the parallel run — a cheap way to detect an accidental shared-state
//! leak in a new experiment.
//!
//! Thread count: `--threads N` (via [`parse_threads_arg`]) beats the
//! `AFC_BENCH_THREADS` environment variable, which beats
//! [`std::thread::available_parallelism`].

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

use afc_energy::{EnergyModel, EnergyParams};
use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::faults::FaultPlan;
use afc_netsim::network::Network;
use afc_netsim::snapshot::fnv1a64;
use afc_traffic::closedloop::WorkloadParams;
use afc_traffic::openloop::{PacketMix, RateSpec};
use afc_traffic::runner::{
    run_closed_loop_with, run_fault_scenario_with, run_open_loop_with, WarmStore,
};
use afc_traffic::synthetic::Pattern;

use crate::mechanisms::MechanismId;

/// Explicit `--threads` override; 0 means unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Per-run wall-clock records, drained by [`write_timing_report`].
static TIMINGS: Mutex<Timings> = Mutex::new(Timings::new());

/// Most timing records kept between reports. It lies above the largest
/// job count any `afc-bench` binary records before writing its report at
/// its default arguments (`sweep_throughput`: `30 * max(6T, 24) + 168`
/// jobs at `T` sweep threads, 888 at `T = 2`), so reports stay complete up
/// to ~360 threads,
/// while a process that never writes a report (a long benchmark loop, a
/// library caller) stops growing here. Past the cap, records are dropped
/// and counted in the report's header.
const TIMING_RECORD_CAP: usize = 1 << 16;

/// The timing registry: each sweep name is stored once, and at most
/// [`TIMING_RECORD_CAP`] records are kept.
#[derive(Debug, Default)]
struct Timings {
    names: Vec<String>,
    records: Vec<TimingRecord>,
    dropped: u64,
}

#[derive(Debug)]
struct TimingRecord {
    /// Index into [`Timings::names`].
    sweep: u32,
    run: usize,
    micros: u64,
}

impl Timings {
    const fn new() -> Timings {
        Timings {
            names: Vec::new(),
            records: Vec::new(),
            dropped: 0,
        }
    }

    fn record(&mut self, sweep: &str, run: usize, micros: u64) {
        if self.records.len() >= TIMING_RECORD_CAP {
            self.dropped += 1;
            return;
        }
        let index = match self.names.iter().rposition(|n| n == sweep) {
            Some(i) => i,
            None => {
                self.names.push(sweep.to_string());
                self.names.len() - 1
            }
        };
        self.records.push(TimingRecord {
            sweep: index as u32,
            run,
            micros,
        });
    }

    /// The report text: a header (binary, sweep threads, records dropped
    /// at the cap), one row per record, and a total.
    fn report(&self, binary: &str, threads: usize) -> String {
        let total_ms = self.records.iter().map(|r| r.micros).sum::<u64>() as f64 / 1_000.0;
        let mut out = String::new();
        out.push_str("# per-run wall-clock; nondeterministic by nature, not part of the\n");
        out.push_str("# byte-identical sweep results\n");
        out.push_str(&format!("# binary\t{binary}\n# threads\t{threads}\n"));
        out.push_str(&format!("# records dropped\t{}\n", self.dropped));
        out.push_str("sweep\trun\tmillis\n");
        for r in &self.records {
            out.push_str(&format!(
                "{}\t{}\t{:.3}\n",
                self.names[r.sweep as usize],
                r.run,
                r.micros as f64 / 1_000.0
            ));
        }
        out.push_str(&format!("total\t{}\t{total_ms:.3}\n", self.records.len()));
        out
    }
}

/// Structured errors from the sweep engine's argument parsing, manifest
/// handling, and artifact plumbing. Binaries print these and exit nonzero
/// instead of panicking.
#[derive(Debug)]
pub enum SweepError {
    /// A malformed command-line argument.
    BadArg(String),
    /// A manifest file that exists but cannot be trusted, or does not
    /// match the sweep it is being resumed against.
    Manifest {
        /// The offending manifest file.
        path: PathBuf,
        /// What is wrong with it.
        message: String,
    },
    /// A filesystem operation failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::BadArg(msg) => write!(f, "{msg}"),
            SweepError::Manifest { path, message } => {
                write!(f, "manifest {}: {message}", path.display())
            }
            SweepError::Io { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Sets the worker-thread count explicitly (wins over the environment).
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn set_threads(n: usize) {
    assert!(n > 0, "thread count must be at least 1");
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Extracts the value of a `--threads N` argument without applying it.
///
/// # Errors
///
/// [`SweepError::BadArg`] when `--threads` is present without a positive
/// integer value.
pub fn parse_threads_value(args: &[String]) -> Result<Option<usize>, SweepError> {
    let Some(i) = args.iter().position(|a| a == "--threads") else {
        return Ok(None);
    };
    match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
        Some(n) if n > 0 => Ok(Some(n)),
        _ => Err(SweepError::BadArg(
            "--threads requires a positive integer".to_string(),
        )),
    }
}

/// Consumes a `--threads N` argument if present and applies it via
/// [`set_threads`]. Call once from a binary's `main`.
///
/// # Errors
///
/// [`SweepError::BadArg`] when the value is missing or not a positive
/// integer.
pub fn parse_threads_arg(args: &[String]) -> Result<(), SweepError> {
    if let Some(n) = parse_threads_value(args)? {
        set_threads(n);
    }
    Ok(())
}

/// [`parse_threads_arg`] for binary `main`s: prints the error to stderr
/// and exits with status 2 instead of returning it.
pub fn parse_threads_arg_or_exit(args: &[String]) {
    if let Err(e) = parse_threads_arg(args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// Worker-thread count: `--threads` override, then `AFC_BENCH_THREADS`,
/// then the machine's available parallelism.
pub fn threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Some(n) = std::env::var("AFC_BENCH_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| *n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sweep worker count when each run itself steps on `sim_threads`
/// intra-run worker threads (the parallel cycle engine of DESIGN.md §12).
/// The two levels of parallelism multiply, so the pool divides its budget
/// to keep the total number of live threads near [`threads`]; one worker
/// always survives so the sweep can make progress.
pub fn threads_for_sim(sim_threads: usize) -> usize {
    divide_budget(threads(), sim_threads)
}

/// The arbitration rule behind [`threads_for_sim`], kept pure for testing.
fn divide_budget(budget: usize, sim_threads: usize) -> usize {
    (budget / sim_threads.max(1)).max(1)
}

/// Whether the determinism self-check mode is enabled
/// (`AFC_SWEEP_SELFCHECK=1`).
pub fn selfcheck_enabled() -> bool {
    std::env::var("AFC_SWEEP_SELFCHECK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Attempts per job before a panic is reported as a [`JobFailure`].
pub const JOB_ATTEMPTS: u32 = 2;

/// A job that panicked on every attempt. The pool survives; the failure
/// occupies the job's result slot instead of killing the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the failed job in the job list handed to the pool.
    pub index: usize,
    /// How many times the job was attempted.
    pub attempts: u32,
    /// The (last) panic message.
    pub message: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} panicked after {} attempts: {}",
            self.index, self.attempts, self.message
        )
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job under [`catch_unwind`] with bounded retry.
fn run_guarded<J, R, F>(name: &str, i: usize, job: &J, f: &F) -> Result<R, JobFailure>
where
    F: Fn(usize, &J) -> R + Sync,
{
    let mut last = String::new();
    for attempt in 1..=JOB_ATTEMPTS {
        match catch_unwind(AssertUnwindSafe(|| f(i, job))) {
            Ok(r) => return Ok(r),
            Err(payload) => {
                last = panic_message(payload);
                eprintln!(
                    "warning: sweep '{name}' job {i} panicked \
                     (attempt {attempt}/{JOB_ATTEMPTS}): {last}"
                );
            }
        }
    }
    Err(JobFailure {
        index: i,
        attempts: JOB_ATTEMPTS,
        message: last,
    })
}

/// Runs `f` over every job with [`threads`] workers and returns the
/// results in job order. See the module docs for the determinism contract.
///
/// # Panics
///
/// Panics — only after the pool has finished every other job — if a job
/// fails all its [`JOB_ATTEMPTS`] attempts. Callers that must survive a
/// failing job use [`run_sweep_failable`].
pub fn run_sweep<J, R, F>(name: &str, jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    run_sweep_on(name, jobs, &f, threads())
}

/// [`run_sweep`] with an explicit worker count (used by the determinism
/// tests so they need not mutate global state).
///
/// # Panics
///
/// As [`run_sweep`]: a job failing every attempt panics, but only after
/// the pool has completed all other jobs.
pub fn run_sweep_on<J, R, F>(name: &str, jobs: &[J], f: &F, threads: usize) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    run_sweep_failable(name, jobs, f, threads)
        .into_iter()
        .map(|r| r.unwrap_or_else(|fail| panic!("sweep '{name}': {fail}")))
        .collect()
}

/// [`run_sweep_with_progress`] without a progress hook.
pub fn run_sweep_failable<J, R, F>(
    name: &str,
    jobs: &[J],
    f: &F,
    threads: usize,
) -> Vec<Result<R, JobFailure>>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    run_sweep_with_progress(name, jobs, f, threads, |_, _| {})
}

/// The panic-isolating core of the pool: each job runs under
/// [`catch_unwind`] with [`JOB_ATTEMPTS`] tries, and a job that panics
/// every time yields `Err(`[`JobFailure`]`)` in its slot instead of
/// killing the pool. `progress` is invoked on the collector thread as each
/// job finishes (completion order, not spec order); checkpointing callers
/// use it to persist manifests incrementally.
pub fn run_sweep_with_progress<J, R, F, P>(
    name: &str,
    jobs: &[J],
    f: &F,
    threads: usize,
    progress: P,
) -> Vec<Result<R, JobFailure>>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    P: FnMut(usize, &Result<R, JobFailure>),
{
    let order: Vec<usize> = (0..jobs.len()).collect();
    run_sweep_scheduled(name, jobs, order, 1, f, threads, progress)
}

/// [`run_sweep_with_progress`] with batched, group-aware scheduling: jobs
/// are handed to workers as contiguous batches of a stable permutation
/// sorted by `group` (a [`RunSpec::arena_group`]-style key), so a worker
/// tends to see arena-compatible jobs back to back and its pooled
/// simulation [`Network`] is reset instead of rebuilt. Results are still
/// reassembled into spec-order slots, so output is byte-identical to the
/// ungrouped scheduler at any worker count.
pub fn run_sweep_grouped<J, R, F, K, P>(
    name: &str,
    jobs: &[J],
    group: K,
    f: &F,
    threads: usize,
    progress: P,
) -> Vec<Result<R, JobFailure>>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    K: Fn(usize, &J) -> u64,
    P: FnMut(usize, &Result<R, JobFailure>),
{
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    // Stable sort: spec order is preserved inside each group, and the
    // group traversal order is a pure function of the keys — scheduling
    // never depends on worker timing.
    order.sort_by_key(|&i| group(i, &jobs[i]));
    let workers = threads.max(1).min(jobs.len().max(1));
    let batch = batch_size(jobs.len(), workers);
    run_sweep_scheduled(name, jobs, order, batch, f, threads, progress)
}

/// Batch width for the grouped scheduler: large enough that a worker
/// amortizes an arena miss over several pool hits, small enough that the
/// tail of the sweep still load-balances across workers.
fn batch_size(jobs: usize, workers: usize) -> usize {
    (jobs / (workers * 4).max(1)).clamp(1, 8)
}

/// The shared scheduler core: an atomic cursor hands out contiguous
/// `batch`-sized windows of `order` (a permutation of job indices),
/// workers report `(index, result)` over a channel, and the collector
/// writes each result into its spec-index slot — output order is spec
/// order by construction, independent of `order`, `batch`, and timing.
fn run_sweep_scheduled<J, R, F, P>(
    name: &str,
    jobs: &[J],
    order: Vec<usize>,
    batch: usize,
    f: &F,
    threads: usize,
    mut progress: P,
) -> Vec<Result<R, JobFailure>>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    P: FnMut(usize, &Result<R, JobFailure>),
{
    debug_assert_eq!(order.len(), jobs.len());
    let workers = threads.max(1).min(jobs.len());
    if workers <= 1 {
        // Serial path walks the grouped order too (so a single-threaded
        // sweep still reuses its arena), but reassembles in spec order.
        let mut slots: Vec<Option<Result<R, JobFailure>>> = (0..jobs.len()).map(|_| None).collect();
        for &i in &order {
            let start = Instant::now();
            let r = run_guarded(name, i, &jobs[i], f);
            record_timing(name, i, start.elapsed().as_micros());
            progress(i, &r);
            slots[i] = Some(r);
        }
        return slots
            .into_iter()
            .map(|r| r.expect("serial pass visits every job"))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let batch = batch.max(1);
    let (tx, rx) = mpsc::channel();
    let mut slots: Vec<Option<Result<R, JobFailure>>> = (0..jobs.len()).map(|_| None).collect();
    let order = &order;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || 'steal: loop {
                let from = cursor.fetch_add(batch, Ordering::Relaxed);
                if from >= order.len() {
                    break;
                }
                let to = (from + batch).min(order.len());
                for &i in &order[from..to] {
                    let start = Instant::now();
                    let r = run_guarded(name, i, &jobs[i], f);
                    if tx.send((i, r, start.elapsed().as_micros())).is_err() {
                        break 'steal;
                    }
                }
            });
        }
        drop(tx);
        for (i, r, micros) in rx {
            record_timing(name, i, micros);
            progress(i, &r);
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every job index was handed to exactly one worker"))
        .collect()
}

/// Locks the timing registry, recovering from a poisoned lock: a panicking
/// sweep job may cost its own timing record, never the whole report.
fn timings() -> std::sync::MutexGuard<'static, Timings> {
    TIMINGS.lock().unwrap_or_else(|e| e.into_inner())
}

fn record_timing(sweep: &str, run: usize, micros: u128) {
    timings().record(sweep, run, micros as u64);
}

/// Atomically replaces `path` with `contents`: write a sibling temp file,
/// fsync it, and rename over the target, so a crash mid-write leaves
/// either the old artifact or the new one — never a torn file. Parent
/// directories are created as needed.
///
/// # Errors
///
/// [`SweepError::Io`] naming the target path.
pub fn write_atomic(path: &Path, contents: &[u8]) -> Result<(), SweepError> {
    write_atomic_io(path, contents).map_err(|source| SweepError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn write_atomic_io(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Rotated generations of each timing report kept on disk:
/// `<binary>.tsv` is the latest, `<binary>.1.tsv` the previous run, up to
/// `<binary>.{TIMING_REPORT_KEEP}.tsv`; older generations are deleted.
pub const TIMING_REPORT_KEEP: usize = 5;

/// Shifts existing `<binary>[.k].tsv` reports in `dir` up one generation,
/// deleting anything past [`TIMING_REPORT_KEEP`], so repeated bench runs
/// keep a bounded history instead of either clobbering the only report or
/// accreting files forever.
fn rotate_timing_reports(dir: &Path, binary: &str) -> std::io::Result<()> {
    let generation = |k: usize| {
        if k == 0 {
            dir.join(format!("{binary}.tsv"))
        } else {
            dir.join(format!("{binary}.{k}.tsv"))
        }
    };
    let oldest = generation(TIMING_REPORT_KEEP);
    if oldest.exists() {
        std::fs::remove_file(&oldest)?;
    }
    for k in (0..TIMING_REPORT_KEEP).rev() {
        let from = generation(k);
        if from.exists() {
            std::fs::rename(&from, generation(k + 1))?;
        }
    }
    Ok(())
}

/// Writes (and drains) the per-run timing report accumulated by every
/// sweep since the last call, to `results/timing/<binary>.tsv`, rotating
/// prior reports through `<binary>.<k>.tsv` up to [`TIMING_REPORT_KEEP`]
/// generations.
///
/// Wall-clock values are inherently nondeterministic, which is why they
/// live outside the experiment's own `results/` artifacts: byte-identity
/// across thread counts is promised for sweep *results*, not timings.
///
/// # Errors
///
/// Propagates filesystem errors from creating or writing the report.
pub fn write_timing_report(binary: &str) -> std::io::Result<PathBuf> {
    write_timing_report_in(Path::new("results"), binary)
}

/// [`write_timing_report`] against an explicit results root (tests point
/// this at a temp directory to exercise the retention policy).
pub fn write_timing_report_in(results_root: &Path, binary: &str) -> std::io::Result<PathBuf> {
    let dir = results_root.join("timing");
    std::fs::create_dir_all(&dir)?;
    rotate_timing_reports(&dir, binary)?;
    let path = dir.join(format!("{binary}.tsv"));
    let out = std::mem::take(&mut *timings()).report(binary, threads());
    write_atomic_io(&path, out.as_bytes())?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// Simulation arenas and the warm-start snapshot cache
// ---------------------------------------------------------------------------

// Per-worker simulation arena: each sweep worker thread keeps its most
// recently used `Network` here and offers it to the next job. When the
// next job has the same mechanism and configuration (which the grouped
// scheduler arranges), `Network::reset_from_config` reinitializes it in
// place — no allocation, no construction — and the run is byte-identical
// to one on a freshly built network. Worker threads are scoped to one
// sweep, so arenas are reclaimed when the sweep ends.
thread_local! {
    static SIM_POOL: RefCell<Option<Network>> = const { RefCell::new(None) };
}

/// Arena jobs whose pooled network matched the incoming job (reset path).
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
/// Arena jobs that found no compatible pooled network (fresh construction).
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);
/// Warm-cache lookups that found a usable post-warmup snapshot.
static WARM_HITS: AtomicU64 = AtomicU64::new(0);
/// Warm-cache lookups that missed (the warmup was simulated and cached).
static WARM_MISSES: AtomicU64 = AtomicU64::new(0);

/// Whether pooled arenas are in use; `AFC_SWEEP_POOL=0` disables them
/// (every job constructs its network from scratch).
pub fn pool_enabled() -> bool {
    std::env::var("AFC_SWEEP_POOL").map_or(true, |v| v != "0")
}

/// Whether the warm-start snapshot cache is in use; `AFC_SWEEP_WARM_CACHE=0`
/// disables it (every job re-simulates its warmup prefix).
pub fn warm_enabled() -> bool {
    std::env::var("AFC_SWEEP_WARM_CACHE").map_or(true, |v| v != "0")
}

/// Takes this worker's pooled network if it is arena-compatible with the
/// requested mechanism and configuration (same check
/// [`Network::reset_from_config`] enforces). An incompatible arena is
/// dropped — the completed job's network replaces it via [`pool_put`] — so
/// a worker holds at most one network at a time.
fn pool_take(factory_name: &str, cfg: &NetworkConfig) -> Option<Network> {
    let Some(net) = SIM_POOL.with(|p| p.borrow_mut().take()) else {
        // Cold start: this worker has no arena yet.
        POOL_MISSES.fetch_add(1, Ordering::Relaxed);
        return None;
    };
    if net.mechanism() == factory_name && net.config() == cfg {
        POOL_HITS.fetch_add(1, Ordering::Relaxed);
        Some(net)
    } else {
        POOL_MISSES.fetch_add(1, Ordering::Relaxed);
        None
    }
}

/// Returns a finished job's network to this worker's arena slot.
fn pool_put(net: Network) {
    SIM_POOL.with(|p| *p.borrow_mut() = Some(net));
}

/// Drops this worker's pooled arena (tests use it to force cold starts).
pub fn pool_clear() {
    SIM_POOL.with(|p| *p.borrow_mut() = None);
}

/// Cumulative `(arena hits, arena misses, warm hits, warm misses)` across
/// all sweeps in this process. A "hit" means the job reset a pooled
/// network in place / restored a cached warmup snapshot; a "miss" means it
/// constructed / simulated from scratch. First-job cold starts on each
/// worker count as neither (there was no arena to offer).
pub fn pool_stats() -> (u64, u64, u64, u64) {
    (
        POOL_HITS.load(Ordering::Relaxed),
        POOL_MISSES.load(Ordering::Relaxed),
        WARM_HITS.load(Ordering::Relaxed),
        WARM_MISSES.load(Ordering::Relaxed),
    )
}

/// Process-wide warm-start snapshot cache, keyed by
/// [`afc_traffic::runner::warm_key`] — a fingerprint of the full network
/// configuration (mesh, mechanism, fault plan, thresholds), the traffic
/// description, the warmup length, and the seed. Values are sealed
/// [`Simulation::snapshot`](afc_netsim::sim::Simulation::snapshot)
/// containers taken immediately after the warmup phase; a later run with
/// the same key restores the snapshot instead of re-simulating the
/// warmup, and the runner verifies the container checksum and network
/// fingerprint on restore, invalidating the entry on any mismatch.
///
/// The cache is bounded (FIFO eviction once `cap_bytes` is exceeded;
/// default 256 MiB, overridable via `AFC_SWEEP_WARM_CACHE_BYTES`) and can
/// spill to disk: set `AFC_WARM_CACHE_DIR` to a directory and entries are
/// also written there atomically, surviving process crashes — a resumed
/// sweep re-reads them subject to the same checksum/fingerprint
/// verification.
pub struct WarmCache {
    inner: Mutex<WarmCacheInner>,
    cap_bytes: usize,
    disk_dir: Option<PathBuf>,
}

struct WarmCacheInner {
    map: HashMap<u64, Arc<Vec<u8>>>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<u64>,
    bytes: usize,
}

impl WarmCache {
    /// An empty cache with an explicit byte cap and optional disk spill
    /// directory (tests construct these directly; production code uses
    /// the [`warm_cache`] singleton).
    pub fn with_limits(cap_bytes: usize, disk_dir: Option<PathBuf>) -> WarmCache {
        WarmCache {
            inner: Mutex::new(WarmCacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                bytes: 0,
            }),
            cap_bytes,
            disk_dir,
        }
    }

    fn from_env() -> WarmCache {
        let cap = std::env::var("AFC_SWEEP_WARM_CACHE_BYTES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(256 << 20);
        let dir = std::env::var("AFC_WARM_CACHE_DIR")
            .ok()
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        WarmCache::with_limits(cap, dir)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WarmCacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn disk_path(&self, key: u64) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("warm-{key:016x}.snap")))
    }

    /// Current `(entries, bytes)` resident in memory.
    pub fn usage(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.map.len(), inner.bytes)
    }

    /// Empties the in-memory cache (disk spill files are left alone).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
        inner.bytes = 0;
    }
}

impl WarmStore for WarmCache {
    fn get(&self, key: u64) -> Option<Arc<Vec<u8>>> {
        if let Some(bytes) = self.lock().map.get(&key).cloned() {
            WARM_HITS.fetch_add(1, Ordering::Relaxed);
            return Some(bytes);
        }
        // Miss in memory: a crash-surviving spill file may still have it.
        // The runner re-verifies checksum and fingerprint on restore, so a
        // torn or stale file degrades to a re-warmed run, never a wrong one.
        if let Some(path) = self.disk_path(key) {
            if let Ok(bytes) = std::fs::read(&path) {
                let bytes = Arc::new(bytes);
                let mut inner = self.lock();
                inner.bytes += bytes.len();
                inner.order.push_back(key);
                inner.map.insert(key, Arc::clone(&bytes));
                WARM_HITS.fetch_add(1, Ordering::Relaxed);
                return Some(bytes);
            }
        }
        WARM_MISSES.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn put(&self, key: u64, bytes: Vec<u8>) {
        let disk = self.disk_path(key);
        let bytes = Arc::new(bytes);
        {
            let mut inner = self.lock();
            if let Some(old) = inner.map.insert(key, Arc::clone(&bytes)) {
                inner.bytes -= old.len();
                inner.order.retain(|&k| k != key);
            }
            inner.bytes += bytes.len();
            inner.order.push_back(key);
            while inner.bytes > self.cap_bytes && inner.order.len() > 1 {
                let victim = inner.order.pop_front().expect("order non-empty");
                if let Some(old) = inner.map.remove(&victim) {
                    inner.bytes -= old.len();
                }
            }
        }
        if let Some(path) = disk {
            // Spill failures are non-fatal: the in-memory entry still works.
            let _ = write_atomic_io(&path, &bytes);
        }
    }

    fn invalidate(&self, key: u64) {
        {
            let mut inner = self.lock();
            if let Some(old) = inner.map.remove(&key) {
                inner.bytes -= old.len();
                inner.order.retain(|&k| k != key);
            }
        }
        if let Some(path) = self.disk_path(key) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The process-wide [`WarmCache`] singleton, configured from the
/// environment on first use.
pub fn warm_cache() -> &'static WarmCache {
    static WARM: OnceLock<WarmCache> = OnceLock::new();
    WARM.get_or_init(WarmCache::from_env)
}

/// One simulation run, described as plain data. Workers rebuild the router
/// factory from the [`MechanismId`], so specs are freely `Clone` + `Send`.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Which router mechanism to run.
    pub mechanism: MechanismId,
    /// The run's private RNG seed.
    pub seed: u64,
    /// The scenario.
    pub kind: RunKind,
}

/// The scenario of a [`RunSpec`].
#[derive(Debug, Clone)]
pub enum RunKind {
    /// Closed-loop workload run ([`run_closed_loop_with`]).
    ClosedLoop {
        /// Workload preset.
        workload: WorkloadParams,
        /// Transactions to complete before measurement starts.
        warmup_txns: u64,
        /// Transactions measured.
        measure_txns: u64,
        /// Abort budget.
        max_cycles: u64,
    },
    /// Open-loop synthetic-traffic run ([`run_open_loop_with`]).
    OpenLoop {
        /// Offered rate, flits/node/cycle.
        rate: f64,
        /// Traffic pattern.
        pattern: Pattern,
        /// Packet-length mix.
        mix: PacketMix,
        /// Warmup cycles.
        warmup_cycles: u64,
        /// Measured cycles.
        measure_cycles: u64,
    },
    /// Fault-injection inject-then-drain run ([`run_fault_scenario_with`]).
    Fault {
        /// Offered rate, flits/node/cycle.
        rate: f64,
        /// Per-flit-hop drop probability.
        drop_rate: f64,
        /// Per-flit-hop corruption probability.
        corrupt_rate: f64,
        /// Cycles of live injection.
        inject_cycles: u64,
        /// Drain budget after sources stop.
        drain_cycles: u64,
    },
}

impl RunSpec {
    /// A short deterministic label: `mechanism/scenario@seed`.
    pub fn label(&self) -> String {
        let scenario = match &self.kind {
            RunKind::ClosedLoop { workload, .. } => workload.name.to_string(),
            RunKind::OpenLoop { rate, .. } => format!("open@{rate:.3}"),
            RunKind::Fault {
                rate, drop_rate, ..
            } => format!("fault@{rate:.3}/{drop_rate:e}"),
        };
        format!("{}/{}@{}", self.mechanism.label(), scenario, self.seed)
    }

    /// Arena-compatibility group key: two runs with the same key (and the
    /// same sweep-level `net_cfg`) build identical networks, so one can
    /// reuse the other's pooled arena via [`Network::reset_from_config`].
    /// Mechanism always discriminates; fault runs additionally fold in the
    /// fault-plan parameters they patch into the configuration.
    pub fn arena_group(&self) -> u64 {
        let detail = match &self.kind {
            RunKind::Fault {
                drop_rate,
                corrupt_rate,
                ..
            } => format!("fault|{drop_rate:?}|{corrupt_rate:?}"),
            RunKind::ClosedLoop { .. } | RunKind::OpenLoop { .. } => String::new(),
        };
        fnv1a64(format!("{}|{detail}", self.mechanism.label()).as_bytes())
    }

    /// Executes the run against `net_cfg` and reduces it to the flat
    /// deterministic metrics of [`RunOutput`], using this worker's pooled
    /// arena and the process-wide warm-start cache unless disabled via
    /// `AFC_SWEEP_POOL=0` / `AFC_SWEEP_WARM_CACHE=0`. Both reuse paths are
    /// byte-identical to cold execution, so results do not depend on pool
    /// or cache state.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or a closed-loop run blows
    /// its cycle budget, mirroring the underlying runners. Inside a sweep
    /// the pool catches the unwind and reports a [`JobFailure`].
    pub fn execute(&self, net_cfg: &NetworkConfig) -> RunOutput {
        self.execute_tuned(net_cfg, pool_enabled(), warm_enabled())
    }

    /// [`RunSpec::execute`] with explicit arena-pool and warm-cache
    /// switches (benchmarks use this to compare fresh, pooled, and
    /// warm-cached execution on identical specs).
    pub fn execute_tuned(&self, net_cfg: &NetworkConfig, pool: bool, warm: bool) -> RunOutput {
        let mechanism = self.mechanism.mechanism();
        let factory = mechanism.factory.as_ref();
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        let warm_store: Option<&dyn WarmStore> = if warm { Some(warm_cache()) } else { None };
        match &self.kind {
            RunKind::ClosedLoop {
                workload,
                warmup_txns,
                measure_txns,
                max_cycles,
            } => {
                let arena = if pool {
                    pool_take(factory.name(), net_cfg)
                } else {
                    None
                };
                let out = run_closed_loop_with(
                    arena,
                    warm_store,
                    factory,
                    net_cfg,
                    *workload,
                    *warmup_txns,
                    *measure_txns,
                    *max_cycles,
                    self.seed,
                )
                .expect("valid configuration");
                let output = RunOutput {
                    label: self.label(),
                    cycles: out.measured_cycles,
                    packets_delivered: out.stats.packets_delivered,
                    flits_delivered: out.stats.flits_delivered,
                    injection_rate: out.injection_rate(),
                    throughput: out.stats.throughput(out.network.mesh().node_count()),
                    mean_latency: out.mean_latency(),
                    energy_pj: model.price_network(&out.network).total(),
                    backpressured_fraction: out.stats.backpressured_fraction(),
                    mean_deflections: out.stats.flit_deflections.mean().unwrap_or(0.0),
                    delivered_fraction: delivered_fraction(&out.stats),
                    outcome: "ok".to_string(),
                };
                if pool {
                    pool_put(out.network);
                }
                output
            }
            RunKind::OpenLoop {
                rate,
                pattern,
                mix,
                warmup_cycles,
                measure_cycles,
            } => {
                let arena = if pool {
                    pool_take(factory.name(), net_cfg)
                } else {
                    None
                };
                let out = run_open_loop_with(
                    arena,
                    warm_store,
                    factory,
                    net_cfg,
                    RateSpec::Uniform(*rate),
                    pattern.clone(),
                    *mix,
                    *warmup_cycles,
                    *measure_cycles,
                    self.seed,
                )
                .expect("valid configuration");
                let output = RunOutput {
                    label: self.label(),
                    cycles: out.measured_cycles,
                    packets_delivered: out.stats.packets_delivered,
                    flits_delivered: out.stats.flits_delivered,
                    injection_rate: out.injection_rate(),
                    throughput: out.stats.throughput(out.network.mesh().node_count()),
                    mean_latency: out.mean_latency(),
                    energy_pj: model.price_network(&out.network).total(),
                    backpressured_fraction: out.stats.backpressured_fraction(),
                    mean_deflections: out.stats.flit_deflections.mean().unwrap_or(0.0),
                    delivered_fraction: delivered_fraction(&out.stats),
                    outcome: "ok".to_string(),
                };
                if pool {
                    pool_put(out.network);
                }
                output
            }
            RunKind::Fault {
                rate,
                drop_rate,
                corrupt_rate,
                inject_cycles,
                drain_cycles,
            } => {
                let cfg = NetworkConfig {
                    faults: FaultPlan::uniform_transient(*drop_rate, *corrupt_rate),
                    retransmit: Some(RetransmitConfig::default()),
                    ..net_cfg.clone()
                };
                let arena = if pool {
                    pool_take(factory.name(), &cfg)
                } else {
                    None
                };
                let out = run_fault_scenario_with(
                    arena,
                    factory,
                    &cfg,
                    RateSpec::Uniform(*rate),
                    Pattern::UniformRandom,
                    PacketMix::paper(),
                    *inject_cycles,
                    *drain_cycles,
                    self.seed,
                )
                .expect("valid configuration");
                let outcome = match &out.error {
                    Some(e) => format!("error: {e}"),
                    None if out.drained => "drained".to_string(),
                    None => "drain budget exhausted".to_string(),
                };
                let output = RunOutput {
                    label: self.label(),
                    cycles: out.ran_cycles,
                    packets_delivered: out.stats.packets_delivered,
                    flits_delivered: out.stats.flits_delivered,
                    injection_rate: 0.0,
                    throughput: 0.0,
                    mean_latency: out.stats.network_latency.mean(),
                    energy_pj: model.price_network(&out.network).total(),
                    backpressured_fraction: out.stats.backpressured_fraction(),
                    mean_deflections: out.stats.flit_deflections.mean().unwrap_or(0.0),
                    delivered_fraction: out.delivered_fraction(),
                    outcome,
                };
                if pool {
                    pool_put(out.network);
                }
                output
            }
        }
    }
}

fn delivered_fraction(stats: &afc_netsim::stats::NetworkStats) -> f64 {
    if stats.packets_offered == 0 {
        1.0
    } else {
        stats.packets_delivered as f64 / stats.packets_offered as f64
    }
}

/// The placeholder output of a job that panicked on every attempt: zeroed
/// metrics with the failure recorded in `outcome`.
fn failure_output(spec: &RunSpec, fail: &JobFailure) -> RunOutput {
    RunOutput {
        label: spec.label(),
        cycles: 0,
        packets_delivered: 0,
        flits_delivered: 0,
        injection_rate: 0.0,
        throughput: 0.0,
        mean_latency: None,
        energy_pj: 0.0,
        backpressured_fraction: 0.0,
        mean_deflections: 0.0,
        delivered_fraction: 0.0,
        outcome: format!("panic after {} attempts: {}", fail.attempts, fail.message),
    }
}

/// A declarative grid of independent runs over one network configuration.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (used in timing reports and error messages).
    pub name: String,
    /// Network configuration shared by every run.
    pub net_cfg: NetworkConfig,
    /// The runs, in output order.
    pub runs: Vec<RunSpec>,
}

impl SweepSpec {
    /// A stable fingerprint of the full sweep definition (name, network
    /// configuration, and every run spec), used by manifests to refuse
    /// resuming against a different sweep.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        text.push_str(&self.name);
        text.push('\n');
        text.push_str(&format!("{:?}\n", self.net_cfg));
        for run in &self.runs {
            text.push_str(&format!("{run:?}\n"));
        }
        fnv1a64(text.as_bytes())
    }

    /// Executes the sweep with [`threads_for_sim`] workers — the global
    /// thread budget divided by the runs' own `sim_threads`, so sweep-level
    /// and intra-run parallelism never oversubscribe the machine together.
    /// When [`selfcheck_enabled`], additionally re-runs serially and
    /// asserts byte-identical results.
    pub fn execute(&self) -> SweepResults {
        let n = threads_for_sim(self.net_cfg.sim_threads);
        let results = self.execute_with_threads(n);
        if selfcheck_enabled() && n > 1 {
            let serial = self.execute_with_threads(1);
            assert_eq!(
                serial.serialize(),
                results.serialize(),
                "sweep '{}' produced thread-count-dependent results — a run \
                 is sharing mutable state",
                self.name
            );
        }
        results
    }

    /// Executes with an explicit worker count. A run that panics on every
    /// attempt becomes a zeroed [`RunOutput`] whose `outcome` records the
    /// failure; the other runs are unaffected.
    pub fn execute_with_threads(&self, threads: usize) -> SweepResults {
        self.execute_with_threads_tuned(threads, pool_enabled(), warm_enabled())
    }

    /// [`SweepSpec::execute_with_threads`] with explicit arena-pool and
    /// warm-cache switches; the `sweep_throughput` benchmark uses this to
    /// time fresh, pooled, and warm-cached execution of identical sweeps
    /// within one process.
    pub fn execute_with_threads_tuned(
        &self,
        threads: usize,
        pool: bool,
        warm: bool,
    ) -> SweepResults {
        let results = run_sweep_grouped(
            &self.name,
            &self.runs,
            |_, run: &RunSpec| run.arena_group(),
            &|_, run: &RunSpec| run.execute_tuned(&self.net_cfg, pool, warm),
            threads,
            |_, _| {},
        );
        let outputs = self
            .runs
            .iter()
            .zip(results)
            .map(|(run, r)| match r {
                Ok(o) => o,
                Err(fail) => failure_output(run, &fail),
            })
            .collect();
        SweepResults { outputs }
    }

    /// Executes the sweep with crash-safe checkpointing: every completed
    /// job is recorded in the manifest at `manifest_path`, rewritten
    /// atomically on each completion. With `resume`, an existing manifest
    /// is loaded first — after verifying its sweep name, fingerprint, and
    /// job count — and only the missing jobs run.
    ///
    /// Jobs that panic on every attempt are reported in their output's
    /// `outcome` field and are **not** recorded in the manifest, so a
    /// later resume retries exactly the failed and missing jobs.
    ///
    /// # Errors
    ///
    /// [`SweepError::Manifest`] for a corrupt or mismatched manifest,
    /// [`SweepError::Io`] for filesystem failures.
    pub fn execute_resumable(
        &self,
        manifest_path: &Path,
        resume: bool,
    ) -> Result<SweepResults, SweepError> {
        let mut manifest = SweepManifest::new(self);
        let mut completed: HashMap<usize, RunOutput> = HashMap::new();
        if resume && manifest_path.exists() {
            let prior = SweepManifest::load(manifest_path)?;
            let mismatch = |message: String| SweepError::Manifest {
                path: manifest_path.to_path_buf(),
                message,
            };
            if prior.sweep != self.name {
                return Err(mismatch(format!(
                    "belongs to sweep {:?}, not {:?}",
                    prior.sweep, self.name
                )));
            }
            if prior.fingerprint != self.fingerprint() || prior.total != self.runs.len() {
                return Err(mismatch(
                    "sweep definition changed since the manifest was written \
                     (fingerprint mismatch); delete the manifest or rerun \
                     without --resume"
                        .to_string(),
                ));
            }
            for (i, line) in &prior.jobs {
                let output =
                    RunOutput::deserialize(line).map_err(|e| mismatch(format!("job {i}: {e}")))?;
                completed.insert(*i, output);
            }
            manifest = prior;
        }

        let missing: Vec<usize> = (0..self.runs.len())
            .filter(|i| !completed.contains_key(i))
            .collect();
        let mut save_err: Option<SweepError> = None;
        let results = run_sweep_grouped(
            &self.name,
            &missing,
            |_, &idx: &usize| self.runs[idx].arena_group(),
            &|_, &idx: &usize| self.runs[idx].execute(&self.net_cfg),
            threads(),
            |k, r| {
                if let Ok(output) = r {
                    manifest.record(missing[k], output);
                    if let Err(e) = manifest.save(manifest_path) {
                        if save_err.is_none() {
                            save_err = Some(e);
                        }
                    }
                }
            },
        );
        if let Some(e) = save_err {
            return Err(e);
        }

        let mut fresh: HashMap<usize, Result<RunOutput, JobFailure>> =
            missing.iter().copied().zip(results).collect();
        let outputs = self
            .runs
            .iter()
            .enumerate()
            .map(|(i, run)| {
                if let Some(done) = completed.remove(&i) {
                    return done;
                }
                match fresh.remove(&i).expect("every missing job ran") {
                    Ok(o) => o,
                    Err(fail) => failure_output(run, &fail),
                }
            })
            .collect();
        Ok(SweepResults { outputs })
    }
}

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// Crash-safe record of which sweep jobs have completed, persisted as a
/// small checksummed JSON file (`results/manifest.json` by convention)
/// after every completion so an interrupted sweep resumes exactly the
/// missing jobs.
///
/// Writes go through [`write_atomic`]; [`SweepManifest::load`] refuses a
/// file whose embedded checksum does not match its contents, naming the
/// corrupt file in the error.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepManifest {
    /// Format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Name of the sweep the manifest belongs to.
    pub sweep: String,
    /// [`SweepSpec::fingerprint`] of the sweep definition.
    pub fingerprint: u64,
    /// Total job count in the sweep.
    pub total: usize,
    /// Completed jobs as `(spec index, serialized RunOutput line)`,
    /// sorted by index.
    pub jobs: Vec<(usize, String)>,
}

impl SweepManifest {
    /// An empty manifest for `spec`.
    pub fn new(spec: &SweepSpec) -> SweepManifest {
        SweepManifest {
            version: MANIFEST_VERSION,
            sweep: spec.name.clone(),
            fingerprint: spec.fingerprint(),
            total: spec.runs.len(),
            jobs: Vec::new(),
        }
    }

    /// Records a completed job, keeping the list sorted by index.
    pub fn record(&mut self, index: usize, output: &RunOutput) {
        let line = output.serialize();
        match self.jobs.binary_search_by_key(&index, |(i, _)| *i) {
            Ok(pos) => self.jobs[pos].1 = line,
            Err(pos) => self.jobs.insert(pos, (index, line)),
        }
    }

    /// The byte string the checksum covers: every field and every job
    /// line, in file order.
    fn canonical_body(&self) -> String {
        let mut body = format!(
            "{}\n{}\n{:016x}\n{}\n",
            self.version, self.sweep, self.fingerprint, self.total
        );
        for (i, line) in &self.jobs {
            body.push_str(&format!("{i}\t{line}\n"));
        }
        body
    }

    /// The manifest's JSON encoding (one job object per line).
    pub fn to_json(&self) -> String {
        let checksum = fnv1a64(self.canonical_body().as_bytes());
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"sweep\": \"{}\",\n", json_escape(&self.sweep)));
        out.push_str(&format!(
            "  \"fingerprint\": \"{:016x}\",\n",
            self.fingerprint
        ));
        out.push_str(&format!("  \"total\": {},\n", self.total));
        out.push_str(&format!("  \"checksum\": \"{checksum:016x}\",\n"));
        out.push_str("  \"jobs\": [\n");
        for (k, (i, line)) in self.jobs.iter().enumerate() {
            let comma = if k + 1 == self.jobs.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"index\": {i}, \"output\": \"{}\"}}{comma}\n",
                json_escape(line)
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the manifest atomically.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] naming the manifest path.
    pub fn save(&self, path: &Path) -> Result<(), SweepError> {
        write_atomic(path, self.to_json().as_bytes())
    }

    /// Loads and verifies a manifest written by [`SweepManifest::save`].
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] if the file cannot be read;
    /// [`SweepError::Manifest`] — always naming the file — if it is
    /// malformed, an unsupported version, or fails its checksum.
    pub fn load(path: &Path) -> Result<SweepManifest, SweepError> {
        let text = std::fs::read_to_string(path).map_err(|source| SweepError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let bad = |message: String| SweepError::Manifest {
            path: path.to_path_buf(),
            message,
        };
        let (manifest, stored) = Self::parse(&text).map_err(&bad)?;
        let actual = fnv1a64(manifest.canonical_body().as_bytes());
        if stored != actual {
            return Err(bad(format!(
                "checksum mismatch (file says {stored:016x}, contents hash to \
                 {actual:016x}) — refusing corrupt manifest"
            )));
        }
        Ok(manifest)
    }

    /// Parses the JSON encoding, returning the manifest and its stored
    /// checksum (verified by the caller).
    fn parse(text: &str) -> Result<(SweepManifest, u64), String> {
        let mut version = None;
        let mut sweep = None;
        let mut fingerprint = None;
        let mut total = None;
        let mut checksum = None;
        let mut jobs = Vec::new();
        for raw in text.lines() {
            let line = raw.trim();
            if let Some(v) = line.strip_prefix("\"version\":") {
                version = Some(parse_json_uint(v)? as u32);
            } else if let Some(v) = line.strip_prefix("\"sweep\":") {
                sweep = Some(parse_json_string(v)?);
            } else if let Some(v) = line.strip_prefix("\"fingerprint\":") {
                fingerprint = Some(parse_json_hex(v)?);
            } else if let Some(v) = line.strip_prefix("\"total\":") {
                total = Some(parse_json_uint(v)? as usize);
            } else if let Some(v) = line.strip_prefix("\"checksum\":") {
                checksum = Some(parse_json_hex(v)?);
            } else if line.starts_with("{\"index\":") {
                jobs.push(parse_job_line(line)?);
            }
        }
        let manifest = SweepManifest {
            version: version.ok_or("missing \"version\" field")?,
            sweep: sweep.ok_or("missing \"sweep\" field")?,
            fingerprint: fingerprint.ok_or("missing \"fingerprint\" field")?,
            total: total.ok_or("missing \"total\" field")?,
            jobs,
        };
        let checksum = checksum.ok_or("missing \"checksum\" field")?;
        if manifest.version != MANIFEST_VERSION {
            return Err(format!(
                "unsupported manifest version {} (this build reads version \
                 {MANIFEST_VERSION})",
                manifest.version
            ));
        }
        let mut seen = HashSet::new();
        for (i, _) in &manifest.jobs {
            if *i >= manifest.total {
                return Err(format!(
                    "job index {i} out of range (total {})",
                    manifest.total
                ));
            }
            if !seen.insert(*i) {
                return Err(format!("duplicate job index {i}"));
            }
        }
        Ok((manifest, checksum))
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn json_unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            other => {
                return Err(format!(
                    "bad escape \\{}",
                    other.map(String::from).unwrap_or_default()
                ))
            }
        }
    }
    Ok(out)
}

fn parse_json_uint(v: &str) -> Result<u64, String> {
    let v = v.trim().trim_end_matches(',').trim();
    v.parse::<u64>()
        .map_err(|_| format!("bad integer field {v:?}"))
}

fn parse_json_string(v: &str) -> Result<String, String> {
    let v = v.trim().trim_end_matches(',').trim();
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("bad string field {v:?}"))?;
    json_unescape(inner)
}

fn parse_json_hex(v: &str) -> Result<u64, String> {
    let v = v.trim().trim_end_matches(',').trim();
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("bad hex field {v:?}"))?;
    u64::from_str_radix(inner, 16).map_err(|_| format!("bad hex field {v:?}"))
}

fn parse_job_line(line: &str) -> Result<(usize, String), String> {
    let err = || format!("bad job entry {line:?}");
    let after_idx = line.split_once("\"index\":").ok_or_else(err)?.1;
    let num: String = after_idx
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    let index: usize = num.parse().map_err(|_| err())?;
    let after_out = line.split_once("\"output\":").ok_or_else(err)?.1;
    let after_quote = after_out.trim_start().strip_prefix('"').ok_or_else(err)?;
    let mut raw = String::new();
    let mut chars = after_quote.chars();
    loop {
        match chars.next() {
            None => return Err(err()),
            Some('"') => break,
            Some('\\') => {
                raw.push('\\');
                raw.push(chars.next().ok_or_else(err)?);
            }
            Some(c) => raw.push(c),
        }
    }
    Ok((index, json_unescape(&raw)?))
}

/// Flat deterministic metrics of one run. Every field is a pure function
/// of the spec; see [`RunOutput::serialize`] for the canonical encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The spec's label.
    pub label: String,
    /// Measured (closed/open loop) or total (fault) cycles.
    pub cycles: u64,
    /// Packets delivered in the window.
    pub packets_delivered: u64,
    /// Flits delivered in the window.
    pub flits_delivered: u64,
    /// Measured injection rate, flits/node/cycle (0 for fault runs).
    pub injection_rate: f64,
    /// Accepted throughput, flits/node/cycle (0 for fault runs).
    pub throughput: f64,
    /// Mean packet network latency, if anything was delivered.
    pub mean_latency: Option<f64>,
    /// Total priced network energy (pJ).
    pub energy_pj: f64,
    /// Fraction of router-cycles spent backpressured.
    pub backpressured_fraction: f64,
    /// Mean deflections per delivered flit.
    pub mean_deflections: f64,
    /// Delivered / offered packets.
    pub delivered_fraction: f64,
    /// Terminal status ("ok", "drained", or an error description).
    pub outcome: String,
}

impl RunOutput {
    /// Canonical tab-separated encoding. Floats use Rust's shortest
    /// round-trip formatting, so equal bytes ⇔ equal bits.
    pub fn serialize(&self) -> String {
        let lat = match self.mean_latency {
            Some(l) => format!("{l:?}"),
            None => "-".to_string(),
        };
        format!(
            "{}\t{}\t{}\t{}\t{:?}\t{:?}\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{}",
            self.label,
            self.cycles,
            self.packets_delivered,
            self.flits_delivered,
            self.injection_rate,
            self.throughput,
            lat,
            self.energy_pj,
            self.backpressured_fraction,
            self.mean_deflections,
            self.delivered_fraction,
            self.outcome,
        )
    }

    /// Decodes one [`RunOutput::serialize`] line (used by manifest
    /// resume). The last field absorbs any remaining tabs, so outcome
    /// text round-trips verbatim.
    ///
    /// # Errors
    ///
    /// A description of the malformed field.
    pub fn deserialize(line: &str) -> Result<RunOutput, String> {
        let fields: Vec<&str> = line.splitn(12, '\t').collect();
        if fields.len() != 12 {
            return Err(format!(
                "expected 12 tab-separated fields, got {}",
                fields.len()
            ));
        }
        let uint = |s: &str, what: &str| s.parse::<u64>().map_err(|_| format!("bad {what} {s:?}"));
        let float = |s: &str, what: &str| s.parse::<f64>().map_err(|_| format!("bad {what} {s:?}"));
        Ok(RunOutput {
            label: fields[0].to_string(),
            cycles: uint(fields[1], "cycle count")?,
            packets_delivered: uint(fields[2], "packet count")?,
            flits_delivered: uint(fields[3], "flit count")?,
            injection_rate: float(fields[4], "injection rate")?,
            throughput: float(fields[5], "throughput")?,
            mean_latency: if fields[6] == "-" {
                None
            } else {
                Some(float(fields[6], "latency")?)
            },
            energy_pj: float(fields[7], "energy")?,
            backpressured_fraction: float(fields[8], "backpressured fraction")?,
            mean_deflections: float(fields[9], "deflection count")?,
            delivered_fraction: float(fields[10], "delivered fraction")?,
            outcome: fields[11].to_string(),
        })
    }
}

/// Results of a [`SweepSpec`], in spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    /// One output per run, in spec order.
    pub outputs: Vec<RunOutput>,
}

impl SweepResults {
    /// Canonical serialization: header plus one [`RunOutput::serialize`]
    /// line per run. Byte-identical across thread counts.
    pub fn serialize(&self) -> String {
        let mut out = String::from(
            "label\tcycles\tpackets\tflits\tinj_rate\tthroughput\tmean_lat\t\
             energy_pj\tbp_frac\tmean_defl\tdelivered\toutcome\n",
        );
        for o in &self.outputs {
            out.push_str(&o.serialize());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::MechanismId;

    #[test]
    fn timing_reports_rotate_and_cap_retention() {
        let root = std::env::temp_dir().join(format!("afc-timing-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let binary = "rotation_probe";
        // KEEP + 3 writes: the oldest two generations must fall off disk.
        let total = TIMING_REPORT_KEEP + 3;
        for g in 0..total {
            record_timing(&format!("gen-{g}"), g, 1);
            write_timing_report_in(&root, binary).expect("write report");
        }
        let dir = root.join("timing");
        let path_for = |k: usize| {
            if k == 0 {
                dir.join(format!("{binary}.tsv"))
            } else {
                dir.join(format!("{binary}.{k}.tsv"))
            }
        };
        // Exactly the latest report plus KEEP rotated generations survive,
        // and generation k holds the write from k runs ago.
        for k in 0..=TIMING_REPORT_KEEP {
            let text = std::fs::read_to_string(path_for(k))
                .unwrap_or_else(|e| panic!("generation {k} missing: {e}"));
            let marker = format!("gen-{}", total - 1 - k);
            assert!(
                text.contains(&marker),
                "generation {k} should hold {marker}: {text}"
            );
        }
        for k in (TIMING_REPORT_KEEP + 1)..(TIMING_REPORT_KEEP + 4) {
            assert!(
                !path_for(k).exists(),
                "generation {k} escaped the retention cap"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The registry that every sweep job records into stays bounded
    /// however many jobs a process runs without writing a report: names
    /// are stored once per sweep, records stop at the cap, and the report
    /// header counts the dropped ones.
    #[test]
    fn timing_registry_stays_bounded() {
        let mut t = Timings::new();
        for i in 0..TIMING_RECORD_CAP + 100 {
            t.record(if i % 2 == 0 { "even" } else { "odd" }, i, 1);
        }
        assert_eq!(t.records.len(), TIMING_RECORD_CAP);
        assert_eq!(t.dropped, 100);
        assert_eq!(t.names, ["even", "odd"]);
        let report = t.report("bounded", 2);
        assert!(report.contains("# records dropped\t100\n"), "{report}");
        assert!(report.contains(&format!("total\t{TIMING_RECORD_CAP}\t")));
    }

    #[test]
    fn sweep_preserves_spec_order_at_any_worker_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = run_sweep_on("order", &jobs, &|_, &j| j * j, workers);
            assert_eq!(got, expect, "worker count {workers}");
        }
    }

    #[test]
    fn thread_budget_divides_between_sweep_and_sim() {
        // The pure arbitration rule (threads_for_sim applies it to the
        // global budget, which other tests mutate concurrently).
        assert_eq!(divide_budget(8, 1), 8);
        assert_eq!(divide_budget(8, 2), 4);
        assert_eq!(divide_budget(8, 3), 2);
        // Sim threads at or beyond the budget: one sweep worker survives.
        assert_eq!(divide_budget(8, 8), 1);
        assert_eq!(divide_budget(8, 64), 1);
        // Degenerate sim_threads=0 behaves like 1.
        assert_eq!(divide_budget(8, 0), 8);
        assert_eq!(divide_budget(1, 4), 1);
        assert!(threads_for_sim(1) >= 1);
    }

    #[test]
    fn sweep_handles_empty_and_singleton_job_lists() {
        let empty: Vec<u64> = Vec::new();
        assert!(run_sweep_on("empty", &empty, &|_, &j: &u64| j, 8).is_empty());
        assert_eq!(run_sweep_on("one", &[7u64], &|_, &j| j + 1, 8), vec![8]);
    }

    #[test]
    fn panicking_job_is_isolated_and_retried() {
        let jobs: Vec<u64> = (0..8).collect();
        for workers in [1, 4] {
            let results = run_sweep_failable(
                "isolated",
                &jobs,
                &|_, &j| {
                    if j == 3 {
                        panic!("job three always explodes");
                    }
                    j * 10
                },
                workers,
            );
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    let fail = r.as_ref().unwrap_err();
                    assert_eq!(fail.index, 3);
                    assert_eq!(fail.attempts, JOB_ATTEMPTS);
                    assert!(
                        fail.message.contains("job three always explodes"),
                        "message: {}",
                        fail.message
                    );
                } else {
                    assert_eq!(
                        *r.as_ref().unwrap(),
                        i as u64 * 10,
                        "workers={workers} job {i} must survive a sibling panic"
                    );
                }
            }
        }
    }

    #[test]
    fn transient_panic_succeeds_on_retry() {
        use std::sync::atomic::AtomicU32;
        let attempts = AtomicU32::new(0);
        let jobs = [1u64, 2, 3];
        let results = run_sweep_failable(
            "retry",
            &jobs,
            &|_, &j| {
                if j == 2 && attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                j
            },
            1,
        );
        assert_eq!(results[1].as_ref().unwrap(), &2, "retry must recover");
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn progress_hook_sees_every_completion() {
        let jobs: Vec<u64> = (0..12).collect();
        let mut seen = Vec::new();
        let results = run_sweep_with_progress("progress", &jobs, &|_, &j| j, 4, |i, r| {
            assert!(r.is_ok());
            seen.push(i);
        });
        assert_eq!(results.len(), 12);
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn threads_value_parsing() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert_eq!(parse_threads_value(&argv("--quick")).unwrap(), None);
        assert_eq!(parse_threads_value(&argv("--threads 3")).unwrap(), Some(3));
        assert!(parse_threads_value(&argv("--threads")).is_err());
        assert!(parse_threads_value(&argv("--threads zero")).is_err());
        assert!(parse_threads_value(&argv("--threads 0")).is_err());
        let err = parse_threads_arg(&argv("--threads -2")).unwrap_err();
        assert!(err.to_string().contains("positive integer"), "{err}");
    }

    #[test]
    fn write_atomic_replaces_and_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("afc-sweep-atomic-{}", std::process::id()));
        let path = dir.join("nested").join("out.csv");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!path.with_file_name("out.csv.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_output(label: &str, latency: Option<f64>, outcome: &str) -> RunOutput {
        RunOutput {
            label: label.into(),
            cycles: 10_000,
            packets_delivered: 1234,
            flits_delivered: 9876,
            injection_rate: 0.1500000000000001,
            throughput: 0.2,
            mean_latency: latency,
            energy_pj: 1234.5678,
            backpressured_fraction: 0.25,
            mean_deflections: 0.0,
            delivered_fraction: 1.0,
            outcome: outcome.into(),
        }
    }

    #[test]
    fn run_output_serialization_is_exact() {
        let a = sample_output("x", Some(31.5), "ok");
        let mut b = a.clone();
        assert_eq!(a.serialize(), b.serialize());
        // One ULP of difference must change the encoding.
        b.throughput = f64::from_bits(b.throughput.to_bits() + 1);
        assert_ne!(a.serialize(), b.serialize());
    }

    #[test]
    fn run_output_round_trips_through_deserialize() {
        for out in [
            sample_output("afc/open@0.150@7", Some(31.5), "ok"),
            sample_output("bless/fault@0.1/5e-4@1", None, "error: stall at (1,1)"),
            sample_output("drop/water@3", Some(12.25), "drain budget exhausted"),
        ] {
            let line = out.serialize();
            let back = RunOutput::deserialize(&line).unwrap();
            assert_eq!(back, out);
            assert_eq!(back.serialize(), line);
        }
        assert!(RunOutput::deserialize("too\tfew\tfields").is_err());
        assert!(RunOutput::deserialize(
            &sample_output("x", None, "ok")
                .serialize()
                .replace("10000", "ten")
        )
        .is_err());
    }

    fn tiny_spec(seed: u64) -> SweepSpec {
        let runs = [0.05, 0.10, 0.15]
            .iter()
            .map(|&rate| RunSpec {
                mechanism: MechanismId::Afc,
                seed,
                kind: RunKind::OpenLoop {
                    rate,
                    pattern: Pattern::UniformRandom,
                    mix: PacketMix::single_flit(),
                    warmup_cycles: 50,
                    measure_cycles: 100,
                },
            })
            .collect();
        SweepSpec {
            name: "tiny".to_string(),
            net_cfg: NetworkConfig::paper_3x3(),
            runs,
        }
    }

    #[test]
    fn manifest_round_trips_and_refuses_corruption() {
        let spec = tiny_spec(5);
        let mut manifest = SweepManifest::new(&spec);
        manifest.record(2, &sample_output("afc/open@0.150@5", Some(9.5), "ok"));
        manifest.record(
            0,
            &sample_output("afc/open@0.050@5", None, "with\ttab \"quote\"\n"),
        );
        let dir = std::env::temp_dir().join(format!("afc-manifest-{}", std::process::id()));
        let path = dir.join("manifest.json");
        manifest.save(&path).unwrap();
        let loaded = SweepManifest::load(&path).unwrap();
        assert_eq!(loaded, manifest);
        assert_eq!(loaded.jobs[0].0, 0, "jobs stay sorted by index");

        // A flipped byte in the body must be refused, naming the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        let err = SweepManifest::load(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("manifest.json"), "must name the file: {msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumable_execution_completes_missing_jobs_only() {
        let spec = tiny_spec(9);
        let dir = std::env::temp_dir().join(format!("afc-resume-{}", std::process::id()));
        let path = dir.join("manifest.json");
        set_threads(2);

        // Uninterrupted reference.
        let reference = spec.execute_with_threads(1).serialize();

        // Fresh resumable run: same bytes, manifest fully populated.
        let results = spec.execute_resumable(&path, false).unwrap();
        assert_eq!(results.serialize(), reference);
        let full = SweepManifest::load(&path).unwrap();
        assert_eq!(full.jobs.len(), spec.runs.len());

        // Simulate an interruption: keep only job 1 in the manifest, then
        // resume. The final bytes must match the uninterrupted reference.
        let mut partial = SweepManifest::new(&spec);
        let kept = RunOutput::deserialize(&full.jobs[1].1).unwrap();
        partial.record(1, &kept);
        partial.save(&path).unwrap();
        let resumed = spec.execute_resumable(&path, true).unwrap();
        assert_eq!(resumed.serialize(), reference);

        // A manifest from a different sweep definition is refused.
        let other = tiny_spec(10);
        let err = other.execute_resumable(&path, true).unwrap_err();
        assert!(
            err.to_string().contains("fingerprint"),
            "expected fingerprint mismatch: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn threads_env_and_override_precedence() {
        // No override set by default in this test binary: the value is
        // env- or machine-derived, but always at least 1.
        assert!(threads() >= 1);
    }
}
