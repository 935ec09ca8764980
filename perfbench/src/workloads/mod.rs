//! The four workloads. Each makes its inputs from the seed and runs one
//! repetition at a time, untraced (for the end-to-end metrics) or traced
//! (for the per-layer metrics).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use afc_bench::mechanisms::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;

use crate::run::RunRecord;
use crate::trace::Trace;

mod fault_churn;
mod fig2_closed;
mod open_curve;
mod sat_32x32;

/// How a repetition runs.
#[derive(Clone, Copy)]
pub enum Mode {
    Untraced,
    /// Spans around every public call; `profile` additionally turns on the
    /// engine's phase profiling. `flip` reverses the order in which the
    /// repetition's halves run where the workload has halves.
    Traced {
        profile: bool,
        flip: bool,
    },
}

/// Job timings of one traced sweep.
pub struct SweepTiming {
    pub job_ns: Vec<u64>,
    pub workers: usize,
    pub wall_ns: u64,
}

/// What a traced repetition adds to an untraced one.
pub struct Traced {
    pub trace: Trace,
    pub records: Vec<RunRecord>,
    pub sweeps: Vec<SweepTiming>,
    /// `(arena hits, arena misses, warm hits, warm misses)` during the
    /// repetition's job-level sweep replay.
    pub pool: (u64, u64, u64, u64),
    pub warm_cache_bytes: usize,
    /// Wall time of the part of the repetition that replays the untraced
    /// body, for `trace.overhead_ratio`.
    pub replay_s: f64,
}

/// One repetition of a workload.
pub struct Rep {
    pub setup_s: f64,
    pub body_s: f64,
    /// Sum of mesh nodes x simulated cycles over the runs that completed.
    pub node_cycles: u64,
    /// Simulation runs attempted.
    pub runs: u64,
    /// One line per failed run.
    pub failures: Vec<String>,
    /// Digest of every run's simulated statistics, in a fixed run order.
    pub digest: u64,
    /// Simulated accuracy against the paper (fig2_closed only).
    pub fig2_err: Option<f64>,
    pub traced: Option<Traced>,
}

pub trait Workload {
    fn rep(&mut self, mode: Mode) -> Rep;
}

/// Builds the named workload, or `None` for an unknown name.
pub fn build(
    name: &str,
    seed: u64,
    threads: usize,
    epoch: Instant,
    scratch: &Path,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sat_32x32" => Box::new(sat_32x32::Sat::new(seed, threads, epoch)),
        "fig2_closed" => Box::new(fig2_closed::Fig2::new(seed, threads, epoch)),
        "open_curve" => Box::new(open_curve::OpenCurve::new(seed, threads, epoch, scratch)),
        "fault_churn" => Box::new(fault_churn::FaultChurn::new(seed, threads, epoch)),
        _ => return None,
    })
}

/// The digests recorded for the default seed, checked whenever a run uses
/// it. A change that moves one changes simulated behaviour.
pub fn recorded_digest(workload: &str) -> Option<u64> {
    match workload {
        "sat_32x32" => Some(0x36aa_8324_363f_fa7e),
        "fig2_closed" => Some(0x2191_b255_43c5_38fb),
        "open_curve" => Some(0xa1a5_52c1_0b4d_7302),
        "fault_churn" => Some(0x3afc_c127_f0c5_e891),
        _ => None,
    }
}

/// Runs `f`, turning a panic into an error line.
pub fn guarded<R>(what: &str, f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(|e| format!("{what}: {e}")),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_string());
            Err(format!("{what}: panicked: {msg}"))
        }
    }
}

/// Builds one network per mechanism on `cfg` and drops it: the set-up
/// every run of these mechanisms pays before its first simulated cycle.
pub fn construct_each(cfg: &NetworkConfig, mechanisms: &[MechanismId], seed: u64) {
    for id in mechanisms {
        let net = Network::new(cfg.clone(), id.mechanism().factory.as_ref(), seed)
            .expect("workload configurations are valid");
        std::hint::black_box(&net);
    }
}

/// A traced sweep job's outcome, its spans and its run record.
pub type TracedJob<R> = (Result<R, String>, Trace, Option<RunRecord>);

/// Moves each job's spans under `parent` (numbering runs by job index) and
/// its record into `records`; returns the outcomes and job durations.
pub fn graft_jobs<R>(
    trace: &mut Trace,
    parent: usize,
    jobs: Vec<TracedJob<R>>,
    records: &mut Vec<RunRecord>,
) -> (Vec<Result<R, String>>, Vec<u64>) {
    let mut outs = Vec::new();
    let mut job_ns = Vec::new();
    for (run, (out, mut job, rec)) in jobs.into_iter().enumerate() {
        for s in &mut job.spans {
            s.run = run as u32;
        }
        if let Some(s) = job.spans.first() {
            job_ns.push(s.end_ns - s.start_ns);
        }
        trace.graft(job, parent);
        records.extend(rec);
        outs.push(out);
    }
    (outs, job_ns)
}

/// Opens a span that started `ns` nanoseconds ago and ends now.
pub fn span_since(trace: &mut Trace, name: &'static str, parent: Option<usize>, ns: u64) -> usize {
    let id = trace.open(name, 0, parent);
    trace.spans[id].start_ns -= ns.min(trace.spans[id].start_ns);
    id
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
