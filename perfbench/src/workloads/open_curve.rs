//! `open_curve`: the `open_loop` artifact sweep, many short runs through
//! the sweep layer.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use afc_bench::mechanisms::MechanismId;
use afc_bench::sweep::{
    pool_clear, pool_stats, run_sweep_grouped, warm_cache, RunKind, RunOutput, RunSpec, SweepSpec,
};
use afc_energy::{EnergyModel, EnergyParams};
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_netsim::snapshot::fnv1a64;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

use super::{
    construct_each, graft_jobs, guarded, secs, span_since, Mode, Rep, SweepTiming, Traced, Workload,
};
use crate::run::{audit, combine, phase, timed, RunRecord, Until};
use crate::trace::Trace;

/// The `open_loop` artifact's ten offered rates.
const RATES: [f64; 10] = [0.02, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90];
/// The artifact's quick-mode run length: short runs, so per-run overheads
/// (construction, reset, snapshot sealing, manifest writes) stay visible.
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 4_000;

pub struct OpenCurve {
    seed: u64,
    threads: usize,
    epoch: Instant,
    manifest: PathBuf,
}

impl OpenCurve {
    pub fn new(seed: u64, threads: usize, epoch: Instant, scratch: &Path) -> OpenCurve {
        OpenCurve {
            seed,
            threads,
            epoch,
            manifest: scratch.join("open_curve-manifest.json"),
        }
    }

    fn spec(&self) -> SweepSpec {
        SweepSpec {
            name: "open-loop".into(),
            net_cfg: NetworkConfig::paper_3x3(),
            runs: MechanismId::ALL
                .iter()
                .flat_map(|&mechanism| {
                    RATES.iter().map(move |&rate| RunSpec {
                        mechanism,
                        seed: self.seed,
                        kind: RunKind::OpenLoop {
                            rate,
                            pattern: Pattern::UniformRandom,
                            mix: PacketMix::paper(),
                            warmup_cycles: WARMUP,
                            measure_cycles: MEASURE,
                        },
                    })
                })
                .collect(),
        }
    }
}

/// Checks one job's output and returns its digest: the job's canonical
/// serialization, which carries every metric the artifact records.
fn check(out: &RunOutput) -> Result<u64, String> {
    if out.outcome != "ok" {
        return Err(format!("{}: {}", out.label, out.outcome));
    }
    Ok(fnv1a64(out.serialize().as_bytes()))
}

thread_local! {
    /// This worker's reusable network, as the sweep's arena pool keeps one.
    static ARENA: RefCell<Option<Network>> = const { RefCell::new(None) };
}

/// A traced replay of `RunSpec::execute` for an open-loop job with a cold
/// warm cache: arena reuse, warmup, post-warmup snapshot, measurement,
/// pricing. Returns the same `RunOutput`.
fn traced_job(
    trace: &mut Trace,
    spec: &RunSpec,
    cfg: &NetworkConfig,
    profile: bool,
    rec_out: &mut Option<RunRecord>,
) -> Result<RunOutput, String> {
    let RunKind::OpenLoop {
        rate,
        ref pattern,
        mix,
        warmup_cycles,
        measure_cycles,
    } = spec.kind
    else {
        unreachable!("open_curve builds open-loop jobs only")
    };
    let mechanism = spec.mechanism.mechanism();
    let factory = mechanism.factory.as_ref();
    let span = trace.open("run", 0, None);
    let setup = trace.open("setup", 0, Some(span));
    let arena = ARENA.with(|a| a.borrow_mut().take());
    let (mut net, reused, ns) = match arena {
        Some(mut net) if net.mechanism() == factory.name() && net.config() == cfg => {
            let (ok, ns) = timed(|| net.reset_from_config(cfg, factory, spec.seed));
            assert!(ok, "an arena-compatible network resets");
            (net, true, ns)
        }
        _ => {
            let (net, ns) = timed(|| Network::new(cfg.clone(), factory, spec.seed));
            (net.map_err(|e| e.to_string())?, false, ns)
        }
    };
    net.set_phase_profiling(profile);
    let traffic = OpenLoopTraffic::new(RateSpec::Uniform(rate), pattern.clone(), mix, spec.seed);
    let mut sim = Simulation::new(net, traffic);
    trace.close(setup);
    let mut rec = RunRecord::new(mechanism.label, &sim.network);
    if reused {
        rec.reset_ns = Some(ns);
    } else {
        rec.network_new_ns = Some(ns);
    }
    let mut buf = Vec::new();
    let result = (|| {
        let (_, fold) = phase(
            trace,
            "warmup",
            0,
            span,
            &mut sim,
            &mut buf,
            Until::Cycles(warmup_cycles),
            |_, _| {},
        )
        .map_err(|e| e.to_string())?;
        rec.add_phase(&fold, false);
        let snap = trace.open("snapshot", 0, Some(span));
        let (bytes, ns) = timed(|| sim.snapshot());
        trace.close(snap);
        rec.snapshot = Some((ns, bytes.map_err(|e| e.to_string())?.len() as u64));
        rec.absorb(&sim.network);
        sim.network.reset_metrics();
        let (_, fold) = phase(
            trace,
            "measure",
            0,
            span,
            &mut sim,
            &mut buf,
            Until::Cycles(measure_cycles),
            |_, _| {},
        )
        .map_err(|e| e.to_string())?;
        rec.add_phase(&fold, true);
        let price = trace.open("price", 0, Some(span));
        let (energy, ns) = timed(|| {
            EnergyModel::new(EnergyParams::micro2010_70nm())
                .price_network(&sim.network)
                .total()
        });
        trace.close(price);
        rec.price_ns = Some(ns);
        audit(&sim.network)?;
        let stats = sim.network.stats();
        let nodes = sim.network.mesh().node_count();
        Ok(RunOutput {
            label: spec.label(),
            cycles: measure_cycles,
            packets_delivered: stats.packets_delivered,
            flits_delivered: stats.flits_delivered,
            injection_rate: stats.injection_rate(nodes),
            throughput: stats.throughput(nodes),
            mean_latency: stats.network_latency.mean(),
            energy_pj: energy,
            backpressured_fraction: stats.backpressured_fraction(),
            mean_deflections: stats.flit_deflections.mean().unwrap_or(0.0),
            delivered_fraction: if stats.packets_offered == 0 {
                1.0
            } else {
                stats.packets_delivered as f64 / stats.packets_offered as f64
            },
            outcome: "ok".to_string(),
        })
    })();
    rec.finish(&mut sim.network);
    trace.close(span);
    *rec_out = Some(rec);
    ARENA.with(|a| *a.borrow_mut() = Some(sim.network));
    result
}

/// Folds job outcomes into (failures, digests, node-cycles).
fn tally(outs: &[Result<u64, String>], per_job_node_cycles: u64) -> (Vec<String>, u64, u64) {
    let failures: Vec<String> = outs.iter().filter_map(|r| r.clone().err()).collect();
    let ok = outs.iter().filter(|r| r.is_ok()).count() as u64;
    let digest = combine(outs.iter().map(|r| r.clone().unwrap_or(0)));
    (failures, digest, ok * per_job_node_cycles)
}

impl Workload for OpenCurve {
    fn rep(&mut self, mode: Mode) -> Rep {
        let t = Instant::now();
        let spec = self.spec();
        let cfg = spec.net_cfg.clone();
        let per_job = cfg.width as u64 * cfg.height as u64 * (WARMUP + MEASURE);
        warm_cache().clear();
        pool_clear();
        let group = |_: usize, r: &RunSpec| r.arena_group();
        match mode {
            Mode::Untraced => {
                if let Some(dir) = self.manifest.parent() {
                    std::fs::create_dir_all(dir).expect("scratch directory inside the checkout");
                }
                let _ = std::fs::remove_file(&self.manifest);
                construct_each(&cfg, &MechanismId::ALL, self.seed);
                let setup_s = secs(t);
                let t = Instant::now();
                let outs: Vec<Result<u64, String>> =
                    match spec.execute_resumable(&self.manifest, false) {
                        Ok(results) => results.outputs.iter().map(check).collect(),
                        Err(e) => vec![Err(format!("sweep: {e}")); spec.runs.len()],
                    };
                let body_s = secs(t);
                let (failures, digest, node_cycles) = tally(&outs, per_job);
                Rep {
                    setup_s,
                    body_s,
                    node_cycles,
                    runs: outs.len() as u64,
                    failures,
                    digest,
                    fig2_err: None,
                    traced: None,
                }
            }
            Mode::Traced { profile, .. } => {
                let epoch = self.epoch;
                let mut trace = Trace::new(epoch);
                let root = trace.open("workload", 0, None);
                let threads = self.threads;

                // Job level: the same jobs through the sweep layer's public
                // scheduler and RunSpec::execute, one span per job.
                let before = pool_stats();
                let t = Instant::now();
                let jobs = run_sweep_grouped(
                    "open-curve-jobs",
                    &spec.runs,
                    group,
                    &|_, r: &RunSpec| {
                        let start = epoch.elapsed().as_nanos() as u64;
                        let out = guarded(&r.label(), || check(&r.execute(&cfg)));
                        (out, start, epoch.elapsed().as_nanos() as u64)
                    },
                    threads,
                    |_, _| {},
                );
                let jobs_wall = t.elapsed().as_nanos() as u64;
                let after = pool_stats();
                let warm_cache_bytes = warm_cache().usage().1;
                let jobs_span = span_since(&mut trace, "sweep.jobs", Some(root), jobs_wall);
                let mut job_ns = Vec::new();
                let mut job_outs = Vec::new();
                for (run, j) in jobs.into_iter().enumerate() {
                    let (out, start, end) = j.unwrap_or_else(|f| (Err(f.to_string()), 0, 0));
                    let s = trace.open("run", run as u32, Some(jobs_span));
                    trace.spans[s].start_ns = start;
                    trace.spans[s].end_ns = end;
                    job_ns.push(end - start);
                    job_outs.push(out);
                }
                trace.close(jobs_span);

                // Cycle level: a step-by-step replay of the same jobs.
                let t = Instant::now();
                let cycle_jobs = run_sweep_grouped(
                    "open-curve-cycles",
                    &spec.runs,
                    group,
                    &|_, r: &RunSpec| {
                        let mut trace = Trace::new(epoch);
                        let mut rec = None;
                        let out = guarded(&r.label(), || {
                            traced_job(&mut trace, r, &cfg, profile, &mut rec)
                                .and_then(|o| check(&o))
                        });
                        (out, trace, rec)
                    },
                    threads,
                    |_, _| {},
                );
                let replay_s = secs(t);
                let cycles_span = span_since(
                    &mut trace,
                    "sweep.cycles",
                    Some(root),
                    (replay_s * 1e9) as u64,
                );
                let mut records = Vec::new();
                let cycle_jobs = cycle_jobs
                    .into_iter()
                    .map(|j| j.unwrap_or_else(|f| (Err(f.to_string()), Trace::new(epoch), None)))
                    .collect();
                let (cycle_outs, _) = graft_jobs(&mut trace, cycles_span, cycle_jobs, &mut records);
                trace.close(cycles_span);
                trace.close(root);

                // Both replays must agree job by job.
                let mut failures = Vec::new();
                let mut ok = 0;
                for (i, (j, c)) in job_outs.iter().zip(&cycle_outs).enumerate() {
                    match (j, c) {
                        (Ok(a), Ok(b)) if a == b => ok += 1,
                        (Ok(_), Ok(_)) => failures.push(format!(
                            "{}: step replay digest differs from RunSpec::execute",
                            spec.runs[i].label()
                        )),
                        (Err(e), _) | (_, Err(e)) => failures.push(e.clone()),
                    }
                }
                let digest = combine(job_outs.iter().map(|r| r.clone().unwrap_or(0)));
                Rep {
                    setup_s: 0.0,
                    body_s: secs(t),
                    node_cycles: ok * per_job,
                    runs: 2 * spec.runs.len() as u64,
                    failures,
                    digest,
                    fig2_err: None,
                    traced: Some(Traced {
                        trace,
                        records,
                        sweeps: vec![SweepTiming {
                            job_ns,
                            workers: threads.min(spec.runs.len()),
                            wall_ns: jobs_wall,
                        }],
                        pool: (
                            after.0 - before.0,
                            after.1 - before.1,
                            after.2 - before.2,
                            after.3 - before.3,
                        ),
                        warm_cache_bytes,
                        replay_s,
                    }),
                }
            }
        }
    }
}
