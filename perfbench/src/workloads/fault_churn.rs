//! `fault_churn`: the fault plane under rolling link kill/revive churn.

use std::time::Instant;

use afc_bench::mechanisms::MechanismId;
use afc_bench::sweep::run_sweep;
use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::faults::FaultPlan;
use afc_netsim::geom::{Direction, NodeId};
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_netsim::stats::NetworkStats;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::runner::run_fault_scenario;
use afc_traffic::synthetic::Pattern;

use super::{
    construct_each, graft_jobs, guarded, secs, span_since, Mode, Rep, SweepTiming, Traced, Workload,
};
use crate::run::{audit, combine, digest, phase, timed, RunRecord, Until};
use crate::trace::Trace;

/// Below the 8x8 mesh's saturation point.
const RATE: f64 = 0.10;
const INJECT: u64 = 3_000;
const DRAIN: u64 = 200_000;
/// One link dies every `CHURN_PERIOD` cycles and revives half a period later.
const CHURN_PERIOD: u64 = 200;
const CHURN_DUTY: f64 = 0.5;
/// Churn schedules per repetition, each run under every mechanism: more
/// independent fault sequences per repetition make its cost, and its drain
/// length (retransmit timeouts after late kills), depend less on where one
/// schedule happens to cut the mesh.
const SCHEDULES: u64 = 4;

pub struct FaultChurn {
    seed: u64,
    threads: usize,
    epoch: Instant,
}

impl FaultChurn {
    pub fn new(seed: u64, threads: usize, epoch: Instant) -> FaultChurn {
        FaultChurn {
            seed,
            threads,
            epoch,
        }
    }

    /// The configuration of churn schedule `k`, made from the seed.
    fn config(&self, k: u64) -> NetworkConfig {
        let base = NetworkConfig::paper_8x8();
        let mesh = base.mesh().expect("8x8 mesh");
        let churn_seed = self.seed.wrapping_mul(SCHEDULES).wrapping_add(k);
        NetworkConfig {
            faults: FaultPlan::none().with_churn(
                &mesh,
                churn_seed,
                CHURN_PERIOD,
                CHURN_DUTY,
                INJECT,
            ),
            retransmit: Some(RetransmitConfig::default()),
            ..base
        }
    }
}

/// Injection cycles during which some link is dead or its death or
/// revival is not yet detected: `[kill, revive + detection delay)` for
/// every dead window of every directed link.
fn degraded_cycles(cfg: &NetworkConfig) -> Vec<bool> {
    let mesh = cfg.mesh().expect("8x8 mesh");
    let mut degraded = vec![false; INJECT as usize];
    for node in 0..mesh.node_count() {
        let from = NodeId::new(node);
        for dir in Direction::ALL {
            if mesh.neighbor(from, dir).is_none() {
                continue;
            }
            for (dead, alive) in cfg.faults.dead_windows(&mesh, from, dir) {
                let end = alive.saturating_add(cfg.faults.detection_delay).min(INJECT);
                for c in dead.min(INJECT)..end {
                    degraded[c as usize] = true;
                }
            }
        }
    }
    degraded
}

/// The fault gate: the run drained without a simulation error, conserved
/// flits and credits, and every offered packet was delivered or retired
/// as unreachable. Returns the run's digest.
fn check(
    net: &Network,
    stats: &NetworkStats,
    error: Option<String>,
    drained: bool,
) -> Result<u64, String> {
    if let Some(e) = error {
        return Err(format!("ended in a simulation error: {e}"));
    }
    if !drained {
        return Err(format!("did not drain within {DRAIN} cycles"));
    }
    audit(net)?;
    if stats.packets_offered != stats.packets_delivered + stats.packets_unreachable {
        return Err(format!(
            "packets offered {} != delivered {} + unreachable {}",
            stats.packets_offered, stats.packets_delivered, stats.packets_unreachable
        ));
    }
    Ok(digest(stats, &net.total_counters(), net.now()))
}

fn traffic(seed: u64) -> OpenLoopTraffic {
    OpenLoopTraffic::new(
        RateSpec::Uniform(RATE),
        Pattern::UniformRandom,
        PacketMix::paper(),
        seed,
    )
}

/// One job: a fault scenario through `run_fault_scenario`, checked.
fn job(id: MechanismId, cfg: &NetworkConfig, seed: u64) -> Result<(u64, u64), String> {
    let out = run_fault_scenario(
        id.mechanism().factory.as_ref(),
        cfg,
        RateSpec::Uniform(RATE),
        Pattern::UniformRandom,
        PacketMix::paper(),
        INJECT,
        DRAIN,
        seed,
    )
    .map_err(|e| e.to_string())?;
    let error = out.error.as_ref().map(ToString::to_string);
    let d = check(&out.network, &out.stats, error, out.drained)?;
    Ok((d, out.ran_cycles))
}

/// A traced replay of `run_fault_scenario`, step for step, with every
/// injection cycle's `net.step` time split into clean and degraded.
fn traced_job(
    trace: &mut Trace,
    id: MechanismId,
    cfg: &NetworkConfig,
    seed: u64,
    profile: bool,
    rec_out: &mut Option<RunRecord>,
) -> Result<(u64, u64), String> {
    let degraded = degraded_cycles(cfg);
    let span = trace.open("run", 0, None);
    let setup = trace.open("setup", 0, Some(span));
    let mech = id.mechanism();
    let (net, new_ns) = timed(|| Network::new(cfg.clone(), mech.factory.as_ref(), seed));
    let mut net = net.map_err(|e| e.to_string())?;
    net.set_phase_profiling(profile);
    let mut sim = Simulation::new(net, traffic(seed));
    trace.close(setup);
    let mut rec = RunRecord::new(id.label(), &sim.network);
    rec.network_new_ns = Some(new_ns);
    let mut split = [(0u64, 0u64); 2];
    let mut buf = Vec::new();
    let inject = phase(
        trace,
        "measure",
        0,
        span,
        &mut sim,
        &mut buf,
        Until::Cycles(INJECT),
        |c, ns| {
            let slot = &mut split[usize::from(degraded[c as usize])];
            slot.0 += ns;
            slot.1 += 1;
        },
    );
    let (error, drained) = match inject {
        Err(e) => (Some(e.to_string()), false),
        Ok((_, fold)) => {
            rec.add_phase(&fold, true);
            sim.traffic.stop();
            match phase(
                trace,
                "drain",
                0,
                span,
                &mut sim,
                &mut buf,
                Until::Drained(DRAIN),
                |_, _| {},
            ) {
                Err(e) => (Some(e.to_string()), false),
                Ok((drained, fold)) => {
                    rec.add_phase(&fold, false);
                    (None, drained)
                }
            }
        }
    };
    let out =
        check(&sim.network, sim.network.stats(), error, drained).map(|d| (d, sim.network.now()));
    rec.fault_split = split;
    rec.finish(&mut sim.network);
    trace.close(span);
    *rec_out = Some(rec);
    out
}

impl Workload for FaultChurn {
    fn rep(&mut self, mode: Mode) -> Rep {
        let t = Instant::now();
        let configs: Vec<NetworkConfig> = (0..SCHEDULES).map(|k| self.config(k)).collect();
        let jobs: Vec<(usize, MechanismId)> = (0..configs.len())
            .flat_map(|k| MechanismId::FIG2.into_iter().map(move |id| (k, id)))
            .collect();
        let nodes = configs[0].width as u64 * configs[0].height as u64;
        let seed = self.seed;
        let label = |k: usize, id: MechanismId| format!("schedule {k}/{}", id.label());
        let (setup_s, body_s, outs, traced);
        match mode {
            Mode::Untraced => {
                construct_each(&configs[0], &MechanismId::FIG2, seed);
                setup_s = secs(t);
                let t = Instant::now();
                outs = run_sweep("fault-churn", &jobs, |_, &(k, id)| {
                    guarded(&label(k, id), || job(id, &configs[k], seed))
                });
                body_s = secs(t);
                traced = None;
            }
            Mode::Traced { profile, .. } => {
                setup_s = 0.0;
                let t = Instant::now();
                let epoch = self.epoch;
                let done = run_sweep("fault-churn-traced", &jobs, |_, &(k, id)| {
                    let mut trace = Trace::new(epoch);
                    let mut rec = None;
                    let r = guarded(&label(k, id), || {
                        traced_job(&mut trace, id, &configs[k], seed, profile, &mut rec)
                    });
                    (r, trace, rec)
                });
                let wall_ns = t.elapsed().as_nanos() as u64;
                body_s = secs(t);
                let mut trace = Trace::new(epoch);
                let root = span_since(&mut trace, "workload", None, wall_ns);
                let mut records = Vec::new();
                let (results, job_ns) = graft_jobs(&mut trace, root, done, &mut records);
                trace.close(root);
                outs = results;
                traced = Some(Traced {
                    trace,
                    records,
                    sweeps: vec![SweepTiming {
                        job_ns,
                        workers: self.threads.min(jobs.len()),
                        wall_ns,
                    }],
                    pool: (0, 0, 0, 0),
                    warm_cache_bytes: 0,
                    replay_s: body_s,
                });
            }
        }
        let failures = outs.iter().filter_map(|r| r.clone().err()).collect();
        Rep {
            setup_s,
            body_s,
            node_cycles: outs
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|(_, c)| nodes * c)
                .sum(),
            runs: outs.len() as u64,
            failures,
            digest: combine(outs.iter().map(|r| r.as_ref().map_or(0, |(d, _)| *d))),
            fig2_err: None,
            traced,
        }
    }
}
