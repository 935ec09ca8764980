//! `fig2_closed`: the Figure 2 closed-loop matrix, the headline artifact.

use std::time::Instant;

use afc_bench::mechanisms::{fig2_mechanisms, Mechanism, MechanismId};
use afc_bench::sweep::run_sweep;
use afc_energy::{EnergyModel, EnergyParams};
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_traffic::closedloop::{ClosedLoopTraffic, WorkloadParams};
use afc_traffic::runner::run_closed_loop;
use afc_traffic::workloads;

use super::{
    construct_each, graft_jobs, guarded, secs, span_since, Mode, Rep, SweepTiming, Traced, Workload,
};
use crate::run::{audit, combine, digest, phase, timed, RunRecord, Until};
use crate::trace::Trace;

/// The `fig2` artifact's transaction counts and cycle budget.
const WARMUP_TXNS: u64 = 500;
const MEASURE_TXNS: u64 = 2_000;
const MAX_CYCLES: u64 = 50_000_000;

/// The paper's Figure 2 ratios, as EXPERIMENTS.md quotes them: bufferless
/// energy at low load, ideal bypass energy at low load, bufferless
/// performance at high load, bufferless energy at high load, AFC
/// performance at high load, AFC energy at high load.
const PAPER: [f64; 6] = [0.70, 0.92, 0.81, 1.35, 0.98, 1.02];

/// One (preset, mechanism) cell's outcome.
struct Cell {
    cycles: u64,
    energy: f64,
    digest: u64,
    node_cycles: u64,
}

pub struct Fig2 {
    seed: u64,
    threads: usize,
    epoch: Instant,
}

impl Fig2 {
    pub fn new(seed: u64, threads: usize, epoch: Instant) -> Fig2 {
        Fig2 {
            seed,
            threads,
            epoch,
        }
    }
}

/// `fig2_mechanisms()` plus the ideal-bypass bound Figure 2(b) compares
/// against.
fn mechanisms() -> Vec<Mechanism> {
    let mut m = fig2_mechanisms();
    m.push(MechanismId::BpIdealBypass.mechanism());
    m
}

const IDS: [MechanismId; 5] = [
    MechanismId::Backpressured,
    MechanismId::Backpressureless,
    MechanismId::AfcAlwaysBp,
    MechanismId::Afc,
    MechanismId::BpIdealBypass,
];

fn presets() -> Vec<WorkloadParams> {
    let mut p = workloads::low_load();
    p.extend(workloads::high_load());
    p
}

/// Mean absolute gap between the reproduced Figure 2 ratios and the
/// paper's. `cells` is preset-major over [`IDS`]; the first three presets
/// are the low-load ones.
fn fig2_err(cells: &[Cell]) -> f64 {
    let at = |p: usize, m: MechanismId| {
        let i = IDS.iter().position(|&x| x == m).expect("mechanism in IDS");
        &cells[p * IDS.len() + i]
    };
    let energy =
        |p: usize, m: MechanismId| at(p, m).energy / at(p, MechanismId::Backpressured).energy;
    let perf = |p: usize, m: MechanismId| {
        at(p, MechanismId::Backpressured).cycles as f64 / at(p, m).cycles as f64
    };
    let geomean = |r: std::ops::Range<usize>, f: &dyn Fn(usize) -> f64| {
        let n = r.len() as f64;
        (r.map(|p| f(p).ln()).sum::<f64>() / n).exp()
    };
    let reproduced = [
        geomean(0..3, &|p| energy(p, MechanismId::Backpressureless)),
        geomean(0..3, &|p| energy(p, MechanismId::BpIdealBypass)),
        geomean(3..6, &|p| perf(p, MechanismId::Backpressureless)),
        geomean(3..6, &|p| energy(p, MechanismId::Backpressureless)),
        geomean(3..6, &|p| perf(p, MechanismId::Afc)),
        geomean(3..6, &|p| energy(p, MechanismId::Afc)),
    ];
    reproduced
        .iter()
        .zip(PAPER)
        .map(|(r, p)| (r - p).abs())
        .sum::<f64>()
        / PAPER.len() as f64
}

/// A traced replay of `run_closed_loop` + `price_network`, step for step.
fn traced_cell(
    trace: &mut Trace,
    m: &Mechanism,
    w: WorkloadParams,
    cfg: &NetworkConfig,
    seed: u64,
    profile: bool,
    rec_out: &mut Option<RunRecord>,
) -> Result<Cell, String> {
    let model = EnergyModel::new(EnergyParams::micro2010_70nm());
    let span = trace.open("run", 0, None);
    let setup = trace.open("setup", 0, Some(span));
    let (net, new_ns) = timed(|| Network::new(cfg.clone(), m.factory.as_ref(), seed));
    let mut net = net.map_err(|e| e.to_string())?;
    net.set_phase_profiling(profile);
    let nodes = net.mesh().node_count();
    let mut sim = Simulation::new(net, ClosedLoopTraffic::new(w, nodes, seed));
    trace.close(setup);
    let mut rec = RunRecord::new(m.label, &sim.network);
    rec.network_new_ns = Some(new_ns);
    let mut buf = Vec::new();
    let result = (|| {
        sim.traffic.set_target(WARMUP_TXNS);
        let (ok, fold) = phase(
            trace,
            "warmup",
            0,
            span,
            &mut sim,
            &mut buf,
            Until::Finished(MAX_CYCLES),
            |_, _| {},
        )
        .map_err(|e| e.to_string())?;
        rec.add_phase(&fold, false);
        if !ok {
            return Err(format!("warmup did not finish within {MAX_CYCLES} cycles"));
        }
        rec.absorb(&sim.network);
        sim.network.reset_metrics();
        let start = sim.network.now();
        sim.traffic.set_target(WARMUP_TXNS + MEASURE_TXNS);
        let (ok, fold) = phase(
            trace,
            "measure",
            0,
            span,
            &mut sim,
            &mut buf,
            Until::Finished(MAX_CYCLES),
            |_, _| {},
        )
        .map_err(|e| e.to_string())?;
        rec.add_phase(&fold, true);
        if !ok {
            return Err(format!(
                "measurement did not finish within {MAX_CYCLES} cycles"
            ));
        }
        let price = trace.open("price", 0, Some(span));
        let (energy, price_ns) = timed(|| model.price_network(&sim.network).total());
        trace.close(price);
        rec.price_ns = Some(price_ns);
        audit(&sim.network)?;
        Ok(Cell {
            cycles: sim.network.now() - start,
            energy,
            digest: digest(
                sim.network.stats(),
                &sim.network.total_counters(),
                sim.network.now(),
            ),
            node_cycles: nodes as u64 * sim.network.now(),
        })
    })();
    rec.finish(&mut sim.network);
    trace.close(span);
    *rec_out = Some(rec);
    result
}

impl Workload for Fig2 {
    fn rep(&mut self, mode: Mode) -> Rep {
        let t = Instant::now();
        let cfg = NetworkConfig::paper_3x3();
        let mechs = mechanisms();
        let presets = presets();
        let cells: Vec<(usize, usize)> = (0..presets.len())
            .flat_map(|w| (0..mechs.len()).map(move |m| (w, m)))
            .collect();
        let seed = self.seed;
        let (setup_s, out, body_s, traced);
        match mode {
            Mode::Untraced => {
                construct_each(&cfg, &IDS, seed);
                setup_s = secs(t);
                let t = Instant::now();
                out = run_sweep("fig2-closed", &cells, |_, &(w, m)| {
                    let (mech, preset) = (&mechs[m], presets[w]);
                    guarded(&format!("{}/{}", preset.name, mech.label), || {
                        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
                        let out = run_closed_loop(
                            mech.factory.as_ref(),
                            &cfg,
                            preset,
                            WARMUP_TXNS,
                            MEASURE_TXNS,
                            MAX_CYCLES,
                            seed,
                        )
                        .map_err(|e| e.to_string())?;
                        let energy = model.price_network(&out.network).total();
                        audit(&out.network)?;
                        Ok(Cell {
                            cycles: out.measured_cycles,
                            energy,
                            digest: digest(&out.stats, &out.counters, out.network.now()),
                            node_cycles: out.network.mesh().node_count() as u64 * out.network.now(),
                        })
                    })
                });
                body_s = secs(t);
                traced = None;
            }
            Mode::Traced { profile, .. } => {
                setup_s = 0.0;
                let t = Instant::now();
                let epoch = self.epoch;
                let jobs = run_sweep("fig2-closed-traced", &cells, |_, &(w, m)| {
                    let (mech, preset) = (&mechs[m], presets[w]);
                    let mut trace = Trace::new(epoch);
                    let mut rec = None;
                    let r = guarded(&format!("{}/{}", preset.name, mech.label), || {
                        traced_cell(&mut trace, mech, preset, &cfg, seed, profile, &mut rec)
                    });
                    (r, trace, rec)
                });
                let wall_ns = t.elapsed().as_nanos() as u64;
                body_s = secs(t);
                let mut trace = Trace::new(self.epoch);
                let root = span_since(&mut trace, "workload", None, wall_ns);
                let mut records = Vec::new();
                let (results, job_ns) = graft_jobs(&mut trace, root, jobs, &mut records);
                trace.close(root);
                out = results;
                traced = Some(Traced {
                    trace,
                    records,
                    sweeps: vec![SweepTiming {
                        job_ns,
                        workers: self.threads.min(cells.len()),
                        wall_ns,
                    }],
                    pool: (0, 0, 0, 0),
                    warm_cache_bytes: 0,
                    replay_s: body_s,
                });
            }
        }
        let mut failures = Vec::new();
        let mut node_cycles = 0;
        for r in &out {
            match r {
                Ok(c) => node_cycles += c.node_cycles,
                Err(e) => failures.push(e.clone()),
            }
        }
        let all_ok = failures.is_empty();
        Rep {
            setup_s,
            body_s,
            node_cycles,
            runs: out.len() as u64,
            digest: combine(out.iter().map(|r| r.as_ref().map_or(0, |c| c.digest))),
            fig2_err: all_ok.then(|| {
                let cells: Vec<Cell> = out.into_iter().map(|r| r.expect("all cells ok")).collect();
                fig2_err(&cells)
            }),
            failures,
            traced,
        }
    }
}
