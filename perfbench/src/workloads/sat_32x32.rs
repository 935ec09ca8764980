//! `sat_32x32`: the router datapath and the intra-run parallel engine at
//! saturation.

use std::time::Instant;

use afc_bench::mechanisms::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

use super::{guarded, secs, Mode, Rep, Traced, Workload};
use crate::run::{audit, combine, digest, phase, timed, RunRecord, Until};
use crate::trace::Trace;

/// Past saturation on 32x32: uniform-random bisection capacity is about
/// 4/k flits/node/cycle (the rate `step_loop` and `parallel_scaling` use).
const RATE: f64 = 0.08;
const WARMUP: u64 = 100;
const MEASURE: u64 = 200;

type Sim = Simulation<OpenLoopTraffic>;

pub struct Sat {
    seed: u64,
    threads: usize,
    epoch: Instant,
    /// Untraced repetitions so far; their engine order alternates.
    untraced: u64,
}

impl Sat {
    pub fn new(seed: u64, threads: usize, epoch: Instant) -> Sat {
        Sat {
            seed,
            threads,
            epoch,
            untraced: 0,
        }
    }

    fn config() -> NetworkConfig {
        NetworkConfig {
            width: 32,
            height: 32,
            ..NetworkConfig::paper_8x8()
        }
    }

    fn build(&self, id: MechanismId, threads: usize) -> Sim {
        let mut net = Network::new(Self::config(), id.mechanism().factory.as_ref(), self.seed)
            .expect("valid 32x32 configuration");
        net.set_sim_threads(threads);
        let traffic = OpenLoopTraffic::new(
            RateSpec::Uniform(RATE),
            Pattern::UniformRandom,
            PacketMix::paper(),
            self.seed,
        );
        Simulation::new(net, traffic)
    }

    /// The eight runs of a repetition in execution order: one half per
    /// engine, each over the four mechanisms.
    fn order(&self, serial_first: bool) -> Vec<(MechanismId, usize)> {
        let halves = if serial_first {
            [1, self.threads]
        } else {
            [self.threads, 1]
        };
        halves
            .iter()
            .flat_map(|&t| MechanismId::FIG2.iter().map(move |&id| (id, t)))
            .collect()
    }
}

/// Checks one finished run and returns its digest.
fn check(sim: &Sim) -> Result<u64, String> {
    audit(&sim.network)?;
    Ok(digest(
        sim.network.stats(),
        &sim.network.total_counters(),
        sim.network.now(),
    ))
}

impl Workload for Sat {
    fn rep(&mut self, mode: Mode) -> Rep {
        let serial_first = match mode {
            Mode::Untraced => {
                self.untraced += 1;
                self.untraced % 2 == 1
            }
            Mode::Traced { flip, .. } => !flip,
        };
        let order = self.order(serial_first);
        let nodes = u64::from(Self::config().width) * u64::from(Self::config().height);
        let mut results: Vec<(MechanismId, usize, Result<u64, String>)> = Vec::new();
        let (setup_s, body_s, traced);

        match mode {
            Mode::Untraced => {
                let t = Instant::now();
                let mut sims: Vec<Sim> = order.iter().map(|&(id, th)| self.build(id, th)).collect();
                setup_s = secs(t);
                let t = Instant::now();
                for (sim, &(id, th)) in sims.iter_mut().zip(&order) {
                    let r = guarded(id.label(), || {
                        sim.try_run(WARMUP).map_err(|e| e.to_string())?;
                        sim.network.reset_metrics();
                        sim.try_run(MEASURE).map_err(|e| e.to_string())?;
                        check(sim)
                    });
                    results.push((id, th, r));
                }
                body_s = secs(t);
                traced = None;
            }
            Mode::Traced { profile, .. } => {
                let t = Instant::now();
                let mut trace = Trace::new(self.epoch);
                let root = trace.open("workload", 0, None);
                let mut records = Vec::new();
                let mut buf = Vec::new();
                for (run, &(id, th)) in order.iter().enumerate() {
                    let run = run as u32;
                    let span = trace.open("run", run, Some(root));
                    let setup = trace.open("setup", run, Some(span));
                    let (mut sim, new_ns) = timed(|| self.build(id, th));
                    sim.network.set_phase_profiling(profile);
                    trace.close(setup);
                    let mut rec = RunRecord::new(id.label(), &sim.network);
                    rec.network_new_ns = Some(new_ns);
                    rec.serial_first = serial_first;
                    let r = guarded(id.label(), || {
                        let (_, warm) = phase(
                            &mut trace,
                            "warmup",
                            run,
                            span,
                            &mut sim,
                            &mut buf,
                            Until::Cycles(WARMUP),
                            |_, _| {},
                        )
                        .map_err(|e| e.to_string())?;
                        rec.add_phase(&warm, false);
                        rec.absorb(&sim.network);
                        sim.network.reset_metrics();
                        let (_, meas) = phase(
                            &mut trace,
                            "measure",
                            run,
                            span,
                            &mut sim,
                            &mut buf,
                            Until::Cycles(MEASURE),
                            |_, _| {},
                        )
                        .map_err(|e| e.to_string())?;
                        rec.add_phase(&meas, true);
                        check(&sim)
                    });
                    rec.finish(&mut sim.network);
                    trace.close(span);
                    records.push(rec);
                    results.push((id, th, r));
                }
                trace.close(root);
                setup_s = 0.0;
                body_s = secs(t);
                // The untraced body builds its networks beforehand.
                let built: u64 = records.iter().filter_map(|r| r.network_new_ns).sum();
                let replay_s = body_s - built as f64 / 1e9;
                traced = Some(Traced {
                    trace,
                    records,
                    sweeps: Vec::new(),
                    pool: (0, 0, 0, 0),
                    warm_cache_bytes: 0,
                    replay_s,
                });
            }
        }

        // Both engines must produce identical digests; the repetition's
        // digest covers the serial half in mechanism order, so it does not
        // depend on which half ran first.
        let mut failures = Vec::new();
        let mut serial = Vec::new();
        let mut completed = 0;
        let n = MechanismId::FIG2.len();
        let (s0, p0) = if serial_first { (0, n) } else { (n, 0) };
        for k in 0..n {
            let (s, p) = (&results[s0 + k], &results[p0 + k]);
            for (_, _, r) in [s, p] {
                match r {
                    Ok(_) => completed += 1,
                    Err(e) => failures.push(e.clone()),
                }
            }
            if let ((_, _, Ok(a)), (_, _, Ok(b))) = (s, p) {
                if a != b {
                    failures.push(format!(
                        "{}: serial digest {a:016x} != parallel digest {b:016x}",
                        s.0.label()
                    ));
                }
            }
            serial.push(s.2.clone().unwrap_or(0));
        }
        Rep {
            setup_s,
            body_s,
            node_cycles: completed * nodes * (WARMUP + MEASURE),
            runs: results.len() as u64,
            failures,
            digest: combine(serial),
            fig2_err: None,
            traced,
        }
    }
}
