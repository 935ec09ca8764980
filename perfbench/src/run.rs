//! One simulation run: traced stepping, the per-run record the per-layer
//! metrics are computed from, and the correctness gate.

use std::time::Instant;

use afc_netsim::counters::ActivityCounters;
use afc_netsim::error::SimError;
use afc_netsim::network::{MemoryFootprint, Network, PhaseProfile};
use afc_netsim::packet::DeliveredPacket;
use afc_netsim::sim::{Simulation, TrafficModel};
use afc_netsim::snapshot::{fnv1a64, SnapshotWriter};
use afc_netsim::stats::NetworkStats;

use crate::trace::{CycleFold, Trace};

/// Digest of a run's simulated statistics: the network statistics, the
/// router activity counters and the final cycle. Any simulated difference
/// between two runs shows up here; host timing never does.
pub fn digest(stats: &NetworkStats, counters: &ActivityCounters, now: u64) -> u64 {
    let mut w = SnapshotWriter::new();
    stats.save(&mut w);
    counters.save(&mut w);
    w.put_u64(now);
    fnv1a64(&w.into_bytes())
}

/// Combines per-run digests, in run order, into one.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

/// The structural half of the correctness gate, run after every run whose
/// network the benchmark can reach: flit and credit conservation.
pub fn audit(net: &Network) -> Result<(), String> {
    net.audit()?;
    net.credit_audit()
}

/// When a traced phase stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// After exactly this many cycles.
    Cycles(u64),
    /// When the traffic model finishes, within this many cycles
    /// ([`Simulation::run_until_finished`]).
    Finished(u64),
    /// When the network drains, within this many cycles
    /// ([`Simulation::drain`]).
    Drained(u64),
}

/// Runs one phase of `sim` exactly as [`Simulation::try_step`] would, with
/// each cycle's `traffic.pre_cycle`, `net.step` and `traffic.on_delivered`
/// timed and folded into the phase span. `on_cycle(cycle, step_ns)` sees
/// every cycle's `net.step` time. Returns whether the stop condition was
/// reached within the budget.
#[allow(clippy::too_many_arguments)] // span placement plus the phase's own knobs
pub fn phase<T: TrafficModel>(
    trace: &mut Trace,
    name: &'static str,
    run: u32,
    parent: usize,
    sim: &mut Simulation<T>,
    buf: &mut Vec<DeliveredPacket>,
    until: Until,
    mut on_cycle: impl FnMut(u64, u64),
) -> Result<(bool, CycleFold), SimError> {
    let span = trace.open(name, run, Some(parent));
    let mut fold = CycleFold::default();
    let budget = match until {
        Until::Cycles(n) | Until::Finished(n) | Until::Drained(n) => n,
    };
    let done = |sim: &Simulation<T>| match until {
        Until::Cycles(_) => false,
        Until::Finished(_) => sim.traffic.is_finished(sim.network.now()),
        Until::Drained(_) => sim.network.is_drained(),
    };
    let mut result = Ok(());
    let mut reached = matches!(until, Until::Cycles(_));
    for _ in 0..budget {
        if done(sim) {
            reached = true;
            break;
        }
        let now = sim.network.now();
        let t0 = Instant::now();
        sim.traffic.pre_cycle(now, &mut sim.network);
        let t1 = Instant::now();
        if let Err(e) = sim.network.try_step() {
            result = Err(e);
            break;
        }
        let t2 = Instant::now();
        sim.network.take_delivered_into(buf);
        let after = sim.network.now();
        for packet in buf.iter() {
            sim.traffic.on_delivered(packet, after, &mut sim.network);
        }
        fold.delivered += buf.len() as u64;
        buf.clear();
        let t3 = Instant::now();
        let step_ns = (t2 - t1).as_nanos() as u64;
        fold.cycles += 1;
        fold.pre_cycle_ns += (t1 - t0).as_nanos() as u64;
        fold.step_ns += step_ns;
        fold.on_delivered_ns += (t3 - t2).as_nanos() as u64;
        fold.step_hist.record(step_ns);
        on_cycle(now, step_ns);
    }
    if !matches!(until, Until::Cycles(_)) && !reached {
        reached = done(sim);
    }
    trace.close(span);
    trace.spans[span].fold = Some(Box::new(fold.clone()));
    result.map(|()| (reached, fold))
}

/// Everything a traced run contributes to the per-layer metrics.
#[derive(Default)]
pub struct RunRecord {
    pub mechanism: &'static str,
    pub nodes: u64,
    /// Cycles simulated, warmup and drain included.
    pub cycles: u64,
    /// Per-cycle spans over every phase.
    pub fold: CycleFold,
    /// `net.step` time and cycles of the measure phase alone.
    pub measure_step_ns: u64,
    pub measure_cycles: u64,
    /// Router activity and network statistics over every phase.
    pub counters: ActivityCounters,
    pub stats: NetworkStats,
    pub profile: Option<PhaseProfile>,
    /// Stepped with more than one simulation thread.
    pub parallel: bool,
    pub parallel_cycles: u64,
    /// In `sat_32x32`, whether the serial half ran first in this repetition.
    pub serial_first: bool,
    pub network_new_ns: Option<u64>,
    pub reset_ns: Option<u64>,
    /// Post-warmup snapshot seal: `(ns, bytes)`.
    pub snapshot: Option<(u64, u64)>,
    pub price_ns: Option<u64>,
    pub footprint: Option<MemoryFootprint>,
    pub mem_high_water: usize,
    /// `net.step` ns and cycle counts of injection-phase cycles, split into
    /// `[clean, degraded]` by the fault plan's dead windows.
    pub fault_split: [(u64, u64); 2],
}

impl RunRecord {
    pub fn new(mechanism: &'static str, net: &Network) -> RunRecord {
        RunRecord {
            mechanism,
            nodes: net.mesh().node_count() as u64,
            parallel: net.sim_threads() > 1,
            ..RunRecord::default()
        }
    }

    /// Folds in the counters and statistics accumulated since the last
    /// metrics reset; call before every `reset_metrics` and at the end.
    pub fn absorb(&mut self, net: &Network) {
        self.counters.merge(&net.total_counters());
        self.stats.merge(net.stats());
    }

    /// Closes the record at the end of the run.
    pub fn finish(&mut self, net: &mut Network) {
        self.absorb(net);
        self.cycles = net.now();
        self.profile = net.phase_profile();
        self.parallel_cycles = net.parallel_cycles();
        self.footprint = Some(net.memory_footprint());
        self.mem_high_water = net.memory_high_water();
    }

    pub fn add_phase(&mut self, fold: &CycleFold, measure: bool) {
        self.fold.merge(fold);
        if measure {
            self.measure_step_ns += fold.step_ns;
            self.measure_cycles += fold.cycles;
        }
    }
}

/// Times `f` in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}
