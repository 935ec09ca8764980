//! Per-layer metrics, computed from the traced repetitions of one run.

use std::collections::BTreeMap;

use afc_netsim::counters::ActivityCounters;
use afc_netsim::stats::NetworkStats;

use crate::run::RunRecord;
use crate::trace::CycleFold;
use crate::workloads::Traced;

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sum<'a>(recs: impl Iterator<Item = &'a RunRecord>, f: impl Fn(&RunRecord) -> f64) -> f64 {
    recs.map(f).sum()
}

/// Computes every per-layer metric. `profiled` and `unprofiled` are the
/// traced repetitions with and without the engine's phase profiling; both
/// simulate exactly the same runs. `overhead` is traced / untraced wall
/// time.
pub fn compute(
    unprofiled: &[Traced],
    profiled: &[Traced],
    overhead: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let reps = (unprofiled.len() + profiled.len()) as f64;
    let plain: Vec<&RunRecord> = unprofiled.iter().flat_map(|t| &t.records).collect();
    let prof: Vec<&RunRecord> = profiled.iter().flat_map(|t| &t.records).collect();
    let all: Vec<&RunRecord> = plain.iter().chain(&prof).copied().collect();

    // netsim::network, from unprofiled per-cycle spans.
    let mut fold = CycleFold::default();
    for r in &plain {
        fold.merge(&r.fold);
    }
    let node_cycles = sum(plain.iter().copied(), |r| (r.nodes * r.fold.cycles) as f64);
    let hops = sum(plain.iter().copied(), |r| r.counters.link_traversals as f64);
    m.insert(
        "net.step_ns_per_node_cycle",
        ratio(fold.step_ns as f64, node_cycles),
    );
    m.insert("net.ns_per_flit_hop", ratio(fold.step_ns as f64, hops));
    m.insert("net.step_ns_p50", fold.step_hist.quantile(0.5));
    m.insert("net.step_ns_p999", fold.step_hist.quantile(0.999));
    m.insert(
        "traffic.pre_cycle_ns_per_cycle",
        ratio(fold.pre_cycle_ns as f64, fold.cycles as f64),
    );
    m.insert(
        "traffic.on_delivered_ns_per_packet",
        ratio(fold.on_delivered_ns as f64, fold.delivered as f64),
    );

    // Engine phases: profiled phase time per repetition against the
    // unprofiled net.step time per repetition.
    let step_per_rep = ratio(fold.step_ns as f64, unprofiled.len() as f64);
    let phase = |f: fn(&afc_netsim::network::PhaseProfile) -> u64| {
        sum(prof.iter().copied(), |r| {
            r.profile.as_ref().map_or(0.0, |p| f(p) as f64)
        })
    };
    let (router, channel, ni, merge, other) = (
        phase(|p| p.router_ns),
        phase(|p| p.channel_ns),
        phase(|p| p.ni_ns),
        phase(|p| p.merge_ns),
        phase(|p| p.other_ns),
    );
    let share = |ns: f64| ratio(ratio(ns, profiled.len() as f64), step_per_rep);
    m.insert("phase.router_share", share(router));
    m.insert("phase.channel_share", share(channel));
    m.insert("phase.ni_share", share(ni));
    m.insert("phase.merge_share", share(merge));
    m.insert("phase.other_share", share(other));
    m.insert(
        "phase.profile_overcount",
        share(router + channel + ni + merge + other),
    );
    // Unit costs from serial runs only: a parallel cycle's work is timed
    // as merge, not per phase.
    let serial_prof = || prof.iter().copied().filter(|r| !r.parallel);
    let serial_phase = |f: fn(&afc_netsim::network::PhaseProfile) -> u64| {
        sum(serial_prof(), |r| {
            r.profile.as_ref().map_or(0.0, |p| f(p) as f64)
        })
    };
    m.insert(
        "channel.ns_per_link_traversal",
        ratio(
            serial_phase(|p| p.channel_ns),
            sum(serial_prof(), |r| r.counters.link_traversals as f64),
        ),
    );
    m.insert(
        "router.ns_per_crossbar_traversal",
        ratio(
            serial_phase(|p| p.router_ns),
            sum(serial_prof(), |r| r.counters.crossbar_traversals as f64),
        ),
    );
    m.insert(
        "ni.ns_per_flit_injected",
        ratio(
            serial_phase(|p| p.ni_ns),
            sum(serial_prof(), |r| r.stats.flits_injected as f64),
        ),
    );

    // routers/core: exact work per repetition.
    let mut c = ActivityCounters::default();
    let mut s = NetworkStats::default();
    for r in &all {
        c.merge(&r.counters);
        s.merge(&r.stats);
    }
    let per_rep = |v: u64| ratio(v as f64, reps);
    m.insert(
        "work.node_cycles",
        per_rep(all.iter().map(|r| r.nodes * r.cycles).sum()),
    );
    m.insert("work.flit_hops", per_rep(c.link_traversals));
    m.insert("work.flits_delivered", per_rep(s.flits_delivered));
    m.insert("work.packets_delivered", per_rep(s.packets_delivered));
    m.insert("work.crossbar_traversals", per_rep(c.crossbar_traversals));
    m.insert("work.buffer_writes", per_rep(c.buffer_writes));
    m.insert("work.arbitrations", per_rep(c.arbitrations));
    m.insert("work.credits_sent", per_rep(c.credits_sent));
    m.insert(
        "router.deflections_per_hop",
        ratio(c.deflections as f64, c.link_traversals as f64),
    );
    m.insert(
        "router.drops_per_hop",
        ratio(c.drops as f64, c.link_traversals as f64),
    );
    m.insert(
        "router.credit_stall_share",
        ratio(c.credit_stall_cycles as f64, c.cycles as f64),
    );
    let afc = || all.iter().copied().filter(|r| r.mechanism == "afc");
    let mode_cycles = sum(afc(), |r| {
        (r.stats.cycles_backpressured
            + r.stats.cycles_backpressureless
            + r.stats.cycles_transitioning) as f64
    });
    m.insert(
        "afc.backpressured_share",
        ratio(
            sum(afc(), |r| r.stats.cycles_backpressured as f64),
            mode_cycles,
        ),
    );
    let forward = sum(afc(), |r| r.counters.mode_switches_forward as f64);
    let reverse = sum(afc(), |r| r.counters.mode_switches_reverse as f64);
    m.insert("afc.mode_switches", ratio(forward + reverse, reps));
    m.insert(
        "afc.gossip_switch_share",
        ratio(
            sum(afc(), |r| r.counters.mode_switches_gossip as f64),
            forward,
        ),
    );

    // energy, snapshot and set-up: mean per run that did the step.
    let mean_us = |f: fn(&RunRecord) -> Option<u64>| {
        let v: Vec<u64> = all.iter().filter_map(|r| f(r)).collect();
        ratio(v.iter().sum::<u64>() as f64 / 1e3, v.len() as f64)
    };
    m.insert("energy.price_us_per_run", mean_us(|r| r.price_ns));
    m.insert(
        "snapshot.save_us_per_run",
        mean_us(|r| r.snapshot.map(|s| s.0)),
    );
    m.insert(
        "snapshot.kb_per_run",
        mean_us(|r| r.snapshot.map(|s| s.1)) * 1e3 / 1024.0,
    );
    m.insert("setup.network_new_us", mean_us(|r| r.network_new_ns));
    m.insert("setup.reset_us", mean_us(|r| r.reset_ns));

    // netsim::parallel, from the measure phases of unprofiled runs of
    // workloads that run both engines.
    let both_engines = all.iter().any(|r| r.parallel);
    let engine = |parallel: bool, order: Option<bool>| {
        if !both_engines {
            return 0.0;
        }
        let pick = || {
            plain.iter().copied().filter(move |r| {
                r.parallel == parallel && order.is_none_or(|o| r.serial_first == o)
            })
        };
        ratio(
            sum(pick(), |r| r.measure_step_ns as f64),
            sum(pick(), |r| (r.nodes * r.measure_cycles) as f64),
        )
    };
    let speedup = |order: Option<bool>| ratio(engine(false, order), engine(true, order));
    m.insert("engine.serial_ns_per_node_cycle", engine(false, None));
    m.insert("engine.parallel_ns_per_node_cycle", engine(true, None));
    m.insert("engine.parallel_speedup", speedup(None));
    m.insert("engine.parallel_speedup.serial_first", speedup(Some(true)));
    m.insert(
        "engine.parallel_speedup.parallel_first",
        speedup(Some(false)),
    );
    let par = || all.iter().copied().filter(|r| r.parallel);
    m.insert(
        "engine.parallel_cycle_share",
        ratio(
            sum(par(), |r| r.parallel_cycles as f64),
            sum(par(), |r| r.cycles as f64),
        ),
    );

    // Fault plane.
    m.insert("faults.links_failed", per_rep(s.links_failed));
    m.insert("faults.links_revived", per_rep(s.links_revived));
    m.insert("faults.reroutes", per_rep(c.reroutes));
    m.insert("faults.fault_notices", per_rep(c.fault_notices));
    m.insert(
        "faults.detection_latency_mean",
        s.fault_detection_latency.mean().unwrap_or(0.0),
    );
    m.insert(
        "faults.retransmit_copies_per_flit",
        ratio(s.flits_retransmit_copies as f64, s.flits_injected as f64),
    );
    let faulty = s.links_failed > 0;
    m.insert(
        "faults.delivered_fraction",
        if faulty {
            ratio(s.packets_delivered as f64, s.packets_offered as f64)
        } else {
            0.0
        },
    );
    let split = |i: usize| {
        plain.iter().fold((0.0, 0.0), |a, r| {
            (
                a.0 + r.fault_split[i].0 as f64,
                a.1 + r.fault_split[i].1 as f64,
            )
        })
    };
    let (clean, degraded) = (split(0), split(1));
    m.insert(
        "faults.degraded_cost_ratio",
        ratio(ratio(degraded.0, degraded.1), ratio(clean.0, clean.1)),
    );

    // bench::sweep.
    let mut jobs: Vec<u64> = unprofiled
        .iter()
        .chain(profiled)
        .flat_map(|t| t.sweeps.iter().flat_map(|s| s.job_ns.iter().copied()))
        .collect();
    jobs.sort_unstable();
    let n = jobs.len();
    let (tail, tail_pct) = match n {
        0 => (0, 0.0),
        // The highest percentile with at least ten jobs beyond it.
        n if n > 10 => (jobs[n - 11], 100.0 * (n - 10) as f64 / n as f64),
        n => (jobs[n - 1], 100.0),
    };
    m.insert(
        "sweep.job_s_p50",
        if n == 0 {
            0.0
        } else {
            jobs[(n - 1) / 2] as f64 / 1e9
        },
    );
    m.insert("sweep.job_s_tail", tail as f64 / 1e9);
    m.insert("sweep.job_tail_pct", tail_pct);
    m.insert("sweep.job_count", n as f64);
    let (busy, capacity) = unprofiled
        .iter()
        .chain(profiled)
        .flat_map(|t| &t.sweeps)
        .fold((0.0, 0.0), |a, s| {
            (
                a.0 + s.job_ns.iter().sum::<u64>() as f64,
                a.1 + (s.workers as u64 * s.wall_ns) as f64,
            )
        });
    m.insert(
        "sweep.worker_idle_share",
        if capacity == 0.0 {
            0.0
        } else {
            (1.0 - busy / capacity).max(0.0)
        },
    );
    let pool = unprofiled
        .iter()
        .chain(profiled)
        .fold((0, 0, 0, 0), |a, t| {
            (
                a.0 + t.pool.0,
                a.1 + t.pool.1,
                a.2 + t.pool.2,
                a.3 + t.pool.3,
            )
        });
    m.insert(
        "sweep.pool_hit_ratio",
        ratio(pool.0 as f64, (pool.0 + pool.1) as f64),
    );
    m.insert(
        "sweep.warm_hit_ratio",
        ratio(pool.2 as f64, (pool.2 + pool.3) as f64),
    );
    let warm = unprofiled
        .iter()
        .chain(profiled)
        .map(|t| t.warm_cache_bytes)
        .max()
        .unwrap_or(0);
    m.insert("sweep.warm_cache_mb", warm as f64 / (1u64 << 20) as f64);

    // Memory, from each run's footprint at its end.
    let kb = |f: fn(&afc_netsim::network::MemoryFootprint) -> usize| {
        all.iter()
            .filter_map(|r| {
                r.footprint
                    .map(|fp| f(&fp) as f64 / fp.nodes.max(1) as f64 / 1024.0)
            })
            .fold(0.0, f64::max)
    };
    m.insert("mem.router_kb_per_node", kb(|f| f.router_bytes));
    m.insert("mem.channel_kb_per_node", kb(|f| f.channel_bytes));
    m.insert("mem.ni_kb_per_node", kb(|f| f.ni_bytes));
    m.insert("mem.engine_kb_per_node", kb(|f| f.engine_bytes));
    m.insert("mem.other_kb_per_node", kb(|f| f.other_bytes));
    m.insert(
        "mem.high_water_mb",
        all.iter().map(|r| r.mem_high_water).max().unwrap_or(0) as f64 / (1u64 << 20) as f64,
    );

    m.insert("trace.overhead_ratio", overhead);
    m
}
