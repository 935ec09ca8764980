//! The benchmark's self-description: workloads with the reason each was
//! chosen, and every metric with its unit, layer, and the end-to-end
//! metric and workload it should move. `--help` prints this catalogue, and
//! the run's output uses the same names.

/// A workload: its name and why the benchmark runs it.
pub struct WorkloadDef {
    pub name: &'static str,
    pub what: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "sat_32x32",
        what: "32x32 mesh, open-loop uniform-random traffic at 0.08 flits/node/cycle \
               (past saturation), the four Figure 2 mechanisms, each run once on the \
               serial engine and once with sim_threads = nproc; the half that runs \
               first alternates between repetitions",
        why: "the router datapath (routers, core::router) and netsim::channel do most \
              of the work, and netsim::parallel runs nowhere else; no sweep layer, no \
              faults, no closed-loop traffic",
    },
    WorkloadDef {
        name: "fig2_closed",
        what: "the Figure 2 closed-loop matrix: six workload presets x fig2_mechanisms() \
               plus the ideal-bypass bound, on the paper 3x3 mesh, through \
               sweep::run_sweep on nproc workers (run_closed_loop + price_network per cell)",
        why: "the headline artifact and the only workload with an accuracy reference; \
              half its presets are low-load, so per-cycle bookkeeping, NI reassembly, \
              MSHR feedback and the AFC mode machine dominate",
    },
    WorkloadDef {
        name: "open_curve",
        what: "the open_loop artifact sweep: all seven mechanisms x ten rates from 0.02 \
               to 0.90 on the paper 3x3 mesh, through SweepSpec::execute_resumable with \
               the arena pool and warm cache at their defaults and a fresh manifest",
        why: "many short runs, so network construction and reset, warm-cache snapshot \
              sealing, manifest writes and grouped scheduling (bench::sweep) take a \
              large share; tiny mesh, many runs",
    },
    WorkloadDef {
        name: "fault_churn",
        what: "paper 8x8 mesh, uniform-random traffic at 0.10 (below saturation), rolling \
               kill/revive churn from FaultPlan::with_churn with retransmit on, the \
               four Figure 2 mechanisms, through runner::run_fault_scenario (inject, \
               then drain)",
        why: "the only workload in the fault plane (netsim::faults, fault_aware, gossip, \
              NI retransmit, credit resync), where the per-cycle cost cliff sits",
    },
];

/// A metric: name, unit, the layer it measures, and what it should move
/// (for an end-to-end metric, its definition).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer,
        moves,
    }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`). Times
/// are host time corrected to nominal host speed: each repetition's time
/// is scaled by its host speed, `reference::NOMINAL_S` over the frozen
/// reference kernel's time measured right before it (see `reference.rs`).
/// The uncorrected medians are printed beside them as `*_raw`.
pub const END_TO_END: [MetricDef; 4] = [
    m(
        "wall_s",
        "s",
        "end to end",
        "median over repetitions of the timed body's host time, at nominal host speed",
    ),
    m(
        "node_cycles_per_s",
        "node_cycles/s",
        "end to end",
        "median over repetitions of sum(mesh nodes x simulated cycles, warmup and \
         drain included) / timed body's host time at nominal host speed: simulated \
         work per host second",
    ),
    m(
        "setup_s",
        "s",
        "end to end",
        "median host time, at nominal host speed, before a repetition's first \
         simulated cycle: inputs made from the seed, process-wide caches emptied, and \
         one network built per distinct (mechanism, configuration)",
    ),
    m(
        "peak_rss_mb",
        "MB",
        "end to end",
        "VmHWM of the benchmark process, in MiB",
    ),
];

/// Reported beside the end-to-end metrics but kept out of `BENCHMARK.json`'s
/// metric set: `failed_run_ratio` is 0 on a correct build (it is `failed`
/// over `attempted`), `fig2_err` is simulated and exists on one workload
/// only, and the raw times swing with the host.
pub const REPORTED: [MetricDef; 6] = [
    m(
        "failed_run_ratio",
        "ratio",
        "end to end",
        "runs that panicked, returned a SimError, ran out of cycle budget, failed an \
         invariant or produced a wrong digest / runs attempted",
    ),
    m(
        "fig2_err",
        "ratio",
        "end to end (simulated)",
        "fig2_closed only: mean absolute gap between the reproduced Figure 2 ratios \
         and the paper's (bufferless energy low 0.70, ideal bypass low 0.92, bufferless \
         perf high 0.81, bufferless energy high 1.35, AFC perf high 0.98, AFC energy \
         high 1.02); every other model number the benchmark prints is unvalidated",
    ),
    m(
        "wall_s_raw",
        "s",
        "end to end",
        "wall_s without the host-speed correction",
    ),
    m(
        "node_cycles_per_s_raw",
        "node_cycles/s",
        "end to end",
        "node_cycles_per_s without the host-speed correction",
    ),
    m(
        "setup_s_raw",
        "s",
        "end to end",
        "setup_s without the host-speed correction",
    ),
    m(
        "host_speed",
        "ratio",
        "host",
        "median of NOMINAL_S / reference kernel time: 1 at nominal speed, below 1 when \
         the host is slower",
    ),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). A metric a
/// workload does not exercise reads 0 there.
#[rustfmt::skip]
pub const PER_LAYER: [MetricDef; 63] = [
    m("net.step_ns_per_node_cycle", "ns", "netsim::network", "wall_s, node_cycles_per_s on every workload, most on sat_32x32"),
    m("net.ns_per_flit_hop", "ns", "netsim::network", "wall_s, node_cycles_per_s on every workload, most on sat_32x32"),
    m("net.step_ns_p50", "ns", "netsim::network", "wall_s on every workload"),
    m("net.step_ns_p999", "ns", "netsim::network", "wall_s on every workload, most on fault_churn"),
    m("phase.router_share", "ratio", "netsim::network phases", "wall_s on sat_32x32"),
    m("phase.channel_share", "ratio", "netsim::network phases", "wall_s on sat_32x32, less on fig2_closed"),
    m("phase.ni_share", "ratio", "netsim::network phases", "wall_s on fig2_closed"),
    m("phase.merge_share", "ratio", "netsim::network phases", "wall_s on sat_32x32"),
    m("phase.other_share", "ratio", "netsim::network phases", "wall_s on fault_churn"),
    m("phase.profile_overcount", "ratio", "netsim::network phases", "none: sum of profiled phase times / unprofiled net.step time (observer cost)"),
    m("channel.ns_per_link_traversal", "ns", "netsim::channel", "wall_s on sat_32x32, less on fig2_closed"),
    m("router.ns_per_crossbar_traversal", "ns", "routers, core::router", "wall_s on sat_32x32"),
    m("ni.ns_per_flit_injected", "ns", "netsim::ni", "wall_s on fig2_closed"),
    m("work.node_cycles", "count", "routers/core", "none for a speed-only change (must match exactly)"),
    m("work.flit_hops", "count", "routers/core", "none for a speed-only change (must match exactly)"),
    m("work.flits_delivered", "count", "routers/core", "none for a speed-only change (must match exactly)"),
    m("work.packets_delivered", "count", "routers/core", "none for a speed-only change (must match exactly)"),
    m("work.crossbar_traversals", "count", "routers/core", "none for a speed-only change (must match exactly)"),
    m("work.buffer_writes", "count", "routers/core", "none for a speed-only change (must match exactly)"),
    m("work.arbitrations", "count", "routers/core", "none for a speed-only change (must match exactly)"),
    m("work.credits_sent", "count", "routers/core", "none for a speed-only change (must match exactly)"),
    m("router.deflections_per_hop", "ratio", "routers", "wall_s on sat_32x32 (wasted hops)"),
    m("router.drops_per_hop", "ratio", "routers::drop", "wall_s on open_curve (wasted hops)"),
    m("router.credit_stall_share", "ratio", "routers, core::router", "wall_s on sat_32x32"),
    m("afc.backpressured_share", "ratio", "core::router", "wall_s on fig2_closed"),
    m("afc.mode_switches", "count", "core::router", "wall_s on fig2_closed"),
    m("afc.gossip_switch_share", "ratio", "core::router", "wall_s on fig2_closed"),
    m("traffic.pre_cycle_ns_per_cycle", "ns", "traffic", "wall_s on fig2_closed and open_curve"),
    m("traffic.on_delivered_ns_per_packet", "ns", "traffic::closedloop", "wall_s on fig2_closed"),
    m("energy.price_us_per_run", "us", "energy", "wall_s on fig2_closed"),
    m("engine.parallel_cycle_share", "ratio", "netsim::parallel", "wall_s on sat_32x32 only (the gate's decisions)"),
    m("engine.serial_ns_per_node_cycle", "ns", "netsim::network", "wall_s on sat_32x32 only"),
    m("engine.parallel_ns_per_node_cycle", "ns", "netsim::parallel", "wall_s on sat_32x32 only"),
    m("engine.parallel_speedup", "ratio", "netsim::parallel", "wall_s on sat_32x32 only"),
    m("engine.parallel_speedup.serial_first", "ratio", "netsim::parallel", "wall_s on sat_32x32 only (repetitions where the serial half ran first)"),
    m("engine.parallel_speedup.parallel_first", "ratio", "netsim::parallel", "wall_s on sat_32x32 only (repetitions where the parallel half ran first)"),
    m("faults.links_failed", "count", "netsim::faults", "wall_s on fault_churn only"),
    m("faults.links_revived", "count", "netsim::faults", "wall_s on fault_churn only"),
    m("faults.reroutes", "count", "netsim::fault_aware", "wall_s on fault_churn only"),
    m("faults.fault_notices", "count", "netsim::fault_aware (gossip)", "wall_s on fault_churn only"),
    m("faults.detection_latency_mean", "cycles", "netsim::faults", "wall_s on fault_churn only"),
    m("faults.retransmit_copies_per_flit", "ratio", "netsim::ni (retransmit)", "wall_s on fault_churn only"),
    m("faults.delivered_fraction", "ratio", "netsim::ni (retransmit)", "wall_s on fault_churn only"),
    m("faults.degraded_cost_ratio", "ratio", "netsim::faults", "wall_s on fault_churn only: mean net.step ns on degraded / clean injection cycles"),
    m("sweep.job_s_p50", "s", "bench::sweep", "wall_s on fig2_closed and open_curve"),
    m("sweep.job_s_tail", "s", "bench::sweep", "wall_s on fig2_closed and open_curve"),
    m("sweep.job_tail_pct", "%", "bench::sweep", "none: the percentile sweep.job_s_tail reads (ten jobs beyond it)"),
    m("sweep.job_count", "count", "bench::sweep", "none: jobs behind sweep.job_s_p50 and sweep.job_s_tail"),
    m("sweep.worker_idle_share", "ratio", "bench::sweep", "wall_s on fig2_closed and open_curve"),
    m("sweep.pool_hit_ratio", "ratio", "bench::sweep (arena pool)", "peak_rss_mb, wall_s on open_curve"),
    m("sweep.warm_hit_ratio", "ratio", "bench::sweep (warm cache)", "peak_rss_mb, wall_s on open_curve"),
    m("sweep.warm_cache_mb", "MB", "bench::sweep (warm cache)", "peak_rss_mb on open_curve"),
    m("snapshot.save_us_per_run", "us", "netsim::snapshot", "wall_s on open_curve"),
    m("snapshot.kb_per_run", "KB", "netsim::snapshot", "peak_rss_mb on open_curve"),
    m("setup.network_new_us", "us", "netsim::network", "setup_s on every workload, wall_s on open_curve"),
    m("setup.reset_us", "us", "netsim::network", "setup_s on every workload, wall_s on open_curve"),
    m("mem.router_kb_per_node", "KB", "memory", "peak_rss_mb on sat_32x32"),
    m("mem.channel_kb_per_node", "KB", "memory", "peak_rss_mb on sat_32x32"),
    m("mem.ni_kb_per_node", "KB", "memory", "peak_rss_mb on sat_32x32"),
    m("mem.engine_kb_per_node", "KB", "memory", "peak_rss_mb on sat_32x32"),
    m("mem.other_kb_per_node", "KB", "memory", "peak_rss_mb on sat_32x32"),
    m("mem.high_water_mb", "MB", "memory", "peak_rss_mb on sat_32x32"),
    m("trace.overhead_ratio", "ratio", "benchmark tracing", "none: traced / untraced repetition wall time"),
];

/// The `--help` text.
pub fn help() -> String {
    let mut s = String::from(
        "afc-perfbench: end-to-end and per-layer benchmark of the AFC NoC simulator\n\n\
         usage: afc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\n\
         Runs repetitions of one workload, made from the seed, for the given host\n\
         seconds and checks every simulation run (flit and credit audits, budgets,\n\
         drains, digests). --trace 0 prints the end-to-end metrics; --trace 1\n\
         interleaves untraced and traced repetitions and prints the per-layer\n\
         metrics, writing its spans to perfbench/out/. The last line of output is\n\
         one JSON object: {\"correct\", \"attempted\", \"failed\", \"metrics\"}.\n\
         The AFC_* environment knobs are cleared before anything runs.\n\nworkloads:\n",
    );
    for w in &WORKLOADS {
        s.push_str(&format!(
            "  {}\n    runs: {}\n    why:  {}\n",
            w.name, w.what, w.why
        ));
    }
    for (title, list, label) in [
        ("end-to-end metrics (--trace 0)", &END_TO_END[..], ""),
        ("also reported by --trace 0", &REPORTED[..], ""),
        ("per-layer metrics (--trace 1)", &PER_LAYER[..], "moves: "),
    ] {
        s.push_str(&format!("\n{title}:\n"));
        for d in list {
            s.push_str(&format!(
                "  {:<40} {:<14} [{}] {label}{}\n",
                d.name, d.unit, d.layer, d.moves
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric and workload of the catalogue is declared in the
    /// repository's BENCHMARK.json, and vice versa.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        for n in &names {
            assert!(
                json.contains(&format!("\"name\": \"{n}\"")),
                "{n} missing from BENCHMARK.json"
            );
        }
        assert_eq!(json.matches("\"name\":").count(), names.len());
    }
}
