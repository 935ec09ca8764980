//! End-to-end and per-layer benchmark of the AFC NoC simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs repetitions of one workload, made from the seed, for
//! the given host seconds, and checks every simulation run it makes. With
//! `--trace 0` it reports the end-to-end metrics: medians over the timed
//! repetitions, with times corrected to a nominal host speed by a frozen
//! reference kernel timed before each repetition (`reference.rs`) and also
//! printed uncorrected. With `--trace 1` it interleaves untraced and traced
//! repetitions and reports the per-layer metrics. The benchmark drives only
//! the simulator's public API and changes no simulator code; every span is
//! recorded here, around the calls into each layer. `--help` lists the
//! workloads, why each exists, and every metric with its unit, layer and
//! the end-to-end metric it should move (see `catalog.rs`).
//!
//! The last line of output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the process exits non-zero when any
//! run failed its checks.

mod catalog;
mod layers;
mod reference;
mod run;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use workloads::{Mode, Rep, Traced};

/// The seed whose digests are recorded in `workloads::recorded_digest`.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !catalog::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed needs a non-negative integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Clears the simulator's `AFC_*` environment knobs (`AFC_BENCH_THREADS`,
/// `AFC_FULL_SCAN`, `AFC_SIM_THREADS`, `AFC_SWEEP_POOL`,
/// `AFC_SWEEP_SELFCHECK`, `AFC_SWEEP_WARM_CACHE`,
/// `AFC_SWEEP_WARM_CACHE_BYTES`, `AFC_WARM_CACHE_DIR`, and any later one):
/// each silently switches an engine path. Runs before any other thread
/// exists. Returns the names cleared.
fn pin_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("AFC_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// First line of `program args`' standard output, or "unknown".
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the simulator's sources and manifests, in path order: the
/// revision of the code under test even where the checkout is not a git
/// repository.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    afc_netsim::snapshot::fnv1a64(&bytes)
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs attempted and failed, with a line per failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

impl Tally {
    /// Counts `rep`'s runs; a repetition whose runs all passed but whose
    /// digest differs from `expected` fails every run.
    fn add(&mut self, rep: &Rep, expected: u64, label: &str) {
        self.attempted += rep.runs;
        if rep.failures.is_empty() && rep.digest != expected {
            self.failed += rep.runs;
            self.lines.push(format!(
                "{label}: digest {:016x} differs from {expected:016x}",
                rep.digest
            ));
        }
        self.failed += (rep.failures.len() as u64).min(rep.runs);
        self.lines
            .extend(rep.failures.iter().map(|f| format!("{label}: {f}")));
    }
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints per-name span totals of the unprofiled traced repetitions.
fn print_span_summary(reps: &[Traced]) {
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for t in reps {
        for (s, self_ns) in t.trace.spans.iter().zip(t.trace.self_ns()) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
            if let Some(f) = &s.fold {
                for (name, ns) in [
                    ("  traffic.pre_cycle", f.pre_cycle_ns),
                    ("  net.step", f.step_ns),
                    ("  traffic.on_delivered", f.on_delivered_ns),
                ] {
                    let e = by_name.entry(name).or_default();
                    e.0 += f.cycles;
                    e.1 += ns;
                    e.2 += ns;
                }
            }
        }
    }
    println!("spans (unprofiled traced repetitions; per-cycle spans folded):");
    println!(
        "  {:<26} {:>10} {:>12} {:>12}",
        "name", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in by_name {
        println!(
            "  {name:<26} {count:>10} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", catalog::help());
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", catalog::help());
            std::process::exit(2);
        }
    };
    let cleared = pin_environment();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    afc_bench::sweep::set_threads(host_cores);

    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = bench_dir.parent().unwrap_or(bench_dir);
    let out_dir = bench_dir.join("out");
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    let epoch = Instant::now();
    let mut wl = workloads::build(&args.workload, args.seed, host_cores, epoch, &scratch)
        .expect("workload names are validated by parse_args");

    let provenance = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("host_cores", host_cores.to_string()),
        ("rustc", command_line("rustc", &["--version"], repo)),
        ("git_rev", command_line("git", &["rev-parse", "HEAD"], repo)),
        ("source_fnv", format!("{:016x}", source_digest(repo))),
        (
            "env_cleared",
            if cleared.is_empty() {
                "none".to_string()
            } else {
                cleared.join(",")
            },
        ),
        (
            "model",
            "simulated numbers other than fig2_err are unvalidated".to_string(),
        ),
    ];
    for (k, v) in &provenance {
        println!("{k:<14} {v}");
    }

    // An untimed first repetition fixes the reference digest and lets
    // lazy set-up finish before anything is timed.
    let mut tally = Tally::default();
    let first = wl.rep(Mode::Untraced);
    let reference = first.digest;
    tally.add(&first, reference, "reference");
    if args.seed == DEFAULT_SEED && first.failures.is_empty() {
        let recorded = workloads::recorded_digest(&args.workload).expect("known workload");
        if reference != recorded {
            tally.failed += first.runs;
            tally.lines.push(format!(
                "reference: digest {reference:016x} differs from the value recorded for seed \
                 {DEFAULT_SEED}, {recorded:016x}"
            ));
        }
    }
    println!("digest         {reference:016x}");

    let metrics: Vec<(&str, &str, f64)>;
    if !args.trace {
        // A traced replay checks the step-by-step path against the public
        // runners, and audits runs the runners keep to themselves.
        let cross = wl.rep(Mode::Traced {
            profile: false,
            flip: false,
        });
        tally.add(&cross, reference, "traced replay");
        let start = Instant::now();
        let mut reps = Vec::new();
        loop {
            // Host speed right before the repetition (see reference.rs).
            let speed = reference::NOMINAL_S / reference::seconds();
            let r = wl.rep(Mode::Untraced);
            tally.add(&r, reference, "repetition");
            reps.push((r, speed));
            if start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        let med =
            |f: &dyn Fn(&Rep, f64) -> f64| median(reps.iter().map(|(r, s)| f(r, *s)).collect());
        let values = [
            med(&|r, s| r.body_s * s),
            med(&|r, s| r.node_cycles as f64 / (r.body_s * s)),
            med(&|r, s| r.setup_s * s),
            peak_rss_mb(),
        ];
        metrics = catalog::END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name, d.unit, v))
            .collect();
        let times: Vec<String> = reps
            .iter()
            .map(|(r, s)| format!("{:.4}/{s:.3}", r.body_s))
            .collect();
        println!(
            "repetitions    {} (raw wall_s / host speed, each: {})",
            reps.len(),
            times.join(" ")
        );
        let reported = [
            Some(tally.failed as f64 / tally.attempted.max(1) as f64),
            reps.iter().find_map(|(r, _)| r.fig2_err),
            Some(med(&|r, _| r.body_s)),
            Some(med(&|r, _| r.node_cycles as f64 / r.body_s)),
            Some(med(&|r, _| r.setup_s)),
            Some(med(&|_, s| s)),
        ];
        let lines = catalog::END_TO_END
            .iter()
            .zip(values.map(Some))
            .chain(catalog::REPORTED.iter().zip(reported));
        for (d, v) in lines {
            if let Some(v) = v {
                println!("{:<40} {v:>16.6} {:<14} {}", d.name, d.unit, d.moves);
            }
        }
    } else {
        let (mut untraced, mut plain, mut profiled) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        let mut k = 0;
        loop {
            match k % 3 {
                0 => {
                    let flip = plain.len() % 2 == 1;
                    let r = wl.rep(Mode::Traced {
                        profile: false,
                        flip,
                    });
                    tally.add(&r, reference, "traced");
                    plain.push(r);
                }
                1 => {
                    let r = wl.rep(Mode::Untraced);
                    tally.add(&r, reference, "untraced");
                    untraced.push(r);
                }
                _ => {
                    let flip = profiled.len() % 2 == 1;
                    let r = wl.rep(Mode::Traced {
                        profile: true,
                        flip,
                    });
                    tally.add(&r, reference, "profiled");
                    profiled.push(r);
                }
            }
            k += 1;
            // At least both engine orders unprofiled, one untraced and one
            // profiled repetition.
            if k >= 4 && start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        let traced_s = median(
            plain
                .iter()
                .map(|r| r.traced.as_ref().map_or(0.0, |t| t.replay_s))
                .collect(),
        );
        let untraced_s = median(untraced.iter().map(|r| r.body_s).collect());
        let plain: Vec<Traced> = plain.into_iter().filter_map(|r| r.traced).collect();
        let profiled: Vec<Traced> = profiled.into_iter().filter_map(|r| r.traced).collect();
        let values = layers::compute(&plain, &profiled, traced_s / untraced_s);
        metrics = catalog::PER_LAYER
            .iter()
            .map(|d| {
                let v = *values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} is computed", d.name));
                (d.name, d.unit, v)
            })
            .collect();
        print_span_summary(&plain);
        println!(
            "per-layer metrics ({} traced, {} profiled, {} untraced repetitions):",
            plain.len(),
            profiled.len(),
            untraced.len()
        );
        for (d, (_, _, v)) in catalog::PER_LAYER.iter().zip(&metrics) {
            println!(
                "  {:<40} {v:>16.6} {:<8} [{}] moves {}",
                d.name, d.unit, d.layer, d.moves
            );
        }
        let fields: Vec<String> = provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace('"', "'")))
            .collect();
        let mut jsonl = format!("{{\"provenance\":{{{}}}}}\n", fields.join(","));
        for (i, t) in plain.iter().chain(&profiled).enumerate() {
            t.trace.write_jsonl(i, &mut jsonl);
        }
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, jsonl)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    for line in &tally.lines {
        println!("FAILED {line}");
    }
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
