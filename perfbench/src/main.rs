//! The CliqueMap simulator benchmark: one command that runs one workload,
//! checks its outputs and prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <ads_read|ads_write_wal|pony_ramp|cell950|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--workload all` runs every workload untraced and then traced, each
//! for `--seconds`, and prints one result line per command.
//!
//! The runner never simulates in its own process. It starts this binary
//! again once per run (`--child untraced|traced --sub J`), one child at a
//! time, and reads the child's results from its stdout, so every run's
//! peak RSS belongs to a process that ran that workload once. Run `J`
//! simulates seed `N * K + J mod K`, where `K` is the workload's
//! `seeds_per_sample`; the first `K` runs together form the sample the
//! simulated metrics are computed from. The runner keeps starting runs
//! until `--seconds` of host time would be exceeded; a run that repeats a
//! seed must reproduce its outcome and latency stream bit for bit.
//!
//! * `--trace 0`: untraced runs only; prints the end-to-end metrics.
//!   Host metrics are medians over all runs; simulated metrics come from
//!   the pooled sample of the first `K` runs.
//! * `--trace 1`: an untraced and a traced run of each seed in turn;
//!   prints the per-layer metrics and writes the first traced run's
//!   spans to `perfbench/out/spans-<workload>-seed<N>.json`.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. A failed output check prints `correct: false`
//! and exits 1. See `perfbench/README.md` for the workloads and metrics.

mod clock;
mod metrics;
mod replay;
mod run;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use clock::CALIBRATION_REF_S;
use metrics::{Kind, DECLARED_END_TO_END, END_TO_END, PER_LAYER, REPLAYS};
use run::Metrics;
use workloads::Spec;

/// Never start another run past this much host time, whatever
/// `--seconds` says: the whole command must end within 180 s.
const HARD_LIMIT: Duration = Duration::from_secs(140);

/// Host times a run reports besides its `*_ns` per-call costs. All of
/// them are scaled to the reference machine's speed: multiplied by
/// [`CALIBRATION_REF_S`] over the command's median calibration time.
const HOST_TIMES: &[&str] = &["setup_s", "run_s", "bench.build_s", "bench.populate_s"];

/// GETs the pooled sample needs before `get_p999_us` means anything (ten
/// samples beyond it).
const P999_MIN_GETS: usize = 10_000;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: (traced, sub-seed index).
    child: Option<(bool, u64)>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        workloads::ALL.map(|s| s.name).join("|")
    );
    std::process::exit(2);
}

/// What one invocation runs: one workload in the `--trace` mode, or with
/// `--workload all` every workload untraced and then traced.
fn parse_args() -> Vec<Args> {
    let mut it = std::env::args().skip(1);
    let (mut specs, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    let (mut child, mut sub) = (None, 0);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("bad number {v}")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                specs = Some(match (v.as_str(), workloads::by_name(&v)) {
                    ("all", _) => workloads::ALL.to_vec(),
                    (_, Some(spec)) => vec![spec],
                    _ => usage(&format!("unknown workload {v}")),
                });
            }
            "--seed" => seed = Some(number(value())),
            "--seconds" => seconds = number(value()),
            "--trace" => trace = number(value()) != 0,
            "--child" => {
                child = Some(match value().as_str() {
                    "untraced" => false,
                    "traced" => true,
                    other => usage(&format!("bad --child {other}")),
                })
            }
            "--sub" => sub = number(value()),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let specs = specs.unwrap_or_else(|| usage("--workload is required"));
    let modes = if specs.len() > 1 {
        vec![false, true]
    } else {
        vec![trace]
    };
    let mut out = Vec::new();
    for spec in specs {
        for &trace in &modes {
            out.push(Args {
                seed: seed.unwrap_or(spec.default_seed),
                spec,
                seconds,
                trace,
                child: child.map(|traced| (traced, sub)),
            });
        }
    }
    out
}

fn spans_path(args: &Args) -> String {
    format!(
        "perfbench/out/spans-{}-seed{}.json",
        args.spec.name, args.seed
    )
}

/// Simulation seed of sub-seed `sub`.
fn sim_seed(args: &Args, sub: u64) -> u64 {
    args.seed
        .wrapping_mul(args.spec.seeds_per_sample)
        .wrapping_add(sub)
}

/// Child mode: one run, reported line by line on stdout. Latencies go out
/// as `lat <class> <ns> <count>` runs of the ascending sample.
fn child(args: &Args, traced: bool, sub: u64) {
    let path = spans_path(args);
    let spans = (traced && sub == 0).then_some(path.as_str());
    let out = run::run(args.spec, sim_seed(args, sub), traced, spans);
    println!("attempted {}", out.attempted);
    println!("failed {}", out.failed);
    println!("fingerprint {:016x}", out.fingerprint);
    for (k, v) in &out.metrics {
        println!("metric {k} {v:?}");
    }
    for f in &out.check_failures {
        println!("check {f}");
    }
    for (class, lat) in out.lat.iter().enumerate() {
        for run in lat.chunk_by(|a, b| a == b) {
            println!("lat {class} {} {}", run[0], run.len());
        }
    }
}

/// One child run, parsed.
struct Run {
    sub: u64,
    metrics: Metrics,
    fingerprint: String,
    attempted: u64,
    failed: u64,
    checks: Vec<String>,
    /// Latency (ns) -> count, per op class.
    lat: [BTreeMap<u64, u64>; 2],
    wall: Duration,
}

fn spawn(args: &Args, traced: bool, sub: u64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let start = Instant::now();
    let out = Command::new(exe)
        .args(["--workload", args.spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--child", if traced { "traced" } else { "untraced" }])
        .args(["--sub", &sub.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let wall = start.elapsed();
    if !out.status.success() {
        return Err(format!("a run exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut run = Run {
        sub,
        metrics: Metrics::new(),
        fingerprint: String::new(),
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        lat: Default::default(),
        wall,
    };
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let bad = || format!("unreadable run output line: {line}");
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        match key {
            "attempted" => run.attempted = num(rest)?,
            "failed" => run.failed = num(rest)?,
            "fingerprint" => run.fingerprint = rest.to_string(),
            "metric" => {
                let (name, v) = rest.split_once(' ').ok_or_else(bad)?;
                run.metrics
                    .insert(name.to_string(), v.parse().map_err(|_| bad())?);
            }
            "check" => run.checks.push(rest.to_string()),
            "lat" => {
                let f: Vec<&str> = rest.split(' ').collect();
                let [class, ns, count] = f[..] else {
                    return Err(bad());
                };
                let class = usize::try_from(num(class)?)
                    .ok()
                    .filter(|c| *c < 2)
                    .ok_or_else(bad)?;
                *run.lat[class].entry(num(ns)?).or_default() += num(count)?;
            }
            _ => return Err(bad()),
        }
    }
    Ok(run)
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no runs");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of(runs: &[Run], name: &str) -> f64 {
    median(runs.iter().map(|r| r.metrics[name]).collect())
}

/// Exact nearest-rank percentile of a latency -> count map.
fn percentile(lat: &BTreeMap<u64, u64>, n: u64, p: f64) -> u64 {
    let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0;
    for (&v, &c) in lat {
        seen += c;
        if seen >= rank {
            return v;
        }
    }
    unreachable!("rank {rank} lies within the {n} samples")
}

fn main() -> ExitCode {
    let commands = parse_args();
    if let [args] = &commands[..] {
        if let Some((traced, sub)) = args.child {
            child(args, traced, sub);
            return ExitCode::SUCCESS;
        }
    }
    let mut correct = true;
    for args in &commands {
        match orchestrate(args) {
            Ok(ok) => correct &= ok,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Start runs until the time budget is spent: untraced runs cycling
/// through the sub-seeds (`--trace 0`), or an untraced and a traced run of
/// each sub-seed in turn (`--trace 1`).
fn schedule(args: &Args) -> Result<(Vec<Run>, Vec<Run>), String> {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds).min(HARD_LIMIT);
    let k = args.spec.seeds_per_sample;
    let (mut untraced, mut traced) = (Vec::new(), Vec::<Run>::new());
    let mut slowest = Duration::ZERO;
    for i in 0.. {
        let sub = i % k;
        let step = if args.trace { slowest * 2 } else { slowest };
        // `--trace 0` needs one full cycle for its sample, whatever the
        // budget; after that a run starts only if it fits.
        let needed = !args.trace && i < k;
        let deadline = if needed { HARD_LIMIT } else { budget };
        if i > 0 && started.elapsed() + step > deadline {
            break;
        }
        let run = spawn(args, false, sub)?;
        slowest = slowest.max(run.wall);
        untraced.push(run);
        if args.trace {
            let run = spawn(args, true, sub)?;
            slowest = slowest.max(run.wall);
            traced.push(run);
        }
    }
    Ok((untraced, traced))
}

/// Run the workload for the time budget, check the runs against each
/// other, print the metrics. `Ok(false)` when an output check failed.
fn orchestrate(args: &Args) -> Result<bool, String> {
    let (mut untraced, mut traced) = schedule(args)?;
    let calibration = median(
        untraced
            .iter()
            .chain(&traced)
            .map(|r| r.metrics["bench.calibration_s"])
            .collect(),
    );
    let speed = CALIBRATION_REF_S / calibration;
    for r in untraced.iter_mut().chain(&mut traced) {
        for (name, v) in r.metrics.iter_mut() {
            if HOST_TIMES.contains(&name.as_str()) || name.ends_with("_ns") {
                *v *= speed;
            }
        }
    }
    let k = args.spec.seeds_per_sample as usize;
    let mut checks: Vec<String> = untraced
        .iter()
        .chain(&traced)
        .flat_map(|r| r.checks.clone())
        .collect();
    for r in untraced.iter().chain(&traced) {
        if r.fingerprint != untraced[r.sub as usize].fingerprint {
            checks.push(format!(
                "a rerun of seed {} produced a different outcome and latency stream",
                sim_seed(args, r.sub)
            ));
        }
    }

    let first = &untraced[0];
    let mut out = Metrics::new();
    out.insert("bench.calibration_s".into(), calibration);
    for name in [
        "setup_s",
        "run_s",
        "peak_rss_mb",
        "bench.build_s",
        "bench.populate_s",
        "simnet.rss_after_setup_mb",
    ] {
        out.insert(name.into(), median_of(&untraced, name));
    }
    let (attempted, failed) = if args.trace {
        per_layer(args, &untraced, &traced, &mut out);
        (first.attempted, first.failed)
    } else {
        pooled(&untraced[..k], &mut out, &mut checks)
    };
    checks.sort();
    checks.dedup();
    let correct = checks.is_empty();
    report(
        args,
        &out,
        untraced.len(),
        traced.len(),
        (attempted, failed),
        correct,
        &checks,
    );
    Ok(correct)
}

/// The simulated end-to-end metrics of the pooled sample (one run per
/// sub-seed). Returns (attempted, failed).
fn pooled(sample: &[Run], out: &mut Metrics, checks: &mut Vec<String>) -> (u64, u64) {
    let mut lat: [BTreeMap<u64, u64>; 2] = Default::default();
    for r in sample {
        for (pool, l) in lat.iter_mut().zip(&r.lat) {
            for (&v, &c) in l {
                *pool.entry(v).or_default() += c;
            }
        }
    }
    let us = |ns: u64| ns as f64 / 1e3;
    let [gets, sets] = &lat;
    let (n_get, n_set): (u64, u64) = (gets.values().sum(), sets.values().sum());
    if n_get > 0 {
        out.insert("get_p50_us".into(), us(percentile(gets, n_get, 0.50)));
        out.insert("get_p99_us".into(), us(percentile(gets, n_get, 0.99)));
    }
    if n_get as usize >= P999_MIN_GETS {
        out.insert("get_p999_us".into(), us(percentile(gets, n_get, 0.999)));
    } else {
        checks.push(format!(
            "only {n_get} GETs completed; get_p999_us needs {P999_MIN_GETS}"
        ));
    }
    if n_set > 0 {
        out.insert("set_p50_us".into(), us(percentile(sets, n_set, 0.50)));
        out.insert("set_p99_us".into(), us(percentile(sets, n_set, 0.99)));
    }
    let keys: f64 = sample
        .iter()
        .map(|r| r.metrics["workloads.keys_issued"])
        .sum();
    for name in ["cpu_us_per_op", "wire_bytes_per_op"] {
        let total: f64 = sample
            .iter()
            .map(|r| r.metrics[name] * r.metrics["workloads.keys_issued"])
            .sum();
        out.insert(name.into(), total / keys);
    }
    let attempted: u64 = sample.iter().map(|r| r.attempted).sum();
    let failed: u64 = sample.iter().map(|r| r.failed).sum();
    out.insert(
        "op_error_ratio".into(),
        failed as f64 / attempted.max(1) as f64,
    );
    out.insert("bench.get_samples".into(), n_get as f64);
    out.insert("bench.set_samples".into(), n_set as f64);
    (attempted, failed)
}

/// The per-layer metrics: simulated ones from the first sub-seed's runs,
/// host ones as medians, replay shares against the untraced `run_s`.
fn per_layer(args: &Args, untraced: &[Run], traced: &[Run], out: &mut Metrics) {
    let (first, tfirst) = (&untraced[0], &traced[0]);
    for (name, _, kind) in PER_LAYER {
        let from = match kind {
            Kind::Sim => first,
            Kind::Traced => tfirst,
            Kind::Host => continue,
        };
        if let Some(v) = from.metrics.get(*name) {
            out.insert(name.to_string(), *v);
        }
    }
    let run_s = out["run_s"];
    let per_event: Vec<f64> = untraced
        .iter()
        .map(|r| r.metrics["run_s"] * 1e9 / r.metrics["simnet.events"])
        .collect();
    out.insert("simnet.host_ns_per_event".into(), median(per_event));
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| t.metrics["run_s"] / u.metrics["run_s"])
        .collect();
    out.insert("bench.trace_overhead".into(), median(overhead));
    // Shares are of the first sub-seed's work at the median speeds.
    let next_ns = median_of(traced, "workloads.next_ns");
    let next_s = next_ns * first.metrics["workloads.next_calls"] / 1e9;
    out.insert("workloads.next_ns".into(), next_ns);
    out.insert("workloads.next_share".into(), next_s / run_s);
    let mut attributed = next_s;
    for layer in REPLAYS {
        let ns = median_of(traced, &format!("{layer}_ns"));
        let calls = tfirst.metrics[&format!("{layer}_calls")];
        out.insert(format!("{layer}_ns"), ns);
        out.insert(format!("{layer}_calls"), calls);
        out.insert(format!("{layer}_share"), ns * calls / 1e9 / run_s);
        attributed += ns * calls / 1e9;
    }
    out.insert("bench.unattributed_share".into(), 1.0 - attributed / run_s);
    eprintln!(
        "perfbench: spans of the first traced run in {}",
        spans_path(args)
    );
}

/// Human-readable lines for every metric, then the JSON result line with
/// the metrics `BENCHMARK.json` declares for this mode.
fn report(
    args: &Args,
    out: &Metrics,
    untraced: usize,
    traced: usize,
    (attempted, failed): (u64, u64),
    correct: bool,
    checks: &[String],
) {
    let name = args.spec.name;
    println!(
        "# {name} seed={} runs: {untraced} untraced, {traced} traced",
        args.seed
    );
    for check in checks {
        println!("# CHECK FAILED: {check}");
    }
    let table: Vec<(String, &str, Kind)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(n, u, k)| (n.to_string(), *u, *k))
            .chain(
                REPLAYS
                    .iter()
                    .map(|l| (format!("{l}_calls"), "count", Kind::Sim)),
            )
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u, k)| (n.to_string(), *u, *k))
            .collect()
    };
    for (metric, unit, kind) in &table {
        if let Some(v) = out.get(metric) {
            println!(
                "{name:<14} {metric:<34} {v:>16.6} {unit:<6} {}",
                kind.label()
            );
        }
    }
    let declared: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|d| d.0).collect()
    } else {
        DECLARED_END_TO_END.to_vec()
    };
    let units: BTreeMap<&str, &str> = table.iter().map(|(n, u, _)| (n.as_str(), *u)).collect();
    let body: Vec<String> = declared
        .iter()
        .filter_map(|m| {
            let v = out.get(*m).filter(|v| v.is_finite())?;
            Some(format!(
                "\"{m}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                units[m]
            ))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
