//! Host-time benchmark of the Blueprint toolchain: the CBD loop (wiring edit
//! → compile → boot) and the `simrt` simulator that stands in for the
//! testbed, over four workloads, plus a traced run that breaks the time down
//! by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hotel_steady|social_writes|overload_storm|cbd_iterate|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run repeats the workload (specs → compile → boot → traffic →
//! report) on one thread for `--seconds` host seconds and reports medians
//! over the repetitions. The last line of standard output is one JSON
//! object: with `--trace 0` the end-to-end metrics (`wall_s`, `setup_s`,
//! `sim_req_per_s`, `peak_rss_mb`), with `--trace 1` the per-layer metrics
//! from spans the benchmark records around its calls into each layer. See
//! `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod checks;
mod probe;
mod report;
mod traffic;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use checks::Checks;
use probe::Probe;
use report::{identity_metrics, layer_metrics, median, Metric};
use workloads::Iteration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Repetitions a run makes at least, however long they take.
const MIN_ITERATIONS: usize = 3;
/// Set-up samples a run takes at most: after the repetitions, set-up-only
/// repetitions add samples for up to a tenth of `--seconds`.
const SETUP_SAMPLES: usize = 200;
/// Traced iterations a `--trace 1` run makes at most.
const MAX_TRACED: usize = 3;

const USAGE: &str = "usage: perfbench --workload <hotel_steady|social_writes|overload_storm|\
cbd_iterate|all> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One iteration plus its host wall time.
struct Timed {
    wall_s: f64,
    it: Iteration,
}

/// Runs `name` repeatedly for `seconds`. In trace mode iterations alternate
/// untraced / traced (the untraced ones are the overhead baseline).
fn measure(name: &str, args: &Args, probe: &mut Probe, checks: &mut Checks) -> Vec<(bool, Timed)> {
    let start = Instant::now();
    let mut out: Vec<(bool, Timed)> = Vec::new();
    loop {
        // Spans of every traced iteration stay in memory, so a traced run
        // traces at most `MAX_TRACED` of them and spends the rest of its
        // time on untraced ones.
        let n_traced = out.iter().filter(|(traced, _)| *traced).count();
        let traced = args.trace && out.len() % 2 == 1 && n_traced < MAX_TRACED;
        probe.begin_iteration(traced);
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            workloads::iterate(name, args.seed, probe, checks)
        }));
        let wall_s = t0.elapsed().as_secs_f64();
        let it = match run {
            Ok(Ok(it)) => it,
            Ok(Err(e)) => {
                checks.check(&format!("{name}: iteration runs"), false, || e);
                break;
            }
            Err(_) => {
                checks.check(&format!("{name}: iteration runs"), false, || "panicked");
                break;
            }
        };
        if let Some((_, first)) = out.first() {
            checks.check(
                &format!("{name}: model outputs repeat exactly for one seed"),
                first.it.stats == it.stats && first.it.anomalies == it.anomalies,
                || {
                    format!(
                        "checksum {:016x} vs {:016x}",
                        first.it.stats.checksum, it.stats.checksum
                    )
                },
            );
        }
        out.push((traced, Timed { wall_s, it }));
        let enough = out.len() >= MIN_ITERATIONS.max(if args.trace { 4 } else { 0 });
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    out
}

fn identity_line(name: &str, it: &Iteration) -> String {
    let mut line = format!("perfbench: {name} checksum={:016x}", it.stats.checksum);
    for m in identity_metrics(&it.stats) {
        line.push_str(&format!(" {}={}", m.name, m.value));
    }
    if let Some(a) = it.anomalies {
        line.push_str(&format!(" oracle[{a}]"));
    }
    line
}

/// End-to-end metrics of an untraced run.
fn end_to_end(
    name: &str,
    args: &Args,
    runs: &[(bool, Timed)],
    probe: &mut Probe,
    checks: &mut Checks,
) -> Vec<Metric> {
    let walls: Vec<f64> = runs.iter().map(|(_, t)| t.wall_s).collect();
    let rates: Vec<f64> = runs
        .iter()
        .map(|(_, t)| t.it.traffic_completed as f64 / t.it.traffic_s)
        .collect();
    let mut setups: Vec<f64> = runs.iter().map(|(_, t)| t.it.setup_s).collect();
    let extra = Instant::now();
    while setups.len() < SETUP_SAMPLES && extra.elapsed().as_secs_f64() < args.seconds / 10.0 {
        match workloads::setup_only(name, args.seed, probe) {
            Some(Ok(s)) => setups.push(s),
            Some(Err(e)) => {
                checks.check(&format!("{name}: set-up runs"), false, || e);
                break;
            }
            None => break,
        }
    }
    vec![
        Metric::new("wall_s", median(&walls), "s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("sim_req_per_s", median(&rates), "1/s"),
        Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB"),
    ]
}

/// Per-layer metrics of a traced run: medians over the traced iterations.
fn per_layer(
    args: &Args,
    name: &str,
    runs: &[(bool, Timed)],
    probe: &Probe,
    checks: &mut Checks,
) -> Vec<Metric> {
    let totals = probe.totals();
    let traced: Vec<&Timed> = runs.iter().filter(|(t, _)| *t).map(|(_, t)| t).collect();
    let per_iter: Vec<Vec<Metric>> = traced
        .iter()
        .zip(&totals)
        .map(|(t, tot)| {
            let mut m = layer_metrics(tot, &t.it);
            m.extend(identity_metrics(&t.it.stats));
            m
        })
        .collect();
    let Some(first) = per_iter.first() else {
        return Vec::new();
    };
    let mut out: Vec<Metric> = (0..first.len())
        .map(|i| {
            let values: Vec<f64> = per_iter.iter().map(|ms| ms[i].value).collect();
            Metric::new(first[i].name.clone(), median(&values), first[i].unit)
        })
        .collect();
    let walls = |want: bool| -> Vec<f64> {
        runs.iter()
            .filter(|(t, _)| *t == want)
            .map(|(_, t)| t.wall_s)
            .collect()
    };
    let overhead = median(&walls(true)) / median(&walls(false));
    out.insert(
        out.iter()
            .position(|m| m.name.starts_with("sim."))
            .unwrap_or(out.len()),
        Metric::new("bench.trace_overhead", overhead, "ratio"),
    );
    let path = PathBuf::from(format!(".bench_out/spans-{name}-seed{}.tsv", args.seed));
    match probe.write_tsv(&path) {
        Ok(()) => println!("perfbench: spans written to {}", path.display()),
        Err(e) => checks.check("spans are written out", false, || e),
    }
    out
}

fn run_workload(name: &str, args: &Args) -> (Checks, Vec<Metric>) {
    let mut checks = Checks::default();
    let mut probe = Probe::new();
    let runs = measure(name, args, &mut probe, &mut checks);
    if let Some((_, last)) = runs.last() {
        println!("{}", identity_line(name, &last.it));
    }
    if runs.is_empty() {
        return (checks, Vec::new());
    }
    let metrics = if args.trace {
        per_layer(args, name, &runs, &probe, &mut checks)
    } else {
        end_to_end(name, args, &runs, &mut probe, &mut checks)
    };
    println!(
        "perfbench: {name} iterations={} checks={} failed={}",
        runs.len(),
        checks.attempted,
        checks.failed
    );
    for m in &metrics {
        println!("perfbench: {name} {} = {} {}", m.name, m.value, m.unit);
    }
    (checks, metrics)
}

fn main() -> ExitCode {
    // Time the default sequential engine and queue whatever the caller's
    // shell holds. Runs before any thread exists.
    std::env::remove_var("BLUEPRINT_THREADS");
    std::env::remove_var("BLUEPRINT_EVQ");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={nproc} rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::git_revision()
    );
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = Checks::default();
    let mut metrics = Vec::new();
    for name in &names {
        let (checks, ms) = run_workload(name, &args);
        total.absorb(&checks);
        if names.len() == 1 {
            metrics = ms;
        } else {
            metrics.extend(
                ms.into_iter()
                    .map(|m| Metric::new(format!("{name}.{}", m.name), m.value, m.unit)),
            );
        }
    }
    println!(
        "{}",
        report::json(total.attempted.max(1), total.failed, &metrics)
    );
    ExitCode::SUCCESS
}
