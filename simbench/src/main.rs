//! `coyote-simbench`: runs one benchmark workload for a fixed host time
//! and prints its metrics, one per line by name and unit with the
//! sample count, then one JSON object as the last line of standard
//! output.
//!
//! ```text
//! cargo run --offline --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <matmul-1c|matmul-128c|spmv-128c|vmatmul-16c|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs untraced simulations and reports the end-to-end
//! metrics; `--trace 1` runs the per-layer rounds and reports the layer
//! metrics. `--workload all` runs both passes of every workload
//! (ignoring `--trace`) and prefixes each metric with its workload. The
//! exit code is non-zero when any simulation fails its correctness gate.

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use coyote::{parse_json, JsonValue};
use coyote_simbench::gauge::{self, Gauge};
use coyote_simbench::{ratio, round, simulate, spec, ExactCounts, Outcome, Round, Spec, SPECS};

/// Untraced simulations in an end-to-end run, at least.
const MIN_SIMULATIONS: usize = 5;
/// Per-layer rounds in a traced run, at least (two, so the exact counts
/// are compared).
const MIN_ROUNDS: usize = 2;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: coyote-simbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?);
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && spec(&args.workload).is_none() {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        return Err(format!(
            "unknown workload {:?} (expected one of {} or all)",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

/// The median of `values` (mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean of `values`.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest order statistic with at least ten samples beyond it, as
/// `(percentile, value)`; `None` until that statistic lies above the
/// median (21 samples).
fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 21 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// The tail percentile of a timing, for the printed report.
    note: String,
}

/// The printed tail of a timing sample.
fn tail_note(what: &str, values: &[f64]) -> String {
    match tail(values) {
        Some((pct, value)) => format!("  (median; {what}p{pct:.0} {value:.6})"),
        None => "  (median; too few samples for a tail)".to_owned(),
    }
}

impl Metric {
    fn exact(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    /// A timing reported as the median of `values`.
    fn timing(name: &'static str, values: &[f64], unit: &'static str) -> Metric {
        Metric {
            note: tail_note("", values),
            ..Metric::exact(name, median(values), unit, values.len())
        }
    }

    fn print(&self) {
        println!(
            "  {:<30} {:>18.6} {:<12} n={}{}",
            self.name, self.value, self.unit, self.samples, self.note
        );
    }
}

/// Simulations attempted and failed in one run; failures are reported
/// on standard error as they happen.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, workload: &str, message: &str) {
        self.failed += 1;
        eprintln!("{workload}: FAILED: {message}");
    }
}

/// The untimed warm-up simulation, whose outcome every later
/// simulation of the run must reproduce.
fn warm_up(spec: &Spec, seed: u64, tally: &mut Tally) -> Option<Outcome> {
    tally.attempted += 1;
    match simulate(spec.kernel(seed).as_ref(), spec.config()) {
        Ok(sim) => Some(sim.outcome),
        Err(e) => {
            tally.fail(spec.name, &format!("warm-up: {e}"));
            None
        }
    }
}

/// Host memory high-water mark of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Untraced simulations for `seconds`, each followed by one gauge
/// measurement: the end-to-end metrics.
fn end_to_end(spec: &Spec, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let Some(reference) = warm_up(spec, seed, tally) else {
        return Vec::new();
    };
    let kernel = spec.kernel(seed);
    let config = spec.config();
    let mut gauge = Gauge::new();
    gauge.measure(); // warm-up, untimed like the first simulation
    let (mut setup_s, mut run_s, mut gauge_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut attempts = 0;
    while attempts < MIN_SIMULATIONS || start.elapsed().as_secs_f64() < seconds {
        attempts += 1;
        tally.attempted += 1;
        match simulate(kernel.as_ref(), config) {
            Ok(sim) => {
                // A mismatching simulation stays in the sample: it ran.
                setup_s.push(sim.setup.total_s());
                run_s.push(sim.run_s);
                if let Err(e) = reference.check("untraced", sim.outcome) {
                    tally.fail(spec.name, &e);
                }
            }
            Err(e) => tally.fail(spec.name, &e),
        }
        gauge_s.push(gauge.measure());
    }
    let mut metrics = Vec::new();
    if !run_s.is_empty() {
        // How much slower than the reference the host ran, over the
        // whole run: every timing below is divided by it.
        let slowdown = mean(&gauge_s) / gauge::REFERENCE_S;
        // Instructions ÷ mean run seconds at the reference host speed.
        // The raw Figure-3 figure (the median simulation's wall-clock
        // MIPS) and the slow tail are printed beside it.
        let retired = reference.retired as f64;
        let mips = retired / (mean(&run_s) / slowdown) / 1e6;
        metrics.push(Metric {
            note: format!(
                "  (reference-speed; wall-clock median {:.3} MIPS, host slowdown {slowdown:.3}){}",
                retired / median(&run_s) / 1e6,
                tail_note("run seconds ", &run_s)
            ),
            ..Metric::exact("mips", mips, "MIPS", run_s.len())
        });
        metrics.push(Metric {
            note: format!(
                "  (reference-speed; wall-clock median {:.6} s){}",
                median(&setup_s),
                tail_note("wall-clock ", &setup_s)
            ),
            ..Metric::exact("setup_s", median(&setup_s) / slowdown, "s", setup_s.len())
        });
    }
    match peak_rss_mb() {
        Ok(mb) => metrics.push(Metric::exact("peak_rss_mb", mb, "MB", 1)),
        Err(e) => tally.fail(spec.name, &e),
    }
    metrics
}

/// Per-layer rounds for `seconds`: the layer metrics.
fn per_layer(spec: &Spec, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let Some(reference) = warm_up(spec, seed, tally) else {
        return Vec::new();
    };
    let mut rounds = Vec::new();
    let mut first: Option<ExactCounts> = None;
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let r = match round(spec, seed, reference, &mut tally.attempted) {
            Ok(r) => r,
            Err(e) => {
                // A failed round leaves nothing to compare later rounds
                // against; the run has already failed.
                tally.fail(spec.name, &e);
                break;
            }
        };
        match first {
            None => first = Some(r.counts),
            Some(counts) if counts != r.counts => tally.fail(
                spec.name,
                &format!(
                    "exact counts {:?} differ from the first round's {counts:?}",
                    r.counts
                ),
            ),
            Some(_) => {}
        }
        rounds.push(r);
    }
    if rounds.is_empty() {
        return Vec::new();
    }
    layer_metrics(&rounds, first.unwrap_or_default())
}

fn layer_metrics(rounds: &[Round], c: ExactCounts) -> Vec<Metric> {
    let n = rounds.len();
    let times = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let untraced = median(&times(&|r| r.untraced_run_s));
    let traced = median(&times(&|r| r.traced.run_s));
    let step = median(&times(&|r| r.step_run_s));
    let replay = median(&times(&|r| r.replay_s));
    let retired = c.retired as f64;
    let count = |name, value: u64| Metric::exact(name, value as f64, "count", n);
    let derived = |name, value: f64, unit| Metric::exact(name, value, unit, n);
    let span = |name, f: &dyn Fn(&Round) -> f64| Metric::timing(name, &times(f), "s");
    vec![
        span("asm.assemble_s", &|r| r.traced.setup.assemble_s),
        span("iss.predecode_s", &|r| r.traced.predecode_s),
        span("analysis.certify_s", &|r| r.traced.certify_s),
        count("analysis.granted", u64::from(c.granted)),
        span("core.new_s", &|r| r.traced.setup.new_s),
        span("kernels.populate_s", &|r| r.traced.setup.populate_s),
        span("kernels.verify_s", &|r| r.traced.verify_s),
        count("core.calls", c.calls),
        count("core.window_calls", c.window_calls),
        derived(
            "core.cycles_per_call",
            ratio(c.cycles, c.calls),
            "cycles/call",
        ),
        span("core.window_self_s", &|r| r.traced.window_s),
        span("core.cycle_self_s", &|r| r.traced.cycle_s),
        derived("core.trace_overhead", traced / untraced, "ratio"),
        derived("iss.block_hit_rate", c.block_hit_rate(), "ratio"),
        derived("iss.fused_ns_per_inst", untraced * 1e9 / retired, "ns/inst"),
        derived("iss.step_ns_per_inst", step * 1e9 / retired, "ns/inst"),
        derived("iss.fusion_gain", step / untraced, "ratio"),
        count("iss.l1d_accesses", c.l1d_hits + c.l1d_misses),
        derived(
            "iss.l1d_miss_rate",
            ratio(c.l1d_misses, c.l1d_hits + c.l1d_misses),
            "ratio",
        ),
        derived(
            "iss.l1i_miss_rate",
            ratio(c.l1i_misses, c.l1i_hits + c.l1i_misses),
            "ratio",
        ),
        count("mem.requests", c.requests),
        count("mem.event_pops", c.event_pops),
        span("mem.replay_s", &|r| r.replay_s),
        derived(
            "mem.ns_per_request",
            replay * 1e9 / c.requests.max(1) as f64,
            "ns/req",
        ),
        derived("mem.share", replay / untraced, "ratio"),
        derived(
            "mem.l2_miss_rate",
            ratio(c.l2_misses, c.l2_hits + c.l2_misses),
            "ratio",
        ),
        count("mem.merged", c.merged),
        count("sim.cycles", c.cycles),
        count("sim.retired", c.retired),
        derived("sim.ipc", ratio(c.retired, c.cycles), "inst/cycle"),
        count("prof.fused_windows", c.prof.fused_windows),
        count("prof.sequential_cycles", c.prof.sequential_cycles),
        count("prof.chunk_len_p50", c.prof.chunk_len_p50),
        count("prof.abort.run_end", c.prof.abort_run_end),
        count("prof.abort.base_written", c.prof.abort_base_written),
        count(
            "prof.abort.line_not_resident",
            c.prof.abort_line_not_resident,
        ),
        count("prof.abort.scoreboard_busy", c.prof.abort_scoreboard_busy),
    ]
}

/// Runs one pass of one workload, prints its metrics, and returns the
/// result line.
fn run_pass(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> JsonValue {
    let mut tally = Tally::default();
    let metrics = if trace {
        per_layer(spec, seed, seconds, &mut tally)
    } else {
        end_to_end(spec, seed, seconds, &mut tally)
    };
    println!(
        "{} seed={seed} pass={} attempted={} failed={}",
        spec.name,
        if trace { "per-layer" } else { "end-to-end" },
        tally.attempted,
        tally.failed
    );
    for metric in &metrics {
        metric.print();
    }
    if !trace {
        Metric::exact(
            "error_rate",
            ratio(tally.failed, tally.attempted),
            "ratio",
            usize::try_from(tally.attempted).unwrap_or(usize::MAX),
        )
        .print();
    }
    let mut out = JsonValue::object();
    for m in metrics {
        out = out.with(
            m.name,
            JsonValue::object()
                .with("value", m.value)
                .with("unit", m.unit),
        );
    }
    JsonValue::object()
        .with("correct", tally.failed == 0)
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("metrics", out)
}

/// `--workload all`: both passes of every workload, each in a child
/// process of its own so that `peak_rss_mb` is that workload's alone.
/// Prints every child's report and one combined result line whose
/// metric names are prefixed with the workload.
fn run_all(args: &Args) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for spec in SPECS {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child.args(["--workload", spec.name, "--trace", trace]);
            child.args(["--seconds", &args.seconds.to_string()]);
            if let Some(seed) = args.seed {
                child.args(["--seed", &seed.to_string()]);
            }
            let out = child
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().and_then(|line| parse_json(line).ok());
            for line in lines {
                println!("{line}");
            }
            let Some(result) = result else {
                eprintln!("{}: no result line", spec.name);
                correct = false;
                continue;
            };
            correct &=
                out.status.success() && result.get("correct") == Some(&JsonValue::Bool(true));
            attempted += result
                .get("attempted")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            failed += result
                .get("failed")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            if let Some(JsonValue::Object(fields)) = result.get("metrics") {
                for (name, value) in fields {
                    metrics.push((format!("{}/{name}", spec.name), value.clone()));
                }
            }
        }
    }
    Ok(JsonValue::object()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", JsonValue::Object(metrics)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("coyote-simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match spec(&args.workload) {
        Some(spec) => run_pass(
            &spec,
            args.seed.unwrap_or(spec.default_seed),
            args.seconds,
            args.trace,
        ),
        None => match run_all(&args) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("coyote-simbench: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    println!("{}", result.to_string_compact());
    if result.get("correct") == Some(&JsonValue::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
