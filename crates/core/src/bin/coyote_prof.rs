//! `coyote-prof`: explain where the *host* time went.
//!
//! Reads a host-profile document — either the standalone file written
//! by `coyote-sim --prof-out FILE` (`FILE.json`) or a full metrics
//! document whose run was profiled — and renders the orchestrator
//! phase tree, the fused-window abort-reason taxonomy, and the
//! chunk-/run-length distributions of the superblock fast path.
//!
//! ```text
//! coyote-prof profile.json [options]
//!
//!   --top N   show at most N abort reasons (default: all non-zero)
//!   --check   verify the document instead of pretty-printing alone:
//!             the phase tree must be non-empty, the abort taxonomy
//!             complete, and the chunk-length quantiles ordered; exit 1
//!             on violation (used as the CI smoke gate)
//! ```

use std::process::ExitCode;

use coyote::JsonValue;

struct Options {
    path: String,
    top: Option<usize>,
    check: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut top = None;
    let mut check = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let v = args.next().ok_or("--top needs a value")?;
                top = Some(v.parse().map_err(|e| format!("--top: {e}"))?);
            }
            "--check" => check = true,
            "--help" | "-h" => {
                println!("usage: coyote-prof <profile.json> [options]");
                println!("  --top N   show at most N abort reasons");
                println!(
                    "  --check   verify phase tree + abort taxonomy + quantiles; exit 1 on failure"
                );
                std::process::exit(0);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        path: path.ok_or("no profile file given (try --help)")?,
        top,
        check,
    })
}

/// Walks `path` into the document, with a readable error on absence.
fn get<'a>(doc: &'a JsonValue, path: &[&str]) -> Result<&'a JsonValue, String> {
    let mut cur = doc;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("profile document missing `{}`", path.join(".")))?;
    }
    Ok(cur)
}

fn as_u64(value: &JsonValue, what: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("`{what}` is not an unsigned integer"))
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Milliseconds with sub-ms resolution for phase rows.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Recursively prints one phase row and its children. In wall mode the
/// magnitude column is time; in counter mode it is the entry count.
fn print_phase(
    phase: &JsonValue,
    depth: usize,
    wall: bool,
    total: u64,
    path: &str,
) -> Result<(), String> {
    let name = get(phase, &["name"])?.as_str().unwrap_or("?");
    let count = as_u64(get(phase, &["count"])?, &format!("{path}.count"))?;
    let total_ns = as_u64(get(phase, &["total_ns"])?, &format!("{path}.total_ns"))?;
    let exclusive_ns = as_u64(
        get(phase, &["exclusive_ns"])?,
        &format!("{path}.exclusive_ns"),
    )?;
    let label = format!("{:indent$}{name}", "", indent = 2 * depth);
    if wall {
        println!(
            "{label:<28} {:>10.2}ms {:>6.1}% {:>10.2}ms {:>12}",
            ms(total_ns),
            percent(total_ns, total),
            ms(exclusive_ns),
            count
        );
    } else {
        println!("{label:<28} {:>12} {:>6.1}%", count, percent(count, total));
    }
    if let Some(children) = get(phase, &["children"])?.as_array() {
        for child in children {
            print_phase(child, depth + 1, wall, total, path)?;
        }
    }
    Ok(())
}

fn run(options: &Options) -> Result<(), String> {
    let text =
        std::fs::read_to_string(&options.path).map_err(|e| format!("{}: {e}", options.path))?;
    let doc = coyote::parse_json(&text).map_err(|e| format!("{}: {e}", options.path))?;

    let profile = get(&doc, &["host_profile"])?;
    if *profile == JsonValue::Null {
        return Err("this run was not profiled (host_profile is null); \
             re-run coyote-sim with --prof-out, or enable SimConfig profiling"
            .to_owned());
    }
    let mode = get(profile, &["mode"])?.as_str().unwrap_or("?");
    let wall = mode == "wall";
    let phases = get(profile, &["phases"])?
        .as_array()
        .ok_or("`host_profile.phases` is not an array")?;
    let event_pops = as_u64(get(profile, &["event_pops"])?, "host_profile.event_pops")?;

    // The denominator for phase shares: total wall nanoseconds (or
    // total entries in counter mode) across the top-level phases.
    let mut total = 0u64;
    for phase in phases {
        total += if wall {
            as_u64(get(phase, &["total_ns"])?, "phases.total_ns")?
        } else {
            as_u64(get(phase, &["count"])?, "phases.count")?
        };
    }

    println!("{}: host profile ({mode} clock)", options.path);
    println!("event-queue pops: {event_pops}");
    println!();
    if wall {
        println!("Phase tree ({:.2}ms profiled)", ms(total));
        println!(
            "{:<28} {:>12} {:>6} {:>12} {:>12}",
            "phase", "total", "share", "exclusive", "entries"
        );
    } else {
        println!("Phase tree (counter mode: entries, share of top-level entries)");
        println!("{:<28} {:>12} {:>6}", "phase", "entries", "share");
    }
    for phase in phases {
        print_phase(phase, 0, wall, total, "host_profile.phases")?;
    }

    // Abort reasons, largest first.
    let abort = get(profile, &["abort_reasons"])?;
    let mut reasons: Vec<(String, u64)> = abort
        .keys()
        .unwrap_or_default()
        .iter()
        .map(|&key| {
            let v = abort.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            (key.to_owned(), v)
        })
        .collect();
    let total_aborts: u64 = reasons.iter().map(|(_, v)| v).sum();
    reasons.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let nonzero = reasons.iter().filter(|(_, v)| *v > 0).count();
    let shown = options.top.unwrap_or(nonzero).min(reasons.len());
    println!();
    println!("Window aborts and validation stops ({total_aborts} total)");
    for (reason, count) in reasons.iter().take(shown.max(1)) {
        println!(
            "  {reason:<22} {count:>12} {:>6.1}%",
            percent(*count, total_aborts)
        );
    }

    // Fused-chunk and run-length distributions.
    let chunks = get(profile, &["chunk_lengths"])?;
    let runs = get(profile, &["run_lengths"])?;
    let dist = |hist: &JsonValue, what: &str| -> Result<(u64, u64, u64, u64), String> {
        Ok((
            as_u64(get(hist, &["count"])?, &format!("{what}.count"))?,
            as_u64(get(hist, &["p50"])?, &format!("{what}.p50"))?,
            as_u64(get(hist, &["p99"])?, &format!("{what}.p99"))?,
            as_u64(get(hist, &["max"])?, &format!("{what}.max"))?,
        ))
    };
    let (c_count, c_p50, c_p99, c_max) = dist(chunks, "chunk_lengths")?;
    let (r_count, r_p50, r_p99, r_max) = dist(runs, "run_lengths")?;
    println!();
    println!("Fused-window chunk lengths: count {c_count}  p50 {c_p50}  p99 {c_p99}  max {c_max}");
    println!("Armed run lengths:          count {r_count}  p50 {r_p50}  p99 {r_p99}  max {r_max}");

    if options.check {
        if phases.is_empty() {
            return Err("phase tree is empty".to_owned());
        }
        for required in [
            "run_end",
            "too_short",
            "scoreboard_busy",
            "pending_fill",
            "line_not_resident",
            "base_written",
            "text_store",
            "address_wrap",
            "cross_core_conflict",
            "text_invalidation",
        ] {
            if abort.get(required).is_none() {
                return Err(format!("abort taxonomy missing `{required}`"));
            }
        }
        if c_p50 > c_p99 || c_p99 > c_max {
            return Err(format!(
                "chunk-length quantiles are unordered: p50 {c_p50}, p99 {c_p99}, max {c_max}"
            ));
        }
        println!();
        println!(
            "check: OK ({} top-level phases; {} abort reasons; {} chunks)",
            phases.len(),
            reasons.len(),
            c_count
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("coyote-prof: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("coyote-prof: {message}");
            ExitCode::FAILURE
        }
    }
}
