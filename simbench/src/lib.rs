//! Closed-loop batch benchmark for the Coyote simulator.
//!
//! One process, one thread: each workload runs one simulation after
//! another, and every simulation assembles, builds, populates, runs and
//! verifies one paper kernel under the default [`SimConfig`] that a
//! `coyote-sim` user gets (8 cores per tile, fusion on, certification
//! off). Everything here drives the simulator through its public API;
//! the per-layer spans are taken around those calls, from outside.
//!
//! `NOTES.md` next to this crate explains the workloads, the metrics and
//! how the layer metrics are expected to move the end-to-end ones.

#![forbid(unsafe_code)]

pub mod gauge;

use std::time::Instant;

use coyote::{JsonValue, ProfMode, Report, SimConfig, Simulation, TraceEvent};
use coyote_asm::Program;
use coyote_iss::{DecodedText, MissKind};
use coyote_kernels::workload::Workload;
use coyote_kernels::{MatmulScalar, MatmulVector, SpmvScalar};
use coyote_mem::{Completion, Hierarchy, HierarchyStats, Request};

/// One benchmark workload: a paper kernel at a fixed size on a fixed
/// number of simulated cores.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as given to `--workload`.
    pub name: &'static str,
    /// Simulated cores.
    pub cores: usize,
    /// Kernel input seed used when `--seed` is not given.
    pub default_seed: u64,
    kernel: Kernel,
}

#[derive(Debug, Clone, Copy)]
enum Kernel {
    Matmul,
    Spmv,
    Vmatmul,
}

/// The four workloads; see `NOTES.md` for why each was chosen.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "matmul-1c",
        cores: 1,
        default_seed: 1001,
        kernel: Kernel::Matmul,
    },
    Spec {
        name: "matmul-128c",
        cores: 128,
        default_seed: 1001,
        kernel: Kernel::Matmul,
    },
    Spec {
        name: "spmv-128c",
        cores: 128,
        default_seed: 1002,
        kernel: Kernel::Spmv,
    },
    Spec {
        name: "vmatmul-16c",
        cores: 16,
        default_seed: 2002,
        kernel: Kernel::Vmatmul,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The kernel with inputs generated from `seed`. The simulator only
    /// ever sees these generated inputs, never the seed.
    #[must_use]
    pub fn kernel(&self, seed: u64) -> Box<dyn Workload> {
        match self.kernel {
            Kernel::Matmul => Box::new(MatmulScalar::new(96, seed)),
            Kernel::Spmv => Box::new(SpmvScalar::new(2048, 2048, 0.02, seed)),
            Kernel::Vmatmul => Box::new(MatmulVector::new(96, seed)),
        }
    }

    /// The default configuration at this workload's core count.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        SimConfig::builder()
            .cores(self.cores)
            .cores_per_tile(8)
            .build()
            .expect("the default configuration is valid at every workload's core count")
    }
}

/// The architecturally visible result every pass of one workload must
/// reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// [`Simulation::determinism_digest`].
    pub digest: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired across cores.
    pub retired: u64,
}

impl Outcome {
    /// Checks that `got`, from the pass named `what`, reproduces this
    /// reference outcome.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check(&self, what: &str, got: Outcome) -> Result<(), String> {
        if got == *self {
            Ok(())
        } else {
            Err(format!(
                "{what} outcome {got:?} differs from the reference {self:?}"
            ))
        }
    }
}

/// Host seconds of the three set-up calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// `Workload::program`.
    pub assemble_s: f64,
    /// `Simulation::new`.
    pub new_s: f64,
    /// `Workload::populate`.
    pub populate_s: f64,
}

impl Setup {
    /// The end-to-end set-up time.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.assemble_s + self.new_s + self.populate_s
    }
}

/// One finished, checked simulation.
#[derive(Debug)]
pub struct Sim {
    /// Set-up spans.
    pub setup: Setup,
    /// Host seconds inside `Simulation::run` (or the `step_cycle` loop).
    pub run_s: f64,
    /// `Workload::verify`.
    pub verify_s: f64,
    /// What the run produced.
    pub outcome: Outcome,
    /// The run's report.
    pub report: Report,
    /// The simulation after halt.
    pub sim: Simulation,
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Assembles, builds and populates the simulation, timing each call.
fn set_up(
    kernel: &dyn Workload,
    config: SimConfig,
) -> Result<(Simulation, Program, Setup), String> {
    let start = Instant::now();
    let program = kernel.program(config.cores).map_err(|e| e.to_string())?;
    let assemble_s = seconds_since(start);
    let start = Instant::now();
    let mut sim = Simulation::new(config, &program).map_err(|e| e.to_string())?;
    let new_s = seconds_since(start);
    let start = Instant::now();
    kernel.populate(&program, sim.memory_mut());
    let populate_s = seconds_since(start);
    let setup = Setup {
        assemble_s,
        new_s,
        populate_s,
    };
    Ok((sim, program, setup))
}

/// Checks exit codes, runs the kernel's host oracle and records the
/// outcome.
fn finish(
    kernel: &dyn Workload,
    program: &Program,
    (sim, report): (Simulation, Report),
    setup: Setup,
    run_s: f64,
) -> Result<Sim, String> {
    match report.exit_codes() {
        Some(codes) if codes.iter().all(|&c| c == 0) => {}
        Some(codes) => return Err(format!("non-zero exit codes: {codes:?}")),
        None => return Err("a core did not halt".to_owned()),
    }
    let start = Instant::now();
    kernel
        .verify(program, sim.memory())
        .map_err(|e| format!("kernel oracle: {e}"))?;
    let verify_s = seconds_since(start);
    let outcome = Outcome {
        digest: sim.determinism_digest(),
        cycles: report.cycles,
        retired: report.total_retired(),
    };
    Ok(Sim {
        setup,
        run_s,
        verify_s,
        outcome,
        report,
        sim,
    })
}

/// One simulation through `Simulation::run`, as a `coyote-sim` user
/// runs it.
///
/// # Errors
///
/// Describes an assembly or run error, a non-zero exit code or a kernel
/// oracle mismatch.
pub fn simulate(kernel: &dyn Workload, config: SimConfig) -> Result<Sim, String> {
    let (mut sim, program, setup) = set_up(kernel, config)?;
    let start = Instant::now();
    let report = sim.run().map_err(|e| e.to_string())?;
    let run_s = seconds_since(start);
    finish(kernel, &program, (sim, report), setup, run_s)
}

/// Host seconds of the traced pass's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Set-up spans.
    pub setup: Setup,
    /// `DecodedText::from_program`.
    pub predecode_s: f64,
    /// `coyote_analysis::certify`.
    pub certify_s: f64,
    /// The whole `step_cycle` loop, including reading the cores' fused
    /// counters between calls.
    pub run_s: f64,
    /// Inside calls during which fused retirement rose.
    pub window_s: f64,
    /// Inside the other calls.
    pub cycle_s: f64,
    /// `Workload::verify`.
    pub verify_s: f64,
}

/// The traced pass: the same simulation, driven one
/// `Simulation::step_cycle` call at a time with a span around each
/// call, plus spans around the load-time layers the default
/// configuration does not run on its own (predecode is repeated here
/// outside `Simulation::new`; certification is off by default, so this
/// is what it would cost).
#[derive(Debug)]
struct Traced {
    /// The checked simulation.
    pub sim: Sim,
    /// The spans.
    pub spans: Spans,
    /// Whether the certificate would be granted.
    pub granted: bool,
    /// `step_cycle` calls until halt.
    pub calls: u64,
    /// Calls during which the cores' total `fused_retired` rose.
    pub window_calls: u64,
}

fn fused_total(sim: &Simulation) -> u64 {
    sim.cores()
        .iter()
        .map(coyote_iss::Core::fused_retired)
        .sum()
}

/// Runs the traced pass.
///
/// # Errors
///
/// As [`simulate`], plus exceeding the configured cycle limit.
fn traced(kernel: &dyn Workload, config: SimConfig) -> Result<Traced, String> {
    let (mut sim, program, setup) = set_up(kernel, config)?;
    let start = Instant::now();
    std::hint::black_box(DecodedText::from_program(&program));
    let predecode_s = seconds_since(start);
    let start = Instant::now();
    let granted = coyote_analysis::certify(&program, config.cores).granted;
    let certify_s = seconds_since(start);

    let (mut calls, mut window_calls) = (0u64, 0u64);
    let (mut window_s, mut cycle_s) = (0f64, 0f64);
    let mut fused = fused_total(&sim);
    let run_start = Instant::now();
    loop {
        let start = Instant::now();
        let done = sim.step_cycle().map_err(|e| e.to_string())?;
        let call_s = seconds_since(start);
        calls += 1;
        let now_fused = fused_total(&sim);
        if now_fused > fused {
            window_calls += 1;
            window_s += call_s;
        } else {
            cycle_s += call_s;
        }
        fused = now_fused;
        if done {
            break;
        }
        if sim.cycle() >= config.max_cycles {
            return Err(format!("cycle limit {} exceeded", config.max_cycles));
        }
    }
    let run_s = seconds_since(run_start);
    let report = sim.partial_report();
    let sim = finish(kernel, &program, (sim, report), setup, run_s)?;
    let spans = Spans {
        setup,
        predecode_s,
        certify_s,
        run_s,
        window_s,
        cycle_s,
        verify_s: sim.verify_s,
    };
    Ok(Traced {
        sim,
        spans,
        granted,
        calls,
        window_calls,
    })
}

/// The hierarchy tag the orchestrator gives a miss: issuing core in the
/// high bits, miss kind in the low two. Tags feed the hierarchy's
/// same-cycle arbitration rank, so the replay must reproduce them.
fn request_tag(core: usize, kind: MissKind) -> u64 {
    let code = match kind {
        MissKind::Ifetch => 0u64,
        MissKind::Load => 1,
        MissKind::Store => 2,
        MissKind::Writeback => 3,
    };
    ((core as u64) << 2) | code
}

/// A standalone run of the memory hierarchy on a captured L1-miss
/// stream.
#[derive(Debug)]
struct Replay {
    /// Events drained from the hierarchy's queue.
    pub event_pops: u64,
    /// Host seconds of the replay.
    pub seconds: f64,
    /// Hierarchy counters at the final cycle, which must equal the
    /// simulation's.
    pub stats: HierarchyStats,
}

/// Advances `hierarchy` through every pending event due before `until`
/// (exclusive), one distinct event time per `advance` call.
fn drain_before(hierarchy: &mut Hierarchy, until: u64, out: &mut Vec<Completion>) {
    while let Some(t) = hierarchy.next_event_time() {
        if t >= until {
            break;
        }
        hierarchy.advance(t, out);
        out.clear();
    }
}

/// Replays `misses` (the L1-miss stream of one simulation, in
/// submission order) into a fresh `Hierarchy::new(config.hierarchy())`
/// and stops at `final_cycle`, where the simulation ended. Each cycle's
/// misses are submitted before that cycle's `advance`, as the
/// orchestrator does.
///
/// # Errors
///
/// Returns the hierarchy's configuration error.
fn replay(config: &SimConfig, misses: &[TraceEvent], final_cycle: u64) -> Result<Replay, String> {
    let mut hierarchy = Hierarchy::new(config.hierarchy())?;
    let mut out = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < misses.len() {
        let cycle = misses[i].cycle;
        drain_before(&mut hierarchy, cycle, &mut out);
        while i < misses.len() && misses[i].cycle == cycle {
            let miss = misses[i];
            hierarchy.submit(
                cycle,
                Request {
                    line_addr: miss.line_addr,
                    tile: config.tile_of_core(miss.core),
                    needs_response: miss.kind != MissKind::Writeback,
                    tag: request_tag(miss.core, miss.kind),
                    pc: miss.pc,
                },
            );
            i += 1;
        }
        hierarchy.advance(cycle, &mut out);
        out.clear();
    }
    drain_before(&mut hierarchy, final_cycle + 1, &mut out);
    let seconds = seconds_since(start);
    Ok(Replay {
        event_pops: hierarchy.event_pops(),
        seconds,
        stats: hierarchy.stats(),
    })
}

/// Fused-pipeline counters read as-is from a counter-mode
/// `host_profile_json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfCounts {
    /// Entries into the `fused_window` phase.
    pub fused_windows: u64,
    /// Entries into the `sequential` phase (per-cycle steps).
    pub sequential_cycles: u64,
    /// Median fused chunk length.
    pub chunk_len_p50: u64,
    /// Window aborts: a core's run ended.
    pub abort_run_end: u64,
    /// Window aborts: a run's base register was written.
    pub abort_base_written: u64,
    /// Window aborts: a line was not L1-resident.
    pub abort_line_not_resident: u64,
    /// Window aborts: the scoreboard was busy.
    pub abort_scoreboard_busy: u64,
}

/// Sums the entry counts of every phase named `name` in a phase tree.
fn phase_count(phases: &[JsonValue], name: &str) -> u64 {
    phases
        .iter()
        .map(|p| {
            let own = if p.get("name").and_then(JsonValue::as_str) == Some(name) {
                p.get("count").and_then(JsonValue::as_u64).unwrap_or(0)
            } else {
                0
            };
            let children = p
                .get("children")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[]);
            own + phase_count(children, name)
        })
        .sum()
}

/// Reads [`ProfCounts`] out of a counter-profiled simulation.
///
/// # Errors
///
/// Fails when the simulation was not profiled or the profile lacks a
/// field.
fn prof_counts(sim: &Simulation) -> Result<ProfCounts, String> {
    let profile = coyote::host_profile_json(sim);
    if profile.get("mode").and_then(JsonValue::as_str) != Some("counter") {
        return Err("simulation was not counter-profiled".to_owned());
    }
    let phases = profile
        .get("phases")
        .and_then(JsonValue::as_array)
        .ok_or("host profile has no phase tree")?;
    let field = |path: &[&str]| -> Result<u64, String> {
        let mut value = &profile;
        for key in path {
            value = value
                .get(key)
                .ok_or_else(|| format!("host profile lacks {}", path.join(".")))?;
        }
        value
            .as_u64()
            .ok_or_else(|| format!("host profile field {} is not a count", path.join(".")))
    };
    Ok(ProfCounts {
        fused_windows: phase_count(phases, "fused_window"),
        sequential_cycles: phase_count(phases, "sequential"),
        chunk_len_p50: field(&["chunk_lengths", "p50"])?,
        abort_run_end: field(&["abort_reasons", "run_end"])?,
        abort_base_written: field(&["abort_reasons", "base_written"])?,
        abort_line_not_resident: field(&["abort_reasons", "line_not_resident"])?,
        abort_scoreboard_busy: field(&["abort_reasons", "scoreboard_busy"])?,
    })
}

/// Every count the per-layer pass reports that is a pure function of
/// the simulated schedule. Two rounds of one workload and seed must
/// agree on all of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactCounts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Instructions retired through the fused path.
    pub fused_retired: u64,
    /// `step_cycle` calls until halt.
    pub calls: u64,
    /// Calls during which fused retirement rose.
    pub window_calls: u64,
    /// Whether the disjointness certificate would be granted.
    pub granted: bool,
    /// L1D hits and misses across cores.
    pub l1d_hits: u64,
    /// L1D misses across cores.
    pub l1d_misses: u64,
    /// L1I hits across cores.
    pub l1i_hits: u64,
    /// L1I misses across cores.
    pub l1i_misses: u64,
    /// Requests submitted to the hierarchy.
    pub requests: u64,
    /// Hierarchy events drained.
    pub event_pops: u64,
    /// L2 hits across banks.
    pub l2_hits: u64,
    /// L2 misses across banks.
    pub l2_misses: u64,
    /// Misses merged into an in-flight fill.
    pub merged: u64,
    /// Counter-mode profile.
    pub prof: ProfCounts,
}

impl ExactCounts {
    /// Fraction of retirements through the fused path.
    #[must_use]
    pub fn block_hit_rate(&self) -> f64 {
        ratio(self.fused_retired, self.retired)
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One round of the per-layer pass: an untraced reference simulation,
/// a fusion-off simulation, a counter-profiled simulation, a miss-stream
/// capture replayed into a fresh hierarchy, and the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Untraced run seconds.
    pub untraced_run_s: f64,
    /// Fusion-off run seconds.
    pub step_run_s: f64,
    /// Host seconds of the hierarchy replay.
    pub replay_s: f64,
    /// The traced pass's spans.
    pub traced: Spans,
    /// The exact counts.
    pub counts: ExactCounts,
}

/// Runs one per-layer round, checking that every simulation in it
/// reproduces `reference` and that the replay reproduces the
/// simulation's event pops and hierarchy counters exactly. Adds each
/// simulation it starts to `attempted`.
///
/// # Errors
///
/// Describes the first failed simulation or mismatch.
pub fn round(
    spec: &Spec,
    seed: u64,
    reference: Outcome,
    attempted: &mut u64,
) -> Result<Round, String> {
    let kernel = spec.kernel(seed);
    let kernel = kernel.as_ref();
    let config = spec.config();
    let mut check = |what: &str, outcome: Result<Outcome, String>| {
        *attempted += 1;
        match outcome {
            Ok(got) => reference.check(what, got),
            Err(e) => Err(format!("{what}: {e}")),
        }
    };
    let mut run = |what: &str, config: SimConfig| {
        let sim = simulate(kernel, config);
        check(what, sim.as_ref().map(|s| s.outcome).map_err(Clone::clone))?;
        sim
    };

    let untraced = run("untraced", config)?;
    let step = run(
        "fusion-off",
        SimConfig {
            fusion: false,
            ..config
        },
    )?;
    let profiled = run(
        "counter-profiled",
        SimConfig {
            profiling: ProfMode::Counter,
            ..config
        },
    )?;
    let capture = run(
        "miss-capture",
        SimConfig {
            trace: true,
            ..config
        },
    )?;
    let traced = traced(kernel, config);
    check(
        "traced",
        traced.as_ref().map(|t| t.sim.outcome).map_err(Clone::clone),
    )?;
    let traced = traced?;

    let prof = prof_counts(&profiled.sim)?;
    let misses = capture
        .sim
        .trace()
        .ok_or("miss capture produced no trace")?
        .events();
    let replay = replay(&config, misses, reference.cycles)?;
    let report = &traced.sim.report;
    let event_pops = traced.sim.sim.event_pops();
    if replay.event_pops != event_pops {
        return Err(format!(
            "hierarchy replay drained {} events, the simulation {event_pops}",
            replay.event_pops
        ));
    }
    // `HierarchyStats` has no `PartialEq`; its `Debug` form is what the
    // determinism digest hashes, so it is the comparison that counts.
    let (replayed, simulated) = (
        format!("{:?}", replay.stats),
        format!("{:?}", report.hierarchy),
    );
    if replayed != simulated {
        return Err(format!(
            "hierarchy replay's counters {replayed} differ from the simulation's {simulated}"
        ));
    }
    let sum = |f: &dyn Fn(&coyote::CoreReport) -> u64| report.cores.iter().map(f).sum::<u64>();
    let counts = ExactCounts {
        cycles: report.cycles,
        retired: report.total_retired(),
        fused_retired: report.total_fused_retired(),
        calls: traced.calls,
        window_calls: traced.window_calls,
        granted: traced.granted,
        l1d_hits: sum(&|c| c.l1d.hits),
        l1d_misses: sum(&|c| c.l1d.misses),
        l1i_hits: sum(&|c| c.l1i.hits),
        l1i_misses: sum(&|c| c.l1i.misses),
        requests: report.hierarchy.submitted,
        event_pops,
        l2_hits: report.hierarchy.l2_hits(),
        l2_misses: report.hierarchy.l2_misses(),
        merged: report.hierarchy.merged,
        prof,
    };
    Ok(Round {
        untraced_run_s: untraced.run_s,
        step_run_s: step.run_s,
        replay_s: replay.seconds,
        traced: traced.spans,
        counts,
    })
}
