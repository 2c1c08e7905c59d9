//! The introspection plane's non-negotiable invariant: watching a run
//! is pure observation. For arbitrary machine shapes, kernels and
//! perturbation seeds, a run with a live status stream
//! attached must yield a bit-identical determinism digest and
//! byte-identical metrics JSON to the same run without one — host
//! clock reads inside the emitter must never leak into simulated
//! state. The always-on flight recorder rides the same proof: it is
//! active in every run below, so a recorder that perturbed the
//! schedule would fail these comparisons too.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use coyote::{JsonValue, L2Sharing, SimConfig, Simulation, StatusEmitter};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Machine {
    cores: usize,
    sharing: L2Sharing,
    iterations: u64,
}

fn machine_strategy() -> impl Strategy<Value = Machine> {
    (
        2usize..9,
        prop_oneof![Just(L2Sharing::Shared), Just(L2Sharing::Private)],
        4u64..32,
    )
        .prop_map(|(cores, sharing, iterations)| Machine {
            cores,
            sharing,
            iterations,
        })
}

/// Hart-partitioned load/store kernel (no conflicts) or a contended
/// one-dword kernel (every fused window aborts on a cross-core
/// conflict).
fn kernel(machine: &Machine, contended: bool) -> String {
    if contended {
        format!(
            "
            .data
            hot: .dword 0
            .text
            _start:
                csrr t0, mhartid
                la t1, hot
                li t2, {iters}
            loop:
                ld t3, 0(t1)
                add t3, t3, t0
                sd t3, 0(t1)
                addi t2, t2, -1
                bnez t2, loop
                li a0, 0
                li a7, 93
                ecall",
            iters = machine.iterations,
        )
    } else {
        format!(
            "
            .data
            buf: .zero 16384
            .text
            _start:
                csrr t0, mhartid
                la t1, buf
                slli t2, t0, 9
                add t1, t1, t2
                li t3, {iters}
            loop:
                ld t4, 0(t1)
                addi t4, t4, 1
                sd t4, 0(t1)
                addi t1, t1, 64
                addi t3, t3, -1
                bnez t3, loop
                mv a0, t0
                li a7, 93
                ecall",
            iters = machine.iterations,
        )
    }
}

/// A status file no concurrently running test shares: the harness runs
/// tests on threads of one process, so the pid alone is not unique.
fn temp_status_path() -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join("coyote-status-invariance");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{call}.jsonl", std::process::id()))
}

/// Runs `src` with or without a status stream attached, returning the
/// determinism digest and the metrics JSON bytes with wall time zeroed
/// (host observation, not model output).
fn run(src: &str, machine: &Machine, perturb: u64, status: bool) -> (u64, String) {
    let program = coyote_asm::assemble(src).expect("assemble");
    let config = SimConfig::builder()
        .cores(machine.cores)
        .sharing(machine.sharing)
        .perturb_seed(perturb)
        .telemetry(true)
        .metrics_interval(64)
        .build()
        .expect("valid config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    let path = status.then(temp_status_path);
    if let Some(path) = &path {
        // 1 ms cadence so snapshots genuinely fire mid-run; the point
        // is that firing cannot matter.
        let emitter = StatusEmitter::create(path, 1).expect("status emitter");
        sim.set_status(emitter);
    }
    let mut report = sim.run().expect("run completes");
    report.wall_time = Duration::ZERO;
    let json = coyote::metrics_json(&sim, &report).to_string_pretty();
    if let Some(path) = &path {
        let stream = std::fs::read_to_string(path).expect("status file readable");
        assert!(
            stream.lines().any(|l| !l.trim().is_empty()),
            "status stream never emitted a snapshot"
        );
        let _ = std::fs::remove_file(path);
    }
    (sim.determinism_digest(), json)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: status stream on vs off, partitioned and
    /// contended, perturbed and canonical —
    /// same digest, same metrics bytes. The metrics document never
    /// carries a status section, so no stripping is needed: equality
    /// is over the complete document.
    #[test]
    fn status_stream_never_perturbs_the_simulation(
        machine in machine_strategy(),
        contended in any::<bool>(),
        perturb in prop_oneof![Just(0u64), 1u64..u64::MAX],
    ) {
        let src = kernel(&machine, contended);
        let (off_digest, off_json) = run(&src, &machine, perturb, false);
        let (on_digest, on_json) = run(&src, &machine, perturb, true);
        prop_assert_eq!(
            on_digest, off_digest,
            "status stream leaked into the digest"
        );
        prop_assert_eq!(
            &on_json, &off_json,
            "status stream leaked into the metrics JSON"
        );
    }
}

/// Deterministic regression twin of the proptest: the exact fixed
/// shape the CI smoke uses, checked without proptest's shrinking in
/// the way.
#[test]
fn watched_contended_run_matches_unwatched() {
    let machine = Machine {
        cores: 4,
        sharing: L2Sharing::Shared,
        iterations: 24,
    };
    let src = kernel(&machine, true);
    let (off_digest, off_json) = run(&src, &machine, 0, false);
    let (on_digest, on_json) = run(&src, &machine, 0, true);
    assert_eq!(on_digest, off_digest, "digest diverged");
    assert_eq!(on_json, off_json, "metrics JSON diverged");
}

/// A forced deadlock (lost data fill) must produce a parseable crash
/// dump carrying the stall attribution and the flight-recorder tail.
#[test]
fn deadlock_crash_dump_carries_stalls_and_flight_tail() {
    let src = "
        .data
        x: .dword 7
        .text
        _start:
            la t0, x
            ld t1, 0(t0)
            addi a0, t1, 1
            li a7, 93
            ecall";
    let program = coyote_asm::assemble(src).expect("assemble");
    let config = SimConfig::builder().cores(1).build().expect("config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    sim.debug_inject_lost_fill();
    let err = sim.run().expect_err("lost fill must deadlock");
    let rendered = err.to_string();
    assert!(rendered.contains("deadlock at cycle"), "{rendered}");
    assert!(rendered.contains("blocked on:"), "{rendered}");

    let dump = sim.crash_json("deadlock");
    let text = dump.to_string_pretty();
    let parsed = coyote::parse_json(&text).expect("crash dump parses");
    assert_eq!(
        parsed.get("reason").and_then(JsonValue::as_str),
        Some("deadlock")
    );
    let stalls = parsed
        .get("stalls")
        .and_then(JsonValue::as_array)
        .expect("stalls array");
    assert!(!stalls.is_empty(), "no stall attribution in the dump");
    assert!(
        stalls[0].get("line").is_some() && stalls[0].get("pc").is_some(),
        "stall entries must carry line and pc"
    );
    let flight = parsed.get("flight_recorder").expect("flight recorder");
    let events = flight
        .get("events")
        .and_then(JsonValue::as_array)
        .expect("events array");
    assert!(!events.is_empty(), "flight tail is empty");
    assert!(
        events
            .iter()
            .any(|e| e.get("kind").and_then(JsonValue::as_str) == Some("stall")),
        "flight tail should record the stall"
    );
    assert!(
        parsed.get("mshr_occupancy").is_some(),
        "mshr occupancy missing"
    );
    assert!(parsed.get("cores").is_some(), "core snapshots missing");
}

/// A graceful stop yields a partial report marked `truncated`, and the
/// truncation flag shows up in the metrics document.
#[test]
fn stop_token_truncates_the_run() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let src = "
        _start:
            li t0, 100000
        loop:
            addi t0, t0, -1
            bnez t0, loop
            li a0, 0
            li a7, 93
            ecall";
    let program = coyote_asm::assemble(src).expect("assemble");
    let config = SimConfig::builder().cores(1).build().expect("config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    let stop = Arc::new(AtomicBool::new(true));
    sim.set_stop_handle(Arc::clone(&stop));
    match sim.run() {
        Err(coyote::RunError::Stopped { cycle }) => {
            assert!(cycle >= 1, "stop must land after a completed cycle");
        }
        other => panic!("expected Stopped, got {other:?}"),
    }
    let report = sim.partial_report();
    assert!(report.truncated, "partial report must be marked truncated");
    let doc = coyote::metrics_json(&sim, &report);
    assert_eq!(
        doc.get("report")
            .and_then(|r| r.get("truncated"))
            .map(JsonValue::to_string_compact),
        Some("true".to_owned())
    );
}
