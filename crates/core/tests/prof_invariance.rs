//! The host-profiler's non-negotiable invariant: profiling is pure
//! observation. For arbitrary machine shapes, kernels and perturbation
//! seeds, a profiled run (wall or counter clock) must yield a
//! bit-identical determinism digest and byte-identical metrics JSON —
//! once the `host_profile` section itself is stripped — to the same
//! run with profiling off. Host clock reads must never leak into
//! simulated state.
//!
//! The same machines and kernels also pin the superblock fast path to
//! its reference: fused windows must match plain per-instruction
//! stepping once the translation-coverage counters are stripped.

use std::time::Duration;

use coyote::{JsonValue, L2Sharing, ProfMode, SimConfig, Simulation};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Machine {
    cores: usize,
    sharing: L2Sharing,
    iterations: u64,
    stride: u64,
}

fn machine_strategy() -> impl Strategy<Value = Machine> {
    (
        2usize..9,
        prop_oneof![Just(L2Sharing::Shared), Just(L2Sharing::Private)],
        4u64..32,
        prop_oneof![Just(8u64), Just(64), Just(72)],
    )
        .prop_map(|(cores, sharing, iterations, stride)| Machine {
            cores,
            sharing,
            iterations,
            stride,
        })
}

/// Hart-partitioned load/store kernel walking its slice at the
/// machine's stride (no cross-core overlap), or a contended one-dword
/// kernel (every fused window aborts on a cross-core conflict).
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
                addi t1, t1, {stride}
                addi t3, t3, -1
                bnez t3, loop
                mv a0, t0
                li a7, 93
                ecall",
            iters = machine.iterations,
            stride = machine.stride,
        )
    }
}

/// Rebuilds the document without its `host_profile` member. Both the
/// unprofiled document (`"host_profile": null`) and profiled ones
/// carry the key, so stripping from *both* sides keeps the comparison
/// honest — a missing key would fail the schema test, not this one.
fn strip_host_profile(doc: JsonValue) -> JsonValue {
    match doc {
        JsonValue::Object(pairs) => JsonValue::Object(
            pairs
                .into_iter()
                .filter(|(key, _)| key != "host_profile")
                .collect(),
        ),
        other => other,
    }
}

/// Runs `src` with the given profiling mode, returning the determinism
/// digest, the metrics JSON bytes with `host_profile` stripped and
/// wall time zeroed (both are host observation, not model output),
/// and the full metrics document for section-level checks.
fn run(
    src: &str,
    machine: &Machine,
    profiling: ProfMode,
    perturb: u64,
) -> (u64, String, JsonValue) {
    let program = coyote_asm::assemble(src).expect("assemble");
    let config = SimConfig::builder()
        .cores(machine.cores)
        .sharing(machine.sharing)
        .perturb_seed(perturb)
        .telemetry(true)
        .metrics_interval(64)
        .profiling(profiling)
        .build()
        .expect("valid config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    let mut report = sim.run().expect("run completes");
    report.wall_time = Duration::ZERO;
    let doc = coyote::metrics_json(&sim, &report);
    let json = strip_host_profile(doc.clone()).to_string_pretty();
    (sim.determinism_digest(), json, doc)
}

/// Runs `src` with superblock fusion on or off (no oracle: fused
/// *windows* are gated off under the oracle, and the point here is
/// comparing window execution against plain per-instruction stepping),
/// returning the digest and metrics JSON bytes.
fn run_fusion(src: &str, machine: &Machine, fusion: bool, perturb: u64) -> (u64, String) {
    let program = coyote_asm::assemble(src).expect("assemble");
    let config = SimConfig::builder()
        .cores(machine.cores)
        .sharing(machine.sharing)
        .fusion(fusion)
        .perturb_seed(perturb)
        .telemetry(true)
        .metrics_interval(64)
        .build()
        .expect("valid config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    let mut report = sim.run().expect("run completes");
    report.wall_time = Duration::ZERO;
    let json = coyote::metrics_json(&sim, &report).to_string_pretty();
    (sim.determinism_digest(), json)
}

/// Drops the translation-coverage counters (`fused_retired`,
/// `block_hit_rate`) and the `fusion` config echo from pretty-printed
/// metrics JSON: they report how much work took the fused path (and
/// whether it was enabled), so they legitimately differ between fusion
/// on and off while every model-output field must not.
fn strip_coverage_counters(json: &str) -> String {
    let stripped: Vec<&str> = json
        .lines()
        .filter(|l| {
            !l.contains("fused_retired")
                && !l.contains("block_hit_rate")
                && !l.contains("\"fusion\"")
        })
        .collect();
    assert!(
        stripped.len() < json.lines().count(),
        "coverage counters missing from metrics JSON — schema drifted"
    );
    stripped.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant: Off vs Wall vs Counter, partitioned and
    /// contended, perturbed and canonical — same digest, same metrics
    /// bytes.
    #[test]
    fn profiling_never_perturbs_the_simulation(
        machine in machine_strategy(),
        contended in any::<bool>(),
        perturb in prop_oneof![Just(0u64), 1u64..u64::MAX],
    ) {
        let src = kernel(&machine, contended);
        let (off_digest, off_json, off_doc) = run(&src, &machine, ProfMode::Off, perturb);
        prop_assert_eq!(
            off_doc.get("host_profile"),
            Some(&JsonValue::Null),
            "unprofiled run must export a null host_profile"
        );
        for mode in [ProfMode::Wall, ProfMode::Counter] {
            let (digest, json, doc) = run(&src, &machine, mode, perturb);
            prop_assert_eq!(
                digest, off_digest,
                "profiling leaked into the digest (mode={:?})",
                mode
            );
            prop_assert_eq!(
                &json, &off_json,
                "profiling leaked into the metrics JSON (mode={:?})",
                mode
            );
            prop_assert!(
                doc.get("host_profile") != Some(&JsonValue::Null),
                "profiled run exported no host_profile section"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_blocks_match_per_instruction_stepping(
        machine in machine_strategy(),
        contended in any::<bool>(),
        perturb in prop_oneof![Just(0u64), 1u64..u64::MAX],
    ) {
        // Reference: fusion off, canonical schedule — the plain
        // per-instruction interleaving the fused run must equal.
        let src = kernel(&machine, contended);
        let (ref_digest, ref_json) = run_fusion(&src, &machine, false, 0);
        let (digest, json) = run_fusion(&src, &machine, true, perturb);
        prop_assert_eq!(
            digest, ref_digest,
            "fused run diverged from per-instruction stepping"
        );
        prop_assert_eq!(
            strip_coverage_counters(&json), strip_coverage_counters(&ref_json),
            "fused metrics JSON diverged"
        );
    }
}

/// Pinned shape a fused-window proptest once shrank to: eight cores
/// on private L2s hammering one dword.
#[test]
fn fused_contended_private_l2_matches_per_instruction_stepping() {
    let machine = Machine {
        cores: 8,
        sharing: L2Sharing::Private,
        iterations: 10,
        stride: 64,
    };
    let src = kernel(&machine, true);
    let (ref_digest, ref_json) = run_fusion(&src, &machine, false, 0);
    let (digest, json) = run_fusion(&src, &machine, true, 0);
    assert_eq!(digest, ref_digest, "fused run diverged");
    assert_eq!(
        strip_coverage_counters(&json),
        strip_coverage_counters(&ref_json),
        "fused metrics JSON diverged"
    );
}

/// Deterministic regression twin of the profiling proptest: the exact
/// fixed shape the CI smoke uses, checked without proptest's shrinking
/// in the way.
#[test]
fn profiled_contended_run_matches_unprofiled() {
    let machine = Machine {
        cores: 4,
        sharing: L2Sharing::Shared,
        iterations: 24,
        stride: 64,
    };
    let src = kernel(&machine, true);
    let (off_digest, off_json, _) = run(&src, &machine, ProfMode::Off, 0);
    for mode in [ProfMode::Wall, ProfMode::Counter] {
        let (digest, json, _) = run(&src, &machine, mode, 0);
        assert_eq!(digest, off_digest, "digest diverged ({mode:?})");
        assert_eq!(json, off_json, "metrics JSON diverged ({mode:?})");
    }
}

/// Runs `src` on `cores` shared-L2 cores under counter-mode profiling
/// and returns the digest and the `host_profile` section.
fn run_counter_profiled(src: &str, cores: usize) -> (u64, JsonValue) {
    let machine = Machine {
        cores,
        sharing: L2Sharing::Shared,
        iterations: 0,
        stride: 0,
    };
    let (digest, _, doc) = run(src, &machine, ProfMode::Counter, 0);
    let profile = doc.get("host_profile").expect("host_profile").clone();
    (digest, profile)
}

fn counter(profile: &JsonValue, name: &str) -> u64 {
    profile
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

/// Pinned mid-window conflict: every core streams loads over a shared
/// range while core 0 alone stores into it at the fourth position of
/// the same run (the other cores store to private slots), so a chunk
/// that spans the store must abort as a cross-core conflict — and the
/// fused run must still equal plain per-instruction stepping.
#[test]
fn write_into_another_cores_read_range_aborts_the_window() {
    let src = "
        .data
        shared: .zero 64
        private: .zero 1024
        .text
        _start:
            csrr t0, mhartid
            la t1, shared
            la s1, private
            slli t2, t0, 6
            add s1, s1, t2
            bnez t0, go
            mv s1, t1
        go:
            li t2, 200
        loop:
            ld t3, 0(t1)
            ld t4, 8(t1)
            add t5, t3, t4
            sd t5, 8(s1)
            addi t2, t2, -1
            bnez t2, loop
            li a0, 0
            li a7, 93
            ecall";
    let machine = Machine {
        cores: 4,
        sharing: L2Sharing::Shared,
        iterations: 0,
        stride: 0,
    };
    let (ref_digest, _) = run_fusion(src, &machine, false, 0);
    let (digest, profile) = run_counter_profiled(src, machine.cores);
    assert_eq!(digest, ref_digest, "fused run diverged");
    let conflicts = profile
        .get("abort_reasons")
        .and_then(|a| a.get("cross_core_conflict"))
        .and_then(JsonValue::as_u64)
        .expect("abort_reasons.cross_core_conflict");
    assert!(
        conflicts > 0,
        "the shared-range store never aborted a window"
    );
}

/// The conflict check's work counters are pure functions of the
/// schedule, and on a read-shared matmul-shaped kernel (every core
/// streams the same `B` column, stores once per row) almost every
/// check is answered without building intervals.
#[test]
fn conflict_check_counters_repeat_and_are_mostly_write_free() {
    let src = "
        .data
        a: .zero 4096
        b: .zero 512
        c: .zero 64
        .text
        _start:
            csrr t0, mhartid
            la t1, a
            slli t2, t0, 9
            add t1, t1, t2
            la t3, b
            la s1, c
            slli t2, t0, 3
            add s1, s1, t2
            li t4, 64
            li t5, 0
        loop:
            ld a1, 0(t1)
            ld a2, 0(t3)
            mul a3, a1, a2
            add t5, t5, a3
            addi t1, t1, 8
            addi t3, t3, 8
            addi t4, t4, -1
            bnez t4, loop
            sd t5, 0(s1)
            li a0, 0
            li a7, 93
            ecall";
    let (digest, first) = run_counter_profiled(src, 8);
    let (again_digest, second) = run_counter_profiled(src, 8);
    assert_eq!(digest, again_digest);
    assert_eq!(first.get("counters"), second.get("counters"));
    let checks = counter(&first, "window/conflict_checks");
    let write_free = counter(&first, "window/write_free_checks");
    assert!(checks > 0, "no multi-core chunk was checked");
    assert!(
        write_free * 10 >= checks * 9,
        "{write_free} of {checks} checks were write-free"
    );
}

/// An access running past the top of memory faults on the
/// per-instruction path at the same cycle, with the same message and
/// machine state, whether fusion is on or off: run validation stops
/// before the wrapping access, so no fused run ever contains it. The
/// warm-up loop makes the top line resident, so without that stop the
/// wrapping load would be validated into a fused run.
#[test]
fn wrapping_access_faults_identically_with_fusion_on_and_off() {
    let src = "
        _start:
            li t0, -16
            li t3, 3
        warm:
            ld a1, 0(t0)
            addi t3, t3, -1
            bnez t3, warm
            addi a2, a2, 1
            addi a3, a3, 1
            ld a0, 12(t0)
            li a7, 93
            ecall";
    let program = coyote_asm::assemble(src).expect("assemble");
    let outcome = |fusion: bool| {
        let config = SimConfig::builder()
            .cores(2)
            .fusion(fusion)
            .build()
            .expect("valid config");
        let mut sim = Simulation::new(config, &program).expect("create sim");
        let err = sim.run().expect_err("the wrapping load faults");
        (err.to_string(), sim.cycle(), sim.determinism_digest())
    };
    let fused = outcome(true);
    assert!(
        fused.0.contains("runs past the top of the address space"),
        "{}",
        fused.0
    );
    assert_eq!(fused, outcome(false));
}
