//! Dynamic cross-check of static disjointness certificates: whenever
//! `coyote_analysis::certify` grants a program, the simulator's runtime
//! cross-core conflict check — the only conflict answer a multi-core
//! fused window has — must never fire on it, under any core count or
//! schedule perturbation. The check must also have had something to
//! decide (write-bearing chunks were checked), and on a contended
//! kernel, which the analysis must deny, it must fire — so a zero on a
//! granted program is evidence, not a counter that never moves.

use coyote::{ProfMode, SimConfig, Simulation};
use proptest::prelude::*;

/// Hart-partitioned kernel: each hart read-modify-writes its own
/// 512-byte slice of `buf`, touching 16 dwords at stride 8 — cleanly
/// separable by the static analysis.
const PARTITIONED: &str = "
    .data
    buf: .zero 16384
    .text
    _start:
        csrr t0, mhartid
        la t1, buf
        slli t2, t0, 9
        add t1, t1, t2
        li t3, 16
    loop:
        ld t4, 0(t1)
        addi t4, t4, 1
        sd t4, 0(t1)
        addi t1, t1, 8
        addi t3, t3, -1
        bnez t3, loop
        mv a0, t0
        li a7, 93
        ecall";

/// Contended kernel: every hart read-modify-writes the SAME dword.
/// The write footprints provably intersect, so no certificate may be
/// granted, and the runtime check has real conflicts to find.
const CONTENDED: &str = "
    .data
    hot: .dword 0
    .text
    _start:
        csrr t0, mhartid
        la t1, hot
        li t2, 16
    loop:
        ld t3, 0(t1)
        add t3, t3, t0
        sd t3, 0(t1)
        addi t2, t2, -1
        bnez t2, loop
        li a0, 0
        li a7, 93
        ecall";

/// The static verdict on a program and what the runtime conflict check
/// recorded while running it.
struct CrossCheck {
    granted: bool,
    conflicts: u64,
    checks: u64,
    write_free: u64,
}

/// Certifies `src` for `cores` harts, then runs it counter-profiled
/// (no oracle, so the fused-window path runs) under `perturb`. A
/// counter the run never bumped reads 0.
fn cross_check(src: &str, cores: usize, perturb: u64) -> CrossCheck {
    let program = coyote_asm::assemble(src).expect("assemble");
    let granted = coyote_analysis::certify(&program, cores).granted;
    let config = SimConfig::builder()
        .cores(cores)
        .perturb_seed(perturb)
        .profiling(ProfMode::Counter)
        .build()
        .expect("valid config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    sim.run().expect("run completes");
    let prof = sim.host_prof().expect("profiling is on");
    CrossCheck {
        granted,
        conflicts: prof.counter("window/cross_core_conflict"),
        checks: prof.counter("window/conflict_checks"),
        write_free: prof.counter("window/write_free_checks"),
    }
}

#[test]
fn granted_program_never_conflicts_at_runtime() {
    let run = cross_check(PARTITIONED, 4, 0);
    assert!(
        run.granted,
        "hart-partitioned slices must be statically separable"
    );
    assert_eq!(run.conflicts, 0, "runtime conflict on a certified program");
    assert!(
        run.checks > run.write_free,
        "no write-bearing chunk was checked ({} checks, {} write-free)",
        run.checks,
        run.write_free
    );
}

#[test]
fn denied_program_conflicts_at_runtime() {
    let run = cross_check(CONTENDED, 4, 0);
    assert!(
        !run.granted,
        "provably intersecting write footprints must be denied"
    );
    assert!(run.conflicts > 0, "the runtime conflict check never fired");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn certificate_agrees_with_the_runtime_check(
        perturb in any::<u64>(),
        cores in 2usize..7,
        contended in proptest::bool::ANY,
    ) {
        let src = if contended { CONTENDED } else { PARTITIONED };
        let run = cross_check(src, cores, perturb);
        // Exactly the separable kernel earns the certificate (for a
        // single core there is no other footprint to intersect, so the
        // contended kernel is trivially separable too — cores >= 2
        // keeps the expectation strict).
        prop_assert_eq!(run.granted, !contended);
        if run.granted {
            prop_assert_eq!(run.conflicts, 0, "runtime conflict on a certified program");
            prop_assert!(run.checks > run.write_free, "no write-bearing chunk was checked");
        } else {
            prop_assert!(run.conflicts > 0, "the runtime conflict check never fired");
        }
    }
}
