//! Static certification of the shipped paper kernels: the scalar
//! matmul partitions output rows round-robin by `mhartid`, so the
//! analysis must prove its per-hart write footprints disjoint and
//! grant the certificate; the vector matmul and the `amoadd.d`
//! barrier kernels are out of the analysis's scope (vector memory,
//! atomics) and must be declined with a reason — never mis-certified.
//! A granted certificate is cross-checked against the simulator's
//! runtime conflict check, which must never fire on the same kernel.

use coyote::{ProfMode, SimConfig};
use coyote_analysis::certify;
use coyote_kernels::workload::{run_workload, Workload};
use coyote_kernels::{MatmulScalar, MatmulVector};

#[test]
fn scalar_matmul_earns_a_certificate() {
    // The paper's Figure-3 shape: 16 harts over a 20x20 matrix, rows
    // handed out round-robin so each hart's slice of C (and A) is a
    // strided, provably private set.
    let harts = 16;
    let kernel = MatmulScalar::new(20, 7);
    let program = kernel.program(harts).expect("assembles");
    let outcome = certify(&program, harts);
    assert!(
        outcome.granted,
        "round-robin row partitioning must certify: {:?}",
        outcome.reasons
    );

    // The runtime check must agree, and must have had write-bearing
    // chunks to decide — otherwise its zero would prove nothing.
    let config = SimConfig::builder()
        .cores(harts)
        .profiling(ProfMode::Counter)
        .build()
        .expect("valid config");
    let (_, sim) = run_workload(&kernel, config).expect("matmul verifies");
    let prof = sim.host_prof().expect("profiling is on");
    assert_eq!(
        prof.counter("window/cross_core_conflict"),
        0,
        "runtime conflict on a certified kernel"
    );
    assert!(
        prof.counter("window/conflict_checks") > prof.counter("window/write_free_checks"),
        "no write-bearing chunk was checked"
    );
}

#[test]
fn scalar_matmul_certifies_when_harts_outnumber_rows() {
    // More harts than rows: the surplus harts exit straight away and
    // contribute empty footprints.
    let program = MatmulScalar::new(3, 7).program(8).expect("assembles");
    let outcome = certify(&program, 8);
    assert!(outcome.granted, "{:?}", outcome.reasons);
}

#[test]
fn vector_matmul_is_declined_not_miscertified() {
    // `vle64.v`/`vse64.v` footprints depend on `vsetvli`, which the
    // abstract interpreter does not model; the analysis must poison
    // and decline rather than guess.
    let harts = 4;
    let program = MatmulVector::new(12, 3).program(harts).expect("assembles");
    let outcome = certify(&program, harts);
    assert!(!outcome.granted);
    assert!(
        outcome.reasons.iter().any(|r| r.contains("vector")),
        "declination should name the vector poison: {:?}",
        outcome.reasons
    );
}
