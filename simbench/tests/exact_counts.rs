//! Every exact count the per-layer pass reports is a pure function of
//! the simulated schedule, measured from outside the simulator: two
//! rounds of one workload and seed must agree on all of them, and every
//! simulation in a round must reproduce the untraced outcome. Each round
//! also cross-checks the hierarchy replay against the simulation's event
//! pops.
//!
//! The kernels run at paper scale, so the package's test profile is
//! optimised (see `Cargo.toml`).

use coyote_simbench::{round, simulate, spec};

fn two_rounds_agree(name: &str) {
    let spec = spec(name).expect("known workload");
    let seed = spec.default_seed;
    let reference = simulate(spec.kernel(seed).as_ref(), spec.config())
        .expect("reference simulation passes its gate")
        .outcome;
    let mut attempted = 0;
    let first =
        round(&spec, seed, reference, &mut attempted).expect("first round passes its gates");
    let second =
        round(&spec, seed, reference, &mut attempted).expect("second round passes its gates");
    assert_eq!(first.counts, second.counts, "{name}: exact counts differ");
    assert_eq!(first.counts.cycles, reference.cycles);
    assert_eq!(first.counts.retired, reference.retired);
    assert_eq!(attempted, 10, "five simulations per round");
}

#[test]
fn matmul_1c_counts_repeat() {
    two_rounds_agree("matmul-1c");
}

#[test]
fn matmul_128c_counts_repeat() {
    two_rounds_agree("matmul-128c");
}

#[test]
fn spmv_128c_counts_repeat() {
    two_rounds_agree("spmv-128c");
}

#[test]
fn vmatmul_16c_counts_repeat() {
    two_rounds_agree("vmatmul-16c");
}
