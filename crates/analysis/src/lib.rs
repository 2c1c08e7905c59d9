//! Guest-binary static analysis for the Coyote simulator.
//!
//! The simulator's orchestrator checks at *runtime*, every fused
//! window, that the cores retiring together never touch the same
//! byte. This crate proves the same property *statically* when the
//! workload allows: it recovers a control-flow graph from the
//! predecoded text, runs a strided-interval abstract interpretation
//! per core (with `mhartid` concretized, so one SPMD image yields
//! per-core footprints), and tries to prove all cross-core write/any
//! pairs disjoint. A granted certificate is a report about the
//! workload, cross-checked in tests against the runtime check, which
//! must never fire on a certified program; any condition the static
//! story cannot cover (indirect jumps, escapes from text, unresolvable
//! addresses, atomics, vector memory) denies the certificate.
//!
//! The same artifacts power `coyote-check`, a workload linter that
//! reports dead code, misaligned accesses, stores into the text
//! segment, cross-core false sharing and a static stack estimate —
//! see [`check`].
//!
//! Pipeline: [`Cfg`](coyote_isa::Cfg) recovery →
//! [`liveness`] → [`absint`] (per core) → [`footprint`] disjointness
//! tiers → [`certify`] / [`check`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod certify;
pub mod check;
pub mod domain;
pub mod footprint;
pub mod liveness;

pub use absint::{CoreAnalysis, MemAccess, Poison};
pub use certify::{analyze, certify, certify_analysis, Analysis, CertifyOutcome};
pub use check::{check, CheckReport, Diagnostic, Severity};
pub use domain::{AbsVal, StridedSet, UNBOUNDED};
pub use footprint::{disjoint, AccessPattern, Disjoint};
