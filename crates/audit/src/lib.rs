//! Static model-compliance analysis and trace auditing for the CIL
//! reproduction (Chor–Israeli–Li, *On Processor Coordination Using
//! Asynchronous Hardware*, PODC 1987).
//!
//! The simulation and model-checking crates assume every
//! [`Protocol`](cil_sim::Protocol) actually inhabits the paper's §2 model: single-writer bounded registers
//! with declared access sets, one atomic operation per step, probabilistic
//! moves as genuine probability measures, and irrevocable decisions. The
//! executor enforces some of this at run time, but only along the schedules
//! it happens to take. This crate closes the gap **statically**:
//!
//! - [`Auditor`] walks each processor's reachable transition graph
//!   symbolically — every coin branch, every observable read value, no
//!   scheduler — and checks the five model clauses (access sets, width
//!   bounds, coin measures, decision stability, purity). See
//!   [`walker`] for the exact semantics and soundness argument.
//! - [`TraceAuditor`] replays a captured `cil-obs` JSONL event stream and
//!   verifies it is what it claims to be: a serialization of atomic
//!   register operations (no stale or phantom reads, declared access sets
//!   respected, decisions irrevocable), assembling vector clocks that
//!   witness the happens-before order. See [`hb`].
//! - [`mutants`] plants one violation per check into the §4 protocol so
//!   tests (and `cil audit mutant:<name>`) can watch each check fire.
//!
//! On top of the walker's graph sit three further static layers:
//!
//! - [`footprint`] computes, per (processor, local state, coin branch), the
//!   exact set of `(register, read|write)` accesses reachable from that
//!   state — the table that lets the DPOR explorer (`cil-conc`) replace its
//!   conservative wake-on-anything fallback with static independence.
//! - [`lints`] runs dataflow passes over that graph — dead writes,
//!   never-read registers, statically stuck states, wasted register width,
//!   fictitious coins — surfaced as `cil lint`, with model-compliant seeded
//!   [`mutants`] proving each pass fires.
//! - [`prove`] proves agreement and validity over the exact product
//!   configuration graph (BMC for refutations with replayable schedules,
//!   reach-set closure as a 1-inductive invariant for proofs) and emits
//!   JSON certificates an independent checker re-verifies — `cil prove`.
//!
//! Diagnostics ([`Violation`]) name the violated paper clause, the
//! processor, the state and the step, so a rejected protocol is debuggable
//! without re-running anything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod footprint;
pub mod hb;
pub mod lints;
pub mod mutants;
pub mod prove;
pub mod walker;

pub use diag::{Clause, Violation};
pub use footprint::{
    footprints, BranchFootprint, FootprintTable, ProcFootprint, RegAccess, StateFootprint,
};
pub use hb::{reg_meta, RegMeta, TraceAnomaly, TraceAuditor, TraceReport};
pub use lints::{lint, lint_with_footprints, LintCode, LintFinding, LintReport};
pub use mutants::{LintMutant, LintMutantTwo, MutantKind, MutantTwo};
pub use prove::{
    check_certificate, BlockReach, CertCheck, Counterexample, ProveOutcome, ProveReport, Prover,
};
pub use walker::{AuditReport, Auditor};
