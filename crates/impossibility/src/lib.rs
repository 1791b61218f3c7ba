//! # cil-mc — model checking and exact adversary analysis
//!
//! Mechanized counterparts of the proofs in *"On Processor Coordination
//! Using Asynchronous Hardware"* (Chor, Israeli, Li; PODC 1987):
//!
//! * [`config`] — explicit configurations and the exact probabilistic
//!   successor relation (one entry per schedule choice × coin outcome);
//! * [`compact`] — the exact engine: exhaustive bounded safety checking
//!   (consistency, Theorems 6/8, and nontriviality over *all* schedules and
//!   coins) and the adaptive adversary as a Markov decision process (exact
//!   worst-case expected decision times and survival curves, Theorem 7 and
//!   its Corollary, plus the optimal adversary exported as a scheduler),
//!   over one hash-consed, symmetry-reduced state space;
//! * [`symmetry`] — the protocol automorphisms that reduction uses;
//! * [`valence`] — exact bivalent/univalent classification for
//!   deterministic protocols (Lemmas 1 and 2);
//! * [`bivalence`] — the Theorem 4 construction: an infinite schedule kept
//!   bivalent forever, generated mechanically against any deterministic
//!   victim.
//!
//! # Example: mechanizing Theorem 6 + the Corollary of Theorem 7
//!
//! ```
//! use cil_core::two::TwoProcessor;
//! use cil_mc::{CompactExplorer, CompactMdp, CompactOptions, Objective};
//! use cil_sim::Val;
//!
//! let p = TwoProcessor::new();
//! // Consistency over the COMPLETE configuration space:
//! let report = CompactExplorer::new(&p, &[Val::A, Val::B]).run();
//! assert!(report.safe() && report.complete);
//! // Exact worst-case expected steps for P0 (paper bound: 10):
//! let opts = CompactOptions { target: Some(0), ..CompactOptions::default() };
//! let mdp = CompactMdp::build(&p, &[Val::A, Val::B], &opts).unwrap();
//! let solve = mdp.expected_steps(Objective::StepsOf(0), 1e-12, 100_000, 1);
//! assert!(solve.value <= 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bivalence;
pub mod compact;
pub mod config;
pub mod lookahead;
pub mod symmetry;
pub mod valence;

pub use bivalence::{construct_infinite_schedule, InfiniteScheduleDemo};
pub use compact::{
    CompactExplorer, CompactMdp, CompactOptions, CompactPolicyAdversary, CompactStats, LevelStats,
    Objective, Report, Solve, Violation,
};
pub use config::{is_deterministic, successors, successors_indexed, Config, IndexedSuccessor};
pub use lookahead::{min_decide_prob, LookaheadAdversary};
pub use symmetry::{applicable_elems, automorphism_elems, validate_symmetries, SymElem, Symmetric};
pub use valence::{Valence, ValenceMap};
