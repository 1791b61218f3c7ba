//! Asynchronous shared-memory simulation framework for the Chor–Israeli–Li
//! (PODC 1987) reproduction.
//!
//! The paper's model (§2): `n` processors, each a (possibly probabilistic)
//! state automaton, take *steps* — one atomic register operation plus a
//! state transition — in an order chosen by an **adaptive adversary
//! scheduler** with complete knowledge of processor states and register
//! contents, but no foresight into coin flips. This crate provides:
//!
//! * [`protocol`] — the [`Protocol`] trait (pure transition functions with
//!   weighted probabilistic branches), shared by the Monte-Carlo executor
//!   here and the exhaustive model checker in `cil-mc`;
//! * [`rng`] — deterministic, version-pinned randomness;
//! * [`adversary`] — the scheduler suite, from round-robin to adaptive
//!   heuristics;
//! * [`kernel`] — the paper's one [`step`] over a pluggable [`Memory`] and
//!   the [`Verdict`] on a run's decisions, which every engine below shares;
//! * [`executor`] — the serialized run loop ([`Runner`]) with crash
//!   injection ([`faults`]) and trace recording ([`trace`]);
//! * [`sweep`] — the parallel Monte-Carlo harness ([`TrialSweep`]), whose
//!   statistics are independent of worker count by construction;
//! * [`threads`] — real-OS-thread execution over `AtomicU64` registers,
//!   demonstrating the paper's implementability claim.
//!
//! # Example
//!
//! Running a (toy) protocol is three lines; real protocols live in
//! `cil-core`:
//!
//! ```
//! use cil_sim::{Runner, RoundRobin, Val};
//! # use cil_sim::{Protocol, Choice, Op};
//! # use cil_registers::{RegisterSpec, ReaderSet, RegId};
//! # #[derive(Debug, Clone)] struct Decide;
//! # #[derive(Debug, Clone, PartialEq, Eq, Hash)] struct S(Val, bool);
//! # impl Protocol for Decide {
//! #     type State = S; type Reg = u8;
//! #     fn processes(&self) -> usize { 2 }
//! #     fn registers(&self) -> Vec<RegisterSpec<u8>> {
//! #         cil_registers::access::per_process_registers(2, 0, |_| ReaderSet::All)
//! #     }
//! #     fn init(&self, _pid: usize, input: Val) -> S { S(input, false) }
//! #     fn choose(&self, pid: usize, _s: &S) -> Choice<Op<u8>> {
//! #         Choice::det(Op::Write(RegId(pid), 1))
//! #     }
//! #     fn transit(&self, _p: usize, s: &S, _o: &Op<u8>, _r: Option<&u8>) -> Choice<S> {
//! #         Choice::det(S(s.0, true))
//! #     }
//! #     fn decision(&self, s: &S) -> Option<Val> { s.1.then_some(s.0) }
//! # }
//! let protocol = Decide;
//! let outcome = Runner::new(&protocol, &[Val::A, Val::A], RoundRobin::new())
//!     .seed(42)
//!     .run();
//! assert!(outcome.consistent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod executor;
pub mod fairness;
pub mod faults;
pub mod kernel;
pub mod protocol;
pub mod rng;
pub mod sweep;
pub mod threads;
pub mod trace;

pub use adversary::{
    Adversary, BoxedAdversary, FixedSchedule, LaggardFirst, LeaderFirst, RandomScheduler,
    RoundRobin, Solo, SplitKeeper, View,
};
pub use executor::{Halt, RunOutcome, Runner, StopWhen};
pub use fairness::{is_k_fair, starvation_gaps, Alternator, PrefixThen};
pub use faults::CrashPlan;
pub use kernel::{step, Memory, StepRecord, Verdict};
pub use protocol::{Choice, Op, Protocol, Val};
pub use rng::{Rng, ScriptedCoins, SplitMix64, Xoshiro256StarStar};
pub use sweep::{
    resolve_jobs, FailureSample, SweepObserver, SweepStats, Trial, TrialOutcome, TrialResult,
    TrialSweep,
};
pub use threads::{
    run_on_threads, run_on_threads_gated, FreeGate, PackCodec, ThreadGate, ThreadOutcome, WordCodec,
};
pub use trace::{parse_schedule, Event, Trace};
