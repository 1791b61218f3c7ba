//! A seeded interleaving-sensitive mutant protocol for scheduler
//! benchmarking.
//!
//! Randomized testing of *protocol logic* (cil-audit's mutants) is not the
//! same problem as finding *interleaving* bugs: [`RacyTwo`]'s per-thread
//! logic is entirely deterministic — no coins — and its consistency
//! violation manifests only under schedules where one thread races far
//! ahead of the other. Under anything close to round-robin it is perfectly
//! consistent, which makes it a calibrated probe for scheduling strategies:
//! the unbiased random walk almost never produces the required lopsided
//! prefix, while PCT's priority schedules produce it for a constant
//! fraction of seeds (bug depth 1: one ordering constraint).

use cil_registers::access::per_process_registers;
use cil_registers::{ReaderSet, RegId, RegisterSpec};
use cil_sim::{Choice, Op, Protocol, Val};

/// State of one [`RacyTwo`] processor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RacyState {
    /// About to publish `round` in the own register.
    Write {
        /// The processor's input value.
        input: Val,
        /// Current round, `1..=rounds`.
        round: u64,
    },
    /// About to read the peer's round register.
    Read {
        /// The processor's input value.
        input: Val,
        /// Current round, `1..=rounds`.
        round: u64,
    },
    /// Decided.
    Decided(Val),
}

/// The planted mutant: a two-processor round-counter protocol whose
/// decision logic has an interleaving-sensitive bug.
///
/// Each processor runs `rounds` rounds of *write own round counter, read
/// peer's counter*. After the final read it should always decide the
/// default value `Val::A` — but the buggy branch decides its **own input**
/// when the final read shows the peer still at round ≤ 1 ("the peer is so
/// far behind my input must win"). With inputs `(A, B)`, a schedule that
/// lets processor 1 finish essentially solo makes it decide `B` while
/// processor 0 (whenever it finishes) decides `A`: inconsistency, the
/// paper's requirement 1 violated.
///
/// Detection requires one ordering constraint — all of P1's `2·rounds`
/// steps before P0's second write — so the bug has PCT depth 1 and is found
/// by `pct` whenever the initial priorities favor the right thread (≈ half
/// of all seeds), while a uniform random walk needs the same prefix by
/// luck (probability ≈ 2^-(2·rounds+1)).
#[derive(Debug, Clone)]
pub struct RacyTwo {
    rounds: u64,
}

impl RacyTwo {
    /// A mutant running the given number of rounds (`2..=15`; more rounds =
    /// deeper bug = rarer under uniform schedules).
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is outside `2..=15` (the round counter is
    /// declared 4 bits wide).
    pub fn new(rounds: u64) -> Self {
        assert!(
            (2..=15).contains(&rounds),
            "rounds must be in 2..=15, got {rounds}"
        );
        RacyTwo { rounds }
    }
}

impl Default for RacyTwo {
    /// Six rounds: all but invisible to a uniform random walk (≈ 2⁻¹³ per
    /// trial), found by PCT at a constant per-seed rate.
    fn default() -> Self {
        RacyTwo::new(6)
    }
}

impl Protocol for RacyTwo {
    type State = RacyState;
    type Reg = u64;

    fn processes(&self) -> usize {
        2
    }

    fn registers(&self) -> Vec<RegisterSpec<u64>> {
        per_process_registers(2, 0u64, |i| ReaderSet::only([cil_registers::Pid(1 - i)]))
            .into_iter()
            .map(|s| s.with_width(4))
            .collect()
    }

    fn init(&self, _pid: usize, input: Val) -> RacyState {
        RacyState::Write { input, round: 1 }
    }

    fn choose(&self, pid: usize, state: &RacyState) -> Choice<Op<u64>> {
        match state {
            RacyState::Write { round, .. } => Choice::det(Op::Write(RegId(pid), *round)),
            RacyState::Read { .. } => Choice::det(Op::Read(RegId(1 - pid))),
            RacyState::Decided(_) => unreachable!("decided processors take no steps"),
        }
    }

    fn transit(
        &self,
        _pid: usize,
        state: &RacyState,
        _op: &Op<u64>,
        read: Option<&u64>,
    ) -> Choice<RacyState> {
        match state {
            RacyState::Write { input, round } => Choice::det(RacyState::Read {
                input: *input,
                round: *round,
            }),
            RacyState::Read { input, round } => {
                let peer = *read.expect("read phase observes the peer register");
                if *round < self.rounds {
                    Choice::det(RacyState::Write {
                        input: *input,
                        round: round + 1,
                    })
                } else if peer <= 1 {
                    // THE BUG: "the peer never even reached round 2, so my
                    // input wins" — decides the own input instead of the
                    // agreed default.
                    Choice::det(RacyState::Decided(*input))
                } else {
                    Choice::det(RacyState::Decided(Val::A))
                }
            }
            RacyState::Decided(v) => Choice::det(RacyState::Decided(*v)),
        }
    }

    fn decision(&self, state: &RacyState) -> Option<Val> {
        match state {
            RacyState::Decided(v) => Some(*v),
            _ => None,
        }
    }

    fn preference(&self, _pid: usize, state: &RacyState) -> Option<Val> {
        match state {
            RacyState::Write { input, .. } | RacyState::Read { input, .. } => Some(*input),
            RacyState::Decided(v) => Some(*v),
        }
    }

    fn name(&self) -> String {
        format!("racy-two(rounds={})", self.rounds)
    }
}

/// No symmetry elements declared: the planted bug is order-sensitive.
impl cil_mc::Symmetric for RacyTwo {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlledRun, ReplaySchedule};

    #[test]
    fn solo_sprint_schedule_triggers_inconsistency() {
        let p = RacyTwo::default();
        // P1 takes all 12 of its steps first, then P0 runs to completion.
        let schedule = vec![1usize; 12];
        let out = ControlledRun::new(&p, &[Val::A, Val::B])
            .budget(64)
            .run(Box::new(ReplaySchedule::best_effort(schedule)));
        assert!(out.all_decided());
        assert!(!out.consistent(), "decisions: {:?}", out.decisions);
    }

    #[test]
    fn near_round_robin_is_consistent() {
        let p = RacyTwo::default();
        for skew in 0..4usize {
            // Alternation with a small head start for P1.
            let mut schedule = vec![1usize; skew];
            for _ in 0..32 {
                schedule.push(0);
                schedule.push(1);
            }
            let out = ControlledRun::new(&p, &[Val::A, Val::B])
                .budget(64)
                .run(Box::new(ReplaySchedule::best_effort(schedule)));
            assert!(out.all_decided());
            assert!(out.consistent(), "skew {skew}: {:?}", out.decisions);
            assert_eq!(out.agreement(), Some(Val::A));
        }
    }
}
