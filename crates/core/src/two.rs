//! The two-processor randomized coordination protocol (§4, Figure 1).
//!
//! Each processor `P_i` owns one shared register `r_i` (readable only by the
//! other processor — bounded, single-writer, single-reader, holding one of
//! three values ⊥/a/b) in which it publishes its currently preferred
//! decision value. The protocol for `P_0` (Fig. 1 of the paper):
//!
//! ```text
//! (0) write r0 <- input
//!     repeat
//! (1)     read v0 <- r1
//!         if v0 = r0 or v0 = ⊥  then decide r0 and quit
//! (2)     else flip an unbiased coin:
//!             heads -> rewrite r0 <- r0
//!             tails -> write   r0 <- v0
//!     until decision is made
//! ```
//!
//! The "rewrite r0 ← r0" on heads is genuinely performed (the paper notes it
//! is superfluous but keeps it for the analysis; we keep it so step counts
//! match the paper's *expected ≤ 10 steps per processor*).
//!
//! Correctness (paper Theorems 6 & 7): **consistency** — if `P_0` decides
//! `v` it has just read `r_1 = v` while `r_0 = v`, and `r_0` never changes
//! afterwards, so `P_1`'s next read of `r_0` (which it must perform before
//! deciding) returns `v` too; **randomized termination** — from any
//! configuration, with probability ≥ 1/4 the next two write steps make
//! `r_0 = r_1`, after which whoever reads next decides; no adaptive
//! adversary can prevent this because the coin is flipped *inside* the write
//! step. The `cil-mc` crate verifies both mechanically: exhaustive
//! consistency over the full (finite) configuration space, and the exact
//! optimal-adversary expected step count via MDP value iteration.

use cil_registers::{ReaderSet, RegId, RegisterSpec};
use cil_sim::{Choice, Op, Protocol, Val};

/// Register contents: the paper's ⊥ is `None`.
pub type TwoReg = Option<Val>;

/// Internal state of one processor of the two-processor protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TwoState {
    /// About to perform line (0): the initial write of the input.
    Start {
        /// The processor's input value.
        input: Val,
    },
    /// Program counter at line (1): about to read the other register.
    /// `mine` is the value currently in this processor's own register.
    AboutToRead {
        /// Contents of this processor's own register.
        mine: Val,
    },
    /// Program counter at line (2): about to write, with the coin deciding
    /// between rewriting `mine` and adopting `seen`.
    AboutToWrite {
        /// Contents of this processor's own register.
        mine: Val,
        /// The disagreeing value just read from the other register.
        seen: Val,
    },
    /// Decision state: the output register `o_P` holds `value`.
    Decided {
        /// The irrevocable output value.
        value: Val,
    },
}

/// The §4 protocol. Works for any input values (the decision logic only
/// compares for equality); the paper's analysis uses the binary set `{a,b}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoProcessor;

impl TwoProcessor {
    /// Creates the protocol.
    pub fn new() -> Self {
        TwoProcessor
    }

    #[inline]
    fn own_reg(pid: usize) -> RegId {
        RegId(pid)
    }

    #[inline]
    fn other_reg(pid: usize) -> RegId {
        RegId(1 - pid)
    }
}

impl Protocol for TwoProcessor {
    type State = TwoState;
    type Reg = TwoReg;

    fn processes(&self) -> usize {
        2
    }

    fn registers(&self) -> Vec<RegisterSpec<TwoReg>> {
        // 1-writer 1-reader bounded registers: r_i is written by P_i and
        // read only by P_{1-i} — the most restricted class in the paper.
        // Width 2 bits: the three-value domain {⊥, a, b} packs to {0, 1, 2}.
        vec![
            RegisterSpec::new(RegId(0), "r0", 0.into(), ReaderSet::only([1.into()]), None)
                .with_width(2),
            RegisterSpec::new(RegId(1), "r1", 1.into(), ReaderSet::only([0.into()]), None)
                .with_width(2),
        ]
    }

    #[inline]
    fn init(&self, _pid: usize, input: Val) -> TwoState {
        TwoState::Start { input }
    }

    #[inline]
    fn choose(&self, pid: usize, state: &TwoState) -> Choice<Op<TwoReg>> {
        match state {
            TwoState::Start { input } => Choice::det(Op::Write(Self::own_reg(pid), Some(*input))),
            TwoState::AboutToRead { .. } => Choice::det(Op::Read(Self::other_reg(pid))),
            TwoState::AboutToWrite { mine, seen } => Choice::coin(
                // Heads: rewrite own value; tails: adopt the other's.
                Op::Write(Self::own_reg(pid), Some(*mine)),
                Op::Write(Self::own_reg(pid), Some(*seen)),
            ),
            TwoState::Decided { .. } => {
                unreachable!("decided processors take no steps (they quit)")
            }
        }
    }

    #[inline]
    fn transit(
        &self,
        _pid: usize,
        state: &TwoState,
        op: &Op<TwoReg>,
        read: Option<&TwoReg>,
    ) -> Choice<TwoState> {
        match state {
            TwoState::Start { input } => Choice::det(TwoState::AboutToRead { mine: *input }),
            TwoState::AboutToRead { mine } => {
                let v = read.expect("line (1) is a read");
                match v {
                    None => Choice::det(TwoState::Decided { value: *mine }),
                    Some(seen) if seen == mine => Choice::det(TwoState::Decided { value: *mine }),
                    Some(seen) => Choice::det(TwoState::AboutToWrite {
                        mine: *mine,
                        seen: *seen,
                    }),
                }
            }
            TwoState::AboutToWrite { .. } => {
                let written = match op {
                    Op::Write(_, Some(v)) => *v,
                    _ => unreachable!("line (2) writes a concrete value"),
                };
                Choice::det(TwoState::AboutToRead { mine: written })
            }
            TwoState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn decision(&self, state: &TwoState) -> Option<Val> {
        match state {
            TwoState::Decided { value } => Some(*value),
            _ => None,
        }
    }

    fn preference(&self, _pid: usize, state: &TwoState) -> Option<Val> {
        Some(match state {
            TwoState::Start { input } => *input,
            TwoState::AboutToRead { mine } | TwoState::AboutToWrite { mine, .. } => *mine,
            TwoState::Decided { value } => *value,
        })
    }

    fn name(&self) -> String {
        "two-processor (Fig. 1)".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_sim::{
        CrashPlan, FixedSchedule, Halt, RandomScheduler, RoundRobin, Runner, Solo, SplitKeeper,
        StopWhen,
    };

    #[test]
    fn solo_processor_decides_its_input_in_two_steps() {
        // Wait-freedom: P0 running alone writes, reads ⊥, decides.
        let p = TwoProcessor::new();
        let out = Runner::new(&p, &[Val::A, Val::B], Solo::new(0))
            .stop_when(StopWhen::PidDecided(0))
            .run();
        assert_eq!(out.decisions[0], Some(Val::A));
        assert_eq!(out.steps[0], 2);
        assert_eq!(out.steps[1], 0);
    }

    #[test]
    fn equal_inputs_decide_that_value() {
        let p = TwoProcessor::new();
        for seed in 0..50 {
            let out = Runner::new(&p, &[Val::B, Val::B], RandomScheduler::new(seed))
                .seed(seed)
                .run();
            assert_eq!(out.agreement(), Some(Val::B));
            assert!(out.nontrivial());
        }
    }

    #[test]
    fn mixed_inputs_are_consistent_and_nontrivial_across_seeds() {
        let p = TwoProcessor::new();
        for seed in 0..500 {
            let out = Runner::new(&p, &[Val::A, Val::B], RandomScheduler::new(seed))
                .seed(seed ^ 0xDEAD)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed} did not finish");
            assert!(out.consistent(), "seed {seed} violated consistency");
            assert!(out.nontrivial(), "seed {seed} violated nontriviality");
            assert!(out.all_alive_decided());
        }
    }

    #[test]
    fn adaptive_adversary_cannot_block_termination() {
        let p = TwoProcessor::new();
        let mut total_steps = 0u64;
        let runs = 300;
        for seed in 0..runs {
            let out = Runner::new(&p, &[Val::A, Val::B], SplitKeeper::new())
                .seed(seed)
                .max_steps(100_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "split-keeper blocked seed {seed}");
            assert!(out.consistent());
            total_steps += out.total_steps;
        }
        // Paper: expected ≤ 10 steps *per processor*, i.e. ≤ 20 total.
        let mean = total_steps as f64 / runs as f64;
        assert!(mean < 25.0, "mean total steps {mean} way above paper bound");
    }

    #[test]
    fn expected_steps_close_to_paper_bound_under_random_scheduler() {
        let p = TwoProcessor::new();
        let runs = 2_000u64;
        let mut steps_p0 = 0u64;
        for seed in 0..runs {
            let out = Runner::new(&p, &[Val::A, Val::B], RandomScheduler::new(seed))
                .seed(seed.wrapping_mul(0x9E37))
                .run();
            steps_p0 += out.steps[0];
        }
        let mean = steps_p0 as f64 / runs as f64;
        // The paper's Corollary bounds the expectation by 10; benign
        // schedulers do much better. Sanity band only.
        assert!((2.0..=10.0).contains(&mean), "mean steps of P0 = {mean}");
    }

    #[test]
    fn crash_of_one_processor_does_not_block_the_other() {
        // t = n − 1 = 1 crash: P1 dies immediately after its initial write.
        let p = TwoProcessor::new();
        for seed in 0..50 {
            let out = Runner::new(&p, &[Val::A, Val::B], RoundRobin::new())
                .seed(seed)
                .crashes(CrashPlan::none().crash(1, 2))
                .run();
            assert!(out.decisions[0].is_some(), "survivor must decide");
            assert!(out.consistent());
            assert!(out.nontrivial());
        }
    }

    #[test]
    fn paper_consistency_scenario() {
        // Replay of the Theorem 6 argument: P0 decides first; P1 must then
        // read r0 (unchanged) and agree. Schedule: P0 write, P1 write,
        // P0 read (disagree), P1 read (disagree), then both flip...
        // Use a fixed schedule plus fixed coins: after P0 adopts B, both
        // registers hold B and everyone decides B.
        let p = TwoProcessor::new();
        let out = Runner::new(
            &p,
            &[Val::A, Val::B],
            FixedSchedule::new(vec![0, 1, 0, 0, 1, 0, 1]),
        )
        .seed(123)
        .max_steps(10_000)
        .run();
        assert!(out.consistent());
    }

    #[test]
    fn preference_tracks_own_register() {
        let p = TwoProcessor::new();
        let s = p.init(0, Val::B);
        assert_eq!(p.preference(0, &s), Some(Val::B));
        let s2 = TwoState::AboutToWrite {
            mine: Val::A,
            seen: Val::B,
        };
        assert_eq!(p.preference(0, &s2), Some(Val::A));
    }

    #[test]
    fn registers_are_single_writer_single_reader() {
        let p = TwoProcessor::new();
        let specs = p.registers();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].writer, 0.into());
        assert!(specs[0].readers.allows(1.into()));
        assert!(!specs[0].readers.allows(0.into()));
    }

    #[test]
    fn read_of_bot_decides_immediately() {
        let p = TwoProcessor::new();
        let s = TwoState::AboutToRead { mine: Val::A };
        let op = Op::Read(RegId(1));
        let next = p.transit(0, &s, &op, Some(&None));
        assert_eq!(next.branches()[0].1, TwoState::Decided { value: Val::A });
    }

    #[test]
    fn disagreeing_read_moves_to_coin_flip() {
        let p = TwoProcessor::new();
        let s = TwoState::AboutToRead { mine: Val::A };
        let op = Op::Read(RegId(1));
        let next = p.transit(0, &s, &op, Some(&Some(Val::B)));
        assert_eq!(
            next.branches()[0].1,
            TwoState::AboutToWrite {
                mine: Val::A,
                seen: Val::B
            }
        );
        // And the subsequent write is a fair coin between keep and adopt.
        let c = p.choose(0, &next.branches()[0].1);
        assert_eq!(c.branches().len(), 2);
        assert_eq!(c.branches()[0].1, Op::Write(RegId(0), Some(Val::A)));
        assert_eq!(c.branches()[1].1, Op::Write(RegId(0), Some(Val::B)));
    }
}
