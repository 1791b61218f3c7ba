//! Deterministic two-processor protocols — the victims of Theorem 4.
//!
//! §3 of the paper proves that **no** deterministic protocol solves
//! coordination, however clever and however asymmetric: every consistent,
//! nontrivial deterministic protocol has an infinite schedule along which
//! every configuration stays bivalent and nobody ever decides.
//!
//! [`DetTwo`] is the Figure 1 machine with the coin replaced by a
//! deterministic [`DetRule`]. Each rule preserves Figure 1's decision logic,
//! so the Theorem 6 consistency argument applies verbatim — these protocols
//! never err. What each of them loses is termination, exactly as Theorem 4
//! predicts; the `cil-mc` crate *constructs* the non-terminating schedule for
//! each of them mechanically (Lemma 2 → bivalent initial configuration,
//! Lemma 3 → bivalence-preserving extension).

use cil_registers::{ReaderSet, RegId, RegisterSpec};
use cil_sim::{Choice, Op, Protocol, Val};

/// The deterministic replacement for Figure 1's coin at line (2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetRule {
    /// Always adopt the value just read (the "copycat").
    AlwaysAdopt,
    /// Always rewrite the own value (the "stubborn").
    AlwaysKeep,
    /// Adopt the larger of the two values (a symmetric tie-break attempt).
    AdoptIfGreater,
    /// Alternate between keeping and adopting on successive conflicts
    /// (a time-varying tie-break attempt).
    Alternate,
}

impl DetRule {
    /// The value written at line (2) for this rule. `flag` is the
    /// per-processor alternation bit (used by [`DetRule::Alternate`]).
    #[inline]
    fn written(self, mine: Val, seen: Val, flag: bool) -> Val {
        match self {
            DetRule::AlwaysAdopt => seen,
            DetRule::AlwaysKeep => mine,
            DetRule::AdoptIfGreater => {
                if seen > mine {
                    seen
                } else {
                    mine
                }
            }
            DetRule::Alternate => {
                if flag {
                    seen
                } else {
                    mine
                }
            }
        }
    }

    /// All rules, for sweeps.
    pub const ALL: [DetRule; 4] = [
        DetRule::AlwaysAdopt,
        DetRule::AlwaysKeep,
        DetRule::AdoptIfGreater,
        DetRule::Alternate,
    ];
}

impl std::fmt::Display for DetRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DetRule::AlwaysAdopt => "always-adopt",
            DetRule::AlwaysKeep => "always-keep",
            DetRule::AdoptIfGreater => "adopt-if-greater",
            DetRule::Alternate => "alternate",
        };
        f.write_str(s)
    }
}

/// Internal state: Figure 1's program counter plus the alternation bit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DetState {
    /// About to write the input (line 0).
    Start {
        /// The processor's input value.
        input: Val,
    },
    /// About to read the other register (line 1).
    AboutToRead {
        /// Own register contents.
        mine: Val,
        /// Alternation bit for [`DetRule::Alternate`].
        flag: bool,
    },
    /// About to write deterministically (line 2).
    AboutToWrite {
        /// Own register contents.
        mine: Val,
        /// The disagreeing value just read.
        seen: Val,
        /// Alternation bit.
        flag: bool,
    },
    /// Decision state.
    Decided {
        /// The irrevocable output value.
        value: Val,
    },
}

/// A deterministic variant of the two-processor protocol.
///
/// The two processors may even use *different* rules (the paper's
/// impossibility result does not assume symmetric protocols); construct with
/// [`DetTwo::asymmetric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetTwo {
    rules: [DetRule; 2],
}

impl DetTwo {
    /// Both processors use `rule`.
    pub fn new(rule: DetRule) -> Self {
        DetTwo {
            rules: [rule, rule],
        }
    }

    /// Each processor uses its own rule.
    pub fn asymmetric(rule0: DetRule, rule1: DetRule) -> Self {
        DetTwo {
            rules: [rule0, rule1],
        }
    }

    /// The rules in use.
    pub fn rules(&self) -> [DetRule; 2] {
        self.rules
    }
}

impl Protocol for DetTwo {
    type State = DetState;
    type Reg = Option<Val>;

    fn processes(&self) -> usize {
        2
    }

    fn registers(&self) -> Vec<RegisterSpec<Option<Val>>> {
        // Same 2-bit 1W1R layout as the randomized Fig. 1 protocol: the
        // domain {⊥, a, b} packs to {0, 1, 2}.
        vec![
            RegisterSpec::new(RegId(0), "r0", 0.into(), ReaderSet::only([1.into()]), None)
                .with_width(2),
            RegisterSpec::new(RegId(1), "r1", 1.into(), ReaderSet::only([0.into()]), None)
                .with_width(2),
        ]
    }

    #[inline]
    fn init(&self, _pid: usize, input: Val) -> DetState {
        DetState::Start { input }
    }

    #[inline]
    fn choose(&self, pid: usize, state: &DetState) -> Choice<Op<Option<Val>>> {
        match state {
            DetState::Start { input } => Choice::det(Op::Write(RegId(pid), Some(*input))),
            DetState::AboutToRead { .. } => Choice::det(Op::Read(RegId(1 - pid))),
            DetState::AboutToWrite { mine, seen, flag } => {
                let v = self.rules[pid].written(*mine, *seen, *flag);
                Choice::det(Op::Write(RegId(pid), Some(v)))
            }
            DetState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn transit(
        &self,
        _pid: usize,
        state: &DetState,
        op: &Op<Option<Val>>,
        read: Option<&Option<Val>>,
    ) -> Choice<DetState> {
        match state {
            DetState::Start { input } => Choice::det(DetState::AboutToRead {
                mine: *input,
                flag: false,
            }),
            DetState::AboutToRead { mine, flag } => match read.expect("line 1 reads") {
                None => Choice::det(DetState::Decided { value: *mine }),
                Some(seen) if seen == mine => Choice::det(DetState::Decided { value: *mine }),
                Some(seen) => Choice::det(DetState::AboutToWrite {
                    mine: *mine,
                    seen: *seen,
                    flag: *flag,
                }),
            },
            DetState::AboutToWrite { flag, .. } => {
                let written = match op {
                    Op::Write(_, Some(v)) => *v,
                    _ => unreachable!("line 2 writes a concrete value"),
                };
                Choice::det(DetState::AboutToRead {
                    mine: written,
                    flag: !*flag,
                })
            }
            DetState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn decision(&self, state: &DetState) -> Option<Val> {
        match state {
            DetState::Decided { value } => Some(*value),
            _ => None,
        }
    }

    fn preference(&self, _pid: usize, state: &DetState) -> Option<Val> {
        Some(match state {
            DetState::Start { input } => *input,
            DetState::AboutToRead { mine, .. } | DetState::AboutToWrite { mine, .. } => *mine,
            DetState::Decided { value } => *value,
        })
    }

    fn name(&self) -> String {
        format!(
            "deterministic two-processor ({} / {})",
            self.rules[0], self.rules[1]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_sim::{FixedSchedule, Halt, RandomScheduler, Runner, Solo, StopWhen};

    #[test]
    fn every_rule_is_consistent_under_random_schedules() {
        for rule in DetRule::ALL {
            let p = DetTwo::new(rule);
            for seed in 0..200 {
                let out = Runner::new(&p, &[Val::A, Val::B], RandomScheduler::new(seed))
                    .max_steps(10_000)
                    .run();
                assert!(out.consistent(), "{rule} inconsistent at seed {seed}");
                assert!(out.nontrivial(), "{rule} trivial at seed {seed}");
            }
        }
    }

    #[test]
    fn solo_runs_always_decide_the_own_input() {
        for rule in DetRule::ALL {
            let p = DetTwo::new(rule);
            let out = Runner::new(&p, &[Val::A, Val::B], Solo::new(1))
                .stop_when(StopWhen::PidDecided(1))
                .run();
            assert_eq!(out.decisions[1], Some(Val::B), "{rule}");
        }
    }

    #[test]
    fn always_keep_deadlocks_on_disagreement() {
        // Both stubborn: registers stay a/b forever; nobody ever decides.
        let p = DetTwo::new(DetRule::AlwaysKeep);
        let out = Runner::new(&p, &[Val::A, Val::B], RandomScheduler::new(1))
            .max_steps(5_000)
            .run();
        assert_eq!(out.halt, Halt::MaxSteps);
        assert!(out.decisions.iter().all(Option::is_none));
    }

    #[test]
    fn always_adopt_swaps_forever_under_lockstep_schedule() {
        // The classic livelock: strict alternation write-read-write-read
        // makes the copycats swap values forever.
        let p = DetTwo::new(DetRule::AlwaysAdopt);
        let lockstep: Vec<usize> = (0..4_000).map(|i| i % 2).collect();
        let out = Runner::new(&p, &[Val::A, Val::B], FixedSchedule::new(lockstep))
            .max_steps(4_000)
            .run();
        assert_eq!(out.halt, Halt::MaxSteps, "lockstep should livelock");
        assert!(out.decisions.iter().all(Option::is_none));
    }

    #[test]
    fn adopt_if_greater_starves_the_loser_after_a_decision() {
        // P0 decides `a` solo; P1 (holding the greater value b) then keeps
        // b forever against the frozen r0 = a: non-termination by schedule.
        let p = DetTwo::new(DetRule::AdoptIfGreater);
        let out = Runner::new(&p, &[Val::A, Val::B], Solo::new(0))
            .max_steps(5_000)
            .run();
        assert_eq!(out.decisions[0], Some(Val::A));
        assert_eq!(out.decisions[1], None, "P1 must spin forever");
        assert_eq!(out.halt, Halt::MaxSteps);
        assert!(out.consistent());
    }

    #[test]
    fn asymmetric_rules_are_supported() {
        let p = DetTwo::asymmetric(DetRule::AlwaysAdopt, DetRule::AlwaysKeep);
        assert_eq!(p.rules(), [DetRule::AlwaysAdopt, DetRule::AlwaysKeep]);
        for seed in 0..100 {
            let out = Runner::new(&p, &[Val::A, Val::B], RandomScheduler::new(seed))
                .max_steps(10_000)
                .run();
            assert!(out.consistent());
        }
    }

    #[test]
    fn all_choices_are_deterministic() {
        // The Theorem 4 machinery requires single-branch choices everywhere.
        let p = DetTwo::new(DetRule::Alternate);
        let s = DetState::AboutToWrite {
            mine: Val::A,
            seen: Val::B,
            flag: true,
        };
        assert!(p.choose(0, &s).is_det());
        assert!(p.choose(1, &s).is_det());
    }
}
