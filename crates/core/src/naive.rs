//! The "natural" consensus protocol that fails (§5, introduction), and the
//! explicit adversary strategy that defeats it.
//!
//! The paper warns that many natural protocols fail "in very subtle ways
//! which are far from obvious at first site", and gives the canonical
//! example: *each processor chooses at random a value out of a and b; when
//! all processors have chosen the same value they terminate.* The adversary
//! strategy (for `n = 3`): drive `P_0` until its register holds `a`, then
//! freeze it; drive `P_1` until its register holds `b`, freeze it; then
//! activate `P_2` forever. `P_2` reads a disagreeing pair `{a, b}` in every
//! phase, re-randomizes forever, and never decides — while `P_0` and `P_1`
//! never take another step. Randomized termination fails even though each
//! activation of `P_2` flips a fresh coin.
//!
//! [`Naive`] implements the protocol and [`NaiveKiller`] the strategy; the
//! contrast with Fig. 2's protocol (which defeats the same adversary) is
//! experiment EXP-5.

use cil_registers::{ReaderSet, RegisterSpec};
use cil_sim::{Adversary, Choice, Op, Protocol, Val, View};

/// Register contents: the chosen value, or `None` (⊥) before any choice.
pub type NaiveReg = Option<Val>;

/// Internal state of one processor of the naive protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NaiveState {
    /// About to write the current choice.
    Write {
        /// The value about to be published.
        cur: Val,
    },
    /// Reading the other registers one at a time.
    Read {
        /// The value currently published.
        cur: Val,
        /// Index into the peer list.
        peer_idx: usize,
        /// Whether every register read so far this phase matched `cur`.
        all_match: bool,
    },
    /// Decision state.
    Decided {
        /// The irrevocable output value.
        value: Val,
    },
}

/// The failing baseline protocol for `n` processors over the binary value
/// set `{a, b}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Naive {
    n: usize,
}

impl Naive {
    /// Creates the protocol.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        Naive { n }
    }

    #[inline]
    fn peers(&self, pid: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&j| j != pid)
    }
}

impl Protocol for Naive {
    type State = NaiveState;
    type Reg = NaiveReg;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> Vec<RegisterSpec<NaiveReg>> {
        // Three-value domain {⊥, a, b} → 2 bits, as in Fig. 1.
        cil_registers::access::per_process_registers(self.n, None, |i| {
            ReaderSet::only((0..self.n).filter(|&j| j != i).map(Into::into))
        })
        .into_iter()
        .map(|s| s.with_width(2))
        .collect()
    }

    #[inline]
    fn init(&self, _pid: usize, input: Val) -> NaiveState {
        NaiveState::Write { cur: input }
    }

    #[inline]
    fn choose(&self, pid: usize, state: &NaiveState) -> Choice<Op<NaiveReg>> {
        match state {
            NaiveState::Write { cur } => Choice::det(Op::Write(pid.into(), Some(*cur))),
            NaiveState::Read { peer_idx, .. } => {
                let peer = self.peers(pid).nth(*peer_idx).expect("peer in range");
                Choice::det(Op::Read(peer.into()))
            }
            NaiveState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn transit(
        &self,
        _pid: usize,
        state: &NaiveState,
        _op: &Op<NaiveReg>,
        read: Option<&NaiveReg>,
    ) -> Choice<NaiveState> {
        match state {
            NaiveState::Write { cur } => Choice::det(NaiveState::Read {
                cur: *cur,
                peer_idx: 0,
                all_match: true,
            }),
            NaiveState::Read {
                cur,
                peer_idx,
                all_match,
            } => {
                let v = read.expect("read phase reads");
                let all_match = *all_match && *v == Some(*cur);
                if *peer_idx + 1 < self.n - 1 {
                    Choice::det(NaiveState::Read {
                        cur: *cur,
                        peer_idx: peer_idx + 1,
                        all_match,
                    })
                } else if all_match {
                    Choice::det(NaiveState::Decided { value: *cur })
                } else {
                    // Re-choose uniformly at random and publish again.
                    Choice::coin(
                        NaiveState::Write { cur: Val::A },
                        NaiveState::Write { cur: Val::B },
                    )
                }
            }
            NaiveState::Decided { .. } => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn decision(&self, state: &NaiveState) -> Option<Val> {
        match state {
            NaiveState::Decided { value } => Some(*value),
            _ => None,
        }
    }

    fn preference(&self, _pid: usize, state: &NaiveState) -> Option<Val> {
        Some(match state {
            NaiveState::Write { cur } | NaiveState::Read { cur, .. } => *cur,
            NaiveState::Decided { value } => *value,
        })
    }

    fn name(&self) -> String {
        format!("naive consensus (n = {})", self.n)
    }
}

/// The §5 adversary strategy against [`Naive`] with `n = 3`.
///
/// Drives `P_0`'s register to `a` and `P_1`'s to `b`, then starves both and
/// activates `P_2` forever. Because the strategy conditions on *register
/// contents already written*, it needs no knowledge of future coin flips —
/// it is a legal adaptive adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveKiller;

impl NaiveKiller {
    /// Creates the strategy.
    pub fn new() -> Self {
        NaiveKiller
    }
}

impl Adversary<Naive> for NaiveKiller {
    fn pick(&mut self, view: &View<'_, Naive>) -> usize {
        let want = if view.regs[0] != Some(Val::A) {
            0
        } else if view.regs[1] != Some(Val::B) {
            1
        } else {
            2
        };
        if view.is_eligible(want) {
            want
        } else {
            // Should not happen (the victims never decide under this
            // strategy), but stay a legal adversary.
            view.eligible().next().expect("no eligible processor")
        }
    }

    fn name(&self) -> String {
        "naive-killer (§5 strategy)".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_sim::{Halt, RandomScheduler, RoundRobin, Runner, StopWhen};

    #[test]
    fn unanimous_inputs_can_decide() {
        let p = Naive::new(3);
        let out = Runner::new(&p, &[Val::A, Val::A, Val::A], RoundRobin::new())
            .seed(1)
            .max_steps(100_000)
            .run();
        assert_eq!(out.agreement(), Some(Val::A));
    }

    #[test]
    fn benign_schedulers_usually_terminate() {
        // Under a benign scheduler the naive protocol does often finish —
        // that is exactly why it looks plausible.
        let p = Naive::new(3);
        let mut done = 0;
        for seed in 0..50 {
            let out = Runner::new(&p, &[Val::A, Val::B, Val::A], RandomScheduler::new(seed))
                .seed(seed)
                .max_steps(100_000)
                .run();
            if out.halt == Halt::Done {
                assert!(out.consistent());
                done += 1;
            }
        }
        assert!(done > 25, "only {done}/50 finished under a fair scheduler");
    }

    #[test]
    fn killer_blocks_p2_forever() {
        let p = Naive::new(3);
        for seed in 0..20 {
            let out = Runner::new(&p, &[Val::A, Val::B, Val::A], NaiveKiller::new())
                .seed(seed)
                .stop_when(StopWhen::FirstDecision)
                .max_steps(50_000)
                .run();
            assert_eq!(out.halt, Halt::MaxSteps, "seed {seed}: someone decided");
            assert!(out.decisions.iter().all(Option::is_none));
            // P2 did essentially all the work once the split was set up.
            assert!(
                out.steps[2] > out.steps[0] + out.steps[1],
                "seed {seed}: steps {:?}",
                out.steps
            );
        }
    }

    #[test]
    fn killer_sets_up_the_split_first() {
        let p = Naive::new(3);
        let out = Runner::new(&p, &[Val::B, Val::A, Val::A], NaiveKiller::new())
            .seed(3)
            .max_steps(10_000)
            .record_trace(true)
            .run();
        // Final registers: r0 = a, r1 = b, frozen.
        assert_eq!(out.final_regs[0], Some(Val::A));
        assert_eq!(out.final_regs[1], Some(Val::B));
    }

    #[test]
    fn same_strategy_fails_against_fig2_protocol() {
        // The killer's schedule shape (freeze two, run one forever) cannot
        // block Fig. 2: the solo processor races two ahead and decides.
        use crate::n_unbounded::NUnbounded;
        #[derive(Debug)]
        struct Shape;
        impl Adversary<NUnbounded> for Shape {
            fn pick(&mut self, view: &View<'_, NUnbounded>) -> usize {
                // Mimic the killer: give P0 and P1 one step each (their
                // initial writes), then P2 forever.
                if view.steps[0] < 1 && view.is_eligible(0) {
                    0
                } else if view.steps[1] < 1 && view.is_eligible(1) {
                    1
                } else if view.is_eligible(2) {
                    2
                } else {
                    view.eligible().next().expect("no eligible processor")
                }
            }
        }
        let p = NUnbounded::three();
        for seed in 0..20 {
            let out = Runner::new(&p, &[Val::A, Val::B, Val::A], Shape)
                .seed(seed)
                .stop_when(StopWhen::PidDecided(2))
                .max_steps(100_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "Fig. 2 blocked at seed {seed}");
            assert!(out.decisions[2].is_some());
            assert!(out.consistent());
        }
    }
}
