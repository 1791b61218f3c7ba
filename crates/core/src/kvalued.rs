//! k-valued coordination from binary coordination (§4, Theorem 5).
//!
//! Theorem 5: given a binary coordination protocol `CP₂` for `n` processors,
//! a protocol `CP_k` for any value-set size `k` can be constructed with a
//! `⌈log₂ k⌉` complexity multiplier. The extended abstract states the
//! theorem without a construction; we implement the standard bit-by-bit
//! reduction, augmented with **candidate-publication registers** so that
//! nontriviality carries over:
//!
//! * every processor publishes its current *candidate* value (initially its
//!   input) in a single-writer register;
//! * round `r` (for `r = 0 … ⌈log₂k⌉−1`) runs an independent instance of the
//!   binary protocol on bit `r` of the candidate;
//! * if the decided bit agrees with the candidate, proceed; otherwise scan
//!   the other processors' candidate registers for one whose low bits match
//!   the decided prefix, adopt it, republish, and proceed;
//! * after the last round the candidate equals the decided prefix — decide.
//!
//! **Why the scan always succeeds:** by validity of the binary instance, the
//! decided bit `b_r` was proposed by some processor whose candidate matched
//! the decided prefix through round `r` at the moment it entered round `r`
//! — and every later value that processor publishes also matches (adoption
//! only ever extends agreement with the decided prefix). So that register
//! matches at *every* point after its owner entered round `r`, and a single
//! scan over all peers must encounter it.
//!
//! **Consistency** is inherited: all processors see the same decided bit per
//! round (consistency of the inner protocol), hence build the same prefix.
//! **Nontriviality**: candidates only ever copy published candidates, and
//! the initial candidates are inputs of processors that took a step.
//!
//! The complexity multiplier (`⌈log₂ k⌉` inner executions plus `O(n)`
//! bookkeeping per round) is measured in experiment EXP-3.

use cil_registers::{ReaderSet, RegId, RegisterSpec};
use cil_sim::{Choice, Op, Protocol, Val};
use std::hash::Hash;

/// Register contents of the composite protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KReg<R> {
    /// A register belonging to one of the inner binary instances.
    Inner(R),
    /// A candidate-publication register (`None` = ⊥, not yet published).
    Cand(Option<u64>),
}

/// Phase of the composite state machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KPhase<S> {
    /// About to publish the initial candidate.
    PublishInit,
    /// Running the inner binary instance of the current round.
    Inner(S),
    /// The decided bit disagreed with the candidate: scanning peers'
    /// candidate registers for one matching the decided prefix.
    Scan {
        /// Index into the peer list.
        next: usize,
    },
    /// Adopted a matching candidate; about to republish it.
    Republish,
    /// All rounds decided.
    Done(Val),
}

/// Internal state of one processor of the composite protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KState<S> {
    /// Current candidate value (`< k`).
    pub cand: u64,
    /// Current round (0-based bit index).
    pub round: u32,
    /// Decided bits so far (low `round` bits).
    pub prefix: u64,
    /// Current phase.
    pub phase: KPhase<S>,
}

/// The Theorem 5 construction over an inner binary protocol `P`.
///
/// `P` must be a coordination protocol for the same number of processors
/// whose inputs/decisions are `Val(0)`/`Val(1)` — e.g.
/// [`crate::two::TwoProcessor`] for `n = 2` or
/// [`crate::n_unbounded::NUnbounded`] for any `n`.
#[derive(Debug, Clone)]
pub struct KValued<P> {
    inner: P,
    k: u64,
    rounds: u32,
    inner_regs: usize,
}

impl<P: Protocol> KValued<P> {
    /// Builds `CP_k` from the binary protocol `inner`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(inner: P, k: u64) -> Self {
        assert!(k >= 2, "coordination needs at least two values");
        let rounds = 64 - (k - 1).leading_zeros();
        let inner_regs = inner.registers().len();
        KValued {
            inner,
            k,
            rounds,
            inner_regs,
        }
    }

    /// Number of binary rounds `⌈log₂ k⌉`.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The value-set size.
    pub fn k(&self) -> u64 {
        self.k
    }

    fn n(&self) -> usize {
        self.inner.processes()
    }

    /// Register id of the `idx`-th inner register of round `r`.
    fn inner_reg(&self, round: u32, idx: usize) -> RegId {
        RegId(round as usize * self.inner_regs + idx)
    }

    /// Register id of processor `pid`'s candidate register.
    fn cand_reg(&self, pid: usize) -> RegId {
        RegId(self.rounds as usize * self.inner_regs + pid)
    }

    fn peers(&self, pid: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.n();
        (0..n).filter(move |&j| j != pid)
    }

    fn bit(cand: u64, round: u32) -> u64 {
        (cand >> round) & 1
    }

    /// The phase entered after round `round` decided and the candidate
    /// already matches the prefix.
    fn enter_round(&self, pid: usize, cand: u64, next_round: u32) -> KPhase<P::State> {
        if next_round == self.rounds {
            KPhase::Done(Val(cand))
        } else {
            KPhase::Inner(self.inner.init(pid, Val(Self::bit(cand, next_round))))
        }
    }

    /// Remaps an inner op into the composite register space.
    fn remap_op(&self, round: u32, op: Op<P::Reg>) -> Op<KReg<P::Reg>> {
        match op {
            Op::Read(RegId(i)) => Op::Read(self.inner_reg(round, i)),
            Op::Write(RegId(i), v) => Op::Write(self.inner_reg(round, i), KReg::Inner(v)),
        }
    }

    /// Maps a composite op back into the inner instance's register space.
    fn unmap_op(&self, round: u32, op: &Op<KReg<P::Reg>>) -> Op<P::Reg> {
        let base = round as usize * self.inner_regs;
        match op {
            Op::Read(RegId(i)) => Op::Read(RegId(i - base)),
            Op::Write(RegId(i), KReg::Inner(v)) => Op::Write(RegId(i - base), v.clone()),
            Op::Write(_, KReg::Cand(_)) => unreachable!("inner ops never touch candidates"),
        }
    }
}

impl<P: Protocol> Protocol for KValued<P> {
    type State = KState<P::State>;
    type Reg = KReg<P::Reg>;

    fn processes(&self) -> usize {
        self.n()
    }

    fn registers(&self) -> Vec<RegisterSpec<Self::Reg>> {
        let mut specs = Vec::new();
        for round in 0..self.rounds {
            for spec in self.inner.registers() {
                let id = self.inner_reg(round, spec.id.0);
                specs.push(
                    RegisterSpec::new(
                        id,
                        format!("round{round}.{}", spec.name),
                        spec.writer,
                        spec.readers.clone(),
                        KReg::Inner(spec.init),
                    )
                    // Each inner instance inherits its register's bound.
                    .with_width(spec.width_bits),
                );
            }
        }
        // Candidate registers hold {⊥} ∪ 0..k, packed as 0..=k.
        let cand_width = 64 - self.k.leading_zeros();
        for pid in 0..self.n() {
            specs.push(
                RegisterSpec::new(
                    self.cand_reg(pid),
                    format!("cand{pid}"),
                    pid.into(),
                    ReaderSet::only(self.peers(pid).map(Into::into)),
                    KReg::Cand(None),
                )
                .with_width(cand_width),
            );
        }
        specs
    }

    #[inline]
    fn init(&self, _pid: usize, input: Val) -> Self::State {
        assert!(input.0 < self.k, "input {input} outside 0..{}", self.k);
        KState {
            cand: input.0,
            round: 0,
            prefix: 0,
            phase: KPhase::PublishInit,
        }
    }

    #[inline]
    fn choose(&self, pid: usize, state: &Self::State) -> Choice<Op<Self::Reg>> {
        match &state.phase {
            KPhase::PublishInit | KPhase::Republish => {
                Choice::det(Op::Write(self.cand_reg(pid), KReg::Cand(Some(state.cand))))
            }
            KPhase::Inner(s) => {
                let round = state.round;
                self.inner.choose(pid, s).map(|op| self.remap_op(round, op))
            }
            KPhase::Scan { next } => {
                let peer = self.peers(pid).nth(*next).expect("peer in range");
                Choice::det(Op::Read(self.cand_reg(peer)))
            }
            KPhase::Done(_) => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn transit(
        &self,
        pid: usize,
        state: &Self::State,
        op: &Op<Self::Reg>,
        read: Option<&Self::Reg>,
    ) -> Choice<Self::State> {
        let mut next = state.clone();
        match &state.phase {
            KPhase::PublishInit => {
                next.phase = self.enter_round(pid, state.cand, 0);
                Choice::det(next)
            }
            KPhase::Republish => {
                next.phase = self.enter_round(pid, state.cand, state.round);
                Choice::det(next)
            }
            KPhase::Inner(s) => {
                let inner_op = self.unmap_op(state.round, op);
                let inner_read = read.map(|r| match r {
                    KReg::Inner(v) => v,
                    KReg::Cand(_) => unreachable!("inner reads stay in the instance"),
                });
                self.inner
                    .transit(pid, s, &inner_op, inner_read)
                    .map(move |s2| {
                        let mut n2 = next.clone();
                        match self.inner.decision(&s2) {
                            None => n2.phase = KPhase::Inner(s2),
                            Some(bit) => {
                                debug_assert!(bit.0 <= 1, "inner protocol must be binary");
                                let r = n2.round;
                                n2.prefix |= bit.0 << r;
                                if Self::bit(n2.cand, r) == bit.0 {
                                    n2.round = r + 1;
                                    n2.phase = self.enter_round(pid, n2.cand, r + 1);
                                } else {
                                    n2.phase = KPhase::Scan { next: 0 };
                                }
                            }
                        }
                        n2
                    })
            }
            KPhase::Scan { next: idx } => {
                let v = read.expect("scan reads");
                let mask = (1u64 << (state.round + 1)) - 1;
                let want = state.prefix & mask;
                let matches = matches!(v, KReg::Cand(Some(c)) if c & mask == want);
                if matches {
                    if let KReg::Cand(Some(c)) = v {
                        next.cand = *c;
                        next.round += 1;
                        next.phase = KPhase::Republish;
                    }
                } else if *idx + 1 < self.n() - 1 {
                    next.phase = KPhase::Scan { next: idx + 1 };
                } else {
                    // Unreachable by the proposer argument (module docs);
                    // restart the scan to stay total.
                    next.phase = KPhase::Scan { next: 0 };
                }
                Choice::det(next)
            }
            KPhase::Done(_) => unreachable!("decided processors take no steps"),
        }
    }

    #[inline]
    fn decision(&self, state: &Self::State) -> Option<Val> {
        match state.phase {
            KPhase::Done(v) => Some(v),
            _ => None,
        }
    }

    fn preference(&self, _pid: usize, state: &Self::State) -> Option<Val> {
        Some(Val(state.cand))
    }

    fn name(&self) -> String {
        format!("{}-valued over [{}]", self.k, self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::n_unbounded::NUnbounded;
    use crate::two::TwoProcessor;
    use cil_sim::{Halt, LaggardFirst, RandomScheduler, Runner, Solo, SplitKeeper, StopWhen};

    #[test]
    fn rounds_is_ceil_log2() {
        let p = |k| KValued::new(TwoProcessor::new(), k).rounds();
        assert_eq!(p(2), 1);
        assert_eq!(p(3), 2);
        assert_eq!(p(4), 2);
        assert_eq!(p(5), 3);
        assert_eq!(p(8), 3);
        assert_eq!(p(9), 4);
        assert_eq!(p(64), 6);
    }

    #[test]
    fn two_processors_agree_on_one_of_their_inputs() {
        let p = KValued::new(TwoProcessor::new(), 8);
        for seed in 0..300 {
            let inputs = [Val(seed % 8), Val((seed * 5 + 3) % 8)];
            let out = Runner::new(&p, &inputs, RandomScheduler::new(seed))
                .seed(seed ^ 0xF00D)
                .max_steps(100_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed}");
            assert!(out.consistent(), "seed {seed}");
            assert!(out.nontrivial(), "seed {seed}");
            let v = out.agreement().expect("both decided");
            assert!(inputs.contains(&v), "decided non-input {v}");
        }
    }

    #[test]
    fn three_processors_with_fig2_inner() {
        let p = KValued::new(NUnbounded::three(), 16);
        for seed in 0..100 {
            let inputs = [
                Val(seed % 16),
                Val((seed * 7 + 1) % 16),
                Val((seed * 3 + 9) % 16),
            ];
            let out = Runner::new(&p, &inputs, RandomScheduler::new(seed))
                .seed(seed)
                .max_steps(1_000_000)
                .run();
            assert_eq!(out.halt, Halt::Done, "seed {seed}");
            assert!(out.consistent(), "seed {seed}");
            assert!(out.nontrivial(), "seed {seed}");
        }
    }

    #[test]
    fn adaptive_adversaries_do_not_break_it() {
        let p = KValued::new(TwoProcessor::new(), 4);
        for seed in 0..100 {
            let out = Runner::new(&p, &[Val(1), Val(2)], SplitKeeper::new())
                .seed(seed)
                .max_steps(100_000)
                .run();
            assert_eq!(out.halt, Halt::Done);
            assert!(out.consistent());
            let v = out.agreement().unwrap();
            assert!(v == Val(1) || v == Val(2));
        }
        for seed in 0..100 {
            let out = Runner::new(&p, &[Val(3), Val(0)], LaggardFirst::new())
                .seed(seed)
                .max_steps(100_000)
                .run();
            assert_eq!(out.halt, Halt::Done);
            assert!(out.consistent());
        }
    }

    #[test]
    fn solo_processor_decides_its_own_input() {
        let p = KValued::new(TwoProcessor::new(), 8);
        let out = Runner::new(&p, &[Val(5), Val(2)], Solo::new(0))
            .stop_when(StopWhen::PidDecided(0))
            .run();
        assert_eq!(out.decisions[0], Some(Val(5)));
    }

    #[test]
    fn equal_inputs_decide_that_input() {
        let p = KValued::new(TwoProcessor::new(), 32);
        for seed in 0..50 {
            let out = Runner::new(&p, &[Val(23), Val(23)], RandomScheduler::new(seed))
                .seed(seed)
                .run();
            assert_eq!(out.agreement(), Some(Val(23)));
        }
    }

    #[test]
    fn cost_grows_roughly_with_log_k() {
        // EXP-3 shape check: steps(k=64) should be well below
        // 64/2 × steps(k=2) — logarithmic, not linear, in k.
        let mean_steps = |k: u64| {
            let p = KValued::new(TwoProcessor::new(), k);
            let runs = 200u64;
            let mut total = 0u64;
            for seed in 0..runs {
                let inputs = [Val(seed % k), Val((seed + 1) % k)];
                let out = Runner::new(&p, &inputs, RandomScheduler::new(seed))
                    .seed(seed)
                    .run();
                total += out.total_steps;
            }
            total as f64 / runs as f64
        };
        let s2 = mean_steps(2);
        let s64 = mean_steps(64);
        assert!(
            s64 < 10.0 * s2,
            "k=64 cost {s64} vs k=2 cost {s2}: not logarithmic"
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_input_is_rejected() {
        let p = KValued::new(TwoProcessor::new(), 4);
        let _ = p.init(0, Val(4));
    }
}
