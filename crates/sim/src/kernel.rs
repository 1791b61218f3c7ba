//! §2 of the paper in code, once for every sampling engine: one [`step`]
//! (an operation picked by `choose` and its coin, then a transition picked
//! by `transit` and its coin) over any [`Memory`], and one [`Verdict`] on a
//! run's decisions. The exact engine, the certificate checker and the audit
//! walker take every branch of a step, and the engines are checked against
//! them, so they keep their own code.

use crate::protocol::{Choice, Op, Protocol, Val};
use crate::rng::Rng;
use crate::sweep::TrialOutcome;
use crate::threads::WordCodec;
use cil_obs::{CoinStage, OpKind, RunEvent};
use cil_registers::{HwRegisterFile, Pid, RegId, SharedMemory};
use std::fmt;

/// The shared registers a step operates on. An access outside the
/// protocol's declared access structure (a protocol bug) panics.
pub trait Memory<R> {
    /// Reads register `reg` as processor `pid`.
    fn read(&mut self, pid: Pid, reg: RegId) -> R;
    /// Writes `value` into register `reg` as processor `pid`.
    fn write(&mut self, pid: Pid, reg: RegId, value: &R);
}

impl<R: Clone> Memory<R> for SharedMemory<R> {
    #[inline]
    fn read(&mut self, pid: Pid, reg: RegId) -> R {
        let value = SharedMemory::read(self, pid, reg);
        value.expect("protocol read within its reader set").clone()
    }

    #[inline]
    fn write(&mut self, pid: Pid, reg: RegId, value: &R) {
        let written = SharedMemory::write(self, pid, reg, value.clone());
        written.expect("protocol write to its own register");
    }
}

/// A hardware register file with the codec between its values and the
/// words in its `AtomicU64` cells.
impl<R, C: WordCodec<R>> Memory<R> for (&HwRegisterFile<R>, &C) {
    #[inline]
    fn read(&mut self, pid: Pid, reg: RegId) -> R {
        let word = self.0.read_word(pid, reg);
        self.1
            .unpack(reg, word.expect("protocol read within its reader set"))
    }

    #[inline]
    fn write(&mut self, pid: Pid, reg: RegId, value: &R) {
        let written = self.0.write_word(pid, reg, self.1.pack(reg, value));
        written.expect("protocol write to its own register within its width");
    }
}

/// What one step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord<R> {
    /// Processor that took the step.
    pub pid: usize,
    /// The register operation; a write carries the value written.
    pub op: Op<R>,
    /// The value read, for a read.
    pub read: Option<R>,
    /// Branch count of the choose-stage coin, if one was flipped.
    pub choose_branches: Option<usize>,
    /// Branch count of the transit-stage coin, if one was flipped.
    pub transit_branches: Option<usize>,
    /// The processor's decision right after the step, if any.
    pub decision: Option<Val>,
}

impl<R: fmt::Debug> StepRecord<R> {
    /// Renders the step, taken at global step `index`, as its events: a
    /// `CoinFlip` per coin (choose, then transit), the `Step` with the value
    /// written or read in the register type's `Debug` form, and a
    /// `Decision` if the step decided.
    pub fn events(&self, index: u64, mut emit: impl FnMut(RunEvent)) {
        let pid = self.pid;
        let coins = [
            (CoinStage::Choose, self.choose_branches),
            (CoinStage::Transit, self.transit_branches),
        ];
        for (stage, branches) in coins {
            if let Some(branches) = branches {
                emit(RunEvent::CoinFlip {
                    index,
                    pid,
                    stage,
                    branches,
                });
            }
        }
        let value = self.op.write_value().or(self.read.as_ref());
        emit(RunEvent::Step {
            index,
            pid,
            op: if self.op.is_write() {
                OpKind::Write
            } else {
                OpKind::Read
            },
            reg: self.op.reg().0,
            value: value.map_or_else(|| "?".to_string(), |v| format!("{v:?}")),
        });
        if let Some(Val(value)) = self.decision {
            emit(RunEvent::Decision { index, pid, value });
        }
    }
}

/// Takes one step of processor `pid`: samples its operation from `choose`,
/// applies it to `memory`, samples the successor from `transit` into
/// `state`, and returns the record. A coin is sampled from `rng` unless
/// `force(stage, branches)` names the branch to take; a deterministic
/// choice draws nothing. Generic and `#[inline]`, so each engine compiles
/// it into its own loop; engines that only sample pass `|_, _| None`.
///
/// # Panics
///
/// Panics if `force` names a branch the coin does not have, or on an
/// access outside the protocol's declared structure.
#[inline]
pub fn step<P: Protocol + ?Sized, M: Memory<P::Reg>>(
    protocol: &P,
    pid: usize,
    state: &mut P::State,
    memory: &mut M,
    rng: &mut impl Rng,
    mut force: impl FnMut(CoinStage, usize) -> Option<usize>,
) -> StepRecord<P::Reg> {
    let choice = protocol.choose(pid, state);
    let (op, choose_branches) = take(&choice, rng, |b| force(CoinStage::Choose, b));
    let op = op.clone();
    let read = match &op {
        Op::Read(r) => Some(memory.read(Pid(pid), *r)),
        Op::Write(r, v) => {
            memory.write(Pid(pid), *r, v);
            None
        }
    };
    let transition = protocol.transit(pid, state, &op, read.as_ref());
    let (next, transit_branches) = take(&transition, rng, |b| force(CoinStage::Transit, b));
    *state = next.clone();
    StepRecord {
        pid,
        op,
        read,
        choose_branches,
        transit_branches,
        decision: protocol.decision(state),
    }
}

/// Takes the branch of `choice` that `force` names, or else a sampled one,
/// with the branch count when the choice is a coin.
#[inline]
fn take<'c, T>(
    choice: &'c Choice<T>,
    rng: &mut impl Rng,
    force: impl FnOnce(usize) -> Option<usize>,
) -> (&'c T, Option<usize>) {
    let branches = choice.branches();
    if choice.is_det() {
        return (&branches[0].1, None);
    }
    let taken = match force(branches.len()) {
        Some(i) => &branches.get(i).expect("forced branch within range").1,
        None => choice.sample(rng),
    };
    (taken, Some(branches.len()))
}

/// A run's decisions judged against the two safety requirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The value the decided processors agree on: `None` when none decided
    /// or two decided differently.
    pub agreed: Option<Val>,
    /// Consistency: no two processors decided different values.
    pub consistent: bool,
    /// Nontriviality: every decided value is the input of a processor that
    /// took at least one step.
    pub nontrivial: bool,
    /// Whether every processor decided.
    pub all_decided: bool,
}

impl Verdict {
    /// Judges the decisions of processors `0..n`, given their inputs and
    /// steps taken, in one pass that allocates nothing.
    #[inline]
    pub fn judge(
        decisions: impl IntoIterator<Item = Option<Val>>,
        inputs: &[Val],
        steps: &[u64],
    ) -> Self {
        let mut verdict = Verdict {
            agreed: None,
            consistent: true,
            nontrivial: true,
            all_decided: true,
        };
        for decision in decisions {
            let Some(d) = decision else {
                verdict.all_decided = false;
                continue;
            };
            match verdict.agreed {
                Some(first) if first == d => continue, // judged when first seen
                Some(_) => verdict.consistent = false,
                None => verdict.agreed = Some(d),
            }
            verdict.nontrivial &= inputs.iter().zip(steps).any(|(&i, &n)| n > 0 && i == d);
        }
        verdict.agreed = verdict.agreed.filter(|_| verdict.consistent);
        verdict
    }

    /// The value every processor decided, when all decided on one.
    pub fn unanimous(&self) -> Option<Val> {
        self.agreed.filter(|_| self.all_decided)
    }

    /// The trial's classification: inconsistency dominates triviality, and
    /// a safe run that `stopped_short` of its goal (its step budget ran out,
    /// or its schedule ended) is undecided.
    #[inline]
    pub fn outcome(&self, stopped_short: bool) -> TrialOutcome {
        match (self.consistent, self.nontrivial, stopped_short) {
            (false, _, _) => TrialOutcome::Inconsistent,
            (true, false, _) => TrialOutcome::Trivial,
            (true, true, true) => TrialOutcome::Undecided,
            (true, true, false) => TrialOutcome::Decided,
        }
    }
}
