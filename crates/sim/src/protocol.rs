//! The protocol abstraction: processors as (possibly probabilistic) state
//! automata, exactly as defined in §2 of the paper.
//!
//! A protocol for `n` processors is a collection of `n` transition
//! functions. Every *step* of a processor consists of a single input/output
//! operation on a shared register followed by a state transition; for a read
//! step the new state depends on the value read. Probabilistic protocols
//! attach a probability measure to the next step — modelled here as weighted
//! [`Choice`] branches, which a Monte-Carlo executor samples and a model
//! checker enumerates. The adversary scheduler sees the complete
//! configuration but never a branch before it is taken (the paper: the
//! scheduler cannot "predict future probabilistic moves").
//!
//! Implementations of [`Protocol`] are **pure**: all mutable execution state
//! lives in the executor ([`crate::executor`]) or the model checker, so the
//! same protocol value can be exercised by both.

use crate::rng::Rng;
use cil_registers::{RegId, RegisterSpec};
use std::fmt;
use std::hash::Hash;

/// An input/decision value.
///
/// The paper's value set `V` is arbitrary with `|V| ≥ 2`; binary protocols
/// use `{a, b}`, which we encode as `Val(0)` / `Val(1)` (see
/// [`Val::A`] / [`Val::B`]). The k-valued protocol of Theorem 5 uses
/// `Val(0..k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Val(pub u64);

impl Val {
    /// The paper's decision value `a`.
    pub const A: Val = Val(0);
    /// The paper's decision value `b`.
    pub const B: Val = Val(1);
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Val::A => f.write_str("a"),
            Val::B => f.write_str("b"),
            Val(v) => write!(f, "v{v}"),
        }
    }
}

impl From<u64> for Val {
    fn from(v: u64) -> Self {
        Val(v)
    }
}

impl cil_registers::Packable for Val {
    #[inline]
    fn pack(&self) -> u64 {
        self.0
    }
    #[inline]
    fn unpack(word: u64) -> Self {
        Val(word)
    }
}

/// The single shared-memory operation performed by one step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op<R> {
    /// Atomic read of a register; the value read feeds the transition.
    Read(RegId),
    /// Atomic write of a value into a register.
    Write(RegId, R),
}

impl<R> Op<R> {
    /// The register this operation touches.
    pub fn reg(&self) -> RegId {
        match self {
            Op::Read(r) => *r,
            Op::Write(r, _) => *r,
        }
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write(..))
    }

    /// The value a write operation carries (`None` for reads).
    pub fn write_value(&self) -> Option<&R> {
        match self {
            Op::Read(_) => None,
            Op::Write(_, v) => Some(v),
        }
    }
}

/// A finite probability distribution given by positive integer weights.
///
/// `Choice::det(x)` is the Dirac distribution; `Choice::coin(h, t)` is the
/// paper's unbiased coin. The executor samples branches with
/// [`Choice::sample`]; the model checker and MDP solver enumerate
/// [`Choice::branches`] with exact rational weights.
///
/// The one- and two-branch cases (every choice the paper's protocols make)
/// are stored inline, so constructing and sampling them never touches the
/// heap — the serve engine's step loop depends on this.
#[derive(Clone)]
pub struct Choice<T> {
    branches: Branches<T>,
}

/// Inline small-vector storage for branches. `One`/`Two` cover `det` and
/// `coin` without allocating; `Many` is the spill path for `uniform`,
/// wide `weighted` lists, and the unvalidated `weighted_raw` (which must
/// also represent the empty list).
#[derive(Clone)]
enum Branches<T> {
    One((u32, T)),
    Two([(u32, T); 2]),
    Many(Vec<(u32, T)>),
}

impl<T> Choice<T> {
    /// Deterministic choice.
    pub fn det(value: T) -> Self {
        Choice {
            branches: Branches::One((1, value)),
        }
    }

    /// An unbiased coin: `heads` and `tails` with probability 1/2 each.
    pub fn coin(heads: T, tails: T) -> Self {
        Choice {
            branches: Branches::Two([(1, heads), (1, tails)]),
        }
    }

    /// Normalizes a branch list into the inline representation where it
    /// fits. The empty list stays `Many` — only `weighted_raw` produces it.
    fn from_vec(mut branches: Vec<(u32, T)>) -> Self {
        let branches = match branches.len() {
            1 => Branches::One(branches.pop().expect("len checked")),
            2 => {
                let b = branches.pop().expect("len checked");
                let a = branches.pop().expect("len checked");
                Branches::Two([a, b])
            }
            _ => Branches::Many(branches),
        };
        Choice { branches }
    }

    /// Uniform choice over the given values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn uniform(values: impl IntoIterator<Item = T>) -> Self {
        let branches: Vec<(u32, T)> = values.into_iter().map(|v| (1, v)).collect();
        assert!(!branches.is_empty(), "uniform choice over nothing");
        Choice::from_vec(branches)
    }

    /// Arbitrary positive weights.
    ///
    /// # Panics
    ///
    /// Panics if `branches` is empty or any weight is zero.
    pub fn weighted(branches: Vec<(u32, T)>) -> Self {
        assert!(!branches.is_empty(), "weighted choice over nothing");
        assert!(
            branches.iter().all(|&(w, _)| w > 0),
            "weights must be positive"
        );
        Choice::from_vec(branches)
    }

    /// Builds a choice from raw branches **without validating** that the
    /// weights form a probability measure.
    ///
    /// Every checked constructor ([`det`](Choice::det), [`coin`](Choice::coin),
    /// [`uniform`](Choice::uniform), [`weighted`](Choice::weighted)) rejects
    /// empty or zero-weight branch lists, so well-behaved protocols never
    /// need this. It exists for fault injection: seeded mutation protocols
    /// use it to smuggle a malformed measure past the constructors, and the
    /// `cil-audit` static analyzer must catch it (its check (c): coin-flip
    /// weights are well-formed probability measures).
    pub fn weighted_raw(branches: Vec<(u32, T)>) -> Self {
        Choice::from_vec(branches)
    }

    /// The weighted branches (weight, outcome).
    pub fn branches(&self) -> &[(u32, T)] {
        match &self.branches {
            Branches::One(b) => std::slice::from_ref(b),
            Branches::Two(b) => b,
            Branches::Many(b) => b,
        }
    }

    /// Total weight of all branches, summed without overflow.
    pub fn total_weight(&self) -> u64 {
        self.branches().iter().map(|&(w, _)| u64::from(w)).sum()
    }

    /// Whether the choice is deterministic (a single branch).
    pub fn is_det(&self) -> bool {
        self.branches().len() == 1
    }

    /// Samples a branch with the given randomness source.
    ///
    /// Allocation-free: the cumulative scan of [`Rng::weighted`] is inlined
    /// over the borrowed branches, drawing the exact same `Rng::below(total)`
    /// sequence, so seeded runs are bit-identical to the historical
    /// collect-then-`weighted` implementation.
    pub fn sample(&self, rng: &mut dyn Rng) -> &T {
        let branches = self.branches();
        if branches.len() == 1 {
            return &branches[0].1;
        }
        let total = self.total_weight();
        assert!(total > 0, "weights must sum to a positive value");
        let mut x = rng.below(total);
        for (w, value) in branches {
            let w = u64::from(*w);
            if x < w {
                return value;
            }
            x -= w;
        }
        unreachable!("weighted pick fell through")
    }

    /// Maps the outcomes, preserving weights.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> Choice<U> {
        let mut f = f;
        let branches = match self.branches {
            Branches::One((w, t)) => Branches::One((w, f(t))),
            Branches::Two([(wa, a), (wb, b)]) => Branches::Two([(wa, f(a)), (wb, f(b))]),
            Branches::Many(b) => Branches::Many(b.into_iter().map(|(w, t)| (w, f(t))).collect()),
        };
        Choice { branches }
    }
}

impl<T: fmt::Debug> fmt::Debug for Choice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Choice")
            .field("branches", &self.branches())
            .finish()
    }
}

impl<T: PartialEq> PartialEq for Choice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.branches() == other.branches()
    }
}

impl<T: Eq> Eq for Choice<T> {}

impl<T: Hash> Hash for Choice<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash as the branch slice so representation (inline vs spilled)
        // never shows through.
        self.branches().hash(state);
    }
}

/// A coordination protocol: `n` replicated probabilistic automata over a set
/// of shared single-writer registers.
///
/// One *step* of processor `pid` is executed as (by [`step`](crate::step)):
///
/// 1. `choose(pid, state)` — sample/enumerate the operation the step
///    performs (the coin may decide what gets written, as in Fig. 1's
///    "flip an unbiased coin; if heads rewrite r₀ ← r₀ else write r₀ ← v₀");
/// 2. the operation is applied atomically to the shared memory;
/// 3. `transit(pid, state, op, read)` — sample/enumerate the successor
///    state, where `read` carries the value returned by a read operation.
///
/// Decisions are **irrevocable**: once `decision` returns `Some(v)` for a
/// state, every successor state must report the same value (the paper's
/// output register `o_P` is written once). The executor stops scheduling a
/// processor once it has decided — the paper's "decide … and quit".
///
/// The built-in protocols mark `init`, `choose`, `transit` and `decision`
/// (and the helpers those call on every step) `#[inline]`. The engines
/// that run them (`cil-serve`'s arena, [`Runner`](crate::Runner)) are
/// generic and compiled, with the `#[inline]` kernel [`step`](crate::step),
/// in the caller's crate, while a non-generic impl is compiled once, in its
/// own crate. The workspace builds without LTO, and
/// the benchmark builds as a package of its own, so without the attribute
/// a release build calls each kernel out of line: a Fig. 1 step then pays
/// two calls and returns its `Choice` through memory. With it the whole
/// step compiles as one piece of code. A new protocol meant for the serve
/// engine should do the same.
pub trait Protocol {
    /// Internal state of one processor (the paper's `S_P`); must be
    /// hashable so model checkers can enumerate configurations and the
    /// adaptive adversary can inspect it.
    type State: Clone + Eq + Hash + fmt::Debug;
    /// Contents of one shared register.
    type Reg: Clone + Eq + Hash + fmt::Debug;

    /// Number of processors `n ≥ 2`.
    fn processes(&self) -> usize;

    /// The shared registers: ids must be dense `0..m`, each with one writer.
    /// Initial contents encode the paper's ⊥.
    fn registers(&self) -> Vec<RegisterSpec<Self::Reg>>;

    /// Initial state `I_P` of processor `pid` with the given input value.
    fn init(&self, pid: usize, input: Val) -> Self::State;

    /// The operation the next step of `pid` performs.
    fn choose(&self, pid: usize, state: &Self::State) -> Choice<Op<Self::Reg>>;

    /// The state transition after the operation completes; `read` is
    /// `Some(value)` iff the operation was a read.
    fn transit(
        &self,
        pid: usize,
        state: &Self::State,
        op: &Op<Self::Reg>,
        read: Option<&Self::Reg>,
    ) -> Choice<Self::State>;

    /// The decision recorded in the output register, if any.
    fn decision(&self, state: &Self::State) -> Option<Val>;

    /// Introspection hook for adaptive adversaries: the processor's current
    /// preferred value, when the protocol has such a notion.
    fn preference(&self, _pid: usize, _state: &Self::State) -> Option<Val> {
        None
    }

    /// A short human-readable protocol name for reports.
    fn name(&self) -> String {
        std::any::type_name::<Self>()
            .rsplit("::")
            .next()
            .unwrap_or("protocol")
            .to_string()
    }
}

/// Blanket implementation so `&P` is usable wherever a protocol is expected.
impl<P: Protocol + ?Sized> Protocol for &P {
    type State = P::State;
    type Reg = P::Reg;

    fn processes(&self) -> usize {
        (**self).processes()
    }
    fn registers(&self) -> Vec<RegisterSpec<Self::Reg>> {
        (**self).registers()
    }
    fn init(&self, pid: usize, input: Val) -> Self::State {
        (**self).init(pid, input)
    }
    fn choose(&self, pid: usize, state: &Self::State) -> Choice<Op<Self::Reg>> {
        (**self).choose(pid, state)
    }
    fn transit(
        &self,
        pid: usize,
        state: &Self::State,
        op: &Op<Self::Reg>,
        read: Option<&Self::Reg>,
    ) -> Choice<Self::State> {
        (**self).transit(pid, state, op, read)
    }
    fn decision(&self, state: &Self::State) -> Option<Val> {
        (**self).decision(state)
    }
    fn preference(&self, pid: usize, state: &Self::State) -> Option<Val> {
        (**self).preference(pid, state)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{ScriptedCoins, SplitMix64};

    #[test]
    fn det_choice_has_one_branch() {
        let c = Choice::det(7);
        assert!(c.is_det());
        assert_eq!(c.branches(), &[(1, 7)]);
        let mut rng = SplitMix64::new(0);
        assert_eq!(*c.sample(&mut rng), 7);
    }

    #[test]
    fn coin_choice_samples_both_sides() {
        let c = Choice::coin("h", "t");
        let mut rng = SplitMix64::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(*c.sample(&mut rng));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn scripted_sampling_is_steerable() {
        let c = Choice::coin(1, 2);
        // weighted([1,1]) consumes one u64: all-ones → total=2, below(2)
        // takes the low bit of u64::MAX = 1 → second branch.
        let mut heads = ScriptedCoins::new([true]);
        assert_eq!(*c.sample(&mut heads), 2);
        let mut tails = ScriptedCoins::new([false]);
        assert_eq!(*c.sample(&mut tails), 1);
    }

    #[test]
    fn det_and_coin_use_inline_storage() {
        // The executor hot path relies on det/coin (and two-branch weighted
        // lists) staying on the stack; spilling to Many would reintroduce a
        // heap allocation per protocol step.
        assert!(matches!(Choice::det(7).branches, Branches::One(_)));
        assert!(matches!(Choice::coin(1, 2).branches, Branches::Two(_)));
        assert!(matches!(
            Choice::weighted(vec![(3, 1), (1, 2)]).branches,
            Branches::Two(_)
        ));
        assert!(matches!(
            Choice::uniform([1, 2, 3]).branches,
            Branches::Many(_)
        ));
    }

    #[test]
    fn representation_never_shows_through_eq_hash_debug() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        let inline = Choice::coin('h', 't');
        let spilled = Choice {
            branches: Branches::Many(vec![(1, 'h'), (1, 't')]),
        };
        assert_eq!(inline, spilled);
        let digest = |c: &Choice<char>| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&inline), digest(&spilled));
        assert_eq!(format!("{inline:?}"), format!("{spilled:?}"));
    }

    #[test]
    fn weighted_rejects_zero_weights() {
        let r = std::panic::catch_unwind(|| Choice::weighted(vec![(0u32, 1)]));
        assert!(r.is_err());
    }

    #[test]
    fn map_preserves_weights() {
        let c = Choice::weighted(vec![(3, 1), (1, 2)]).map(|x| x * 10);
        assert_eq!(c.branches(), &[(3, 10), (1, 20)]);
    }

    #[test]
    fn op_accessors() {
        let w: Op<u8> = Op::Write(RegId(3), 9);
        let r: Op<u8> = Op::Read(RegId(1));
        assert!(w.is_write() && !r.is_write());
        assert_eq!(w.reg(), RegId(3));
        assert_eq!(r.reg(), RegId(1));
        assert_eq!(w.write_value(), Some(&9));
        assert_eq!(r.write_value(), None);
    }

    #[test]
    fn raw_constructor_skips_validation_and_total_weight_is_exact() {
        // weighted() would panic on the zero weight; weighted_raw must not —
        // catching this malformed measure is cil-audit's job, not ours.
        let c = Choice::weighted_raw(vec![(0u32, 'x'), (u32::MAX, 'y')]);
        assert_eq!(c.branches().len(), 2);
        assert_eq!(c.total_weight(), u64::from(u32::MAX));
        let empty: Choice<char> = Choice::weighted_raw(vec![]);
        assert_eq!(empty.total_weight(), 0);
    }

    #[test]
    fn val_display_names_paper_values() {
        assert_eq!(Val::A.to_string(), "a");
        assert_eq!(Val::B.to_string(), "b");
        assert_eq!(Val(5).to_string(), "v5");
    }
}
