//! Adversary schedulers.
//!
//! The paper views the scheduler as "an adversary that tries to prevent us
//! from reaching our goal", and grants it the strongest possible knowledge:
//! the complete internal state of every processor and the contents of all
//! shared registers — everything except *future* coin flips. [`View`] is
//! exactly that knowledge; an [`Adversary`] maps it to the next processor to
//! activate.
//!
//! The suite here ranges from benign ([`RoundRobin`], [`RandomScheduler`])
//! through the paper's named schedules ([`Solo`] is the `(1,1,1,…)` schedule
//! used in Lemma 2) to adaptive heuristics ([`SplitKeeper`], [`LaggardFirst`])
//! that actively try to prolong disagreement. The *provably optimal*
//! adversary for small protocols is computed by the `cil-mc` crate's MDP
//! solver and replayed through its policy adversary.

use crate::protocol::{Protocol, Val};
use crate::rng::{Rng, Xoshiro256StarStar};
use std::collections::HashMap;

/// The adversary's omniscient view of a configuration.
#[derive(Debug)]
pub struct View<'a, P: Protocol> {
    /// The protocol under execution (for introspection hooks).
    pub protocol: &'a P,
    /// Internal state of every processor.
    pub states: &'a [P::State],
    /// Contents of every shared register.
    pub regs: &'a [P::Reg],
    /// Number of activations of each processor so far.
    pub steps: &'a [u64],
    /// Which processors have crashed (fail-stop).
    pub crashed: &'a [bool],
    /// Global step count.
    pub total_steps: u64,
}

impl<'a, P: Protocol> View<'a, P> {
    /// Whether processor `pid` may be scheduled: it has not crashed and its
    /// state is not a decision state.
    pub fn is_eligible(&self, pid: usize) -> bool {
        !self.crashed[pid] && self.protocol.decision(&self.states[pid]).is_none()
    }

    /// The processors that may be scheduled ([`View::is_eligible`]), in
    /// ascending pid order. It is an iterator, so a pick that walks it
    /// allocates nothing; collect it to keep the list.
    pub fn eligible(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.states.len()).filter(move |&pid| self.is_eligible(pid))
    }

    /// Current preference of each processor (where the protocol exposes one).
    pub fn preferences(&self) -> Vec<Option<Val>> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| self.protocol.preference(i, s))
            .collect()
    }
}

/// A scheduler: picks the next processor among [`View::eligible`].
///
/// Returning an ineligible processor is a bug; the executor panics on it so
/// broken adversaries are loud.
pub trait Adversary<P: Protocol> {
    /// Chooses the next processor to activate.
    fn pick(&mut self, view: &View<'_, P>) -> usize;

    /// Name for reports.
    fn name(&self) -> String {
        std::any::type_name::<Self>()
            .rsplit("::")
            .next()
            .unwrap_or("adversary")
            .to_string()
    }
}

/// Cyclic fair schedule `0, 1, …, n−1, 0, …` (skipping ineligible pids).
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P: Protocol> Adversary<P> for RoundRobin {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        let n = view.states.len();
        for _ in 0..n {
            let pid = self.next % n;
            self.next = (self.next + 1) % n;
            if view.is_eligible(pid) {
                return pid;
            }
        }
        // No eligible processor; executor should not have asked.
        view.eligible().next().unwrap_or(0)
    }

    fn name(&self) -> String {
        "round-robin".into()
    }
}

/// Replays a fixed schedule, then falls back to round-robin. Ineligible
/// entries are skipped. This is how recorded traces are replayed.
#[derive(Debug, Clone)]
pub struct FixedSchedule {
    schedule: Vec<usize>,
    pos: usize,
    fallback: RoundRobin,
}

impl FixedSchedule {
    /// Creates a replay scheduler from an explicit processor list, e.g. the
    /// paper's `(2,3,3,2,1)` (zero-indexed here).
    pub fn new(schedule: Vec<usize>) -> Self {
        FixedSchedule {
            schedule,
            pos: 0,
            fallback: RoundRobin::new(),
        }
    }
}

impl<P: Protocol> Adversary<P> for FixedSchedule {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        while self.pos < self.schedule.len() {
            let pid = self.schedule[self.pos];
            self.pos += 1;
            if view.is_eligible(pid) {
                return pid;
            }
        }
        self.fallback.pick(view)
    }

    fn name(&self) -> String {
        "fixed-schedule".into()
    }
}

/// Uniformly random eligible processor — the "benign" probabilistic
/// scheduler.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: Xoshiro256StarStar,
}

impl RandomScheduler {
    /// Creates the scheduler with its own deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: Xoshiro256StarStar::new(seed),
        }
    }
}

impl<P: Protocol> Adversary<P> for RandomScheduler {
    /// Draws `k` below the number of eligible processors and returns the
    /// `k`-th of them in pid order, without building the list.
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        let k = self.rng.below(view.eligible().count() as u64) as usize;
        view.eligible()
            .nth(k)
            .expect("k is below the eligible count")
    }

    fn name(&self) -> String {
        "random".into()
    }
}

/// Runs one processor solo as long as it is eligible — the paper's schedule
/// `S_1 = (1, 1, 1, …)` from Lemma 2 — then falls back to round-robin.
#[derive(Debug, Clone)]
pub struct Solo {
    target: usize,
    fallback: RoundRobin,
}

impl Solo {
    /// Creates the scheduler favouring `target`.
    pub fn new(target: usize) -> Self {
        Solo {
            target,
            fallback: RoundRobin::new(),
        }
    }
}

impl<P: Protocol> Adversary<P> for Solo {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        let t = self.target;
        if view.is_eligible(t) {
            t
        } else {
            self.fallback.pick(view)
        }
    }

    fn name(&self) -> String {
        format!("solo({})", self.target)
    }
}

/// Adaptive heuristic: keep the preference split alive.
///
/// Schedules an eligible processor belonging to the **largest** preference
/// class, breaking ties by fewest steps taken. Intuition (from the Theorem 7
/// analysis): a majority member that reads a disagreeing register may flip,
/// so agreement keeps getting disturbed; minority members are starved so the
/// split never resolves in their favour either.
#[derive(Debug, Clone, Default)]
pub struct SplitKeeper;

impl SplitKeeper {
    /// Creates the heuristic.
    pub fn new() -> Self {
        SplitKeeper
    }
}

impl<P: Protocol> Adversary<P> for SplitKeeper {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        let prefs = view.preferences();
        let mut class_size: HashMap<Option<Val>, usize> = HashMap::new();
        for p in &prefs {
            *class_size.entry(*p).or_insert(0) += 1;
        }
        view.eligible()
            .max_by_key(|&pid| (class_size[&prefs[pid]], std::cmp::Reverse(view.steps[pid])))
            .expect("no eligible processor")
    }

    fn name(&self) -> String {
        "split-keeper".into()
    }
}

/// Adaptive heuristic: always schedule the processor that has taken the
/// fewest steps (the "laggard"). Against leader-based protocols (§5, §6)
/// this keeps the laggard forever close behind the leaders, delaying the
/// two-ahead decision rule as long as possible.
#[derive(Debug, Clone, Default)]
pub struct LaggardFirst;

impl LaggardFirst {
    /// Creates the heuristic.
    pub fn new() -> Self {
        LaggardFirst
    }
}

impl<P: Protocol> Adversary<P> for LaggardFirst {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        view.eligible()
            .min_by_key(|&pid| view.steps[pid])
            .expect("no eligible processor")
    }

    fn name(&self) -> String {
        "laggard-first".into()
    }
}

/// Adaptive heuristic: always schedule the processor that has taken the
/// most steps, starving everyone else — the mirror image of
/// [`LaggardFirst`], and the schedule shape used against wait-freedom
/// (one fast processor must still decide alone).
#[derive(Debug, Clone, Default)]
pub struct LeaderFirst;

impl LeaderFirst {
    /// Creates the heuristic.
    pub fn new() -> Self {
        LeaderFirst
    }
}

impl<P: Protocol> Adversary<P> for LeaderFirst {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        view.eligible()
            .max_by_key(|&pid| view.steps[pid])
            .expect("no eligible processor")
    }

    fn name(&self) -> String {
        "leader-first".into()
    }
}

/// Boxed adversary, so suites of heterogeneous adversaries can be iterated.
pub type BoxedAdversary<P> = Box<dyn Adversary<P>>;

impl<P: Protocol> Adversary<P> for BoxedAdversary<P> {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        (**self).pick(view)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}
