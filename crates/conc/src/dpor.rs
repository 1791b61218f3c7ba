//! Stateless DPOR: exhaustive native interleaving exploration with
//! sleep-set partial-order reduction and partitioned parallel verify.
//!
//! The explorer enumerates *every* interleaving of register operations (and
//! every coin outcome, as an explicit branch) of a protocol running on real
//! OS threads, up to a depth bound. Each execution is one controlled run
//! under a [`crate::Coordinator`] driven by a directive-replaying strategy,
//! so the exploration is *stateless* in the model-checking sense: nothing is
//! checkpointed, every node of the schedule tree is revisited by
//! re-executing its prefix on fresh threads — which is exactly what makes
//! the coverage claim about the *native* execution rather than a model of
//! it.
//!
//! # Reduction
//!
//! Two steps commute iff they touch different registers or both only read
//! ([`crate::indep::Access::dependent`]). Sleep sets exploit this: when a
//! scheduling alternative is exhausted at a node, the pid is put to sleep
//! for the sibling subtrees and only woken by a dependent access. Sleeping
//! executions are provably redundant — at least one linearization of every
//! Mazurkiewicz trace survives — so the reduced run set still reaches every
//! reachable configuration (same terminal configurations at the same
//! depths, same decision-vector set); only the *number* of explored
//! executions shrinks. `naive` mode disables the reduction, which makes the
//! execution count equal the simulator's path count — the cross-validation
//! hook [`cross_validate`] checks both facts against a DP over
//! [`cil_mc::successors`].
//!
//! # Determinism and partitioning
//!
//! Every run forces every coin, so a run is a pure function of its
//! directive prefix; the whole exploration is deterministic. In partitioned
//! mode the tree is split at a fixed depth: a serial first phase enumerates
//! the split-depth frontier, then workers expand the frontier subtrees from
//! a shared queue. The unit list and every per-unit result are independent
//! of the worker count, and units merge in discovery order — so violations,
//! counts, and the XOR-folded execution digest are byte-identical at any
//! `--jobs`.

use crate::coordinator::ConcHalt;
use crate::indep::{stays_asleep, Access, AccessSet, StaticIndep};
use crate::run::{ConcOutcome, ControlledRun};
use crate::strategy::Strategy;
use crate::stress::GateTimingAgg;
use cil_mc::Config;
use cil_obs::metrics::{LogHistogram, Registry};
use cil_registers::{Packable, RegId};
use cil_sim::{PackCodec, Protocol, TrialOutcome, Val, WordCodec};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Configuration of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct DporConfig {
    /// Maximum serialized steps per execution. Executions cut here count as
    /// `truncated`, so a certificate is always "exhaustive to depth D".
    pub depth_bound: u64,
    /// Worker threads for the partitioned phase (`0` = all cores). Results
    /// are identical at any setting.
    pub jobs: usize,
    /// Disable the sleep-set reduction (explore every interleaving).
    pub naive: bool,
    /// Run the bounded-preemption hunt pass first (CHESS-style): `Some(c)`
    /// explores schedules with at most `c` preemptions, continuation-first,
    /// and skips the exhaustive pass if it already finds a violation.
    pub hunt_preemptions: Option<u32>,
    /// Depth at which the partitioned mode splits the schedule tree into
    /// independently explorable frontier subtrees.
    pub split_depth: u64,
    /// Violating executions to keep as samples (the rest are only counted).
    pub max_violation_samples: usize,
    /// Statically computed access footprints (from `cil-audit`'s footprint
    /// table). When present, sleeping threads whose first access was never
    /// observed use the static first-step union instead of the conservative
    /// wake-on-anything fallback, and every observed access is validated
    /// against the static universe ([`DporReport::footprint_misses`]).
    pub static_indep: Option<Arc<StaticIndep>>,
}

impl Default for DporConfig {
    fn default() -> Self {
        DporConfig {
            depth_bound: 24,
            jobs: 1,
            naive: false,
            hunt_preemptions: Some(2),
            split_depth: 3,
            max_violation_samples: 8,
            static_indep: None,
        }
    }
}

/// One violating execution: a complete deterministic repro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DporViolation {
    /// What went wrong (`Inconsistent` or `Trivial`).
    pub kind: TrialOutcome,
    /// The executed schedule — replaying it reproduces the violation.
    pub schedule: Vec<usize>,
    /// Decision per processor when the run halted.
    pub decisions: Vec<Option<Val>>,
    /// Serialized steps the execution took.
    pub total_steps: u64,
}

/// A terminal configuration reached by a complete execution: the shared
/// half as packed register words plus every processor's decision, at the
/// exact depth it was reached. Directly comparable with the simulator's
/// configuration graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TerminalConfig {
    /// Steps from the initial configuration.
    pub depth: u64,
    /// Final packed word of every register, in spec order.
    pub reg_words: Vec<u64>,
    /// Decision value of every processor (all decided at a terminal).
    pub decisions: Vec<u64>,
}

/// What the bounded-preemption hunt pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuntReport {
    /// Preemption bound `c` the pass ran with.
    pub preemption_bound: u32,
    /// Executions the pass explored.
    pub runs: u64,
    /// Executions cut by the preemption budget.
    pub cut: u64,
    /// Whether the pass found a violation (the exhaustive pass is skipped).
    pub found: bool,
}

/// Everything one exploration established.
#[derive(Debug, Clone)]
pub struct DporReport {
    /// Protocol display name.
    pub protocol: String,
    /// Inputs the exploration started from.
    pub inputs: Vec<Val>,
    /// Depth bound used.
    pub depth_bound: u64,
    /// Worker threads requested (`0` = all cores).
    pub jobs: usize,
    /// Whether the sleep-set reduction was disabled.
    pub naive: bool,
    /// Whether static access footprints backed the sleep sets.
    pub static_indep: bool,
    /// Observed accesses outside the static footprint table's universe.
    /// Non-zero means the table failed to over-approximate the native
    /// execution — a soundness bug in the analysis. Always zero without
    /// [`DporConfig::static_indep`].
    pub footprint_misses: u64,
    /// Hunt-pass summary, when one ran.
    pub hunt: Option<HuntReport>,
    /// Whether the exhaustive pass ran to completion. `false` only when the
    /// hunt already found a violation and the pass was skipped.
    pub exhaustive: bool,
    /// Frontier subtrees the partitioned mode split the tree into (0 when
    /// the exploration ran as a single serial DFS).
    pub frontier_roots: u64,
    /// Executions the exhaustive pass explored.
    pub executions: u64,
    /// Executions that ran to a terminal configuration.
    pub complete: u64,
    /// Executions cut by the depth bound.
    pub truncated: u64,
    /// Executions abandoned because every enabled thread was asleep (the
    /// reduction proved the continuation redundant).
    pub sleep_blocked: u64,
    /// Total serialized steps across explored executions.
    pub steps_total: u64,
    /// XOR-fold of one FNV-1a hash per explored execution — byte-identical
    /// at any `jobs`, and between partitioned and serial mode. Zero when
    /// the exhaustive pass was skipped.
    pub digest: u64,
    /// Violating executions found (hunt + exhaustive).
    pub violations: u64,
    /// The first [`DporConfig::max_violation_samples`] violations, in
    /// deterministic discovery order.
    pub violation_samples: Vec<DporViolation>,
    /// Every decision vector (one value per processor) reachable within the
    /// depth bound.
    pub decision_vectors: BTreeSet<Vec<u64>>,
    /// Every terminal configuration reached, with its exact depth.
    pub terminal_configs: BTreeSet<TerminalConfig>,
    /// Complete executions by depth.
    pub depth_histogram: BTreeMap<u64, u64>,
}

impl DporReport {
    /// Whether the exploration certifies the protocol safe to the depth
    /// bound: the exhaustive pass completed and nothing violated.
    pub fn certified(&self) -> bool {
        self.exhaustive && self.violations == 0
    }
}

/// One scheduling directive: which pid steps, and which coin branches its
/// choose/transit stages are forced to (`None` = single branch / first).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Directive {
    pid: usize,
    choose: Option<usize>,
    transit: Option<usize>,
}

/// What the strategy observed about one executed step.
#[derive(Debug, Clone)]
struct StepObs {
    pid: usize,
    /// Runnable set at the scheduling point (sorted ascending).
    enabled: Vec<usize>,
    access: Access,
    /// `(branches, taken)` of the choose-stage coin, when one was flipped.
    choose: Option<(usize, usize)>,
    /// `(branches, taken)` of the transit-stage coin.
    transit: Option<(usize, usize)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Every enabled thread was asleep — the continuation is redundant.
    Sleep,
    /// The hunt pass ran out of preemption budget.
    Bound,
}

/// The observation channel one run fills for the explorer.
#[derive(Debug, Clone, Default)]
struct RunTrace {
    steps: Vec<StepObs>,
    blocked: Option<Block>,
    diverged: bool,
    /// Observed accesses outside the static footprint universe.
    footprint_misses: u64,
}

/// The strategy that drives one exploration run: replays a directive
/// prefix, then extends by a fixed deterministic policy, recording every
/// step's enabled set, access, and coin outcome.
struct Directed {
    directives: Vec<Directive>,
    /// Working sleep set: the branch node's set on entry, with dependent
    /// accesses waking entries from the last directive step onward.
    sleep: Vec<(usize, AccessSet)>,
    /// Remaining preemption budget *after* the directive prefix (hunt pass
    /// only; `None` = unbounded).
    budget: Option<u32>,
    /// Static footprints backing empty sleep entries (plus validation).
    statics: Option<Arc<StaticIndep>>,
    prev: Option<usize>,
    cur: usize,
    shared: Arc<Mutex<RunTrace>>,
}

impl Directed {
    fn trace(&self) -> std::sync::MutexGuard<'_, RunTrace> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Strategy for Directed {
    fn name(&self) -> String {
        "dpor".into()
    }

    fn next(&mut self, runnable: &[usize], _step: u64) -> Option<usize> {
        let s = self.cur;
        self.cur += 1;
        let pid = if s < self.directives.len() {
            let want = self.directives[s].pid;
            if !runnable.contains(&want) {
                self.trace().diverged = true;
                return None;
            }
            want
        } else {
            let awake: Vec<usize> = runnable
                .iter()
                .copied()
                .filter(|p| !self.sleep.iter().any(|(q, _)| q == p))
                .collect();
            let Some(&first) = awake.first() else {
                self.trace().blocked = Some(Block::Sleep);
                return None;
            };
            match (self.prev, self.budget) {
                // Continuation-first under a preemption budget: keeping the
                // previous thread running is free.
                (Some(pp), Some(_)) if awake.contains(&pp) => pp,
                (Some(pp), Some(left)) => {
                    // Switching counts as a preemption only if the previous
                    // thread could have continued.
                    let cost = u32::from(runnable.contains(&pp));
                    if cost > left {
                        self.trace().blocked = Some(Block::Bound);
                        return None;
                    }
                    self.budget = Some(left - cost);
                    first
                }
                _ => first,
            }
        };
        self.trace().steps.push(StepObs {
            pid,
            enabled: runnable.to_vec(),
            access: Access {
                reg: 0,
                write: false,
            },
            choose: None,
            transit: None,
        });
        self.prev = Some(pid);
        Some(pid)
    }

    fn coin(&mut self, _pid: usize, transit: bool, branches: usize) -> Option<usize> {
        let s = self.cur.saturating_sub(1);
        let want = if s < self.directives.len() {
            let d = &self.directives[s];
            if transit { d.transit } else { d.choose }.unwrap_or(0)
        } else {
            0
        };
        debug_assert!(want < branches, "forced coin branch out of range");
        let taken = want.min(branches - 1);
        let mut tr = self.trace();
        if let Some(obs) = tr.steps.last_mut() {
            let slot = if transit {
                &mut obs.transit
            } else {
                &mut obs.choose
            };
            *slot = Some((branches, taken));
        }
        Some(taken)
    }

    fn observe(&mut self, pid: usize, reg: usize, write: bool) {
        let access = Access { reg, write };
        let mut tr = self.trace();
        let s = tr.steps.len().saturating_sub(1);
        if let Some(obs) = tr.steps.last_mut() {
            obs.access = access;
        }
        // Validate the static over-approximation: every access the native
        // run performs must be inside the stepping pid's footprint universe.
        if let Some(statics) = &self.statics {
            if !statics.covers(pid, access) {
                tr.footprint_misses += 1;
            }
        }
        drop(tr);
        // The branch node's sleep set becomes relevant from the last
        // directive step onward; earlier wakes are baked into it already.
        if s + 1 >= self.directives.len() {
            let statics = self.statics.as_deref();
            self.sleep
                .retain(|(q, set)| stays_asleep(statics, *q, set, access));
        }
    }
}

/// One coin's enumeration cursor at a schedule-tree node.
#[derive(Debug, Clone)]
struct CoinPt {
    branches: usize,
    idx: usize,
}

/// One node of the schedule tree: the scheduling alternatives at one step,
/// the enumeration cursor, and the sleep set siblings inherit.
#[derive(Debug, Clone)]
struct SchedPt {
    enabled: Vec<usize>,
    options: Vec<usize>,
    idx: usize,
    sleep: Vec<(usize, AccessSet)>,
    /// Accesses the current option's step performed, union over its coin
    /// branches — what the option goes to sleep *as* when it retires.
    first_access: AccessSet,
    choose: Option<CoinPt>,
    transit: Option<CoinPt>,
    /// Pid of the step before this node (preemption accounting).
    prev: Option<usize>,
    /// Preemption budget remaining on entry to this node (hunt pass only).
    budget: Option<u32>,
}

impl SchedPt {
    fn directive(&self) -> Directive {
        Directive {
            pid: self.options[self.idx],
            choose: self.choose.as_ref().map(|c| c.idx),
            transit: self.transit.as_ref().map(|c| c.idx),
        }
    }

    /// Budget left after taking the current option.
    fn budget_after_option(&self) -> Option<u32> {
        self.budget.map(|b| {
            let o = self.options[self.idx];
            match self.prev {
                Some(pp) if pp != o && self.enabled.contains(&pp) => b - 1,
                _ => b,
            }
        })
    }
}

/// A frozen frontier subtree: replaying `directives` from the initial
/// configuration re-enters the subtree; `base_sleep` is the deepest node's
/// sleep set at freeze time.
#[derive(Debug, Clone)]
struct FrontierRoot {
    directives: Vec<Directive>,
    base_sleep: Vec<(usize, AccessSet)>,
}

/// One work/result unit of the partitioned mode, in DFS discovery order.
enum Unit {
    Leaf(Box<Tally>),
    Frontier(FrontierRoot),
}

/// Mergeable per-unit exploration results.
#[derive(Debug, Clone, Default)]
struct Tally {
    executions: u64,
    complete: u64,
    truncated: u64,
    sleep_blocked: u64,
    bound_cut: u64,
    steps_total: u64,
    digest: u64,
    footprint_misses: u64,
    violations: u64,
    samples: Vec<DporViolation>,
    decision_vectors: BTreeSet<Vec<u64>>,
    terminal: BTreeSet<TerminalConfig>,
    histogram: BTreeMap<u64, u64>,
}

impl Tally {
    /// Folds one explored execution in; returns whether it violated.
    fn record(&mut self, outcome: &ConcOutcome, trace: &RunTrace, sample_cap: usize) -> bool {
        self.executions += 1;
        self.steps_total += outcome.total_steps;
        self.footprint_misses += trace.footprint_misses;
        match outcome.halt {
            ConcHalt::Done => {
                self.complete += 1;
                *self.histogram.entry(outcome.total_steps).or_insert(0) += 1;
                let decisions: Vec<u64> = outcome
                    .decisions
                    .iter()
                    .map(|d| d.expect("a Done run has every processor decided").0)
                    .collect();
                self.decision_vectors.insert(decisions.clone());
                self.terminal.insert(TerminalConfig {
                    depth: outcome.total_steps,
                    reg_words: outcome.reg_words.clone(),
                    decisions,
                });
            }
            ConcHalt::Budget => self.truncated += 1,
            ConcHalt::ScheduleEnded => match trace.blocked {
                Some(Block::Sleep) => self.sleep_blocked += 1,
                Some(Block::Bound) => self.bound_cut += 1,
                None => self.truncated += 1,
            },
        }
        self.digest ^= exec_hash(outcome, trace);
        // Whether the run stopped short does not matter to a violation.
        let kind = outcome.verdict().outcome(false);
        let violating = matches!(kind, TrialOutcome::Inconsistent | TrialOutcome::Trivial);
        if violating {
            self.violations += 1;
            if self.samples.len() < sample_cap {
                self.samples.push(DporViolation {
                    kind,
                    schedule: outcome.schedule.clone(),
                    decisions: outcome.decisions.clone(),
                    total_steps: outcome.total_steps,
                });
            }
        }
        violating
    }

    fn absorb(&mut self, other: Tally, sample_cap: usize) {
        self.executions += other.executions;
        self.complete += other.complete;
        self.truncated += other.truncated;
        self.sleep_blocked += other.sleep_blocked;
        self.bound_cut += other.bound_cut;
        self.steps_total += other.steps_total;
        self.digest ^= other.digest;
        self.footprint_misses += other.footprint_misses;
        self.violations += other.violations;
        for s in other.samples {
            if self.samples.len() < sample_cap {
                self.samples.push(s);
            }
        }
        self.decision_vectors.extend(other.decision_vectors);
        self.terminal.extend(other.terminal);
        for (d, n) in other.histogram {
            *self.histogram.entry(d).or_insert(0) += n;
        }
    }
}

fn fnv_mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A structural hash of one execution: schedule, accesses, coin outcomes,
/// halt reason, decisions, and terminal registers.
fn exec_hash(outcome: &ConcOutcome, trace: &RunTrace) -> u64 {
    let enc =
        |c: Option<(usize, usize)>| c.map_or(u64::MAX, |(b, t)| ((b as u64) << 32) | t as u64);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for obs in &trace.steps {
        h = fnv_mix(h, obs.pid as u64);
        h = fnv_mix(h, obs.access.reg as u64);
        h = fnv_mix(h, u64::from(obs.access.write));
        h = fnv_mix(h, enc(obs.choose));
        h = fnv_mix(h, enc(obs.transit));
    }
    h = fnv_mix(
        h,
        match outcome.halt {
            ConcHalt::Done => 1,
            ConcHalt::Budget => 2,
            ConcHalt::ScheduleEnded => 3,
        },
    );
    for d in &outcome.decisions {
        h = fnv_mix(h, d.map_or(u64::MAX, |v| v.0));
    }
    for &w in &outcome.reg_words {
        h = fnv_mix(h, w);
    }
    h
}

/// Shared inputs of one DFS pass.
struct Ctx<'a, P, C> {
    protocol: &'a P,
    inputs: &'a [Val],
    codec: &'a C,
    depth_bound: u64,
    sleep_mode: bool,
    hunt_budget: Option<u32>,
    stop_on_violation: bool,
    sample_cap: usize,
    statics: Option<Arc<StaticIndep>>,
    progress: Option<&'a (dyn Fn(u64) + Sync)>,
    timing: Option<&'a DporTiming>,
}

/// Wall-clock telemetry for an exploration: one `<prefix>.exec_ns`
/// observation per executed interleaving, plus the per-thread
/// gate-wait/run split of every execution (`<prefix>.gate_wait_ns`,
/// `<prefix>.run_ns`). All sinks are commutative `cil-obs` atomics, so
/// attaching timing never perturbs the report or its digest.
pub struct DporTiming {
    exec_ns: Arc<LogHistogram>,
    gate: GateTimingAgg,
}

/// Sub-bucket resolution of the exploration timing histograms.
const DPOR_TIMING_SUB_BITS: u32 = 5;

impl DporTiming {
    /// A timing sink registering its histograms under `<prefix>.*`.
    pub fn new(registry: &Registry, prefix: &str) -> Self {
        DporTiming {
            exec_ns: registry.log_histogram(&format!("{prefix}.exec_ns"), DPOR_TIMING_SUB_BITS),
            gate: GateTimingAgg::new(registry, prefix),
        }
    }
}

/// Advances the enumeration cursor to the next unexplored execution.
/// Returns `false` when the (sub)tree is exhausted.
fn backtrack(stack: &mut Vec<SchedPt>, sleep_mode: bool) -> bool {
    while let Some(top) = stack.last_mut() {
        if let Some(t) = top.transit.as_mut() {
            if t.idx + 1 < t.branches {
                t.idx += 1;
                return true;
            }
            top.transit = None;
        }
        if let Some(c) = top.choose.as_mut() {
            if c.idx + 1 < c.branches {
                c.idx += 1;
                return true;
            }
            top.choose = None;
        }
        let retired = top.options[top.idx];
        let first = std::mem::take(&mut top.first_access);
        if sleep_mode {
            top.sleep.push((retired, first));
        }
        top.idx += 1;
        if top.idx < top.options.len() {
            return true;
        }
        stack.pop();
    }
    false
}

/// One depth-first exploration of the subtree selected by `fixed` +
/// `base_sleep`. With `split: Some(S)`, runs are cut at depth `S` and
/// emitted as [`Unit::Frontier`] roots instead of leaves (phase 1 of the
/// partitioned mode); otherwise the whole subtree collapses into one
/// [`Unit::Leaf`] tally.
fn dfs_core<P, C>(
    ctx: &Ctx<'_, P, C>,
    fixed: &[Directive],
    base_sleep: &[(usize, AccessSet)],
    split: Option<u64>,
) -> Vec<Unit>
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    debug_assert!(
        fixed.is_empty() || ctx.hunt_budget.is_none(),
        "the hunt pass never partitions"
    );
    let run_budget = split.unwrap_or(ctx.depth_bound);
    let mut units = Vec::new();
    let mut tally = Tally::default();
    let mut stack: Vec<SchedPt> = Vec::new();
    loop {
        let mut directives: Vec<Directive> = fixed.to_vec();
        directives.extend(stack.iter().map(SchedPt::directive));
        let (sleep0, budget0) = match stack.last() {
            Some(top) => (top.sleep.clone(), top.budget_after_option()),
            None => (base_sleep.to_vec(), ctx.hunt_budget),
        };
        let shared = Arc::new(Mutex::new(RunTrace::default()));
        let strat = Directed {
            directives,
            sleep: sleep0,
            budget: budget0,
            statics: ctx.statics.clone(),
            prev: None,
            cur: 0,
            shared: Arc::clone(&shared),
        };
        let exec_started = ctx.timing.map(|_| std::time::Instant::now());
        let (outcome, times) = ControlledRun::new(ctx.protocol, ctx.inputs)
            .seed(0)
            .budget(run_budget)
            .run_timed_with_codec(ctx.codec, Box::new(strat), ctx.timing.is_some());
        if let (Some(t), Some(started)) = (ctx.timing, exec_started) {
            t.exec_ns
                .observe(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if let Some(times) = &times {
                t.gate.fold(times);
            }
        }
        let trace = Arc::try_unwrap(shared)
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .unwrap_or_else(|arc| arc.lock().unwrap_or_else(PoisonError::into_inner).clone());
        assert!(
            !trace.diverged,
            "directive replay diverged — the protocol is not deterministic \
             under forced coins"
        );
        let base_len = fixed.len() + stack.len();
        // Fold this run's observations into the existing nodes: accesses
        // accumulate per option, and coins cleared by backtracking are
        // re-learned (a new choose branch may flip a different transit coin).
        for (k, pt) in stack.iter_mut().enumerate() {
            let obs = &trace.steps[fixed.len() + k];
            pt.first_access.insert(obs.access);
            if pt.choose.is_none() {
                if let Some((b, t)) = obs.choose {
                    debug_assert_eq!(t, 0, "re-learned coin starts at branch 0");
                    pt.choose = Some(CoinPt {
                        branches: b,
                        idx: t,
                    });
                }
            }
            if pt.transit.is_none() {
                if let Some((b, t)) = obs.transit {
                    debug_assert_eq!(t, 0, "re-learned coin starts at branch 0");
                    pt.transit = Some(CoinPt {
                        branches: b,
                        idx: t,
                    });
                }
            }
        }
        // Open a node for every newly discovered step.
        for s in base_len..trace.steps.len() {
            let obs = trace.steps[s].clone();
            let (parent_sleep, parent_budget, prev) = if s == 0 {
                (base_sleep.to_vec(), ctx.hunt_budget, None)
            } else {
                let prev_obs = &trace.steps[s - 1];
                let k = s - fixed.len();
                let (psleep, pbudget) = if k == 0 {
                    (base_sleep.to_vec(), ctx.hunt_budget)
                } else {
                    let parent = &stack[k - 1];
                    (parent.sleep.clone(), parent.budget_after_option())
                };
                let filtered: Vec<(usize, AccessSet)> = psleep
                    .into_iter()
                    .filter(|(q, set)| {
                        stays_asleep(ctx.statics.as_deref(), *q, set, prev_obs.access)
                    })
                    .collect();
                (filtered, pbudget, Some(prev_obs.pid))
            };
            let enabled = obs.enabled.clone();
            let candidates: Vec<usize> = if ctx.sleep_mode {
                enabled
                    .iter()
                    .copied()
                    .filter(|p| !parent_sleep.iter().any(|(q, _)| q == p))
                    .collect()
            } else {
                enabled.clone()
            };
            let options: Vec<usize> = match parent_budget {
                None => candidates,
                Some(b) => {
                    let cost = |o: usize| match prev {
                        Some(pp) if pp != o && enabled.contains(&pp) => 1u32,
                        _ => 0,
                    };
                    let mut opts: Vec<usize> = Vec::new();
                    if let Some(pp) = prev {
                        if candidates.contains(&pp) && cost(pp) <= b {
                            opts.push(pp);
                        }
                    }
                    opts.extend(
                        candidates
                            .iter()
                            .copied()
                            .filter(|&o| Some(o) != prev && cost(o) <= b),
                    );
                    opts
                }
            };
            let idx = options
                .iter()
                .position(|&o| o == obs.pid)
                .expect("the executed pid is among the node's options");
            debug_assert_eq!(idx, 0, "extension policy explores the first option");
            let mut first_access = AccessSet::new();
            first_access.insert(obs.access);
            stack.push(SchedPt {
                enabled,
                options,
                idx,
                sleep: parent_sleep,
                first_access,
                choose: obs.choose.map(|(b, t)| CoinPt {
                    branches: b,
                    idx: t,
                }),
                transit: obs.transit.map(|(b, t)| CoinPt {
                    branches: b,
                    idx: t,
                }),
                prev,
                budget: parent_budget,
            });
        }
        let is_frontier =
            split.is_some_and(|s| outcome.halt == ConcHalt::Budget && outcome.total_steps == s);
        if is_frontier {
            units.push(Unit::Frontier(FrontierRoot {
                directives: stack.iter().map(SchedPt::directive).collect(),
                base_sleep: stack
                    .last()
                    .expect("a frontier run took at least one step")
                    .sleep
                    .clone(),
            }));
        } else {
            let violating = tally.record(&outcome, &trace, ctx.sample_cap);
            if let Some(p) = ctx.progress {
                p(1);
            }
            if split.is_some() {
                units.push(Unit::Leaf(Box::new(std::mem::take(&mut tally))));
            }
            if ctx.stop_on_violation && violating {
                break;
            }
        }
        if !backtrack(&mut stack, ctx.sleep_mode) {
            break;
        }
    }
    if split.is_none() {
        units.push(Unit::Leaf(Box::new(tally)));
    }
    units
}

fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Expands every frontier unit (workers pull from a shared queue) and merges
/// all units in discovery order — a jobs-invariant fold.
fn run_units<P, C>(ctx: &Ctx<'_, P, C>, units: Vec<Unit>, jobs: usize) -> (Tally, u64)
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    let roots: Vec<&FrontierRoot> = units
        .iter()
        .filter_map(|u| match u {
            Unit::Frontier(r) => Some(r),
            Unit::Leaf(_) => None,
        })
        .collect();
    let frontier_count = roots.len() as u64;
    let results: Vec<Mutex<Option<Tally>>> = roots.iter().map(|_| Mutex::new(None)).collect();
    if !roots.is_empty() {
        let workers = effective_jobs(jobs).min(roots.len());
        let next = AtomicUsize::new(0);
        std::thread::scope(|sc| {
            let roots = &roots;
            let results = &results;
            let next = &next;
            for _ in 0..workers {
                sc.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(root) = roots.get(i) else {
                        break;
                    };
                    let sub = dfs_core(ctx, &root.directives, &root.base_sleep, None);
                    let mut tally = Tally::default();
                    for u in sub {
                        if let Unit::Leaf(t) = u {
                            tally.absorb(*t, ctx.sample_cap);
                        }
                    }
                    *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(tally);
                });
            }
        });
    }
    let mut total = Tally::default();
    let mut fi = 0;
    for u in units {
        match u {
            Unit::Leaf(t) => total.absorb(*t, ctx.sample_cap),
            Unit::Frontier(_) => {
                let t = results[fi]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("every frontier unit was expanded");
                total.absorb(t, ctx.sample_cap);
                fi += 1;
            }
        }
    }
    (total, frontier_count)
}

/// Explores every interleaving of `protocol` on `inputs` with a custom
/// [`WordCodec`], per `cfg`. Optionally ticks `progress` once per explored
/// execution (from worker threads in partitioned mode).
pub fn explore_with_codec<P, C>(
    protocol: &P,
    inputs: &[Val],
    codec: &C,
    cfg: &DporConfig,
    progress: Option<&(dyn Fn(u64) + Sync)>,
) -> DporReport
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    explore_timed_with_codec(protocol, inputs, codec, cfg, progress, None)
}

/// [`explore_with_codec`] with an optional wall-clock [`DporTiming`] sink.
/// The report is byte-identical with and without it.
pub fn explore_timed_with_codec<P, C>(
    protocol: &P,
    inputs: &[Val],
    codec: &C,
    cfg: &DporConfig,
    progress: Option<&(dyn Fn(u64) + Sync)>,
    timing: Option<&DporTiming>,
) -> DporReport
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    let mut report = DporReport {
        protocol: protocol.name(),
        inputs: inputs.to_vec(),
        depth_bound: cfg.depth_bound,
        jobs: cfg.jobs,
        naive: cfg.naive,
        static_indep: cfg.static_indep.is_some(),
        footprint_misses: 0,
        hunt: None,
        exhaustive: false,
        frontier_roots: 0,
        executions: 0,
        complete: 0,
        truncated: 0,
        sleep_blocked: 0,
        steps_total: 0,
        digest: 0,
        violations: 0,
        violation_samples: Vec::new(),
        decision_vectors: BTreeSet::new(),
        terminal_configs: BTreeSet::new(),
        depth_histogram: BTreeMap::new(),
    };
    if let Some(c) = cfg.hunt_preemptions {
        let ctx = Ctx {
            protocol,
            inputs,
            codec,
            depth_bound: cfg.depth_bound,
            sleep_mode: false,
            hunt_budget: Some(c),
            stop_on_violation: true,
            sample_cap: cfg.max_violation_samples,
            statics: cfg.static_indep.clone(),
            progress,
            timing,
        };
        let mut hunt = Tally::default();
        for u in dfs_core(&ctx, &[], &[], None) {
            if let Unit::Leaf(t) = u {
                hunt.absorb(*t, cfg.max_violation_samples);
            }
        }
        let found = hunt.violations > 0;
        report.hunt = Some(HuntReport {
            preemption_bound: c,
            runs: hunt.executions,
            cut: hunt.bound_cut,
            found,
        });
        if found {
            report.violations = hunt.violations;
            report.violation_samples = hunt.samples;
            report.footprint_misses = hunt.footprint_misses;
            return report;
        }
        report.footprint_misses += hunt.footprint_misses;
    }
    let ctx = Ctx {
        protocol,
        inputs,
        codec,
        depth_bound: cfg.depth_bound,
        sleep_mode: !cfg.naive,
        hunt_budget: None,
        stop_on_violation: false,
        sample_cap: cfg.max_violation_samples,
        statics: cfg.static_indep.clone(),
        progress,
        timing,
    };
    let (tally, frontier_roots) = if cfg.depth_bound > cfg.split_depth {
        let units = dfs_core(&ctx, &[], &[], Some(cfg.split_depth));
        run_units(&ctx, units, cfg.jobs)
    } else {
        let mut t = Tally::default();
        for u in dfs_core(&ctx, &[], &[], None) {
            if let Unit::Leaf(leaf) = u {
                t.absorb(*leaf, cfg.max_violation_samples);
            }
        }
        (t, 0)
    };
    report.exhaustive = true;
    report.frontier_roots = frontier_roots;
    report.executions = tally.executions;
    report.complete = tally.complete;
    report.truncated = tally.truncated;
    report.sleep_blocked = tally.sleep_blocked;
    report.steps_total = tally.steps_total;
    report.digest = tally.digest;
    report.footprint_misses += tally.footprint_misses;
    report.violations += tally.violations;
    report.violation_samples.extend(tally.samples);
    report.violation_samples.truncate(cfg.max_violation_samples);
    report.decision_vectors = tally.decision_vectors;
    report.terminal_configs = tally.terminal;
    report.depth_histogram = tally.histogram;
    report
}

/// [`explore_with_codec`] with the [`Packable`] encoding.
pub fn explore<P>(
    protocol: &P,
    inputs: &[Val],
    cfg: &DporConfig,
    progress: Option<&(dyn Fn(u64) + Sync)>,
) -> DporReport
where
    P: Protocol + Sync,
    P::Reg: Packable + Send + Sync,
{
    explore_with_codec(protocol, inputs, &PackCodec, cfg, progress)
}

/// What [`cross_validate`] established about a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossCheck {
    /// Distinct terminal configurations (with depth) both sides reached.
    pub terminal_configs: usize,
    /// Distinct decision vectors both sides reached.
    pub decision_vectors: usize,
    /// Simulator path count (= the naive execution count), when the report
    /// was naive and the count was checked.
    pub sim_executions: Option<u64>,
}

/// Cross-validates a report against the simulator's configuration graph: a
/// dynamic program over [`cil_mc::successors`] (one path per pid × choose ×
/// transit branch, the explorer's exact branching granularity) recomputes
/// the reachable decision vectors, the terminal configurations with their
/// depths, and — for naive reports — the per-depth path counts, truncated
/// path count, and total execution count, then checks them config-for-config
/// against what the native exploration enumerated.
///
/// Requires a report whose exhaustive pass completed (run with
/// `hunt_preemptions: None`, or one where the hunt found nothing).
///
/// # Errors
///
/// Returns a message naming the first divergence.
pub fn cross_validate<P, C>(
    protocol: &P,
    inputs: &[Val],
    codec: &C,
    report: &DporReport,
) -> Result<CrossCheck, String>
where
    P: Protocol,
    C: WordCodec<P::Reg>,
{
    if !report.exhaustive {
        return Err("report's exhaustive pass did not run (hunt found a violation)".into());
    }
    let depth_bound = report.depth_bound;
    let mut level: HashMap<Config<P>, u64> = HashMap::new();
    level.insert(Config::initial(protocol, inputs), 1);
    let mut sim_vectors: BTreeSet<Vec<u64>> = BTreeSet::new();
    let mut sim_terminal: BTreeSet<TerminalConfig> = BTreeSet::new();
    let mut sim_hist: BTreeMap<u64, u64> = BTreeMap::new();
    let mut sim_truncated: u64 = 0;
    for depth in 0..=depth_bound {
        for (cfg, &count) in &level {
            if cfg.eligible(protocol).is_empty() {
                let decisions: Vec<u64> = cfg
                    .decisions(protocol)
                    .iter()
                    .map(|d| d.expect("terminal config has every processor decided").0)
                    .collect();
                let reg_words: Vec<u64> = cfg
                    .regs
                    .iter()
                    .enumerate()
                    .map(|(i, r)| codec.pack(RegId(i), r))
                    .collect();
                sim_vectors.insert(decisions.clone());
                sim_terminal.insert(TerminalConfig {
                    depth,
                    reg_words,
                    decisions,
                });
                *sim_hist.entry(depth).or_insert(0) += count;
            } else if depth == depth_bound {
                sim_truncated += count;
            }
        }
        if depth == depth_bound {
            break;
        }
        let mut next: HashMap<Config<P>, u64> = HashMap::new();
        for (cfg, count) in &level {
            for pid in cfg.eligible(protocol) {
                for (_, succ) in cil_mc::successors(protocol, cfg, pid) {
                    *next.entry(succ).or_insert(0) += count;
                }
            }
        }
        level = next;
    }
    if report.decision_vectors != sim_vectors {
        return Err(format!(
            "decision vectors diverge: native {:?} vs simulator {:?}",
            report.decision_vectors, sim_vectors
        ));
    }
    if report.terminal_configs != sim_terminal {
        return Err(format!(
            "terminal configurations diverge: native {} vs simulator {}",
            report.terminal_configs.len(),
            sim_terminal.len()
        ));
    }
    let sim_executions = if report.naive {
        if report.depth_histogram != sim_hist {
            return Err(format!(
                "complete-depth histogram diverges: native {:?} vs simulator {:?}",
                report.depth_histogram, sim_hist
            ));
        }
        if report.truncated != sim_truncated {
            return Err(format!(
                "truncated count diverges: native {} vs simulator {}",
                report.truncated, sim_truncated
            ));
        }
        let total = sim_truncated + sim_hist.values().sum::<u64>();
        if report.executions != total {
            return Err(format!(
                "execution count diverges: native {} vs simulator paths {}",
                report.executions, total
            ));
        }
        Some(total)
    } else {
        let native_depths: BTreeSet<u64> = report.depth_histogram.keys().copied().collect();
        let sim_depths: BTreeSet<u64> = sim_hist.keys().copied().collect();
        if native_depths != sim_depths {
            return Err(format!(
                "terminal depths diverge: native {native_depths:?} vs simulator {sim_depths:?}"
            ));
        }
        None
    };
    Ok(CrossCheck {
        terminal_configs: sim_terminal.len(),
        decision_vectors: sim_vectors.len(),
        sim_executions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutant::RacyTwo;
    use cil_core::deterministic::{DetRule, DetTwo};
    use cil_core::two::TwoProcessor;

    fn no_hunt(depth: u64) -> DporConfig {
        DporConfig {
            depth_bound: depth,
            hunt_preemptions: None,
            ..DporConfig::default()
        }
    }

    #[test]
    fn sleep_reduction_preserves_outcomes_and_prunes_executions() {
        let p = TwoProcessor::new();
        let inputs = [Val::A, Val::B];
        let reduced = explore(&p, &inputs, &no_hunt(10), None);
        let naive = explore(
            &p,
            &inputs,
            &DporConfig {
                naive: true,
                ..no_hunt(10)
            },
            None,
        );
        assert_eq!(reduced.decision_vectors, naive.decision_vectors);
        assert_eq!(reduced.terminal_configs, naive.terminal_configs);
        assert_eq!(reduced.violations, 0);
        assert_eq!(naive.violations, 0);
        assert!(
            reduced.executions < naive.executions,
            "sleep sets must prune: {} !< {}",
            reduced.executions,
            naive.executions
        );
        assert!(reduced.sleep_blocked > 0);
    }

    #[test]
    fn cross_validation_matches_the_simulator() {
        let p = TwoProcessor::new();
        let inputs = [Val::A, Val::B];
        let naive = explore(
            &p,
            &inputs,
            &DporConfig {
                naive: true,
                ..no_hunt(8)
            },
            None,
        );
        let check = cross_validate(&p, &inputs, &PackCodec, &naive).expect("naive agrees");
        assert!(check.sim_executions.is_some());
        let reduced = explore(&p, &inputs, &no_hunt(8), None);
        cross_validate(&p, &inputs, &PackCodec, &reduced).expect("reduced agrees");
    }

    #[test]
    fn digest_is_jobs_invariant() {
        let p = DetTwo::new(DetRule::ALL[0]);
        let inputs = [Val::A, Val::B];
        let base = explore(&p, &inputs, &no_hunt(12), None);
        for jobs in [2, 5] {
            let r = explore(
                &p,
                &inputs,
                &DporConfig {
                    jobs,
                    ..no_hunt(12)
                },
                None,
            );
            assert_eq!(r.digest, base.digest, "jobs={jobs}");
            assert_eq!(r.executions, base.executions, "jobs={jobs}");
            assert_eq!(r.violations, base.violations, "jobs={jobs}");
        }
    }

    fn static_indep_for<P: Protocol>(p: &P) -> Arc<StaticIndep> {
        let table = cil_audit::footprints(&cil_audit::Auditor::new(p));
        assert!(table.complete, "footprints must cover the whole graph");
        let mut si = StaticIndep::new(table.processes);
        for (pid, key, first, reach) in table.flat_states() {
            si.insert_state(pid, key, first, reach);
        }
        Arc::new(si)
    }

    #[test]
    fn static_indep_matches_the_dynamic_baseline_with_zero_misses() {
        let p = TwoProcessor::new();
        let inputs = [Val::A, Val::B];
        let dynamic = explore(&p, &inputs, &no_hunt(10), None);
        let statics = explore(
            &p,
            &inputs,
            &DporConfig {
                static_indep: Some(static_indep_for(&p)),
                ..no_hunt(10)
            },
            None,
        );
        assert!(statics.static_indep && !dynamic.static_indep);
        assert_eq!(statics.footprint_misses, 0, "footprints over-approximate");
        // Outcome sets and digest are byte-identical; the static fallback
        // only ever *tightens* wake conditions on otherwise-unknowable
        // entries, and validated entries are never empty here.
        assert_eq!(statics.digest, dynamic.digest);
        assert_eq!(statics.decision_vectors, dynamic.decision_vectors);
        assert_eq!(statics.terminal_configs, dynamic.terminal_configs);
        assert!(statics.executions <= dynamic.executions);
        assert_eq!(statics.violations, 0);
    }

    #[test]
    fn static_indep_digest_is_jobs_invariant() {
        let p = TwoProcessor::new();
        let inputs = [Val::A, Val::B];
        let si = static_indep_for(&p);
        let base = explore(
            &p,
            &inputs,
            &DporConfig {
                static_indep: Some(Arc::clone(&si)),
                ..no_hunt(10)
            },
            None,
        );
        for jobs in [2, 5] {
            let r = explore(
                &p,
                &inputs,
                &DporConfig {
                    jobs,
                    static_indep: Some(Arc::clone(&si)),
                    ..no_hunt(10)
                },
                None,
            );
            assert_eq!(r.digest, base.digest, "jobs={jobs}");
            assert_eq!(r.executions, base.executions, "jobs={jobs}");
            assert_eq!(r.footprint_misses, 0, "jobs={jobs}");
        }
    }

    #[test]
    fn hunt_finds_the_racy_mutant_deterministically() {
        let p = RacyTwo::new(6);
        let inputs = [Val::A, Val::B];
        let first = explore(&p, &inputs, &DporConfig::default(), None);
        assert!(first.hunt.as_ref().is_some_and(|h| h.found));
        assert!(first.violations > 0);
        let v = &first.violation_samples[0];
        assert_eq!(v.kind, TrialOutcome::Inconsistent);
        let again = explore(&p, &inputs, &DporConfig::default(), None);
        assert_eq!(again.violation_samples[0].schedule, v.schedule);
    }

    #[test]
    fn exhaustive_pass_counts_racy_violations_without_hunt() {
        // Two rounds shrink the bug's horizon to 8 steps (each processor
        // needs all 4 of its steps to decide), so the full exploration is
        // tiny but still crosses the violating interleavings.
        let p = RacyTwo::new(2);
        let inputs = [Val::A, Val::B];
        let r = explore(&p, &inputs, &no_hunt(8), None);
        assert!(r.exhaustive);
        assert!(r.violations > 0, "depth 8 covers the 4-step solo sprint");
        let naive = explore(
            &p,
            &inputs,
            &DporConfig {
                naive: true,
                ..no_hunt(8)
            },
            None,
        );
        // Violation *counts* are per explored execution, so the reduction
        // may shrink them — but never to zero, and never past naive's.
        assert!(naive.violations >= r.violations);
        assert_eq!(naive.decision_vectors, r.decision_vectors);
        assert_eq!(naive.terminal_configs, r.terminal_configs);
    }
}
