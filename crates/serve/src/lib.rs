//! Coordination as a service: a sharded, arena-based decision engine that
//! runs millions of concurrent consensus instances to decision over the
//! hardware atomic-register backend (`cil_registers::HwRegisterFile`).
//!
//! The paper closes §1 by claiming its register model "is implementable in
//! existing technology"; PRs 1–8 established that the protocols are
//! *correct* (simulation, audit, DPOR, induction certificates). This crate
//! establishes that they are *cheap*: one `std::sync::atomic::AtomicU64`
//! word per register, a handful of SeqCst loads/stores per decision, and a
//! step loop with **zero heap allocation** on the steady-state path.
//!
//! # Architecture
//!
//! * [`InstanceSlot`] — one resident consensus instance: a reusable
//!   [`HwRegisterFile`] frame (reset between instances, never reallocated),
//!   per-processor states, a per-instance deterministic RNG stream and a
//!   round-robin scheduler cursor. A slot runs `cil_sim::Runner`'s loop on
//!   the same `cil_sim::step` kernel and `cil_sim::Verdict`, so a slot's
//!   classification is bit-identical to
//!   `Runner::new(p, inputs, RoundRobin::new())`.
//! * [`ServeEngine`] — shards × arena-slots orchestration. Shards claim
//!   chunks of instance indices from an atomic cursor and sweep their arena
//!   round-robin, stepping each resident instance a batch of steps before
//!   moving on; finished slots fold their result into shard-local
//!   [`SweepStats`] and are immediately refilled.
//!
//! # Shard-local bookkeeping
//!
//! Each shard keeps its stats, decided-value counts and latency histogram
//! to itself and hands them back at join, where they are merged; an
//! attached [`SweepObserver`] is published from the merged result then, and
//! its progress meter ticks once per chunk of finished instances. The only
//! per-instance writes to memory shared between shards are the two finish
//! counters of [`ServeLimit::Decisions`] mode (`--target-decisions`), the
//! one mode whose admission reads them; otherwise a shard touches shared
//! memory once per claim of a chunk of instance indices.
//!
//! Within a shard, a finished instance that decided cleanly in fewer than
//! 256 steps only bumps one slot of a dense array indexed by its step
//! count, and a decided value below 8 one slot of another; those cover
//! nearly every instance of the paper's protocols. Every other outcome,
//! step count or value goes through [`SweepStats::absorb`] and the value
//! map as it finishes. When the shard ends, the arrays are folded in
//! through [`SweepStats::absorb_decided`], so the shard's stats and counts
//! equal absorbing every instance one by one, and the merged report and
//! every export are unchanged.
//!
//! # Latency sample
//!
//! Reading the clock at admission and again at decision costs about a
//! quarter of a Fig. 1 instance's time, so the engine times a fixed,
//! deterministic sample: instance `i` is timed iff
//! `i % `[`LATENCY_SAMPLE_EVERY`]` == 0`. An instance's index is
//! independent of its seed and of the shard and slot that run it, and a
//! timed instance is timed over the whole window from
//! [`InstanceSlot::begin`] to its decision. Admitted indices are always
//! `0..instances` (whole claimed chunks, the last one cut short in
//! `Instances` mode), so the latency histogram holds
//! `instances.div_ceil(LATENCY_SAMPLE_EVERY)` latencies in every limit
//! mode. Every count — the stats, the decided values, the `serve.*`
//! exports — still covers every instance.
//!
//! # Determinism contract
//!
//! In [`ServeLimit::Instances`] mode, each instance `i` is seeded with the
//! same `SplitMix64::jump(root_seed, i)` stream a [`cil_sim::TrialSweep`]
//! trial would get, and every accumulator is commutative — so the merged
//! [`SweepStats`] (and any `serve.*` metrics exported through a
//! [`SweepObserver`]) are a pure function of `(root_seed, instances)`,
//! byte-identical at any shard count. Wall-clock latency histograms are the
//! deliberate exception and stay out of determinism-checked exports.
//!
//! [`cil_sim::TrialSweep`]: cil_sim::TrialSweep

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cil_obs::{LogHistogram, LogHistogramSnapshot, Registry};
use cil_registers::HwRegisterFile;
use cil_sim::sweep::{SweepObserver, SweepStats, Trial, TrialOutcome, TrialResult};
use cil_sim::threads::WordCodec;
use cil_sim::{resolve_jobs, step, Protocol, Rng, SplitMix64, Val, Verdict, Xoshiro256StarStar};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Default per-instance step budget, matching `cil_sim::Runner`.
pub const DEFAULT_MAX_STEPS: u64 = 1_000_000;

/// Default arena slots resident per shard.
pub const DEFAULT_SLOTS: usize = 64;

/// Default steps granted to one slot per arena sweep.
pub const DEFAULT_BATCH: u64 = 32;

/// Instance indices a shard claims from the shared cursor per fetch.
const CLAIM_CHUNK: u64 = 64;

/// Clean decisions taking fewer steps than this are counted in a dense
/// per-shard array (see the [module docs](self#shard-local-bookkeeping)).
const DENSE_METRICS: usize = 256;

/// Decided values below this are counted in a dense per-shard array.
const DENSE_VALUES: usize = 8;

/// One instance in this many is timed: instance `i` carries a wall-clock
/// latency iff `i % LATENCY_SAMPLE_EVERY == 0`, so index 0 always does. See
/// the [module docs](self#latency-sample).
pub const LATENCY_SAMPLE_EVERY: u64 = 8;

/// Whether the engine times instance `index`.
fn is_timed(index: u64) -> bool {
    index.is_multiple_of(LATENCY_SAMPLE_EVERY)
}

/// Sub-bucket resolution of the latency log-histogram (matches the sweep
/// timing histograms: ≤ 3.2% relative quantile error).
const LATENCY_SUB_BITS: u32 = 5;

/// When to stop accepting new instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeLimit {
    /// Run exactly this many instances (indices `0..n`). The only mode with
    /// a shard-count-independent result set.
    Instances(u64),
    /// Keep admitting instances until this many have *decided*, or until
    /// this many have ended without a decision (so a protocol that never
    /// decides still stops); in-flight instances are drained.
    /// Load-generator mode: the admitted index set depends on wall-clock
    /// progress.
    Decisions(u64),
    /// Keep admitting instances until the deadline; in-flight instances are
    /// drained. Load-generator mode.
    Duration(Duration),
}

/// One arena slot: a resident consensus instance over a reusable hardware
/// register frame.
///
/// The slot runs the `cil_sim::Runner` execution loop for the no-crash,
/// round-robin, stop-on-all-decided configuration: identical stop-condition
/// order and scheduler cursor, and the same [`step`] kernel. Register
/// traffic goes through real `AtomicU64` cells via the caller's
/// [`WordCodec`] instead of the simulator's `SharedMemory`.
///
/// After the first [`begin`](InstanceSlot::begin), re-arming a slot touches
/// no heap: the register file is [`reset`](HwRegisterFile::reset), the state
/// vector is refilled in place, and the RNG is reseeded by value.
pub struct InstanceSlot<'a, P: Protocol, C: WordCodec<P::Reg>> {
    protocol: &'a P,
    codec: &'a C,
    inputs: &'a [Val],
    max_steps: u64,
    file: HwRegisterFile<P::Reg>,
    states: Vec<P::State>,
    steps: Vec<u64>,
    rng: Xoshiro256StarStar,
    rr_next: usize,
    total: u64,
    undecided: usize,
    index: u64,
    started: Option<Instant>,
    busy: bool,
}

/// A finished instance: its sweep classification plus the agreed decision
/// value (when it decided cleanly) and, when it was timed, its wall-clock
/// service latency.
#[derive(Debug, Clone)]
pub struct InstanceOutcome {
    /// Instance index within the run (also its trial index).
    pub index: u64,
    /// Classification and step metric, exactly as `TrialResult::from_run`
    /// would produce for the equivalent simulator run.
    pub result: TrialResult,
    /// The agreed decision value, present iff the outcome is `Decided`.
    pub value: Option<Val>,
    /// Wall-clock nanoseconds from admission to completion (includes time
    /// the shard spent stepping other resident instances — service latency,
    /// not pure compute). 0 for an instance armed with
    /// [`begin_untimed`](InstanceSlot::begin_untimed).
    pub latency_ns: u64,
}

impl<'a, P: Protocol, C: WordCodec<P::Reg>> InstanceSlot<'a, P, C> {
    /// Builds an idle slot. This is the only allocating path: the register
    /// frame and state/step vectors are created once and reused by every
    /// instance the slot hosts.
    pub fn new(protocol: &'a P, codec: &'a C, inputs: &'a [Val], max_steps: u64) -> Self {
        let n = protocol.processes();
        assert_eq!(
            inputs.len(),
            n,
            "need one input per processor ({} processors, {} inputs)",
            n,
            inputs.len()
        );
        let file = HwRegisterFile::with_packer(protocol.registers(), |reg, v| codec.pack(reg, v))
            .expect("protocol register specs are valid");
        InstanceSlot {
            protocol,
            codec,
            inputs,
            max_steps,
            file,
            states: Vec::with_capacity(n),
            steps: vec![0; n],
            rng: Xoshiro256StarStar::new(0),
            rr_next: 0,
            total: 0,
            undecided: 0,
            index: 0,
            started: None,
            busy: false,
        }
    }

    /// Whether the slot currently hosts a running instance.
    pub fn busy(&self) -> bool {
        self.busy
    }

    /// Arms the slot with instance `trial` and starts its latency clock.
    /// Allocation-free after the first use: the frame is reset, the vectors
    /// are refilled in place.
    pub fn begin(&mut self, trial: Trial) {
        self.begin_untimed(trial);
        self.started = Some(Instant::now());
    }

    /// [`begin`](InstanceSlot::begin) without the clock read: the instance
    /// finishes with a `latency_ns` of 0.
    pub fn begin_untimed(&mut self, trial: Trial) {
        debug_assert!(!self.busy, "slot re-armed while busy");
        let n = self.protocol.processes();
        self.file.reset();
        self.states.clear();
        self.states
            .extend((0..n).map(|pid| self.protocol.init(pid, self.inputs[pid])));
        self.steps.iter_mut().for_each(|s| *s = 0);
        self.rng = Xoshiro256StarStar::new(trial.seed);
        self.rr_next = 0;
        self.total = 0;
        self.undecided = self
            .states
            .iter()
            .filter(|s| self.protocol.decision(s).is_none())
            .count();
        self.index = trial.index;
        self.started = None;
        self.busy = true;
    }

    /// Steps the resident instance at most `budget` times; returns the
    /// outcome when it finishes (and disarms the slot).
    pub fn step_batch(&mut self, budget: u64) -> Option<InstanceOutcome> {
        debug_assert!(self.busy, "stepping an idle slot");
        for _ in 0..budget {
            if let Some(done) = self.step() {
                return Some(done);
            }
        }
        None
    }

    /// One `Runner`-equivalent step (stop checks, round-robin pick, the
    /// [`step`] kernel). Allocation-free for protocols whose states and
    /// choices are inline (all the paper's protocols after the `PhaseScan`
    /// and `Choice` refactors).
    fn step(&mut self) -> Option<InstanceOutcome> {
        // Stop conditions, in Runner order: all-decided wins over the step
        // budget when both hold.
        if self.undecided == 0 {
            return Some(self.finish(false));
        }
        if self.total >= self.max_steps {
            return Some(self.finish(true));
        }

        // RoundRobin::pick, without the simulator's View snapshot. The
        // cursor advances exactly as the adversary's does, so schedules
        // (and therefore RNG consumption) line up step for step.
        let n = self.states.len();
        let mut pid = usize::MAX;
        for _ in 0..n {
            let candidate = self.rr_next % n;
            self.rr_next = (candidate + 1) % n;
            if self.protocol.decision(&self.states[candidate]).is_none() {
                pid = candidate;
                break;
            }
        }
        debug_assert_ne!(pid, usize::MAX, "undecided > 0 guarantees a pick");

        let record = step(
            self.protocol,
            pid,
            &mut self.states[pid],
            &mut (&self.file, self.codec),
            &mut self.rng,
            |_, _| None,
        );
        if record.decision.is_some() {
            self.undecided -= 1;
        }
        self.steps[pid] += 1;
        self.total += 1;
        None
    }

    /// Classifies the finished instance exactly as `TrialResult::from_run`
    /// classifies the equivalent `RunOutcome`.
    fn finish(&mut self, budget_expired: bool) -> InstanceOutcome {
        self.busy = false;
        let latency_ns = self.started.map_or(0, |started| {
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        let decisions = self.states.iter().map(|s| self.protocol.decision(s));
        let verdict = Verdict::judge(decisions, self.inputs, &self.steps);
        let outcome = verdict.outcome(budget_expired);
        InstanceOutcome {
            index: self.index,
            result: TrialResult {
                metric: self.total,
                outcome,
                flagged: false,
                schedule: None,
            },
            value: verdict.agreed.filter(|_| outcome == TrialOutcome::Decided),
            latency_ns,
        }
    }
}

/// Aggregated result of a [`ServeEngine`] run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Mergeable sweep statistics over all completed instances. In
    /// `Instances` mode this is byte-identical (via
    /// [`SweepStats::digest`]) at any shard count, and identical to a
    /// `TrialSweep` + `Runner`/`RoundRobin` run of the same protocol.
    pub stats: SweepStats,
    /// Decided-value counts: how many instances decided each value.
    pub decided_values: BTreeMap<u64, u64>,
    /// Instances completed.
    pub instances: u64,
    /// Shards (worker threads) used.
    pub shards: usize,
    /// Wall-clock duration of the run.
    pub elapsed_ns: u64,
    /// Service-latency histogram (admission to completion, wall clock) of
    /// the timed sample: the instances whose index is a multiple of
    /// [`LATENCY_SAMPLE_EVERY`], `instances.div_ceil(LATENCY_SAMPLE_EVERY)`
    /// of them.
    pub latency: LogHistogramSnapshot,
}

impl ServeReport {
    /// Decided instances per wall-clock second.
    pub fn decisions_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.stats.decided as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Publishes the deterministic decided-value counts as `serve.decided.v*`
    /// counters (the per-outcome counters come from the [`SweepObserver`]
    /// the engine publishes into).
    pub fn export_decided_values(&self, registry: &Registry) {
        for (&value, &count) in &self.decided_values {
            registry
                .counter(&format!("serve.decided.v{value}"))
                .add(count);
        }
    }
}

/// The sharded arena engine. See the [module docs](self).
pub struct ServeEngine<'a, P, C>
where
    P: Protocol + Sync,
    P::State: Send,
    C: WordCodec<P::Reg>,
{
    protocol: &'a P,
    codec: &'a C,
    inputs: Vec<Val>,
    limit: ServeLimit,
    root_seed: u64,
    shards: usize,
    slots: usize,
    batch: u64,
    max_steps: u64,
}

impl<'a, P, C> ServeEngine<'a, P, C>
where
    P: Protocol + Sync,
    P::State: Send,
    C: WordCodec<P::Reg>,
{
    /// An engine for `protocol` with one input per processor.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the processor count.
    pub fn new(protocol: &'a P, codec: &'a C, inputs: &[Val], limit: ServeLimit) -> Self {
        assert_eq!(
            inputs.len(),
            protocol.processes(),
            "need one input per processor"
        );
        ServeEngine {
            protocol,
            codec,
            inputs: inputs.to_vec(),
            limit,
            root_seed: 0,
            shards: 0,
            slots: DEFAULT_SLOTS,
            batch: DEFAULT_BATCH,
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Sets the root seed all per-instance streams derive from (default 0).
    pub fn root_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self
    }

    /// Sets the shard (worker thread) count; `0` (the default) means
    /// available parallelism.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the arena size: instances resident per shard (default
    /// [`DEFAULT_SLOTS`]).
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn slots(mut self, slots: usize) -> Self {
        assert!(slots > 0, "an arena needs at least one slot");
        self.slots = slots;
        self
    }

    /// Sets how many steps one slot receives per arena sweep (default
    /// [`DEFAULT_BATCH`]).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn batch(mut self, batch: u64) -> Self {
        assert!(batch > 0, "a batch must grant at least one step");
        self.batch = batch;
        self
    }

    /// Sets the per-instance step budget (default [`DEFAULT_MAX_STEPS`]).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The shard count this engine will actually use.
    pub fn effective_shards(&self) -> usize {
        resolve_jobs(self.shards).max(1)
    }

    /// Runs the engine to completion.
    pub fn run(&self) -> ServeReport {
        self.run_observed(None)
    }

    /// [`run`](ServeEngine::run) with an optional observer: its progress
    /// meter ticks once per chunk of finished instances, and its metrics
    /// are published from the merged stats at join, so observed metrics
    /// keep the determinism contract. Attach timing to the observer to also
    /// export the wall-clock latency sample as `serve.trial_ns`.
    pub fn run_observed(&self, observer: Option<&SweepObserver>) -> ServeReport {
        let shards = self.effective_shards();
        let started = Instant::now();
        let cursor = AtomicU64::new(0);
        let finished = Finished::default();
        let deadline = match self.limit {
            ServeLimit::Duration(d) => Some(started + d),
            _ => None,
        };

        let shard_results: Vec<ShardResult> = if shards == 1 {
            vec![self.shard_loop(&cursor, &finished, deadline, observer)]
        } else {
            let mut parts = Vec::with_capacity(shards);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|_| {
                        scope.spawn(|| self.shard_loop(&cursor, &finished, deadline, observer))
                    })
                    .collect();
                for handle in handles {
                    parts.push(handle.join().expect("serve shard panicked"));
                }
            });
            parts
        };

        let mut stats = SweepStats::new(8);
        let mut decided_values = BTreeMap::new();
        let mut latency = LogHistogramSnapshot {
            sub_bits: LATENCY_SUB_BITS,
            buckets: BTreeMap::new(),
            sum: 0,
        };
        for (part, values, part_latency) in shard_results {
            stats.merge(part);
            for (value, count) in values {
                *decided_values.entry(value).or_insert(0) += count;
            }
            latency
                .merge(&part_latency)
                .expect("every shard histogram has the same resolution");
        }
        if let Some(o) = observer {
            o.publish(&stats, Some(&latency));
            o.finish();
        }
        let instances = stats.trials;
        ServeReport {
            stats,
            decided_values,
            instances,
            shards,
            elapsed_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            latency,
        }
    }

    /// Whether a shard may still admit new instances, and under what index
    /// bound. `None` means "stop filling" (drain and exit).
    fn admission_bound(&self, finished: &Finished, deadline: Option<Instant>) -> Option<u64> {
        match self.limit {
            ServeLimit::Instances(n) => Some(n),
            // Admission also closes once `target` instances ended without a
            // decision, so the work stays within twice the target plus the
            // instances in flight even when nothing decides.
            ServeLimit::Decisions(target) => (finished.decided.load(Ordering::Relaxed) < target
                && finished.undecided.load(Ordering::Relaxed) < target)
                .then_some(u64::MAX),
            ServeLimit::Duration(_) => (Instant::now()
                < deadline.expect("duration limit has a deadline"))
            .then_some(u64::MAX),
        }
    }

    /// One shard: fills and sweeps its own arena until admission closes and
    /// the arena drains, then hands back what it recorded.
    fn shard_loop(
        &self,
        cursor: &AtomicU64,
        finished: &Finished,
        deadline: Option<Instant>,
        observer: Option<&SweepObserver>,
    ) -> ShardResult {
        let trial_at = |index: u64| Trial {
            index,
            seed: SplitMix64::jump(self.root_seed, index).next_u64(),
        };
        // Only `Decisions` admission reads the shared counters, so the other
        // modes skip their per-instance write to a cache line all shards use.
        let counts_finishes = matches!(self.limit, ServeLimit::Decisions(_));
        let mut slots: Vec<InstanceSlot<'_, P, C>> = (0..self.slots)
            .map(|_| InstanceSlot::new(self.protocol, self.codec, &self.inputs, self.max_steps))
            .collect();
        let mut tally = ShardTally::new();
        let latency = LogHistogram::new(LATENCY_SUB_BITS);
        // Locally claimed-but-unstarted index range.
        let mut pending = 0u64..0u64;
        let mut active = 0usize;
        // Instances finished since the progress meter last ticked.
        let mut unticked = 0u64;

        loop {
            for slot in &mut slots {
                if !slot.busy() {
                    if pending.is_empty() {
                        if let Some(bound) = self.admission_bound(finished, deadline) {
                            let start = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                            if start < bound {
                                pending = start..(start.saturating_add(CLAIM_CHUNK)).min(bound);
                            }
                        }
                    }
                    if let Some(index) = pending.next() {
                        if is_timed(index) {
                            slot.begin(trial_at(index));
                        } else {
                            slot.begin_untimed(trial_at(index));
                        }
                        active += 1;
                    } else {
                        continue;
                    }
                }
                if let Some(done) = slot.step_batch(self.batch) {
                    active -= 1;
                    if counts_finishes {
                        let count = match done.value {
                            Some(_) => &finished.decided,
                            None => &finished.undecided,
                        };
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                    if is_timed(done.index) {
                        latency.observe(done.latency_ns);
                    }
                    tally.record(done);
                    if let Some(o) = observer {
                        unticked += 1;
                        if unticked == CLAIM_CHUNK {
                            o.tick(unticked);
                            unticked = 0;
                        }
                    }
                }
            }
            if active == 0 && pending.is_empty() {
                // Nothing resident and the last admission attempt (made in
                // the sweep above, for every idle slot) yielded no work.
                match self.admission_bound(finished, deadline) {
                    None => break,
                    Some(bound) if cursor.load(Ordering::Relaxed) >= bound => break,
                    _ => {}
                }
            }
        }
        if let Some(o) = observer {
            o.tick(unticked);
        }
        let (stats, values) = tally.finish();
        (stats, values, latency.snapshot())
    }
}

/// A shard's count of its finished instances. Clean decisions in fewer
/// than [`DENSE_METRICS`] steps, and decided values below
/// [`DENSE_VALUES`], are counted in two arrays; every other outcome, metric
/// or value goes through [`SweepStats::absorb`] and the value map as it
/// finishes. [`finish`](ShardTally::finish) folds the arrays in, so the
/// result equals absorbing every instance one by one.
struct ShardTally {
    stats: SweepStats,
    values: BTreeMap<u64, u64>,
    /// Clean decisions by step count.
    decided_in: [u64; DENSE_METRICS],
    /// Decided instances by value.
    decided_on: [u64; DENSE_VALUES],
}

impl ShardTally {
    fn new() -> Self {
        ShardTally {
            stats: SweepStats::new(8),
            values: BTreeMap::new(),
            decided_in: [0; DENSE_METRICS],
            decided_on: [0; DENSE_VALUES],
        }
    }

    // `shard_loop` is generic, so it is compiled in the caller's crate; the
    // attribute lets this per-instance call be inlined there.
    #[inline]
    fn record(&mut self, done: InstanceOutcome) {
        if let Some(Val(v)) = done.value {
            if v < DENSE_VALUES as u64 {
                self.decided_on[v as usize] += 1;
            } else {
                *self.values.entry(v).or_insert(0) += 1;
            }
        }
        let result = done.result;
        if result.outcome == TrialOutcome::Decided
            && !result.flagged
            && result.metric < DENSE_METRICS as u64
        {
            self.decided_in[result.metric as usize] += 1;
        } else {
            self.stats.absorb(done.index, result);
        }
    }

    /// The stats and decided-value counts with the arrays folded in.
    fn finish(mut self) -> (SweepStats, BTreeMap<u64, u64>) {
        for (metric, &n) in (0u64..).zip(&self.decided_in) {
            self.stats.absorb_decided(metric, n);
        }
        for (value, &n) in (0u64..).zip(&self.decided_on) {
            if n > 0 {
                *self.values.entry(value).or_insert(0) += n;
            }
        }
        (self.stats, self.values)
    }
}

/// The counters `Decisions` admission reads, shared by every shard:
/// instances that decided and instances that ended without a decision.
#[derive(Default)]
struct Finished {
    decided: AtomicU64,
    undecided: AtomicU64,
}

/// What one shard hands back at join: its sweep statistics, decided-value
/// counts and latency histogram.
type ShardResult = (SweepStats, BTreeMap<u64, u64>, LogHistogramSnapshot);

#[cfg(test)]
mod tests {
    use super::*;
    use cil_core::deterministic::{DetRule, DetTwo};
    use cil_core::kvalued::KValued;
    use cil_core::n_unbounded::NUnbounded;
    use cil_core::two::TwoProcessor;
    use cil_core::KRegCodec;
    use cil_sim::{PackCodec, RoundRobin, Runner, TrialSweep};

    fn sweep_digest<P: Protocol + Sync>(
        protocol: &P,
        inputs: &[Val],
        trials: u64,
        seed: u64,
        max_steps: u64,
    ) -> Vec<u8> {
        TrialSweep::new(trials)
            .root_seed(seed)
            .run(|trial| {
                let out = Runner::new(protocol, inputs, RoundRobin::new())
                    .seed(trial.seed)
                    .max_steps(max_steps)
                    .run();
                TrialResult::from_run(&out)
            })
            .digest()
    }

    #[test]
    fn two_processor_instances_match_the_simulator_sweep() {
        let p = TwoProcessor;
        let inputs = [Val::A, Val::B];
        let report = ServeEngine::new(&p, &PackCodec, &inputs, ServeLimit::Instances(500))
            .root_seed(11)
            .shards(2)
            .run();
        assert_eq!(report.instances, 500);
        assert_eq!(
            report.stats.digest(),
            sweep_digest(&p, &inputs, 500, 11, DEFAULT_MAX_STEPS)
        );
        // Mixed inputs under independent coin streams: both values decided.
        assert_eq!(report.decided_values.len(), 2);
        assert_eq!(
            report.decided_values.values().sum::<u64>(),
            report.stats.decided
        );
    }

    /// Runs `instances` instances at 1, 2 and 3 shards and asserts each
    /// report equals a `TrialSweep` + `Runner`/`RoundRobin` run of the same
    /// trials: the same stats digest and the same decided-value counts.
    /// Returns the one-shard report.
    fn assert_serve_matches_sweep<P, C>(
        protocol: &P,
        codec: &C,
        inputs: &[Val],
        instances: u64,
        max_steps: u64,
    ) -> ServeReport
    where
        P: Protocol + Sync,
        P::State: Send,
        C: WordCodec<P::Reg>,
    {
        let seed = 13;
        let digest = sweep_digest(protocol, inputs, instances, seed, max_steps);
        let mut values = BTreeMap::new();
        for index in 0..instances {
            let out = Runner::new(protocol, inputs, RoundRobin::new())
                .seed(trial_at(seed, index).seed)
                .max_steps(max_steps)
                .run();
            if TrialResult::from_run(&out).outcome == TrialOutcome::Decided {
                let v = out.agreement().expect("a clean decision agrees");
                *values.entry(v.0).or_insert(0) += 1;
            }
        }
        let reports: Vec<ServeReport> = (1..=3)
            .map(|shards| {
                ServeEngine::new(protocol, codec, inputs, ServeLimit::Instances(instances))
                    .root_seed(seed)
                    .shards(shards)
                    .slots(5)
                    .max_steps(max_steps)
                    .run()
            })
            .collect();
        for (report, shards) in reports.iter().zip(1..) {
            let name = protocol.name();
            assert_eq!(report.stats.digest(), digest, "{name} at {shards} shards");
            assert_eq!(report.decided_values, values, "{name} at {shards} shards");
        }
        reports.into_iter().next().expect("three reports")
    }

    #[test]
    fn outcomes_past_the_dense_tally_match_the_simulator_sweep() {
        // Sixteen processors decide in more steps than the metric array holds.
        let n16 = NUnbounded::new(16);
        let inputs: Vec<Val> = (0..16).map(|i| Val(i % 2)).collect();
        let report = assert_serve_matches_sweep(&n16, &PackCodec, &inputs, 120, DEFAULT_MAX_STEPS);
        assert!(report
            .stats
            .decided_by_k
            .keys()
            .any(|&k| k >= DENSE_METRICS as u64));

        // Always-keep never decides: every instance ends at its step budget.
        let keep = DetTwo::new(DetRule::AlwaysKeep);
        let report = assert_serve_matches_sweep(&keep, &PackCodec, &[Val::A, Val::B], 150, 40);
        assert_eq!(report.stats.undecided, 150);

        // The value 15 lies past the dense value array; 0 lies inside it.
        let k16 = KValued::new(TwoProcessor, 16);
        let codec = KRegCodec::for_protocol(&k16);
        let report =
            assert_serve_matches_sweep(&k16, &codec, &[Val(0), Val(15)], 300, DEFAULT_MAX_STEPS);
        assert!(report.decided_values.contains_key(&15));
        assert!(report.decided_values.contains_key(&0));
    }

    #[test]
    fn fig2_instances_match_the_simulator_sweep() {
        let p = NUnbounded::three();
        let inputs = [Val::A, Val::B, Val::A];
        let report = ServeEngine::new(&p, &PackCodec, &inputs, ServeLimit::Instances(300))
            .root_seed(5)
            .shards(3)
            .slots(7)
            .batch(3)
            .run();
        assert_eq!(
            report.stats.digest(),
            sweep_digest(&p, &inputs, 300, 5, DEFAULT_MAX_STEPS)
        );
    }

    #[test]
    fn report_is_shard_and_arena_invariant() {
        let p = NUnbounded::three();
        let inputs = [Val::A, Val::B, Val::B];
        let runs: Vec<ServeReport> = [(1, 1, 1), (2, 16, 8), (5, 3, 100)]
            .into_iter()
            .map(|(shards, slots, batch)| {
                ServeEngine::new(&p, &PackCodec, &inputs, ServeLimit::Instances(200))
                    .root_seed(42)
                    .shards(shards)
                    .slots(slots)
                    .batch(batch)
                    .run()
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.stats.digest(), runs[0].stats.digest());
            assert_eq!(r.decided_values, runs[0].decided_values);
        }
    }

    #[test]
    fn latency_histogram_holds_one_instance_in_eight() {
        let p = TwoProcessor;
        let inputs = [Val::A, Val::B];
        let limits = [
            ServeLimit::Instances(300),
            ServeLimit::Duration(Duration::from_millis(20)),
            ServeLimit::Decisions(300),
        ];
        for limit in limits {
            for shards in 1..=3 {
                let report = ServeEngine::new(&p, &PackCodec, &inputs, limit)
                    .shards(shards)
                    .slots(5)
                    .run();
                assert!(report.instances > 0, "{limit:?} at {shards} shards");
                assert_eq!(
                    report.latency.count(),
                    report.instances.div_ceil(LATENCY_SAMPLE_EVERY),
                    "{limit:?} at {shards} shards"
                );
                assert!(report.latency.quantile(0.5).is_some());
                assert!(report.decisions_per_sec() > 0.0);
            }
        }
    }

    #[test]
    fn target_decisions_mode_reaches_the_target_and_drains() {
        let p = TwoProcessor;
        let inputs = [Val::A, Val::B];
        let report = ServeEngine::new(&p, &PackCodec, &inputs, ServeLimit::Decisions(100))
            .shards(2)
            .run();
        assert!(
            report.stats.decided >= 100,
            "decided {}",
            report.stats.decided
        );
        // Drained: every admitted instance was run to completion.
        assert_eq!(report.instances, report.stats.trials);
        assert_eq!(
            report.latency.count(),
            report.instances.div_ceil(LATENCY_SAMPLE_EVERY)
        );
    }

    #[test]
    fn target_decisions_mode_stops_when_nothing_decides() {
        // Always-keep never decides: every instance ends undecided at its
        // step budget, so only the undecided count can close admission.
        let p = DetTwo::new(DetRule::AlwaysKeep);
        let inputs = [Val::A, Val::B];
        let target = 10;
        for (shards, slots) in [(1, DEFAULT_SLOTS), (2, 5), (3, 1)] {
            let report = ServeEngine::new(&p, &PackCodec, &inputs, ServeLimit::Decisions(target))
                .shards(shards)
                .slots(slots)
                .max_steps(1000)
                .run();
            let at = format!("{shards} shards x {slots} slots");
            assert_eq!(report.stats.decided, 0, "{at}");
            assert!(report.stats.undecided >= target, "{at}");
            assert_eq!(report.stats.undecided, report.instances, "{at}");
            // Each claim happens while both counts are below the target, so
            // at most what the shards hold then is admitted on top.
            let in_flight = shards as u64 * (slots as u64 + CLAIM_CHUNK);
            assert!(
                report.instances <= 2 * target + in_flight,
                "{at}: {} instances",
                report.instances
            );
        }
    }

    #[test]
    fn untimed_instances_decide_alike_and_report_no_latency() {
        let p = NUnbounded::three();
        let inputs = [Val::A, Val::B, Val::A];
        let mut timed = InstanceSlot::new(&p, &PackCodec, &inputs, DEFAULT_MAX_STEPS);
        let mut untimed = InstanceSlot::new(&p, &PackCodec, &inputs, DEFAULT_MAX_STEPS);
        for trial in (0..50).map(|index| trial_at(3, index)) {
            timed.begin(trial);
            untimed.begin_untimed(trial);
            let a = run_to_end(&mut timed);
            let b = run_to_end(&mut untimed);
            assert_eq!((a.index, &a.result, a.value), (b.index, &b.result, b.value));
            assert!(a.latency_ns > 0);
            assert_eq!(b.latency_ns, 0);
        }
    }

    fn trial_at(root_seed: u64, index: u64) -> Trial {
        Trial {
            index,
            seed: SplitMix64::jump(root_seed, index).next_u64(),
        }
    }

    fn run_to_end<P: Protocol>(slot: &mut InstanceSlot<'_, P, PackCodec>) -> InstanceOutcome
    where
        P::Reg: cil_registers::Packable,
    {
        loop {
            if let Some(done) = slot.step_batch(DEFAULT_BATCH) {
                return done;
            }
        }
    }

    /// Asserts that the timed sample of `instances` instances at `root_seed`
    /// is representative of all of them in step count: its mean, and its
    /// share of instances that outlast one batch (they wait an arena
    /// rotation and set the latency tail), lie within four standard errors
    /// of a random subset of the same size.
    fn assert_sample_represents_steps<P: Protocol>(
        protocol: &P,
        inputs: &[Val],
        instances: u64,
        root_seed: u64,
    ) where
        P::Reg: cil_registers::Packable,
    {
        let mut slot = InstanceSlot::new(protocol, &PackCodec, inputs, DEFAULT_MAX_STEPS);
        let steps: Vec<f64> = (0..instances)
            .map(|index| {
                slot.begin_untimed(trial_at(root_seed, index));
                run_to_end(&mut slot).result.metric as f64
            })
            .collect();
        let sample: Vec<f64> = (0..instances)
            .filter(|&i| is_timed(i))
            .map(|i| steps[i as usize])
            .collect();
        let (n_all, n_sample) = (steps.len() as f64, sample.len() as f64);
        // A subset of n out of N: the standard error of its mean is the
        // population's standard deviation times sqrt(1/n - 1/N).
        let shrink = (1.0 / n_sample - 1.0 / n_all).sqrt();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let long = |xs: &[f64]| {
            xs.iter().filter(|&&x| x >= DEFAULT_BATCH as f64).count() as f64 / xs.len() as f64
        };
        let mean_all = mean(&steps);
        let sd = (steps.iter().map(|x| (x - mean_all).powi(2)).sum::<f64>() / (n_all - 1.0)).sqrt();
        let name = protocol.name();
        assert!(
            (mean(&sample) - mean_all).abs() <= 4.0 * sd * shrink,
            "{name}: sampled mean {} vs {mean_all} (sd {sd})",
            mean(&sample)
        );
        let share = long(&steps);
        assert!(share > 0.0, "{name}: no instance outlasted a batch");
        assert!(
            (long(&sample) - share).abs() <= 4.0 * (share * (1.0 - share)).sqrt() * shrink,
            "{name}: sampled long share {} vs {share}",
            long(&sample)
        );
    }

    #[test]
    fn the_timed_sample_represents_every_instance_in_steps() {
        assert_sample_represents_steps(&TwoProcessor, &[Val::A, Val::B], 40_000, 7);
        assert_sample_represents_steps(&NUnbounded::three(), &[Val::A, Val::B, Val::A], 16_000, 7);
    }

    #[test]
    fn duration_mode_terminates() {
        let p = TwoProcessor;
        let inputs = [Val::B, Val::B];
        let report = ServeEngine::new(
            &p,
            &PackCodec,
            &inputs,
            ServeLimit::Duration(Duration::from_millis(20)),
        )
        .shards(2)
        .run();
        assert!(report.instances > 0);
    }

    #[test]
    fn exported_decided_values_are_counters() {
        let p = TwoProcessor;
        let inputs = [Val::A, Val::B];
        let report = ServeEngine::new(&p, &PackCodec, &inputs, ServeLimit::Instances(50))
            .root_seed(3)
            .run();
        let registry = Registry::new();
        report.export_decided_values(&registry);
        let snap = registry.snapshot();
        let total: u64 = report.decided_values.values().sum();
        assert_eq!(
            snap.counters.values().sum::<u64>(),
            total,
            "counters {:?}",
            snap.counters
        );
    }
}
