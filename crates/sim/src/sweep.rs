//! Parallel Monte-Carlo trial sweeps with schedule-independent results.
//!
//! Every quantitative claim in the reproduction — the §4 tail bounds, the
//! n-processor scaling curves, the crash matrices — is estimated by running
//! the same protocol across thousands of seeds. [`TrialSweep`] fans a trial
//! index range out over a scoped worker pool and folds each trial's
//! [`TrialResult`] into a mergeable [`SweepStats`].
//!
//! # Determinism contract
//!
//! A sweep's output is a pure function of `(root_seed, trials)` and the
//! trial closure. It does **not** depend on the worker count or on how the
//! OS schedules the workers, because:
//!
//! * each trial's randomness is derived from the root seed and the trial
//!   index alone ([`Xoshiro256StarStar::stream`], an O(1) jump into the
//!   [`SplitMix64`](crate::SplitMix64) fork chain), never from worker state;
//! * [`SweepStats`] contains only order-insensitive accumulators — exact
//!   integer sums, counters, ordered histograms, and failure samples kept as
//!   the *lowest* trial indices — so merging per-worker partials commutes.
//!
//! Consequently `--jobs 1` and `--jobs 64` produce byte-identical statistics
//! ([`SweepStats::digest`]), and any failure can be replayed serially from
//! its trial index. Workers claim fixed-size chunks of the index range from
//! a shared atomic cursor (deterministic work-stealing: the *assignment* of
//! trials to workers varies, the result does not).
//!
//! # Example
//!
//! ```
//! use cil_sim::{TrialSweep, TrialResult, TrialOutcome};
//!
//! let stats = TrialSweep::new(1000).root_seed(7).jobs(4).run(|trial| {
//!     let mut rng = trial.rng();
//!     // ... run a protocol with `rng`, or seed a Runner with trial.index ...
//!     TrialResult {
//!         metric: trial.index % 10,
//!         outcome: TrialOutcome::Decided,
//!         flagged: false,
//!         schedule: None,
//!     }
//! });
//! assert_eq!(stats.trials, 1000);
//! assert_eq!(stats, TrialSweep::new(1000).root_seed(7).jobs(1).run(|t| {
//!     TrialResult {
//!         metric: t.index % 10,
//!         outcome: TrialOutcome::Decided,
//!         flagged: false,
//!         schedule: None,
//!     }
//! }));
//! ```

use crate::executor::{Halt, RunOutcome};
use crate::protocol::Protocol;
use crate::rng::{Rng as _, Xoshiro256StarStar};
use cil_obs::metrics::{Counter, Histogram, LogHistogram, LogHistogramSnapshot, Registry};
use cil_obs::ProgressMeter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One trial's identity within a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Position in the sweep, `0..trials`. Historical serial experiment
    /// loops used the loop index directly as the run seed; passing
    /// `trial.index` to [`Runner::seed`](crate::Runner::seed) reproduces
    /// them bit-for-bit at any worker count.
    pub index: u64,
    /// Seed derived from `(root_seed, index)` via the O(1)
    /// [`SplitMix64`](crate::SplitMix64) jump. Independent of worker
    /// assignment; distinct root seeds give disjoint trial randomness.
    pub seed: u64,
}

impl Trial {
    /// The trial's derived generator (equal to
    /// [`Xoshiro256StarStar::stream`]`(root_seed, index)`).
    pub fn rng(&self) -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(self.seed)
    }
}

/// How a single trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The run completed with consistent, nontrivial decisions.
    Decided,
    /// The step budget expired before the stop condition was met.
    Undecided,
    /// Two processors decided different values (paper requirement 1
    /// violated — a protocol bug).
    Inconsistent,
    /// A decision value was not the input of any activated processor
    /// (paper requirement 2 violated).
    Trivial,
}

/// What one trial reports back to the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialResult {
    /// The per-trial measurement (steps to decision, survivor steps, …).
    pub metric: u64,
    /// Safety/liveness classification of the run.
    pub outcome: TrialOutcome,
    /// Caller-defined extra counter (e.g. "survivor decided"); the sweep
    /// reports how many trials set it.
    pub flagged: bool,
    /// Schedule of the run, recorded only for trials worth replaying; kept
    /// in the failure samples.
    pub schedule: Option<Vec<usize>>,
}

impl TrialResult {
    /// Classifies a [`RunOutcome`] with `metric = total_steps`.
    ///
    /// Inconsistency dominates triviality; a run that halted on its step
    /// budget is `Undecided`; anything else is `Decided`.
    pub fn from_run<P: Protocol>(outcome: &RunOutcome<P>) -> Self {
        let classified = if !outcome.consistent() {
            TrialOutcome::Inconsistent
        } else if !outcome.nontrivial() {
            TrialOutcome::Trivial
        } else if outcome.halt == Halt::MaxSteps {
            TrialOutcome::Undecided
        } else {
            TrialOutcome::Decided
        };
        TrialResult {
            metric: outcome.total_steps,
            outcome: classified,
            flagged: false,
            schedule: outcome.trace.as_ref().map(|t| t.schedule()),
        }
    }

    /// Replaces the metric (builder-style).
    pub fn metric(mut self, metric: u64) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the caller-defined flag (builder-style).
    pub fn flag(mut self, yes: bool) -> Self {
        self.flagged = yes;
        self
    }
}

/// A retained sample of a failing trial, replayable from its index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureSample {
    /// Trial index within the sweep (also the historical run seed).
    pub trial: u64,
    /// Why it failed.
    pub kind: TrialOutcome,
    /// The run's schedule, if the trial recorded one.
    pub schedule: Option<Vec<usize>>,
}

/// Mergeable, order-insensitive sweep statistics.
///
/// All accumulators are exact integers (or ordered maps), so
/// [`SweepStats::merge`] commutes and a sweep's result is independent of
/// how trials were distributed over workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStats {
    /// Trials absorbed.
    pub trials: u64,
    /// Trials that decided cleanly.
    pub decided: u64,
    /// Trials that hit the step budget.
    pub undecided: u64,
    /// Consistency violations observed.
    pub inconsistent: u64,
    /// Nontriviality violations observed.
    pub trivial: u64,
    /// Trials whose result had the caller-defined flag set.
    pub flagged: u64,
    /// Exact sum of metrics over all trials.
    pub metric_sum: u128,
    /// Exact sum of squared metrics over all trials.
    pub metric_sq_sum: u128,
    /// metric → occurrence count, over all trials.
    pub metric_hist: BTreeMap<u64, u64>,
    /// metric → occurrence count, over *decided* trials only ("decided by
    /// k steps" — the input to the §4 tail bounds).
    pub decided_by_k: BTreeMap<u64, u64>,
    /// Samples of failing trials: the `max_failure_samples` *lowest* trial
    /// indices that were `Inconsistent` or `Trivial` (lowest, so the kept
    /// set is independent of observation order).
    pub failures: Vec<FailureSample>,
    max_failure_samples: usize,
}

impl SweepStats {
    /// An empty accumulator keeping at most `max_failure_samples` failures.
    pub fn new(max_failure_samples: usize) -> Self {
        SweepStats {
            trials: 0,
            decided: 0,
            undecided: 0,
            inconsistent: 0,
            trivial: 0,
            flagged: 0,
            metric_sum: 0,
            metric_sq_sum: 0,
            metric_hist: BTreeMap::new(),
            decided_by_k: BTreeMap::new(),
            failures: Vec::new(),
            max_failure_samples,
        }
    }

    /// Folds one trial's result in.
    pub fn absorb(&mut self, trial_index: u64, result: TrialResult) {
        self.trials += 1;
        let m = result.metric;
        self.metric_sum += u128::from(m);
        self.metric_sq_sum += u128::from(m) * u128::from(m);
        *self.metric_hist.entry(m).or_insert(0) += 1;
        match result.outcome {
            TrialOutcome::Decided => {
                self.decided += 1;
                *self.decided_by_k.entry(m).or_insert(0) += 1;
            }
            TrialOutcome::Undecided => self.undecided += 1,
            TrialOutcome::Inconsistent | TrialOutcome::Trivial => {
                if result.outcome == TrialOutcome::Inconsistent {
                    self.inconsistent += 1;
                } else {
                    self.trivial += 1;
                }
                self.failures.push(FailureSample {
                    trial: trial_index,
                    kind: result.outcome,
                    schedule: result.schedule,
                });
                self.prune_failures();
            }
        }
        if result.flagged {
            self.flagged += 1;
        }
    }

    /// Folds in `n` trials that each decided cleanly, unflagged, with
    /// `metric`: the stats end exactly as after `n` calls of
    /// [`absorb`](Self::absorb) with such a result, and `n = 0` adds
    /// nothing (no zero-count histogram entry). Engines that count their
    /// common outcome in a dense array fold it in through this.
    pub fn absorb_decided(&mut self, metric: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.trials += n;
        self.decided += n;
        let m = u128::from(metric);
        self.metric_sum += m * u128::from(n);
        self.metric_sq_sum += m * m * u128::from(n);
        *self.metric_hist.entry(metric).or_insert(0) += n;
        *self.decided_by_k.entry(metric).or_insert(0) += n;
    }

    /// Merges another partial in; commutative and associative.
    pub fn merge(&mut self, other: SweepStats) {
        self.trials += other.trials;
        self.decided += other.decided;
        self.undecided += other.undecided;
        self.inconsistent += other.inconsistent;
        self.trivial += other.trivial;
        self.flagged += other.flagged;
        self.metric_sum += other.metric_sum;
        self.metric_sq_sum += other.metric_sq_sum;
        for (k, v) in other.metric_hist {
            *self.metric_hist.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.decided_by_k {
            *self.decided_by_k.entry(k).or_insert(0) += v;
        }
        self.failures.extend(other.failures);
        self.max_failure_samples = self.max_failure_samples.max(other.max_failure_samples);
        self.prune_failures();
    }

    fn prune_failures(&mut self) {
        // Canonical representation: ascending trial index, lowest
        // `max_failure_samples` kept — independent of observation order.
        self.failures.sort_by_key(|f| f.trial);
        self.failures.truncate(self.max_failure_samples);
    }

    /// Total safety violations (inconsistent + trivial).
    pub fn violations(&self) -> u64 {
        self.inconsistent + self.trivial
    }

    /// Mean metric over all trials (`None` for an empty sweep).
    pub fn mean(&self) -> Option<f64> {
        if self.trials == 0 {
            None
        } else {
            Some(self.metric_sum as f64 / self.trials as f64)
        }
    }

    /// Smallest metric observed.
    pub fn metric_min(&self) -> Option<u64> {
        self.metric_hist.keys().next().copied()
    }

    /// Largest metric observed.
    pub fn metric_max(&self) -> Option<u64> {
        self.metric_hist.keys().next_back().copied()
    }

    /// Canonical byte encoding; equal digests ⇔ equal statistics. The
    /// determinism tests compare these across worker counts.
    pub fn digest(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for v in [
            self.trials,
            self.decided,
            self.undecided,
            self.inconsistent,
            self.trivial,
            self.flagged,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.metric_sum.to_le_bytes());
        out.extend_from_slice(&self.metric_sq_sum.to_le_bytes());
        for map in [&self.metric_hist, &self.decided_by_k] {
            out.extend_from_slice(&(map.len() as u64).to_le_bytes());
            for (k, v) in map {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.failures.len() as u64).to_le_bytes());
        for f in &self.failures {
            out.extend_from_slice(&f.trial.to_le_bytes());
            out.push(match f.kind {
                TrialOutcome::Decided => 0,
                TrialOutcome::Undecided => 1,
                TrialOutcome::Inconsistent => 2,
                TrialOutcome::Trivial => 3,
            });
            // A presence tag byte keeps `None` distinguishable from every
            // `Some` schedule — the previous `u64::MAX` length sentinel
            // collided with a legitimate first word of `u64::MAX` (e.g. a
            // pid of `usize::MAX` in a corrupted capture).
            match &f.schedule {
                None => out.push(0),
                Some(s) => {
                    out.push(1);
                    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                    for &pid in s {
                        out.extend_from_slice(&(pid as u64).to_le_bytes());
                    }
                }
            }
        }
        out
    }
}

/// Observation hooks for a sweep: metrics published once the sweep joins,
/// and an optional progress ticker.
///
/// Every metric is computed from the [`SweepStats`] the sweep builds anyway
/// and published with commutative bulk adds when the workers join, so the
/// trial loop writes nothing shared per trial and attaching an observer
/// never perturbs the sweep's [determinism contract](self): the exported
/// metrics — like the [`SweepStats`] digest — are identical at every
/// `--jobs` setting, and the stats themselves are byte-identical with and
/// without an observer.
///
/// Registered metrics (under the `sweep.` prefix by default — other
/// sweep-shaped engines pick their own via
/// [`with_prefix`](SweepObserver::with_prefix), e.g. `cil-conc` exports
/// `conc.*`): `trials`, `decided`, `undecided`, `inconsistent`, `trivial`,
/// `flagged` counters, and the `steps` / `decided_by_k` histograms (bucket
/// width 1, so small step counts — e.g. the paper's Fig. 1 decided-by-k
/// distribution — are recovered exactly from an exported snapshot).
pub struct SweepObserver {
    trials: Arc<Counter>,
    decided: Arc<Counter>,
    undecided: Arc<Counter>,
    inconsistent: Arc<Counter>,
    trivial: Arc<Counter>,
    flagged: Arc<Counter>,
    steps: Arc<Histogram>,
    decided_by_k: Arc<Histogram>,
    trial_ns: Option<Arc<LogHistogram>>,
    progress: Option<ProgressMeter>,
}

/// Histogram buckets kept per metric distribution (width 1, plus an
/// overflow bucket for anything ≥ this).
const SWEEP_HIST_BUCKETS: usize = 512;

/// Sub-bucket resolution of timing log-histograms: 2^5 sub-buckets per
/// octave keeps every quantile within 3.2% relative error.
const TIMING_SUB_BITS: u32 = 5;

impl SweepObserver {
    /// An observer registering its metrics in `registry` under `sweep.*`.
    pub fn new(registry: &Registry) -> Self {
        Self::with_prefix(registry, "sweep")
    }

    /// An observer registering its metrics in `registry` under
    /// `<prefix>.*`.
    pub fn with_prefix(registry: &Registry, prefix: &str) -> Self {
        let name = |metric: &str| format!("{prefix}.{metric}");
        SweepObserver {
            trials: registry.counter(&name("trials")),
            decided: registry.counter(&name("decided")),
            undecided: registry.counter(&name("undecided")),
            inconsistent: registry.counter(&name("inconsistent")),
            trivial: registry.counter(&name("trivial")),
            flagged: registry.counter(&name("flagged")),
            steps: registry.histogram(&name("steps"), 1, SWEEP_HIST_BUCKETS),
            decided_by_k: registry.histogram(&name("decided_by_k"), 1, SWEEP_HIST_BUCKETS),
            trial_ns: None,
            progress: None,
        }
    }

    /// Attaches a live progress meter (trials/sec + ETA on stderr), ticked
    /// once per finished chunk of trials.
    pub fn with_progress(mut self, meter: ProgressMeter) -> Self {
        self.progress = Some(meter);
        self
    }

    /// Enables per-trial wall-clock timing: trial durations land in a
    /// `<prefix>.trial_ns` log-scale histogram (p50/p99 latency, total
    /// time). Timing values are wall clock, so — unlike every other sweep
    /// metric — they are *not* byte-identical across runs or `--jobs`
    /// settings; callers keep them out of determinism-checked exports.
    pub fn with_timing(mut self, registry: &Registry, prefix: &str) -> Self {
        self.trial_ns =
            Some(registry.log_histogram(&format!("{prefix}.trial_ns"), TIMING_SUB_BITS));
        self
    }

    /// True if [`with_timing`](SweepObserver::with_timing) was called —
    /// the sweep only reads the clock around trials when someone wants
    /// the numbers.
    pub fn wants_timing(&self) -> bool {
        self.trial_ns.is_some()
    }

    /// Advances the progress meter, if one is attached, by `n` finished
    /// trials.
    pub fn tick(&self, n: u64) {
        if let Some(meter) = &self.progress {
            meter.tick(n);
        }
    }

    /// Publishes a finished run: the six counters and the two step
    /// histograms from `stats`, and `trial_ns` into `<prefix>.trial_ns` when
    /// timing is on. The metrics end exactly as if every trial had been
    /// recorded one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `trial_ns` has another resolution than the timing
    /// histogram (2^5 sub-buckets per octave).
    pub fn publish(&self, stats: &SweepStats, trial_ns: Option<&LogHistogramSnapshot>) {
        self.trials.add(stats.trials);
        self.decided.add(stats.decided);
        self.undecided.add(stats.undecided);
        self.inconsistent.add(stats.inconsistent);
        self.trivial.add(stats.trivial);
        self.flagged.add(stats.flagged);
        for (&steps, &count) in &stats.metric_hist {
            self.steps.observe_n(steps, count);
        }
        for (&steps, &count) in &stats.decided_by_k {
            self.decided_by_k.observe_n(steps, count);
        }
        if let (Some(hist), Some(snap)) = (&self.trial_ns, trial_ns) {
            hist.merge_snapshot(snap)
                .expect("trial timings are recorded at the timing resolution");
        }
    }

    /// Finalizes the progress line, if a meter is attached.
    pub fn finish(&self) {
        if let Some(meter) = &self.progress {
            meter.finish();
        }
    }
}

/// Builder for a parallel trial sweep. See the [module docs](self) for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct TrialSweep {
    trials: u64,
    root_seed: u64,
    jobs: usize,
    max_failure_samples: usize,
}

/// Chunk of trial indices a worker claims per fetch. Large enough that the
/// atomic cursor is cold, small enough to balance uneven trial costs.
const CLAIM_CHUNK: u64 = 16;

impl TrialSweep {
    /// A sweep over `trials` trial indices (`0..trials`).
    pub fn new(trials: u64) -> Self {
        TrialSweep {
            trials,
            root_seed: 0,
            jobs: 0,
            max_failure_samples: 8,
        }
    }

    /// Sets the root seed all per-trial streams derive from (default 0).
    pub fn root_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self
    }

    /// Sets the worker count; `0` (the default) means available
    /// parallelism, `1` runs serially on the calling thread.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets how many failing trials to keep as replayable samples
    /// (default 8).
    pub fn max_failure_samples(mut self, n: usize) -> Self {
        self.max_failure_samples = n;
        self
    }

    /// The worker count this sweep will actually use.
    pub fn effective_jobs(&self) -> usize {
        resolve_jobs(self.jobs)
    }

    /// Runs the sweep. The closure is called once per trial index, from
    /// whichever worker claims it; everything trial-dependent must come
    /// from the [`Trial`] argument for the determinism contract to hold.
    pub fn run<F>(&self, trial_fn: F) -> SweepStats
    where
        F: Fn(Trial) -> TrialResult + Sync,
    {
        self.run_observed(None, trial_fn)
    }

    /// [`TrialSweep::run`] with an optional [`SweepObserver`]: its progress
    /// meter ticks once per finished chunk of trials, and its metrics are
    /// published from the merged [`SweepStats`] (and, with timing, the
    /// workers' merged trial-duration histograms) when the workers join.
    /// The returned [`SweepStats`] — and the observer's exported metrics —
    /// are identical at every worker count, and identical to an unobserved
    /// run.
    pub fn run_observed<F>(&self, observer: Option<&SweepObserver>, trial_fn: F) -> SweepStats
    where
        F: Fn(Trial) -> TrialResult + Sync,
    {
        let jobs = self.effective_jobs().max(1);
        let trial_at = |index: u64| Trial {
            index,
            seed: crate::SplitMix64::jump(self.root_seed, index).next_u64(),
        };
        let time_trials = observer.is_some_and(SweepObserver::wants_timing);
        let cursor = AtomicU64::new(0);
        // One worker: claims chunks until the index range is used up, timing
        // each trial into a histogram of its own when asked.
        let worker = || {
            let mut stats = SweepStats::new(self.max_failure_samples);
            let trial_ns = time_trials.then(|| LogHistogram::new(TIMING_SUB_BITS));
            loop {
                let start = cursor.fetch_add(CLAIM_CHUNK, Ordering::Relaxed);
                if start >= self.trials {
                    break;
                }
                let end = (start + CLAIM_CHUNK).min(self.trials);
                for index in start..end {
                    let started = trial_ns.as_ref().map(|_| std::time::Instant::now());
                    let result = trial_fn(trial_at(index));
                    if let (Some(hist), Some(t)) = (&trial_ns, started) {
                        hist.observe(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    }
                    stats.absorb(index, result);
                }
                if let Some(o) = observer {
                    o.tick(end - start);
                }
            }
            (stats, trial_ns.map(|h| h.snapshot()))
        };

        let parts: Vec<(SweepStats, Option<LogHistogramSnapshot>)> =
            if jobs == 1 || self.trials <= 1 {
                vec![worker()]
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..jobs).map(|_| scope.spawn(worker)).collect();
                    handles
                        .into_iter()
                        .map(|handle| handle.join().expect("sweep worker panicked"))
                        .collect()
                })
            };

        let mut stats = SweepStats::new(self.max_failure_samples);
        let mut trial_ns = time_trials.then(|| LogHistogramSnapshot {
            sub_bits: TIMING_SUB_BITS,
            buckets: BTreeMap::new(),
            sum: 0,
        });
        for (part, part_ns) in parts {
            stats.merge(part);
            if let (Some(all), Some(part_ns)) = (&mut trial_ns, part_ns) {
                all.merge(&part_ns)
                    .expect("every worker times at the same resolution");
            }
        }
        if let Some(o) = observer {
            o.publish(&stats, trial_ns.as_ref());
        }
        stats
    }
}

/// Resolves a `--jobs` style request: `0` means available parallelism.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(trial: Trial) -> TrialResult {
        let mut rng = trial.rng();
        let metric = 2 + rng.below(30);
        let outcome = match trial.index {
            i if i % 97 == 13 => TrialOutcome::Inconsistent,
            i if i % 89 == 7 => TrialOutcome::Trivial,
            i if i % 41 == 5 => TrialOutcome::Undecided,
            _ => TrialOutcome::Decided,
        };
        TrialResult {
            metric,
            outcome,
            flagged: trial.index.is_multiple_of(10),
            schedule: matches!(outcome, TrialOutcome::Inconsistent | TrialOutcome::Trivial)
                .then(|| vec![(trial.index % 3) as usize, 1, 0]),
        }
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let base = TrialSweep::new(500).root_seed(42);
        let serial = base.clone().jobs(1).run(toy);
        for jobs in [2, 3, 8] {
            let par = base.clone().jobs(jobs).run(toy);
            assert_eq!(serial, par, "jobs = {jobs}");
            assert_eq!(serial.digest(), par.digest(), "jobs = {jobs}");
        }
    }

    #[test]
    fn counters_partition_the_trials() {
        let stats = TrialSweep::new(1000).jobs(4).run(toy);
        assert_eq!(stats.trials, 1000);
        assert_eq!(stats.decided + stats.undecided + stats.violations(), 1000);
        assert_eq!(stats.metric_hist.values().sum::<u64>(), 1000);
        assert_eq!(stats.decided_by_k.values().sum::<u64>(), stats.decided);
        assert_eq!(stats.flagged, 100);
    }

    #[test]
    fn failures_keep_lowest_trial_indices() {
        let stats = TrialSweep::new(2000)
            .jobs(8)
            .max_failure_samples(4)
            .run(toy);
        let kept: Vec<u64> = stats.failures.iter().map(|f| f.trial).collect();
        // Lowest failing indices: 7 and 96 (i % 89 == 7), 13 and 110
        // (i % 97 == 13), ...; the lowest four overall.
        assert_eq!(kept, vec![7, 13, 96, 110]);
        assert!(stats
            .failures
            .iter()
            .all(|f| f.schedule.as_ref().is_some_and(|s| s.len() == 3)));
    }

    #[test]
    fn merge_is_commutative() {
        let toy2 = |t: Trial| toy(t);
        let a = TrialSweep::new(100).jobs(1).run(toy2);
        let b = {
            // Trials 100..200 absorbed standalone.
            let mut s = SweepStats::new(8);
            for index in 100..200 {
                let seed = crate::SplitMix64::jump(0, index).next_u64();
                s.absorb(index, toy(Trial { index, seed }));
            }
            s
        };
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab, ba);
        let full = TrialSweep::new(200).jobs(1).run(toy2);
        assert_eq!(ab, full);
    }

    #[test]
    fn root_seed_changes_derived_streams_not_indices() {
        let a = TrialSweep::new(50).root_seed(1).run(toy);
        let b = TrialSweep::new(50).root_seed(2).run(toy);
        // Outcome pattern is index-driven in `toy`, but metrics derive from
        // the per-trial rng, so the histograms must differ.
        assert_eq!(a.violations(), b.violations());
        assert_ne!(a.metric_hist, b.metric_hist);
    }

    #[test]
    fn resolve_jobs_zero_is_at_least_one() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(5), 5);
    }

    #[test]
    fn observer_does_not_change_stats_or_digest() {
        let base = TrialSweep::new(400).root_seed(9);
        let plain = base.clone().jobs(1).run(toy);
        let registry = Registry::new();
        let observer = SweepObserver::new(&registry);
        let observed = base.clone().jobs(4).run_observed(Some(&observer), toy);
        assert_eq!(plain, observed);
        assert_eq!(plain.digest(), observed.digest());
    }

    #[test]
    fn published_metrics_equal_recording_each_trial() {
        // The reference records every trial into the registry as it
        // finishes; the join-time publish must export the same bytes.
        let trials = 600;
        let reference = Registry::new();
        for index in 0..trials {
            let seed = crate::SplitMix64::jump(3, index).next_u64();
            let result = toy(Trial { index, seed });
            reference.counter("sweep.trials").inc();
            reference
                .histogram("sweep.steps", 1, SWEEP_HIST_BUCKETS)
                .observe(result.metric);
            let outcome = match result.outcome {
                TrialOutcome::Decided => {
                    reference
                        .histogram("sweep.decided_by_k", 1, SWEEP_HIST_BUCKETS)
                        .observe(result.metric);
                    "decided"
                }
                TrialOutcome::Undecided => "undecided",
                TrialOutcome::Inconsistent => "inconsistent",
                TrialOutcome::Trivial => "trivial",
            };
            reference.counter(&format!("sweep.{outcome}")).inc();
            reference
                .counter("sweep.flagged")
                .add(u64::from(result.flagged));
        }
        for jobs in [1, 3] {
            let registry = Registry::new();
            let observer = SweepObserver::new(&registry);
            TrialSweep::new(trials)
                .root_seed(3)
                .jobs(jobs)
                .run_observed(Some(&observer), toy);
            assert_eq!(
                registry.snapshot().to_json(),
                reference.snapshot().to_json(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn timed_sweep_records_one_duration_per_trial() {
        for jobs in [1, 3] {
            let registry = Registry::new();
            let observer = SweepObserver::new(&registry).with_timing(&registry, "sweep");
            TrialSweep::new(500)
                .jobs(jobs)
                .run_observed(Some(&observer), toy);
            let snap = registry.snapshot();
            let timed = snap.log_histogram("sweep.trial_ns").map(|h| h.count());
            assert_eq!(timed, Some(500), "jobs={jobs}");
        }
    }

    #[test]
    fn digest_distinguishes_missing_schedule_from_sentinel_value() {
        // Regression: `None` used to be encoded as a bare `u64::MAX` word,
        // indistinguishable from a captured schedule whose first encoded
        // word is `u64::MAX` (a pid of `usize::MAX`). The presence tag byte
        // keeps the encoding injective.
        let stats_with = |schedule: Option<Vec<usize>>| {
            let mut s = SweepStats::new(8);
            s.absorb(
                0,
                TrialResult {
                    metric: 1,
                    outcome: TrialOutcome::Inconsistent,
                    flagged: false,
                    schedule,
                },
            );
            s
        };
        let none = stats_with(None);
        let sentinel = stats_with(Some(vec![usize::MAX]));
        assert_ne!(none.digest(), sentinel.digest());
        // And the `Some(u64::MAX)`-shaped first word itself cannot alias the
        // missing-schedule encoding: the tag byte differs before any length
        // or pid bytes are compared.
        let none_tail = &none.digest()[none.digest().len() - 1..];
        assert_eq!(none_tail, [0]);
        let empty = stats_with(Some(Vec::new()));
        assert_ne!(none.digest(), empty.digest());
    }

    #[test]
    fn observer_metrics_are_jobs_invariant_and_match_stats() {
        let base = TrialSweep::new(600).root_seed(3);
        let mut snapshots = Vec::new();
        for jobs in [1, 2, 8] {
            let registry = Registry::new();
            let observer = SweepObserver::new(&registry);
            let stats = base.clone().jobs(jobs).run_observed(Some(&observer), toy);
            let snap = registry.snapshot();
            assert_eq!(snap.counters["sweep.trials"], stats.trials, "jobs={jobs}");
            assert_eq!(snap.counters["sweep.decided"], stats.decided, "jobs={jobs}");
            assert_eq!(
                snap.counters["sweep.undecided"], stats.undecided,
                "jobs={jobs}"
            );
            assert_eq!(
                snap.counters["sweep.inconsistent"] + snap.counters["sweep.trivial"],
                stats.violations(),
                "jobs={jobs}"
            );
            assert_eq!(snap.histograms["sweep.steps"].count(), stats.trials);
            snapshots.push(snap);
        }
        assert_eq!(snapshots[0].to_json(), snapshots[1].to_json());
        assert_eq!(snapshots[0].to_json(), snapshots[2].to_json());
    }

    /// A trial result of every kind: `kind` 0 is a clean decision, 1 a
    /// flagged one, 2 undecided, 3 inconsistent and 4 trivial.
    fn result_of(metric: u64, kind: u8) -> TrialResult {
        let outcome = match kind {
            0 | 1 => TrialOutcome::Decided,
            2 => TrialOutcome::Undecided,
            3 => TrialOutcome::Inconsistent,
            _ => TrialOutcome::Trivial,
        };
        TrialResult {
            metric,
            outcome,
            flagged: kind == 1,
            schedule: (kind >= 3).then(|| vec![0, 1]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `absorb_decided(m, n)` leaves the stats exactly as `n` calls of
        /// `absorb` with a clean decision at `m` do, `n = 0` included, when
        /// mixed with every other kind of result and merged in any order.
        #[test]
        fn absorb_decided_equals_n_absorbs(
            bulk in proptest::collection::vec((0u64..40, 0u64..5), 0..12),
            others in proptest::collection::vec((0u64..40, 0u8..5), 0..30),
            split in 0usize..64,
            swap in proptest::prelude::any::<bool>(),
        ) {
            // Reference: every trial absorbed one by one, in index order.
            let mut one_by_one = SweepStats::new(4);
            let mut index = 0u64;
            for &(metric, n) in &bulk {
                for _ in 0..n {
                    one_by_one.absorb(index, result_of(metric, 0));
                    index += 1;
                }
            }
            for &(metric, kind) in &others {
                one_by_one.absorb(index, result_of(metric, kind));
                index += 1;
            }

            // The same trials as two partials: one takes the bulk counts
            // before its share of the others, the other takes the rest.
            let split = split.min(others.len());
            let mut bulk_part = SweepStats::new(4);
            for &(metric, n) in &bulk {
                bulk_part.absorb_decided(metric, n);
            }
            let first_other = bulk.iter().map(|&(_, n)| n).sum::<u64>();
            for (i, &(metric, kind)) in others[..split].iter().enumerate() {
                bulk_part.absorb(first_other + i as u64, result_of(metric, kind));
            }
            let mut rest = SweepStats::new(4);
            for (i, &(metric, kind)) in others.iter().enumerate().skip(split) {
                rest.absorb(first_other + i as u64, result_of(metric, kind));
            }
            let merged = if swap {
                rest.merge(bulk_part);
                rest
            } else {
                bulk_part.merge(rest);
                bulk_part
            };
            proptest::prop_assert_eq!(&merged, &one_by_one);
            proptest::prop_assert_eq!(merged.digest(), one_by_one.digest());
        }
    }
}
