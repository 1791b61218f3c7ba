//! Trial-sweep adapter: batches of controlled native runs with the same
//! deterministic statistics engine as `cil sweep`.
//!
//! Each trial derives its seed from the sweep's root seed
//! (`SplitMix64::jump`), builds a fresh strategy from that seed, and runs
//! the protocol under the controlled scheduler. Results fold into the
//! jobs-invariant [`SweepStats`], so native decided-by-`k` decay statistics
//! come out directly comparable with the simulator's Corollary curve — and
//! a whole stress batch is reproducible from `(root_seed, strategy)` alone,
//! at any `--jobs` setting.

use crate::coordinator::ThreadTimes;
use crate::run::{ConcOutcome, ControlledRun};
use crate::strategy::StrategySpec;
use cil_obs::metrics::{LogHistogram, Registry};
use cil_registers::Packable;
use cil_sim::{
    PackCodec, Protocol, Rng, SweepObserver, SweepStats, TrialResult, TrialSweep, Val, WordCodec,
};
use std::sync::Arc;

/// Sub-bucket resolution of the gate timing log-histograms (matches the
/// sweep engine's `trial_ns` resolution: quantiles within 3.2%).
const GATE_TIMING_SUB_BITS: u32 = 5;

/// Aggregates per-thread [`ThreadTimes`] into `cil-obs` log-histograms:
/// one `<prefix>.gate_wait_ns` and one `<prefix>.run_ns` observation per
/// thread per run. Wall-clock values — keep them out of
/// determinism-checked exports.
pub struct GateTimingAgg {
    gate_wait_ns: Arc<LogHistogram>,
    run_ns: Arc<LogHistogram>,
}

impl GateTimingAgg {
    /// An aggregator registering its histograms under `<prefix>.*`.
    pub fn new(registry: &Registry, prefix: &str) -> Self {
        GateTimingAgg {
            gate_wait_ns: registry
                .log_histogram(&format!("{prefix}.gate_wait_ns"), GATE_TIMING_SUB_BITS),
            run_ns: registry.log_histogram(&format!("{prefix}.run_ns"), GATE_TIMING_SUB_BITS),
        }
    }

    /// Folds one run's per-thread split in (commutative, lock-free).
    pub fn fold(&self, times: &ThreadTimes) {
        for &ns in &times.gate_wait_ns {
            self.gate_wait_ns.observe(ns);
        }
        for &ns in &times.run_ns {
            self.run_ns.observe(ns);
        }
    }
}

/// Configuration of one controlled stress batch.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Number of controlled runs.
    pub trials: u64,
    /// Root seed; trial seeds derive from it deterministically.
    pub root_seed: u64,
    /// Global step budget per run.
    pub budget: u64,
    /// Worker threads for the sweep (`0` = all cores). Each *trial* still
    /// spawns its own protocol threads; jobs only parallelize across
    /// trials.
    pub jobs: usize,
    /// Scheduling strategy, instantiated per trial from the trial seed.
    pub strategy: StrategySpec,
    /// Failing-trial samples to keep (lowest trial indices).
    pub max_failure_samples: usize,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            trials: 256,
            root_seed: 0,
            budget: 4096,
            jobs: 1,
            strategy: StrategySpec::Random,
            max_failure_samples: 5,
        }
    }
}

/// Classifies one controlled run by its [`Verdict`](cil_sim::Verdict), as
/// `cil sweep` does simulator trials: a run in which a processor did not
/// decide stopped short. The metric is total serialized steps.
///
/// The schedule is always attached, so failure samples carry their exact
/// repro.
pub fn classify(outcome: &ConcOutcome) -> TrialResult {
    let verdict = outcome.verdict();
    TrialResult {
        metric: outcome.total_steps,
        outcome: verdict.outcome(!verdict.all_decided),
        flagged: false,
        schedule: Some(outcome.schedule.clone()),
    }
}

/// Runs a controlled stress batch with a custom [`WordCodec`], folding
/// every trial into jobs-invariant [`SweepStats`].
pub fn stress_with_codec<P, C>(
    protocol: &P,
    inputs: &[Val],
    codec: &C,
    cfg: &StressConfig,
    observer: Option<&SweepObserver>,
) -> SweepStats
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    stress_timed_with_codec(protocol, inputs, codec, cfg, observer, None)
}

/// [`stress_with_codec`] with optional per-thread gate-wait/run timing
/// folded into `timing`. Timing only touches commutative atomics, so the
/// returned stats stay byte-identical with and without it.
pub fn stress_timed_with_codec<P, C>(
    protocol: &P,
    inputs: &[Val],
    codec: &C,
    cfg: &StressConfig,
    observer: Option<&SweepObserver>,
    timing: Option<&GateTimingAgg>,
) -> SweepStats
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    let threads = protocol.processes();
    TrialSweep::new(cfg.trials)
        .root_seed(cfg.root_seed)
        .jobs(cfg.jobs)
        .max_failure_samples(cfg.max_failure_samples)
        .run_observed(observer, |trial| {
            let strategy = cfg.strategy.build(trial.seed, threads, cfg.budget);
            let (outcome, times) = ControlledRun::new(protocol, inputs)
                .seed(trial.seed)
                .budget(cfg.budget)
                .run_timed_with_codec(codec, strategy, timing.is_some());
            if let (Some(agg), Some(times)) = (timing, &times) {
                agg.fold(times);
            }
            classify(&outcome)
        })
}

/// [`stress_with_codec`] with the [`Packable`] encoding.
pub fn stress<P>(
    protocol: &P,
    inputs: &[Val],
    cfg: &StressConfig,
    observer: Option<&SweepObserver>,
) -> SweepStats
where
    P: Protocol + Sync,
    P::Reg: Packable + Send + Sync,
{
    stress_with_codec(protocol, inputs, &PackCodec, cfg, observer)
}

/// Re-executes one trial of a stress batch deterministically (same seed
/// derivation as [`stress`]), with event capture — the exemplar exported by
/// `cil conc stress --trace-json` and replayed by `cil conc replay`.
pub fn rerun_trial_with_codec<P, C>(
    protocol: &P,
    inputs: &[Val],
    codec: &C,
    cfg: &StressConfig,
    trial_index: u64,
) -> (u64, ConcOutcome)
where
    P: Protocol + Sync,
    P::Reg: Send + Sync,
    C: WordCodec<P::Reg>,
{
    let seed = cil_sim::SplitMix64::jump(cfg.root_seed, trial_index).next_u64();
    let strategy = cfg.strategy.build(seed, protocol.processes(), cfg.budget);
    let outcome = ControlledRun::new(protocol, inputs)
        .seed(seed)
        .budget(cfg.budget)
        .capture(true)
        .run_with_codec(codec, strategy);
    (seed, outcome)
}
