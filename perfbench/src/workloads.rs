//! The four workloads: one unit of each, and the end-to-end run that times
//! them with tracing off, then checks every output with the gate.
//!
//! Each unit is built from the public entry points the `cil` CLI calls,
//! with the CLI's default settings. Inputs derive from `--seed` only:
//! serve-two and sweep-fig2 give each round (one engine run, one sweep) the
//! root seed [`round_root`]; exact-fig3 and prove-kvalued8 have fixed
//! inputs, so the seed does not change their work.

use crate::args::{Args, Workload, DEFAULT_SEED};
use crate::gate::{self, ExactOutput};
use crate::report::{self, Metric, Outcome};
use crate::stats;
use cil_audit::{check_certificate, CertCheck, ProveReport, Prover};
use cil_core::kvalued::KValued;
use cil_core::n_unbounded::NUnbounded;
use cil_core::three_bounded::ThreeBounded;
use cil_core::two::TwoProcessor;
use cil_mc::compact::CompactStats;
use cil_mc::{CompactExplorer, CompactMdp, CompactOptions};
use cil_obs::{LogHistogram, LogHistogramSnapshot, SpanTimer};
use cil_serve::{ServeEngine, ServeLimit, ServeReport, DEFAULT_BATCH, DEFAULT_SLOTS};
use cil_sim::{
    BoxedAdversary, PackCodec, RandomScheduler, Rng as _, RoundRobin, Runner, SplitMix64,
    SweepStats, TrialResult, TrialSweep, Val,
};
use std::hint::black_box;
use std::time::Instant;

/// Worker threads of every parallel stage: serve shards, sweep jobs and
/// survival jobs. It is the CLI default (available parallelism) on the
/// 2-vCPU host the benchmark was defined on, pinned so that a workload does
/// the same work on any host.
pub const THREADS: usize = 2;

/// Instances per `ServeEngine` run: `cil serve`'s default `--instances`.
pub const SERVE_ROUND: u64 = 100_000;

/// Trials per `TrialSweep` run.
pub const SWEEP_ROUND: u64 = 20_000;

/// The gate replays each serve-two round whose index is a multiple of this
/// through `TrialSweep` + `Runner`/`RoundRobin` and compares digests.
pub const SERVE_REFERENCE_STRIDE: usize = 8;

/// Inputs of the Fig. 1 instances.
pub const TWO_INPUTS: [Val; 2] = [Val::A, Val::B];

/// Inputs of the Fig. 2 trials and the Fig. 3 analysis.
pub const THREE_INPUTS: [Val; 3] = [Val::A, Val::B, Val::A];

/// The CLI's default per-run step budget (`--max-steps`).
pub const MAX_STEPS: u64 = 1_000_000;

/// `cil check --depth` of exact-fig3, and the CLI's default `--max-configs`.
pub const CHECK_DEPTH: usize = 30;
const CHECK_MAX_CONFIGS: usize = 3_000_000;

/// `cil survival --depth` of exact-fig3, and the CLI's defaults for the
/// rest of the survival solve.
pub const SURVIVAL_DEPTH: usize = 18;
const SURVIVAL_KMAX: usize = 20;
const SURVIVAL_TOL: f64 = 1e-13;
const SURVIVAL_MAX_ITER: usize = 200_000;

/// Values of `kvalued:8`; the proof runs over the full domain 0..7.
pub const PROVE_K: u64 = 8;
const PROVE_MAX_CONFIGS: usize = 262_144;

/// Sub-bucket resolution of every latency histogram (the serve engine's).
pub const LATENCY_SUB_BITS: u32 = 5;

/// Root seed of round `round` of a run seeded `seed`.
pub fn round_root(seed: u64, round: u64) -> u64 {
    SplitMix64::jump(seed, round).next_u64()
}

/// Root seed of discarded warm-up round `rep`, disjoint from every
/// measured round.
pub fn warmup_root(seed: u64, rep: u64) -> u64 {
    round_root(!seed, rep)
}

/// Nanoseconds since `started`.
pub fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One serve-two round: `ServeEngine::run` over [`SERVE_ROUND`] Fig. 1
/// instances in `Instances` mode, at the engine's default arena geometry.
pub fn serve_round(p: &TwoProcessor, root: u64, shards: usize) -> ServeReport {
    ServeEngine::new(
        p,
        &PackCodec,
        &TWO_INPUTS,
        ServeLimit::Instances(SERVE_ROUND),
    )
    .root_seed(root)
    .shards(shards)
    .slots(DEFAULT_SLOTS)
    .batch(DEFAULT_BATCH)
    .max_steps(MAX_STEPS)
    .run()
}

/// The serve-two oracle: the digest of `TrialSweep` + `Runner`/`RoundRobin`
/// over the same `(root, n)`.
pub fn runner_digest(p: &TwoProcessor, root: u64, n: u64) -> Vec<u8> {
    TrialSweep::new(n)
        .root_seed(root)
        .jobs(THREADS)
        .run(|trial| {
            let out = Runner::new(p, &TWO_INPUTS, RoundRobin::new())
                .seed(trial.seed)
                .max_steps(MAX_STEPS)
                .run();
            TrialResult::from_run(&out)
        })
        .digest()
}

/// One sweep-fig2 trial, as `cil sweep --protocol fig2` runs it: a boxed
/// `random` adversary seeded with the trial seed, `Runner::new` + `run`.
pub fn fig2_trial(p: &NUnbounded, seed: u64) -> TrialResult {
    let adversary: BoxedAdversary<NUnbounded> = Box::new(RandomScheduler::new(seed));
    let out = Runner::new(p, &THREE_INPUTS, adversary)
        .seed(seed)
        .max_steps(MAX_STEPS)
        .run();
    TrialResult::from_run(&out)
}

/// One sweep-fig2 round: [`SWEEP_ROUND`] trials in a `TrialSweep` with no
/// observer, each trial's wall time recorded into `latency`.
pub fn sweep_round(p: &NUnbounded, root: u64, jobs: usize, latency: &LogHistogram) -> SweepStats {
    TrialSweep::new(SWEEP_ROUND)
        .root_seed(root)
        .jobs(jobs)
        .run(|trial| {
            let started = Instant::now();
            let result = fig2_trial(p, trial.seed);
            latency.observe(elapsed_ns(started));
            result
        })
}

/// The depth-18 Fig. 3 survival model, built with `cil survival`'s options.
pub fn fig3_model(p: &ThreeBounded) -> CompactMdp<ThreeBounded> {
    let opts = CompactOptions {
        max_depth: Some(SURVIVAL_DEPTH),
        target: Some(0),
        ..CompactOptions::default()
    };
    CompactMdp::build(p, &THREE_INPUTS, &opts)
        .expect("the depth-bounded Fig. 3 model fits the default class budget")
}

/// P0's survival curve on `mdp`, k ≤ 20, at `jobs` workers.
pub fn fig3_survival(mdp: &CompactMdp<ThreeBounded>, jobs: usize) -> Vec<f64> {
    mdp.survival(0, SURVIVAL_KMAX, SURVIVAL_TOL, SURVIVAL_MAX_ITER, jobs)
}

/// Everything one exact-fig3 analysis produced.
#[derive(Debug, Clone)]
pub struct ExactRun {
    /// The gated outputs.
    pub output: ExactOutput,
    /// Build statistics of the bounded check.
    pub explore: CompactStats,
    /// Successor encodings the check made.
    pub encodings: u64,
    /// Build statistics of the survival model.
    pub solve: CompactStats,
}

/// One exact-fig3 analysis: `CompactExplorer` check to depth 30, then
/// `CompactMdp::build` to depth 18, then `survival` for k ≤ 20. `timer`
/// records one span per phase (`SpanTimer::disabled` when untraced).
pub fn exact_unit(p: &ThreeBounded, survival_jobs: usize, timer: &SpanTimer) -> ExactRun {
    let (report, explore) = {
        let _span = timer.enter("mc.explore");
        CompactExplorer::new(p, &THREE_INPUTS)
            .max_depth(CHECK_DEPTH)
            .max_configs(CHECK_MAX_CONFIGS)
            .run_with_stats()
    };
    let mdp = {
        let _span = timer.enter("mc.build");
        fig3_model(p)
    };
    let curve = {
        let _span = timer.enter("mc.solve");
        fig3_survival(&mdp, survival_jobs)
    };
    ExactRun {
        output: ExactOutput {
            explored: report.explored,
            violations: report.violations.len(),
            classes: mdp.size(),
            curve,
        },
        explore,
        encodings: report.levels.iter().map(|l| l.generated as u64).sum(),
        solve: *mdp.stats(),
    }
}

/// The `kvalued:8` protocol over the two-processor protocol, as `cil prove
/// kvalued:8` builds it.
pub fn kvalued8() -> KValued<TwoProcessor> {
    KValued::new(TwoProcessor::new(), PROVE_K)
}

/// Everything one prove-kvalued8 proof produced.
#[derive(Debug)]
pub struct ProveRun {
    /// The prover's report.
    pub report: ProveReport,
    /// Size of the rendered certificate.
    pub cert_bytes: usize,
    /// The independent checker's verdict.
    pub check: Result<CertCheck, String>,
}

/// One prove-kvalued8 proof: `Prover::run` over domain 0..7, the
/// certificate rendered in memory, then `check_certificate`. `timer`
/// records one span per phase.
pub fn prove_unit(p: &KValued<TwoProcessor>, timer: &SpanTimer) -> ProveRun {
    let report = {
        let _span = timer.enter("audit.prove");
        Prover::new(p)
            .with_domain((0..PROVE_K).map(Val))
            .with_max_configs(PROVE_MAX_CONFIGS)
            .run()
    };
    let cert = {
        let _span = timer.enter("audit.cert_render");
        report.certificate()
    };
    let Some(cert) = cert else {
        let check = Err("no certificate: the proof did not succeed".to_string());
        return ProveRun {
            report,
            cert_bytes: 0,
            check,
        };
    };
    let check = {
        let _span = timer.enter("audit.check");
        check_certificate(p, &cert)
    };
    ProveRun {
        report,
        cert_bytes: cert.len(),
        check,
    }
}

/// Set-ups each run performs; `setup_s` is their median.
fn setups(workload: Workload) -> u64 {
    match workload {
        Workload::ServeTwo | Workload::SweepFig2 => 9,
        Workload::ExactFig3 => 3,
        Workload::ProveKvalued8 => 5,
    }
}

/// Times `reps` set-ups and returns their median, in seconds.
fn setup_median(reps: u64, mut setup: impl FnMut(u64)) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|rep| {
            let started = Instant::now();
            setup(rep);
            started.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&mut times)
}

/// Runs `unit(0)`, `unit(1)`, … back to back until `seconds` have passed
/// and at least `min_units` ran; the unit running at the deadline
/// completes. Each output goes to `fold` with the unit's wall time in
/// seconds, outside the unit's timing. Returns the number of units.
pub fn closed_loop<T>(
    seconds: f64,
    min_units: u64,
    mut unit: impl FnMut(u64) -> T,
    mut fold: impl FnMut(T, f64),
) -> u64 {
    let started = Instant::now();
    let mut n = 0;
    while n < min_units.max(1) || started.elapsed().as_secs_f64() < seconds {
        let unit_started = Instant::now();
        let value = unit(n);
        fold(value, unit_started.elapsed().as_secs_f64());
        n += 1;
    }
    n
}

/// `throughput_per_s`: the interquartile mean over a run's rounds of units
/// ÷ round wall time. Every round of the measured phase counts; dropping
/// the outer quarters keeps a round that lost its CPU to another process
/// from moving the result.
fn throughput(rounds: &[(u64, f64)]) -> Metric {
    let mut rates: Vec<f64> = rounds.iter().map(|&(n, s)| n as f64 / s).collect();
    let units: u64 = rounds.iter().map(|r| r.0).sum();
    let wall: f64 = rounds.iter().map(|r| r.1).sum();
    let iqm = stats::interquartile_mean(&mut rates);
    Metric::new("throughput_per_s", iqm, "1/s").note(format!(
        "interquartile mean of {} rounds (median {:.6e}); {units} units in {wall:.3} s overall",
        rounds.len(),
        stats::median(&mut rates)
    ))
}

/// `latency_p50_ns` and `latency_p99_ns` from a latency histogram. The tail
/// metric follows the tail rule ([`stats::tail_percentile`]).
fn histogram_latency(snap: &LogHistogramSnapshot, what: &str) -> [Metric; 2] {
    let n = snap.count();
    let pct = stats::tail_percentile(n);
    let at = |pct| stats::histogram_percentile(snap, pct).expect("at least one sample");
    [
        Metric::new("latency_p50_ns", at(50), "ns").note(format!("{what}, n={n}")),
        Metric::new("latency_p99_ns", at(pct), "ns").note(tail_note(pct, n)),
    ]
}

/// `latency_p50_ns` and `latency_p99_ns` from per-unit wall times.
fn sample_latency(secs: &[f64], what: &str) -> [Metric; 2] {
    let n = secs.len() as u64;
    let pct = stats::tail_percentile(n);
    let mut ns: Vec<f64> = secs.iter().map(|s| s * 1e9).collect();
    [
        Metric::new("latency_p50_ns", stats::median(&mut ns), "ns").note(format!("{what}, n={n}")),
        Metric::new("latency_p99_ns", stats::percentile(&mut ns, pct), "ns")
            .note(tail_note(pct, n)),
    ]
}

fn tail_note(pct: u64, n: u64) -> String {
    if pct == 50 {
        format!("n={n}: too few samples for a tail percentile with 10 beyond it, so the median")
    } else {
        format!("n={n}, p{pct} (the highest percentile with 10 samples beyond it)")
    }
}

/// The metrics every workload reports, in `END_TO_END` order.
fn metrics(rounds: &[(u64, f64)], latency: [Metric; 2], setup_s: f64, reps: u64) -> Vec<Metric> {
    let [p50, p99] = latency;
    vec![
        throughput(rounds),
        p50,
        p99,
        Metric::new("setup_s", setup_s, "s").note(format!("median of {reps} set-ups")),
        Metric::new("peak_rss_mib", report::peak_rss_mib(), "MiB"),
    ]
}

/// What the gate keeps of one serve or sweep round: its failures should
/// its digest check out, and the digest's FNV-1a fingerprint.
struct RoundSummary {
    failures: u64,
    digest: u64,
}

impl RoundSummary {
    fn of(stats: &SweepStats, expected: u64) -> Self {
        RoundSummary {
            failures: gate::batch_failures(stats, expected, true),
            digest: gate::fnv1a(&stats.digest()),
        }
    }
}

/// The end-to-end run of `args.workload`, tracing off.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::ServeTwo => serve_two(args),
        Workload::SweepFig2 => sweep_fig2(args),
        Workload::ExactFig3 => exact_fig3(args),
        Workload::ProveKvalued8 => prove_kvalued8(args),
    }
}

fn serve_two(args: &Args) -> Outcome {
    let reps = setups(args.workload);
    let setup_s = setup_median(reps, |rep| {
        let p = TwoProcessor::new();
        black_box(serve_round(&p, warmup_root(args.seed, rep), THREADS));
    });
    let p = TwoProcessor::new();
    let mut latency = LogHistogram::new(LATENCY_SUB_BITS).snapshot();
    let (mut decided, mut steps) = (0u64, 0u128);
    let mut rates = Vec::new();
    let mut summaries = Vec::new();
    closed_loop(
        args.seconds,
        1,
        |r| serve_round(&p, round_root(args.seed, r), THREADS),
        |report, secs| {
            latency
                .merge(&report.latency)
                .expect("serve latency histograms share one resolution");
            decided += report.stats.decided;
            steps += report.stats.metric_sum;
            rates.push((report.stats.decided, secs));
            summaries.push(RoundSummary::of(&report.stats, SERVE_ROUND));
        },
    );
    let metrics = metrics(
        &rates,
        histogram_latency(&latency, "service latency, admission to decision"),
        setup_s,
        reps,
    );

    let mut failed = 0;
    let mut compared = 0;
    for (i, s) in summaries.iter().enumerate() {
        let digest_ok = i % SERVE_REFERENCE_STRIDE != 0 || {
            compared += 1;
            s.digest
                == gate::fnv1a(&runner_digest(
                    &p,
                    round_root(args.seed, i as u64),
                    SERVE_ROUND,
                ))
        };
        failed += if digest_ok { s.failures } else { SERVE_ROUND };
    }
    Outcome {
        attempted: summaries.len() as u64 * SERVE_ROUND,
        failed,
        metrics,
        details: vec![
            format!(
                "workload: serve-two   seed {}   Fig. 1 (two), inputs a,b, ServeEngine Instances \
                 mode: {} rounds of {SERVE_ROUND} instances, {THREADS} shards x {DEFAULT_SLOTS} \
                 slots, batch {DEFAULT_BATCH}",
                args.seed,
                summaries.len()
            ),
            format!(
                "steps per decision: {:.3}",
                steps as f64 / decided.max(1) as f64
            ),
            format!(
                "gate: every instance decided and safe; {compared} of {} round digests compared \
                 with TrialSweep + Runner/RoundRobin over the same (root, {SERVE_ROUND}), a \
                 mismatch failing its whole round",
                summaries.len()
            ),
        ],
    }
}

fn sweep_fig2(args: &Args) -> Outcome {
    let reps = setups(args.workload);
    let setup_s = setup_median(reps, |rep| {
        let p = NUnbounded::three();
        let scratch = LogHistogram::new(LATENCY_SUB_BITS);
        black_box(sweep_round(
            &p,
            warmup_root(args.seed, rep),
            THREADS,
            &scratch,
        ));
    });
    let p = NUnbounded::three();
    let latency = LogHistogram::new(LATENCY_SUB_BITS);
    let (mut trials, mut steps) = (0u64, 0u128);
    let mut rates = Vec::new();
    let mut summaries = Vec::new();
    closed_loop(
        args.seconds,
        1,
        |r| sweep_round(&p, round_root(args.seed, r), THREADS, &latency),
        |stats, secs| {
            trials += stats.trials;
            steps += stats.metric_sum;
            rates.push((stats.trials, secs));
            summaries.push(RoundSummary::of(&stats, SWEEP_ROUND));
        },
    );
    let metrics = metrics(
        &rates,
        histogram_latency(&latency.snapshot(), "trial wall time"),
        setup_s,
        reps,
    );
    let golden = args.seed == DEFAULT_SEED;
    let mut failed = 0;
    for (i, s) in summaries.iter().enumerate() {
        let digest_ok = !(golden && i == 0) || s.digest == gate::FIG2_GOLDEN_DIGEST;
        failed += if digest_ok { s.failures } else { SWEEP_ROUND };
    }
    Outcome {
        attempted: summaries.len() as u64 * SWEEP_ROUND,
        failed,
        metrics,
        details: vec![
            format!(
                "workload: sweep-fig2   seed {}   Fig. 2 (fig2), inputs a,b,a, random adversary: \
                 {} TrialSweep rounds of {SWEEP_ROUND} trials, {THREADS} jobs, no observer",
                args.seed,
                summaries.len()
            ),
            format!(
                "steps per trial: {:.3}",
                steps as f64 / trials.max(1) as f64
            ),
            format!(
                "gate: zero violations and zero undecided trials{}",
                if golden {
                    format!(
                        "; first round digest {:016x}, golden {:016x}",
                        summaries[0].digest,
                        gate::FIG2_GOLDEN_DIGEST
                    )
                } else {
                    String::new()
                }
            ),
        ],
    }
}

fn exact_fig3(args: &Args) -> Outcome {
    let reps = setups(args.workload);
    let off = SpanTimer::disabled();
    let setup_s = setup_median(reps, |_| {
        let p = ThreeBounded::new();
        black_box(exact_unit(&p, THREADS, &off));
    });
    let p = ThreeBounded::new();
    let (mut failed, mut secs) = (0, Vec::new());
    closed_loop(
        args.seconds,
        1,
        |_| exact_unit(&p, THREADS, &off),
        |run, s| {
            failed += gate::exact_failures(&run.output);
            secs.push(s);
        },
    );
    let rates: Vec<(u64, f64)> = secs.iter().map(|&s| (1, s)).collect();
    Outcome {
        attempted: secs.len() as u64,
        failed,
        metrics: metrics(
            &rates,
            sample_latency(&secs, "wall time of one analysis"),
            setup_s,
            reps,
        ),
        details: vec![
            format!(
                "workload: exact-fig3   seed {} (fixed inputs: the seed does not change the \
                 work)   Fig. 3 (fig3), inputs a,b,a: CompactExplorer to depth {CHECK_DEPTH}, \
                 CompactMdp to depth {SURVIVAL_DEPTH} (target P0), survival k <= 20, \
                 {THREADS} jobs; {} analyses",
                args.seed,
                secs.len()
            ),
            format!(
                "gate: {} classes, 0 violations, {} model classes, survival curve within \
                 {:e} of golden",
                gate::FIG3_CHECK_CLASSES,
                gate::FIG3_MDP_CLASSES,
                gate::CURVE_TOLERANCE
            ),
        ],
    }
}

fn prove_kvalued8(args: &Args) -> Outcome {
    let reps = setups(args.workload);
    let off = SpanTimer::disabled();
    let setup_s = setup_median(reps, |_| {
        let p = kvalued8();
        black_box(prove_unit(&p, &off));
    });
    let p = kvalued8();
    let (mut failed, mut secs, mut cert_bytes) = (0, Vec::new(), 0);
    closed_loop(
        args.seconds,
        1,
        |_| prove_unit(&p, &off),
        |run, s| {
            failed += gate::prove_failures(&run.report, &run.check, gate::KVALUED8_CONFIGS);
            cert_bytes = run.cert_bytes;
            secs.push(s);
        },
    );
    let rates: Vec<(u64, f64)> = secs.iter().map(|&s| (1, s)).collect();
    Outcome {
        attempted: secs.len() as u64,
        failed,
        metrics: metrics(
            &rates,
            sample_latency(&secs, "wall time of one proof: prove + render + check"),
            setup_s,
            reps,
        ),
        details: vec![
            format!(
                "workload: prove-kvalued8   seed {} (fixed inputs: the seed does not change the \
                 work)   kvalued:8 over domain 0..7: Prover::run, certificate rendered in \
                 memory, check_certificate; {} proofs",
                args.seed,
                secs.len()
            ),
            format!(
                "gate: PROVED over {} configs and the certificate ({} bytes) accepted by \
                 check_certificate",
                gate::KVALUED8_CONFIGS,
                cert_bytes
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_golden_sweep_digest_holds_at_any_job_count() {
        let p = NUnbounded::three();
        let scratch = LogHistogram::new(LATENCY_SUB_BITS);
        for jobs in [1, THREADS] {
            let stats = sweep_round(&p, round_root(DEFAULT_SEED, 0), jobs, &scratch);
            assert_eq!(gate::fnv1a(&stats.digest()), gate::FIG2_GOLDEN_DIGEST);
        }
        assert_eq!(scratch.snapshot().count(), 2 * SWEEP_ROUND);
    }

    #[test]
    fn closed_loop_runs_at_least_the_minimum_and_folds_every_unit() {
        let mut folded = Vec::new();
        let n = closed_loop(0.0, 3, |i| i * 10, |v, secs| folded.push((v, secs >= 0.0)));
        assert_eq!(n, 3);
        assert_eq!(folded, vec![(0, true), (10, true), (20, true)]);
    }
}
