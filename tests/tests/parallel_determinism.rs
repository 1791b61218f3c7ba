//! Determinism contract of the parallel trial sweep.
//!
//! A sweep's statistics are a pure function of `(root_seed, trials)` and
//! the trial closure — byte-identical (`SweepStats::digest`) no matter how
//! many workers ran it — and every retained failure sample replays
//! bit-for-bit from its trial index alone.

use cil_core::n_unbounded::NUnbounded;
use cil_core::three_bounded::{BoundedOptions, ThreeBounded};
use cil_core::two::TwoProcessor;
use cil_sim::{
    parse_schedule, Alternator, BoxedAdversary, CrashPlan, FixedSchedule, Halt, LaggardFirst,
    LeaderFirst, Protocol, RandomScheduler, RoundRobin, RunOutcome, Runner, Solo, SplitKeeper,
    StopWhen, SweepStats, Trial, TrialResult, TrialSweep, Val,
};

fn fig2_trial(p: &NUnbounded, inputs: &[Val], trial: Trial) -> TrialResult {
    // New-style seeding: everything derives from the sweep's root seed
    // through `trial.seed`.
    let out = Runner::new(p, inputs, RandomScheduler::new(trial.seed))
        .seed(trial.seed)
        .max_steps(200_000)
        .run();
    TrialResult::from_run(&out)
}

#[test]
fn sweep_stats_are_byte_identical_across_worker_counts() {
    let p = NUnbounded::three();
    let inputs = [Val::A, Val::B, Val::A];
    let base = TrialSweep::new(400).root_seed(2024);
    let serial = base.clone().jobs(1).run(|t| fig2_trial(&p, &inputs, t));
    assert_eq!(serial.trials, 400);
    assert_eq!(serial.decided, 400, "faithful Fig. 2 always decides");
    assert_eq!(serial.violations(), 0);
    for jobs in [2, 8] {
        let par = base.clone().jobs(jobs).run(|t| fig2_trial(&p, &inputs, t));
        assert_eq!(serial, par, "jobs = {jobs}");
        assert_eq!(serial.digest(), par.digest(), "jobs = {jobs}");
    }
}

#[test]
fn different_root_seeds_give_different_trial_randomness() {
    let p = NUnbounded::three();
    let inputs = [Val::A, Val::B, Val::A];
    let a = TrialSweep::new(200)
        .root_seed(1)
        .run(|t| fig2_trial(&p, &inputs, t));
    let b = TrialSweep::new(200)
        .root_seed(2)
        .run(|t| fig2_trial(&p, &inputs, t));
    assert_ne!(a.digest(), b.digest());
    assert_eq!(a.violations() + b.violations(), 0);
}

/// The Fig. 3 variant with the "2 steps apart" decision gap shrunk to 1 —
/// EXP-10 shows it violates consistency within a few hundred random-schedule
/// runs. Seeds follow the historical convention (`trial.index` is the run
/// seed), so the sweep reproduces the serial experiment loop exactly.
fn gap1_sweep(jobs: usize) -> SweepStats {
    let p = ThreeBounded::with_options(BoundedOptions {
        decide_gap: 1,
        ..BoundedOptions::default()
    });
    let inputs = [Val::A, Val::B, Val::A];
    TrialSweep::new(600).jobs(jobs).run(|trial| {
        let seed = trial.index;
        let out = Runner::new(&p, &inputs, RandomScheduler::new(seed))
            .seed(seed ^ 0xAB1A7E)
            .max_steps(200_000)
            .record_trace(true)
            .run();
        TrialResult::from_run(&out)
    })
}

#[test]
fn broken_protocol_failures_replay_identically_at_any_worker_count() {
    let serial = gap1_sweep(1);
    assert!(
        serial.violations() >= 1,
        "gap-1 Fig. 3 should violate consistency within 600 runs"
    );
    assert!(!serial.failures.is_empty());
    for jobs in [2, 8] {
        let par = gap1_sweep(jobs);
        assert_eq!(serial, par, "jobs = {jobs}");
        assert_eq!(serial.digest(), par.digest(), "jobs = {jobs}");
    }

    // Replay every retained failure from its trial index alone: the re-run
    // must fail the same way with the exact same schedule.
    let p = ThreeBounded::with_options(BoundedOptions {
        decide_gap: 1,
        ..BoundedOptions::default()
    });
    let inputs = [Val::A, Val::B, Val::A];
    for f in &serial.failures {
        let out = Runner::new(&p, &inputs, RandomScheduler::new(f.trial))
            .seed(f.trial ^ 0xAB1A7E)
            .max_steps(200_000)
            .record_trace(true)
            .run();
        assert!(
            !out.consistent() || !out.nontrivial(),
            "trial {} no longer fails on replay",
            f.trial
        );
        let replayed = out.trace.expect("trace was recorded").schedule();
        assert_eq!(
            Some(&replayed),
            f.schedule.as_ref(),
            "trial {} replayed a different schedule",
            f.trial
        );
    }
}

// ---------------------------------------------------------------------------
// Golden fingerprints: absolute values, not just jobs-invariance.
// ---------------------------------------------------------------------------

/// Folds `bytes` into the 64-bit FNV-1a hash `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The root seed of every golden sweep.
const GOLDEN_ROOT: u64 = 19;

/// Builds a `cil sweep --adversary` spec the way `cil sweep` does: the
/// random scheduler is seeded with the trial's seed, and a schedule in the
/// paper's one-based notation replays zero-based pids before falling back
/// to round-robin.
fn sweep_adversary<P: Protocol + 'static>(spec: &str, seed: u64) -> BoxedAdversary<P> {
    match spec {
        "round-robin" => Box::new(RoundRobin::new()),
        "random" => Box::new(RandomScheduler::new(seed)),
        "split-keeper" => Box::new(SplitKeeper::new()),
        "laggard" => Box::new(LaggardFirst::new()),
        "leader" => Box::new(LeaderFirst::new()),
        "alternator" => Box::new(Alternator::new()),
        schedule => Box::new(FixedSchedule::new(
            parse_schedule(schedule, true).expect("a schedule in paper notation"),
        )),
    }
}

/// FNV-1a of the `SweepStats::digest` of 2,000 trials of `cil sweep`
/// (default step budget) under the adversary `spec`.
fn sweep_fingerprint<P>(protocol: &P, inputs: &[Val], spec: &str) -> u64
where
    P: Protocol + Sync + 'static,
{
    let stats = TrialSweep::new(2_000).root_seed(GOLDEN_ROOT).run(|trial| {
        let out = Runner::new(protocol, inputs, sweep_adversary::<P>(spec, trial.seed))
            .seed(trial.seed)
            .max_steps(1_000_000)
            .run();
        TrialResult::from_run(&out)
    });
    fnv1a(FNV_OFFSET, &stats.digest())
}

/// Every adversary `cil sweep` offers (one fixed schedule stands for the
/// paper notation) on each protocol, with the fingerprint of its sweep.
const SWEEP_GOLDEN: &[(&str, &str, u64)] = &[
    ("two", "round-robin", 0xb25e93d44755cbe3),
    ("two", "random", 0x3a817ff9fd0dc488),
    ("two", "split-keeper", 0xb25e93d44755cbe3),
    ("two", "laggard", 0xb25e93d44755cbe3),
    ("two", "leader", 0x176a78e428a1baee),
    ("two", "alternator", 0xb25e93d44755cbe3),
    ("two", "(2,1,1,2)", 0xb25e93d44755cbe3),
    ("fig2", "round-robin", 0x1bb360bf07de1a43),
    ("fig2", "random", 0x0956e1a12a3a417b),
    ("fig2", "split-keeper", 0x8e897ab2b5a3627d),
    ("fig2", "laggard", 0x1bb360bf07de1a43),
    ("fig2", "leader", 0xeb7246e3d3105c93),
    ("fig2", "alternator", 0xa444e154b75d833e),
    ("fig2", "(2,1,1,2)", 0xa229d6c288af630d),
    ("fig3", "round-robin", 0xb1d179d57f6cb421),
    ("fig3", "random", 0xf7200117710b2a3d),
    ("fig3", "split-keeper", 0x0dcdb0f9226b210c),
    ("fig3", "laggard", 0xb1d179d57f6cb421),
    ("fig3", "leader", 0x829d170523f212d6),
    ("fig3", "alternator", 0xb1d179d57f6cb421),
    ("fig3", "(2,1,1,2)", 0x3938d7ff8ea4033d),
    ("n:4", "round-robin", 0x65b4ff2775fec78e),
    ("n:4", "random", 0x759f54a0b9605550),
    ("n:4", "split-keeper", 0x0f2d1a8c67505c32),
    ("n:4", "laggard", 0x65b4ff2775fec78e),
    ("n:4", "leader", 0x450acd1fbb2478b2),
    ("n:4", "alternator", 0xafbfc12b59db9c71),
    ("n:4", "(2,1,1,2)", 0xbc9fe5c528b3abe6),
];

#[test]
fn sweep_digests_match_their_golden_fingerprints() {
    let wrong: Vec<String> = SWEEP_GOLDEN
        .iter()
        .filter_map(|&(protocol, adversary, golden)| {
            let got = match protocol {
                "two" => sweep_fingerprint(&TwoProcessor::new(), &[Val::A, Val::B], adversary),
                "fig2" => {
                    sweep_fingerprint(&NUnbounded::three(), &[Val::A, Val::B, Val::A], adversary)
                }
                "fig3" => {
                    sweep_fingerprint(&ThreeBounded::new(), &[Val::A, Val::B, Val::A], adversary)
                }
                "n:4" => sweep_fingerprint(
                    &NUnbounded::new(4),
                    &[Val::A, Val::B, Val::A, Val::B],
                    adversary,
                ),
                other => panic!("no golden protocol {other}"),
            };
            (got != golden).then(|| format!("    (\"{protocol}\", \"{adversary}\", {got:#018x}),"))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} sweeps changed their digest:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// FNV-1a over the runs of `seeds`: each run folds its `total_steps`, then
/// per processor its steps, decision and crash flag, then its halt reason.
fn runs_fingerprint<P: Protocol>(
    seeds: std::ops::Range<u64>,
    mut run: impl FnMut(u64) -> RunOutcome<P>,
) -> u64 {
    seeds.fold(FNV_OFFSET, |mut h, seed| {
        let out = run(seed);
        h = fnv1a(h, &out.total_steps.to_le_bytes());
        for pid in 0..out.steps.len() {
            let decision = out.decisions[pid].map_or(u64::MAX, |v| v.0);
            h = fnv1a(h, &out.steps[pid].to_le_bytes());
            h = fnv1a(h, &decision.to_le_bytes());
            h = fnv1a(h, &[u8::from(out.crashed[pid])]);
        }
        fnv1a(h, &[u8::from(out.halt == Halt::MaxSteps)])
    })
}

/// Crash plans and stop modes: each case's fingerprint over 200 seeds of a
/// random schedule (the same seed drives the coins and the scheduler).
#[test]
fn crash_plans_and_stop_modes_match_their_golden_fingerprints() {
    let two = TwoProcessor::new();
    let fig2 = NUnbounded::three();
    let n4 = NUnbounded::new(4);
    let three = [Val::A, Val::B, Val::A];
    let four = [Val::A, Val::B, Val::A, Val::B];
    let random = |seed| RandomScheduler::new(seed);
    let seeds = 0..200;

    let cases: [(&str, u64, u64); 7] = [
        (
            "n:4, crashes at steps 1, 5 and 9",
            0xe8b5b74d40915c06,
            runs_fingerprint(seeds.clone(), |seed| {
                Runner::new(&n4, &four, random(seed))
                    .seed(seed)
                    .crashes(CrashPlan::none().crash(0, 1).crash(1, 5).crash(2, 9))
                    .run()
            }),
        ),
        (
            "two, P0 solo to its decision at step 2, then crashed at step 3",
            0x8be3900b72567379,
            runs_fingerprint(seeds.clone(), |seed| {
                let out = Runner::new(&two, &[Val::A, Val::B], Solo::new(0))
                    .seed(seed)
                    .crashes(CrashPlan::none().crash(0, 3))
                    .run();
                assert!(
                    out.crashed[0] && out.decisions[0].is_some(),
                    "seed {seed}: P0 must decide before its crash"
                );
                out
            }),
        ),
        (
            "fig2, every processor crashed at step 0",
            0x4915c1b00a2a3f25,
            runs_fingerprint(seeds.clone(), |seed| {
                Runner::new(&fig2, &three, random(seed))
                    .seed(seed)
                    .crashes(CrashPlan::none().crash(0, 0).crash(1, 0).crash(2, 0))
                    .run()
            }),
        ),
        (
            "fig2, every processor crashed at step 0, FirstDecision, no step budget",
            0x71f0fa7fb34de855,
            runs_fingerprint(0..4, |seed| {
                Runner::new(&fig2, &three, random(seed))
                    .seed(seed)
                    .crashes(CrashPlan::none().crash(0, 0).crash(1, 0).crash(2, 0))
                    .stop_when(StopWhen::FirstDecision)
                    .max_steps(0)
                    .run()
            }),
        ),
        (
            "fig2, PidDecided(2)",
            0xa36808adb322b27d,
            runs_fingerprint(seeds.clone(), |seed| {
                Runner::new(&fig2, &three, random(seed))
                    .seed(seed)
                    .stop_when(StopWhen::PidDecided(2))
                    .run()
            }),
        ),
        (
            "fig2, PidDecided(2) with P2 crashed at step 3",
            0x92e658782028f0a9,
            runs_fingerprint(seeds.clone(), |seed| {
                Runner::new(&fig2, &three, random(seed))
                    .seed(seed)
                    .crashes(CrashPlan::none().crash(2, 3))
                    .stop_when(StopWhen::PidDecided(2))
                    .run()
            }),
        ),
        (
            "n:4, FirstDecision",
            0xb1c4197a84cae0a3,
            runs_fingerprint(seeds, |seed| {
                Runner::new(&n4, &four, random(seed))
                    .seed(seed)
                    .stop_when(StopWhen::FirstDecision)
                    .run()
            }),
        ),
    ];
    let wrong: Vec<String> = cases
        .iter()
        .filter(|(_, golden, got)| golden != got)
        .map(|(name, golden, got)| format!("{name}: {got:#018x} (golden {golden:#018x})"))
        .collect();
    assert!(
        wrong.is_empty(),
        "{} runs changed:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}
