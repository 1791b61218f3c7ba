//! The planted interleaving-sensitive mutant must be *found* by PCT within
//! a bounded seeded budget, *missed* by the uniform random walk at the same
//! budget (that asymmetry is the whole point of priority-based testing),
//! and its failing schedule must shrink to the minimal solo-sprint repro.
//! Finally, the CLI capture path must be byte-identical across invocations
//! and strictly replayable.

use cil_conc::{
    classify, ddmin_schedule, rerun_trial_with_codec, stress, ControlledRun, RacyTwo,
    ReplaySchedule, StrategySpec, StressConfig,
};
use cil_sim::{PackCodec, TrialOutcome, Val};

fn pct_cfg() -> StressConfig {
    StressConfig {
        trials: 64,
        root_seed: 1,
        budget: 64,
        jobs: 0,
        strategy: StrategySpec::Pct { depth: 1 },
        max_failure_samples: 5,
    }
}

#[test]
fn pct_finds_the_interleaving_bug_where_the_random_walk_cannot() {
    let p = RacyTwo::default();
    let inputs = [Val::A, Val::B];

    // PCT depth 1: the bug needs one ordering constraint (P1 sprints
    // ahead), so roughly half of all priority seeds hit it. Demand at
    // least a quarter of the batch to leave slack.
    let pct = stress(&p, &inputs, &pct_cfg(), None);
    assert!(
        pct.violations() >= 16,
        "PCT found only {}/64 violations",
        pct.violations()
    );
    assert!(!pct.failures.is_empty());

    // The uniform random walk needs a lopsided prefix it produces with
    // probability ≈ 0.7% per trial (P1's 12 steps with at most two P0
    // steps interleaved), so at the same budget it finds the bug an order
    // of magnitude less often than PCT — the quantified advantage of
    // priority-based testing. Fixed seeds make the counts deterministic.
    let rnd = StressConfig {
        strategy: StrategySpec::Random,
        ..pct_cfg()
    };
    let rnd = stress(&p, &inputs, &rnd, None);
    assert!(
        rnd.violations() * 8 <= pct.violations(),
        "random walk found {}/64, PCT {}/64 — expected ≥ 8× contrast",
        rnd.violations(),
        pct.violations()
    );
}

#[test]
fn shrinker_reduces_the_failing_schedule_to_the_minimal_solo_sprint() {
    let p = RacyTwo::default();
    let inputs = [Val::A, Val::B];
    let cfg = pct_cfg();
    let pct = stress(&p, &inputs, &cfg, None);
    let first = pct.failures.first().expect("PCT finds the mutant");
    assert_eq!(first.kind, TrialOutcome::Inconsistent);

    let (trial_seed, outcome) = rerun_trial_with_codec(&p, &inputs, &PackCodec, &cfg, first.trial);
    assert_eq!(classify(&outcome).outcome, TrialOutcome::Inconsistent);

    let still_fails = |candidate: &[usize]| {
        let out = ControlledRun::new(&p, &inputs)
            .seed(trial_seed)
            .budget(cfg.budget)
            .run(Box::new(ReplaySchedule::best_effort(candidate.to_vec())));
        classify(&out).outcome == TrialOutcome::Inconsistent
    };
    let minimal = ddmin_schedule(&outcome.schedule, still_fails);

    // The true minimal repro: P1 takes all 12 of its steps (6 rounds ×
    // write+read) before P0's second write — nothing shorter can leave P0's
    // register at round 1 through P1's final read.
    assert_eq!(minimal, vec![1usize; 12], "full: {:?}", outcome.schedule);
    assert!(still_fails(&minimal), "minimal repro must still fail");
    for i in 0..minimal.len() {
        let mut smaller = minimal.clone();
        smaller.remove(i);
        assert!(
            !still_fails(&smaller),
            "removing entry {i} should make the failure vanish (1-minimality)"
        );
    }
}

#[test]
fn cli_stress_capture_is_byte_identical_and_replays() {
    let dir = std::env::temp_dir();
    let cap1 = dir.join("cil_conc_mutant_cap_1.jsonl");
    let cap2 = dir.join("cil_conc_mutant_cap_2.jsonl");
    // The batch finds the planted race, so `conc stress` exits 1 with its
    // report on stdout.
    let run = |path: &std::path::Path| match cil_cli::dispatch_full(
        [
            "conc",
            "stress",
            "--protocol",
            "mutant:racy",
            "--inputs",
            "a,b",
            "--strategy",
            "pct:1",
            "--trials",
            "8",
            "--seed",
            "1",
            "--budget",
            "64",
            "--trace-json",
            path.to_str().unwrap(),
        ]
        .map(String::from),
    ) {
        Err(cil_cli::CliFailure::Audit(report)) => report,
        other => panic!("stress must report the violation: {other:?}"),
    };
    let out1 = run(&cap1);
    let out2 = run(&cap2);
    // The reports differ only in the capture path they mention.
    let strip = |s: &str, p: &std::path::Path| s.replace(p.to_str().unwrap(), "<cap>");
    assert_eq!(
        strip(&out1, &cap1),
        strip(&out2, &cap2),
        "reports must be deterministic"
    );
    let body1 = std::fs::read_to_string(&cap1).unwrap();
    let body2 = std::fs::read_to_string(&cap2).unwrap();
    assert_eq!(body1, body2, "captures must be byte-identical");
    assert!(
        body1.starts_with("{\"type\":\"meta\",\"mode\":\"conc\""),
        "{body1}"
    );

    // Strict replay of the recorded schedule regenerates the stream
    // byte-for-byte.
    let replayed = cil_cli::dispatch(["conc", "replay", cap1.to_str().unwrap()].map(String::from))
        .expect("replay verifies");
    assert!(replayed.contains("byte-for-byte"), "{replayed}");

    let _ = std::fs::remove_file(&cap1);
    let _ = std::fs::remove_file(&cap2);
}
