//! Exhaustive DPOR exploration, end to end: the native explorer's
//! enumerated outcome sets must match the simulator's configuration graph
//! config-for-config, the partitioned parallel mode must be invariant in
//! `--jobs` for every built-in protocol, the planted mutant must be caught
//! deterministically with the golden solo-sprint minimal repro, and a
//! truncated capture must be rejected as a usage error (exit 2) — not
//! mistaken for a failed verification (exit 1).

use cil_cli::CliFailure;
use cil_conc::{
    classify, cross_validate, ddmin_schedule, explore, explore_with_codec, ControlledRun,
    DporConfig, RacyTwo, ReplaySchedule,
};
use cil_core::kvalued::KValued;
use cil_core::two::TwoProcessor;
use cil_core::KRegCodec;
use cil_mc::CompactExplorer;
use cil_sim::{PackCodec, TrialOutcome, Val};
use proptest::prelude::*;

/// An exhaustive-pass config (no hunt prelude) at the given depth bound.
fn no_hunt(depth: u64) -> DporConfig {
    DporConfig {
        depth_bound: depth,
        hunt_preemptions: None,
        ..DporConfig::default()
    }
}

fn dispatch(tokens: &[&str]) -> Result<String, CliFailure> {
    cil_cli::dispatch_full(tokens.iter().map(|s| s.to_string()))
}

// ---------------------------------------------------------------------------
// Cross-validation against the simulator
// ---------------------------------------------------------------------------

#[test]
fn dpor_outcomes_match_the_simulator_for_the_two_processor_protocol() {
    let p = TwoProcessor::new();
    let inputs = [Val::A, Val::B];

    // Sleep-set-reduced pass: decision vectors, terminal configurations and
    // their depths must equal the simulator DP's, config-for-config.
    let reduced = explore(&p, &inputs, &no_hunt(8), None);
    assert!(reduced.exhaustive && reduced.violations == 0);
    let check = cross_validate(&p, &inputs, &PackCodec, &reduced).expect("reduced cross-check");
    assert_eq!(check.decision_vectors, reduced.decision_vectors.len());
    assert_eq!(check.terminal_configs, reduced.terminal_configs.len());

    // Naive pass: additionally the per-depth path counts, the truncated
    // count and the total execution count are checked exactly.
    let naive = explore(
        &p,
        &inputs,
        &DporConfig {
            naive: true,
            ..no_hunt(8)
        },
        None,
    );
    let check = cross_validate(&p, &inputs, &PackCodec, &naive).expect("naive cross-check");
    assert_eq!(check.sim_executions, Some(naive.executions));

    // Both enumerations agree with the BFS model checker's safety verdict.
    let report = CompactExplorer::new(&p, &inputs).max_depth(8).run();
    assert!(report.safe());
    assert_eq!(naive.decision_vectors, reduced.decision_vectors);
    assert_eq!(naive.terminal_configs, reduced.terminal_configs);
}

#[test]
fn dpor_outcomes_match_the_simulator_for_kvalued_protocols() {
    for k in [2, 3] {
        let p = KValued::new(TwoProcessor::new(), k);
        let codec = KRegCodec::for_protocol(&p);
        let inputs = [Val::A, Val::B];
        let reduced = explore_with_codec(&p, &inputs, &codec, &no_hunt(6), None);
        assert!(reduced.exhaustive, "k={k}");
        assert_eq!(reduced.violations, 0, "k={k}");
        let check =
            cross_validate(&p, &inputs, &codec, &reduced).unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert_eq!(check.decision_vectors, reduced.decision_vectors.len());
        assert_eq!(check.terminal_configs, reduced.terminal_configs.len());

        let naive = explore_with_codec(
            &p,
            &inputs,
            &codec,
            &DporConfig {
                naive: true,
                ..no_hunt(6)
            },
            None,
        );
        let check =
            cross_validate(&p, &inputs, &codec, &naive).unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert_eq!(check.sim_executions, Some(naive.executions), "k={k}");
        assert_eq!(naive.decision_vectors, reduced.decision_vectors, "k={k}");
        assert_eq!(naive.terminal_configs, reduced.terminal_configs, "k={k}");
        assert!(
            reduced.executions < naive.executions,
            "k={k}: sleep sets must prune ({} vs {})",
            reduced.executions,
            naive.executions
        );
    }
}

#[test]
fn cli_cross_check_certifies_the_clean_protocol() {
    let out = dispatch(&[
        "conc",
        "explore",
        "two",
        "--inputs",
        "a,b",
        "--depth-bound",
        "8",
        "--cross-check",
    ])
    .expect("clean protocol explores to a certificate");
    assert!(out.contains("0 violations ✓ (certificate)"), "{out}");
    assert!(
        out.contains("cross-check vs the simulator configuration graph: OK"),
        "{out}"
    );
}

// ---------------------------------------------------------------------------
// Jobs-invariance of the partitioned parallel mode
// ---------------------------------------------------------------------------

#[test]
fn explore_is_jobs_invariant_for_every_builtin_protocol() {
    // (protocol spec, inputs) for all nine built-in conc protocol specs.
    let protocols: &[(&str, &str)] = &[
        ("two", "a,b"),
        ("fig2", "a,b,a"),
        ("fig2-literal", "a,b,a"),
        ("fig2-1w1r", "a,b,a"),
        ("fig3", "a,b,a"),
        ("naive", "a,b"),
        ("mutant:racy", "a,b"),
        ("det:always-adopt", "a,b"),
        ("kvalued:3", "a,b"),
    ];
    for (spec, inputs) in protocols {
        let run = |jobs: &str| {
            let r = dispatch(&[
                "conc",
                "explore",
                spec,
                "--inputs",
                inputs,
                "--depth-bound",
                "6",
                "--no-hunt",
                "--jobs",
                jobs,
            ]);
            // Violations exit via Audit with the full report as the
            // message; either way the report text is what must be invariant
            // (modulo the echoed jobs count).
            let text = match r {
                Ok(s) => s,
                Err(CliFailure::Audit(s)) => s,
                Err(CliFailure::Usage(e)) => panic!("{spec}: {e}"),
            };
            text.lines()
                .filter(|l| !l.starts_with("depth bound:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let baseline = run("1");
        assert!(baseline.contains("execution digest:"), "{spec}: {baseline}");
        for jobs in ["2", "8"] {
            assert_eq!(run(jobs), baseline, "{spec} diverges at --jobs {jobs}");
        }
    }
}

// ---------------------------------------------------------------------------
// Golden minimal repro for the planted mutant
// ---------------------------------------------------------------------------

#[test]
fn explore_catches_the_racy_mutant_with_the_golden_minimal_repro() {
    // Default config: the bounded-preemption hunt must find the bug on
    // every run (the acceptance bar is 64/64; a handful here keeps the
    // suite fast, the determinism is seeded-and-coinless by construction).
    let mut first: Option<String> = None;
    for _ in 0..8 {
        let err = dispatch(&["conc", "explore", "mutant:racy", "--inputs", "a,b"])
            .expect_err("the mutant must be caught");
        let CliFailure::Audit(report) = err else {
            panic!("expected an Audit failure, got {err:?}");
        };
        assert!(report.contains("VIOLATION (Inconsistent)"), "{report}");
        assert!(
            report.contains("schedule: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]"),
            "ddmin must land on the 12-step solo sprint:\n{report}"
        );
        assert!(report.contains("still fails — true"), "{report}");
        match &first {
            None => first = Some(report),
            Some(f) => assert_eq!(&report, f, "explore must be deterministic"),
        }
    }
}

#[test]
fn library_hunt_violation_shrinks_to_the_solo_sprint() {
    let p = RacyTwo::default();
    let inputs = [Val::A, Val::B];
    let report = explore(&p, &inputs, &DporConfig::default(), None);
    assert!(report.violations >= 1);
    let v = &report.violation_samples[0];
    assert_eq!(v.kind, TrialOutcome::Inconsistent);
    let still_fails = |candidate: &[usize]| {
        let out = ControlledRun::new(&p, &inputs)
            .seed(0)
            .budget(report.depth_bound)
            .run(Box::new(ReplaySchedule::best_effort(candidate.to_vec())));
        classify(&out).outcome == TrialOutcome::Inconsistent
    };
    assert!(still_fails(&v.schedule), "{:?}", v.schedule);
    assert_eq!(ddmin_schedule(&v.schedule, still_fails), vec![1usize; 12]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any failing schedule variant shrinks to a schedule that still fails —
    /// and the shrunk run's *executed* schedule, replayed strictly, must
    /// reproduce the inconsistency step for step.
    #[test]
    fn shrunk_schedules_replay_to_failure_under_strict_replay(
        prefix in proptest::collection::vec(0usize..2, 0..8)
    ) {
        let p = RacyTwo::default();
        let inputs = [Val::A, Val::B];
        let run_best_effort = |sched: Vec<usize>| {
            ControlledRun::new(&p, &inputs)
                .seed(0)
                .budget(64)
                .run(Box::new(ReplaySchedule::best_effort(sched)))
        };
        let fails = |candidate: &[usize]| {
            classify(&run_best_effort(candidate.to_vec())).outcome == TrialOutcome::Inconsistent
        };
        // Perturb the known failing core with an arbitrary prefix; only
        // variants that still fail are interesting.
        let mut candidate = prefix;
        candidate.extend(std::iter::repeat_n(1usize, 12));
        prop_assume!(fails(&candidate));

        let minimal = ddmin_schedule(&candidate, fails);
        prop_assert!(fails(&minimal), "shrunk schedule must still fail: {minimal:?}");

        // Re-execute the shrunk schedule and strictly replay what actually
        // ran: same decisions, same inconsistency.
        let executed = run_best_effort(minimal.clone());
        let strict = ControlledRun::new(&p, &inputs)
            .seed(0)
            .budget(64)
            .run(Box::new(ReplaySchedule::strict(executed.schedule.clone())));
        prop_assert_eq!(
            classify(&strict).outcome,
            TrialOutcome::Inconsistent,
            "strict replay of {:?}",
            executed.schedule
        );
        prop_assert_eq!(strict.decisions, executed.decisions);
    }
}

// ---------------------------------------------------------------------------
// Exit-code contract for corrupt captures
// ---------------------------------------------------------------------------

#[test]
fn truncated_capture_exits_2_not_1() {
    let dir = std::env::temp_dir();
    let cap = dir.join("cil_conc_dpor_trunc_cap.jsonl");
    dispatch(&[
        "conc",
        "stress",
        "--protocol",
        "two",
        "--inputs",
        "a,b",
        "--trials",
        "4",
        "--trace-json",
        cap.to_str().unwrap(),
    ])
    .expect("stress runs");
    let body = std::fs::read_to_string(&cap).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert!(
        lines.len() > 6,
        "capture too small to truncate meaningfully"
    );

    // The intact capture verifies.
    let replay =
        |path: &std::path::Path| dispatch(&["conc", "replay", path.to_str().unwrap(), "--audit"]);
    replay(&cap).expect("intact capture replays");

    // Truncated at a line boundary: every remaining line is well-formed
    // JSON, so only the missing closing span_end betrays the damage. That
    // is a malformed input (exit 2), not an audit/replay verdict (exit 1).
    let trunc = dir.join("cil_conc_dpor_trunc_cap_cut.jsonl");
    std::fs::write(&trunc, lines[..lines.len() / 2].join("\n")).unwrap();
    let err = replay(&trunc).expect_err("truncated capture must be rejected");
    assert_eq!(err.exit_code(), 2, "got {err:?}");
    assert!(err.message().contains("truncated or corrupt"), "{err:?}");

    // Truncated mid-line: ditto.
    let cut = body.len() - 7;
    std::fs::write(&trunc, &body[..cut]).unwrap();
    let err = replay(&trunc).expect_err("mid-line truncation must be rejected");
    assert_eq!(err.exit_code(), 2, "got {err:?}");

    let _ = std::fs::remove_file(&cap);
    let _ = std::fs::remove_file(&trunc);
}
