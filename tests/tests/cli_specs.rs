//! The `<P>` exit-code matrix: every subcommand that takes a protocol spec,
//! crossed with every family of the grammar, driven through
//! `cil_cli::dispatch_full` with tiny budgets.
//!
//! A spec that obeys the register model exits 0 or 1 (a verdict) in every
//! subcommand. The model mutants outside `audit`/`lint`, malformed or
//! out-of-range specs, and inputs the engines cannot hold exit 2 (a usage
//! error). Nothing panics: a panic would be the binary's exit 101.

use cil_cli::dispatch_full;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The exit code `cil <line>` returns, with a panic counted as 101.
fn exit_code(line: &str) -> i32 {
    let tokens = line.split_whitespace().map(String::from);
    match catch_unwind(AssertUnwindSafe(|| dispatch_full(tokens))) {
        Ok(Ok(_)) => 0,
        Ok(Err(failure)) => failure.exit_code(),
        Err(_) => 101,
    }
}

/// Runs every `(line, allowed exit codes)` case and fails with the full
/// list of mismatches.
fn assert_exit_codes(cases: impl IntoIterator<Item = (String, &'static [i32])>) {
    let wrong: Vec<String> = cases
        .into_iter()
        .filter_map(|(line, allowed)| {
            let code = exit_code(&line);
            (!allowed.contains(&code)).then(|| format!("exit {code}, want {allowed:?}: cil {line}"))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} cases:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// Every subcommand that takes `<P>`, with `{P}` (the spec) and `{I}` (its
/// inputs) holes and budgets small enough for a debug build. `threads` has
/// a fixed budget of 5M steps per thread.
const COMMANDS: &[&str] = &[
    "run --protocol {P} --inputs {I} --max-steps 300",
    "sweep --protocol {P} --inputs {I} --trials 3 --max-steps 300 --jobs 1",
    "check --protocol {P} --inputs {I} --depth 3 --max-configs 2000",
    "survival --protocol {P} --inputs {I} --depth 3 --kmax 2 --max-configs 2000 --jobs 1",
    "threads --protocol {P} --inputs {I}",
    "conc stress --protocol {P} --inputs {I} --trials 2 --budget 100 --jobs 1",
    "conc explore {P} --inputs {I} --depth-bound 3 --jobs 1 --cross-check",
    "serve {P} --inputs {I} --instances 3 --max-steps 300 --shards 1",
    "audit {P}",
    "lint {P}",
    "prove {P} --max-configs 2000",
];

/// Whether a command template is `audit` or `lint`, the only subcommands
/// that accept the model mutants.
fn is_static(template: &str) -> bool {
    template.starts_with("audit") || template.starts_with("lint")
}

/// Every family that obeys the register model, with inputs in its domain.
const MODEL: &[(&str, &str)] = &[
    ("two", "a,b"),
    ("fig2", "a,b,a"),
    ("fig2-literal", "a,b,a"),
    ("fig2-1w1r", "a,b,a"),
    ("fig3", "a,b,a"),
    ("n:4", "a,b,a,b"),
    ("naive", "a,b,a"),
    ("kvalued:3", "0,2"),
    ("kvalued:3", "0,1,2"),
    ("det:always-adopt", "a,b"),
    ("mutant:racy", "a,b"),
    ("mutant:dead-write", "a,b"),
    ("mutant:width-waste", "a,b"),
];

/// The mutants that break the register model on purpose.
const MODEL_MUTANTS: &[&str] = &[
    "mutant:width-overflow",
    "mutant:unauthorized-reader",
    "mutant:unstable-decision",
    "mutant:non-normalized-coin",
];

/// Specs no subcommand accepts.
const MALFORMED: &[&str] = &[
    "n:0",
    "n:1",
    "kvalued:0",
    "kvalued:1",
    "n:x",
    "det:bogus",
    "mutant:bogus",
    "bogus",
];

fn fill(template: &str, spec: &str, inputs: &str) -> String {
    template.replace("{P}", spec).replace("{I}", inputs)
}

#[test]
fn every_spec_exits_with_a_verdict_or_a_usage_error() {
    let mut cases = Vec::new();
    for template in COMMANDS {
        for (spec, inputs) in MODEL {
            cases.push((fill(template, spec, inputs), &[0, 1][..]));
        }
        for spec in MODEL_MUTANTS {
            let allowed: &[i32] = if is_static(template) { &[0, 1] } else { &[2] };
            cases.push((fill(template, spec, "a,b"), allowed));
        }
        for spec in MALFORMED {
            cases.push((fill(template, spec, "a,b"), &[2][..]));
        }
    }
    // `conc shrink` needs a failing trial, so only its spec errors are
    // pinned here.
    for spec in MODEL_MUTANTS.iter().chain(MALFORMED) {
        let line = format!("conc shrink --protocol {spec} --inputs a,b --trial 0");
        cases.push((line, &[2][..]));
    }
    assert_exit_codes(cases);
}

#[test]
fn inputs_the_engines_cannot_hold_exit_2() {
    let seventy = vec!["a"; 70].join(",");
    let mut cases: Vec<String> = COMMANDS
        .iter()
        .filter(|t| t.contains("{I}"))
        .flat_map(|t| {
            [
                // kvalued:<k> takes 0..k.
                fill(t, "kvalued:4", "0,9"),
                // Every binary family takes only a and b.
                fill(t, "two", "0,7"),
                fill(t, "fig3", "a,b,2"),
                fill(t, "naive", "a,b,5"),
                // Fig. 2 packs preferences below 2^15.
                fill(t, "fig2", "a,b,32768"),
            ]
        })
        .collect();
    cases.extend([
        "prove kvalued:4 --domain 0,9".to_string(),
        "prove two --domain 0,5".to_string(),
        // The exact engines keep one activity bit per processor in a u64.
        format!("check --protocol n:70 --inputs {seventy}"),
        format!("survival --protocol n:70 --inputs {seventy} --depth 2"),
        format!("conc explore n:70 --inputs {seventy} --depth-bound 2 --cross-check"),
        "prove n:70".to_string(),
        // mdp analyses Fig. 1 only, whose registers hold only a and b.
        "mdp --protocol kvalued:4".to_string(),
        "mdp --protocol fig2 --inputs a,b".to_string(),
        "mdp --inputs 0,7".to_string(),
        "mdp --inputs 5,5".to_string(),
        "mdp --protocol two --inputs 0,2".to_string(),
    ]);
    // Every worker is an OS thread and every arena slot a resident frame,
    // so the counts are capped before anything is spawned or allocated.
    // Each line ends with the rejected option, which the message must name.
    for line in [
        "sweep --protocol two --inputs a,b --trials 3 --jobs 1025",
        "mdp --inputs a,b --kmax 2 --jobs 1025",
        "survival --protocol two --inputs a,b --kmax 2 --jobs 1025",
        "conc stress --protocol two --inputs a,b --trials 2 --jobs 1025",
        "conc shrink --protocol two --inputs a,b --trial 0 --jobs 1025",
        "conc explore two --inputs a,b --depth-bound 3 --jobs 1025",
        "serve two --instances 3 --shards 1025",
        "serve two --instances 3 --slots 65537",
        // A schedule names processors of the protocol, and a lookahead
        // looks at least one step ahead.
        "run --protocol two --inputs a,b --adversary (1,3)",
        "sweep --protocol two --inputs a,b --trials 3 --jobs 1 --adversary (1,3)",
        "run --protocol two --inputs a,b --adversary lookahead:0",
        "sweep --protocol two --inputs a,b --trials 3 --jobs 1 --adversary lookahead:0",
    ] {
        let option = line.split_whitespace().rev().nth(1).expect("an option");
        match dispatch_full(line.split_whitespace().map(String::from)) {
            Err(failure) => assert!(
                failure.message().contains(option),
                "cil {line}: {}",
                failure.message()
            ),
            Ok(_) => panic!("cil {line} was accepted"),
        }
        cases.push(line.to_string());
    }
    assert_exit_codes(cases.into_iter().map(|line| (line, &[2][..])));

    // The engines without an activity mask keep accepting any count.
    assert_exit_codes(
        [
            format!("run --protocol n:70 --inputs {seventy} --max-steps 2000"),
            format!("sweep --protocol n:70 --inputs {seventy} --trials 1 --max-steps 2000"),
            format!("conc stress --protocol n:70 --inputs {seventy} --trials 1 --budget 200"),
            format!("serve n:70 --inputs {seventy} --instances 1 --max-steps 2000"),
        ]
        .map(|line| (line, &[0, 1][..])),
    );
}

#[test]
fn zero_serve_limits_exit_2_before_writing() {
    let out = std::env::temp_dir().join(format!("cil-specs-serve-{}.json", std::process::id()));
    for limit in ["--instances 0", "--duration 0", "--target-decisions 0"] {
        let line = format!("serve two {limit} --out {}", out.display());
        assert_eq!(exit_code(&line), 2, "cil {line}");
        assert!(!out.exists(), "cil {line} wrote {}", out.display());
    }
}

#[test]
fn target_decisions_stop_when_nothing_decides() {
    // Always-keep never decides, so every instance ends undecided at its
    // step budget; admission must close on the undecided count instead.
    let line = "serve det:always-keep --target-decisions 10 --max-steps 1000 --shards 1";
    let out = match dispatch_full(line.split_whitespace().map(String::from)) {
        Ok(out) => out,
        Err(failure) => panic!("cil {line}: exit {}", failure.exit_code()),
    };
    let undecided: u64 = out
        .split("undecided: ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no undecided count in:\n{out}"));
    assert!(undecided >= 10, "{out}");
    assert!(out.contains("decided: 0 "), "{out}");
    assert!(out.contains("not reached"), "{out}");
}
