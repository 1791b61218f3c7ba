//! # cil-cli — command-line interface to the CIL reproduction
//!
//! One binary, `cil`, exposing the protocols, the simulator, and the model
//! checker:
//!
//! ```text
//! cil run       --protocol fig2 --inputs a,b,a --adversary random --seed 7
//!               [--trace] [--trace-json out.jsonl]
//! cil audit     [two|all|mutant:width-overflow] [--json]
//! cil lint      [two|all|mutant:dead-write] [--json] [--footprints]
//! cil prove     two [--cert out.json] [--json] [--domain 0,1] [--max-configs N]
//! cil prove     --check-cert out.json
//! cil replay    out.jsonl [--audit]
//! cil sweep     --protocol fig2 --inputs a,b,a --trials 10000 --seed 7 --jobs 4
//!               [--progress] [--metrics-out m.json] [--metrics-format json|openmetrics]
//!               [--timings]
//! cil check     --protocol fig3 --inputs a,b,a --depth 11 [--stats]
//! cil mdp       --inputs a,b [--kmax 20]
//! cil survival  --protocol two --inputs a,b --target 0 --kmax 20
//! cil theorem4  --rule always-adopt --steps 100000
//! cil elect     --n 3 --rounds 10
//! cil threads   --protocol two --inputs a,b --seed 1
//! cil conc      stress --protocol two --inputs a,b --strategy pct --trials 256
//! cil conc      replay out.jsonl [--audit]
//! cil conc      shrink --protocol mutant:racy --inputs a,b --trial 3
//! cil conc      explore mutant:racy --inputs a,b [--depth-bound 24] [--jobs 4]
//!               [--naive] [--no-hunt] [--static-indep] [--cross-check]
//!               [--progress]
//! cil serve     two --instances 1000000 --shards 8 [--out BENCH_serve.json]
//! cil report    <capture.jsonl | metrics.json> [--merge f2,f3] [--flame]
//! cil help
//! ```
//!
//! Protocols: `two` (Fig. 1), `fig2` (§5, corrected rule), `fig2-literal`,
//! `fig2-1w1r`, `fig3` (§6 bounded), `naive`, `n:<count>`, `kvalued:<k>`,
//! `det:<rule>` (Theorem 4) and `mutant:<name>` — one grammar for every
//! subcommand (see `cil help`).
//! Adversaries: `round-robin`, `random`, `split-keeper`, `laggard`,
//! `leader`, `alternator`, `lookahead:<h>`, or an explicit schedule like
//! `"(2,3,3,2,1)"` (one-based, as in the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
mod spec;

pub use args::{parse_inputs, Args};

/// Why a dispatch failed, mapped to distinct process exit codes by the
/// binary (documented in `cil help` under EXIT CODES).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliFailure {
    /// Usage, parse or I/O error — exit code 2, message on stderr.
    Usage(String),
    /// A verification failed (`cil audit` found model violations, `cil
    /// replay` trace anomalies or divergence) or a search found a safety
    /// violation — exit code 1, the report on stdout.
    Audit(String),
}

impl From<String> for CliFailure {
    fn from(message: String) -> Self {
        CliFailure::Usage(message)
    }
}

impl CliFailure {
    /// The failure text, regardless of kind.
    pub fn message(&self) -> &str {
        match self {
            CliFailure::Usage(m) | CliFailure::Audit(m) => m,
        }
    }

    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliFailure::Usage(_) => 2,
            CliFailure::Audit(_) => 1,
        }
    }
}

/// Entry point used by the binary: dispatches a full command line (without
/// the program name) and returns the text to print.
///
/// # Errors
///
/// [`CliFailure::Usage`] for unknown commands or malformed options;
/// [`CliFailure::Audit`] when a verification fails or a search finds a
/// violation.
pub fn dispatch_full<I: IntoIterator<Item = String>>(tokens: I) -> Result<String, CliFailure> {
    let args = Args::parse(
        tokens,
        &[
            "trace",
            "literal",
            "progress",
            "stats",
            "audit",
            "naive",
            "no-hunt",
            "cross-check",
            "timings",
            "flame",
            "json",
            "footprints",
            "static-indep",
        ],
    )
    .map_err(CliFailure::Usage)?;
    let usage = |r: Result<String, String>| r.map_err(CliFailure::Usage);
    match args.command.as_str() {
        "run" => usage(commands::run(&args)),
        "replay" => commands::replay(&args),
        "audit" | "lint" => commands::audit(&args),
        "prove" => commands::prove(&args),
        "sweep" => commands::sweep(&args),
        "check" => commands::check(&args),
        "mdp" => usage(commands::mdp(&args)),
        "survival" => usage(commands::survival(&args)),
        "theorem4" => usage(commands::theorem4(&args)),
        "elect" => usage(commands::elect(&args)),
        "threads" => usage(commands::threads(&args)),
        "conc" => commands::conc(&args),
        "serve" => commands::serve(&args),
        "report" => commands::report(&args),
        "" | "help" | "--help" | "-h" => Ok(commands::help()),
        other => Err(CliFailure::Usage(format!(
            "unknown command '{other}'\n\n{}",
            commands::help()
        ))),
    }
}

/// Like [`dispatch_full`] but with the failure flattened to its message —
/// kept for callers that do not distinguish exit codes.
///
/// # Errors
///
/// Returns the failure message for any [`CliFailure`].
pub fn dispatch<I: IntoIterator<Item = String>>(tokens: I) -> Result<String, String> {
    dispatch_full(tokens).map_err(|f| f.message().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_lists_all_commands() {
        let h = dispatch(toks("help")).unwrap();
        for c in [
            "run",
            "replay",
            "audit",
            "lint",
            "prove",
            "sweep",
            "check",
            "mdp",
            "survival",
            "theorem4",
            "elect",
            "threads",
            "conc",
            "serve",
            "report",
            "--jobs",
            "--instances",
            "--shards",
            "--target-decisions",
            "--duration",
            "--trace-json",
            "--metrics-out",
            "--metrics-format",
            "--timings",
            "--merge",
            "--flame",
            "--progress",
            "--stats",
            "--json",
            "--footprints",
            "--static-indep",
            "--cert",
            "--check-cert",
            "--domain",
            "--max-configs",
        ] {
            assert!(h.contains(c), "help missing {c}");
        }
    }

    #[test]
    fn unknown_command_reports_usage() {
        let e = dispatch(toks("frobnicate")).unwrap_err();
        assert!(e.contains("unknown command"));
        // The usage text must list every current subcommand.
        for c in [
            "run", "replay", "audit", "lint", "prove", "sweep", "check", "mdp", "survival",
            "theorem4", "elect", "threads", "conc", "serve", "report",
        ] {
            assert!(e.contains(c), "usage missing {c}");
        }
    }

    #[test]
    fn run_two_processor_end_to_end() {
        let out = dispatch(toks("run --protocol two --inputs a,b --seed 3")).unwrap();
        assert!(out.contains("decisions"), "{out}");
        assert!(out.contains("consistent: true"), "{out}");
    }

    #[test]
    fn run_with_trace_prints_steps() {
        let out = dispatch(toks("run --protocol two --inputs a,b --seed 1 --trace")).unwrap();
        assert!(out.contains("write"), "{out}");
        assert!(out.contains("read"), "{out}");
    }

    #[test]
    fn run_with_paper_schedule() {
        let out = dispatch(
            [
                "run",
                "--protocol",
                "fig2",
                "--inputs",
                "a,b,a",
                "--adversary",
                "(1,2,3,1,2,3)",
                "--seed",
                "2",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(out.contains("decisions"), "{out}");
    }

    #[test]
    fn run_every_protocol_spec() {
        for p in [
            "two",
            "fig2",
            "fig2-literal",
            "fig2-1w1r",
            "fig3",
            "n:4",
            "kvalued:8",
        ] {
            let inputs = match p {
                "two" | "kvalued:8" => "0,1",
                "n:4" => "a,b,a,b",
                _ => "a,b,a",
            };
            let out = dispatch(
                ["run", "--protocol", p, "--inputs", inputs, "--seed", "5"].map(String::from),
            )
            .unwrap_or_else(|e| panic!("{p}: {e}"));
            assert!(out.contains("decisions"), "{p}: {out}");
        }
        // naive may not terminate; give it a budget and accept both outcomes.
        let out = dispatch(
            [
                "run",
                "--protocol",
                "naive",
                "--inputs",
                "a,b,a",
                "--max-steps",
                "5000",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(out.contains("decisions"), "{out}");
    }

    #[test]
    fn check_reports_exploration() {
        let out = dispatch(toks("check --protocol two --inputs a,b")).unwrap();
        assert!(out.contains("configurations"), "{out}");
        assert!(out.contains("violations: 0"), "{out}");
    }

    #[test]
    fn sweep_reports_stats_and_is_jobs_invariant() {
        let serial = dispatch(toks(
            "sweep --protocol two --inputs a,b --trials 200 --seed 9 --jobs 1",
        ))
        .unwrap();
        assert!(serial.contains("trials: 200"), "{serial}");
        assert!(serial.contains("decided: 200"), "{serial}");
        assert!(serial.contains("violations: 0"), "{serial}");
        assert!(serial.contains("no safety violations"), "{serial}");
        for jobs in [2, 8] {
            let par = dispatch(toks(&format!(
                "sweep --protocol two --inputs a,b --trials 200 --seed 9 --jobs {jobs}"
            )))
            .unwrap();
            // Identical output except the reported worker count.
            let strip = |s: &str| {
                s.replace(&format!("jobs: {jobs}"), "jobs: X")
                    .replace("jobs: 1", "jobs: X")
            };
            assert_eq!(strip(&serial), strip(&par), "jobs = {jobs}");
        }
    }

    #[test]
    fn sweep_rejects_bad_adversary_before_spawning() {
        let e = dispatch(toks("sweep --protocol two --inputs a,b --adversary bogus")).unwrap_err();
        assert!(e.contains("adversary"), "{e}");
    }

    #[test]
    fn sweep_every_protocol_spec_is_clean() {
        for p in ["two", "fig2", "fig2-1w1r", "fig3", "n:4", "kvalued:4"] {
            let inputs = match p {
                "two" | "kvalued:4" => "0,1",
                "n:4" => "a,b,a,b",
                _ => "a,b,a",
            };
            let out = dispatch(toks(&format!(
                "sweep --protocol {p} --inputs {inputs} --trials 50"
            )))
            .unwrap_or_else(|e| panic!("{p}: {e}"));
            assert!(out.contains("violations: 0"), "{p}: {out}");
        }
    }

    #[test]
    fn mdp_reports_the_tight_bound() {
        let out = dispatch(toks("mdp --inputs a,b")).unwrap();
        assert!(out.contains("10.00"), "{out}");
        assert!(out.contains("survival"), "{out}");
    }

    #[test]
    fn survival_pins_the_corollary_curve() {
        let out = dispatch(toks("survival --protocol two --inputs a,b --kmax 6")).unwrap();
        // P0 cannot decide before its 4th step; from there the worst-case
        // survival decays by 3/4 every second step (Corollary of Theorem 7).
        assert!(out.contains("k =  0: 1"), "{out}");
        assert!(out.contains("k =  4: 0.750"), "{out}");
        assert!(out.contains("k =  6: 0.562"), "{out}");
    }

    #[test]
    fn survival_jobs_are_invisible() {
        let parallel = dispatch(toks(
            "survival --protocol kvalued:4 --inputs 0,3 --kmax 6 --jobs 8",
        ))
        .unwrap();
        let serial = dispatch(toks(
            "survival --protocol kvalued:4 --inputs 0,3 --kmax 6 --jobs 1",
        ))
        .unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn survival_depth_bounded_handles_unbounded_protocols() {
        let out = dispatch(toks(
            "survival --protocol fig2 --inputs a,b,a --target 1 --depth 6 --kmax 4",
        ))
        .unwrap();
        assert!(out.contains("depth-bounded"), "{out}");
        assert!(out.contains("k =  0: 1"), "{out}");
        // Without --depth the build must fail cleanly, pointing at --depth.
        let e = dispatch(toks(
            "survival --protocol fig2 --inputs a,b,a --max-configs 20000",
        ))
        .unwrap_err();
        assert!(e.contains("--depth"), "{e}");
    }

    #[test]
    fn theorem4_constructs_the_schedule() {
        let out = dispatch(toks("theorem4 --rule always-adopt --steps 5000")).unwrap();
        assert!(out.contains("5000"), "{out}");
        assert!(out.contains("no decision"), "{out}");
    }

    #[test]
    fn elect_runs_rounds() {
        let out = dispatch(toks("elect --n 3 --rounds 5")).unwrap();
        let round_lines = out.lines().filter(|l| l.starts_with("round")).count();
        assert_eq!(round_lines, 5, "{out}");
        assert!(out.contains("mutual exclusion"), "{out}");
    }

    #[test]
    fn threads_agree() {
        let out = dispatch(toks("threads --protocol two --inputs a,b --seed 2")).unwrap();
        assert!(out.contains("agreed"), "{out}");
    }

    #[test]
    fn serve_reports_throughput_and_is_shard_invariant() {
        let out_path =
            std::env::temp_dir().join(format!("cil-serve-test-{}.json", std::process::id()));
        let out_arg = out_path.to_str().unwrap();
        let runs: Vec<String> = [1, 4]
            .iter()
            .map(|shards| {
                dispatch(toks(&format!(
                    "serve two --instances 300 --seed 9 --shards {shards} --out {out_arg}"
                )))
                .unwrap()
            })
            .collect();
        assert!(runs[0].contains("instances: 300"), "{}", runs[0]);
        assert!(runs[0].contains("decided: 300"), "{}", runs[0]);
        assert!(runs[0].contains("violations: 0"), "{}", runs[0]);
        assert!(runs[0].contains("decisions/sec"), "{}", runs[0]);
        // The deterministic lines (instance stats, decided-value counts)
        // match at any shard count; throughput/latency are wall clock.
        let stable = |s: &String| {
            s.lines()
                .filter(|l| l.starts_with("instances:") || l.starts_with("decided  :"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(stable(&runs[0]), stable(&runs[1]));
        let bench = std::fs::read_to_string(&out_path).unwrap();
        let _ = std::fs::remove_file(&out_path);
        for key in [
            "\"bench\":\"serve\"",
            "\"decisions_per_sec\"",
            "\"latency_p50_ns\"",
            "\"latency_p99_ns\"",
            "\"decided_values\"",
        ] {
            assert!(
                bench.contains(key),
                "BENCH_serve.json missing {key}: {bench}"
            );
        }
    }

    #[test]
    fn serve_writes_a_bench_file_only_when_asked() {
        let out = dispatch(toks("serve two --instances 20 --seed 9")).unwrap();
        assert!(!out.contains("wrote"), "{out}");
        assert!(!std::path::Path::new("BENCH_serve.json").exists());
    }

    #[test]
    fn serve_rejects_conflicting_limits() {
        let e = dispatch(toks("serve two --instances 10 --duration 5")).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn bad_adversary_is_reported() {
        let e = dispatch(toks("run --protocol two --inputs a,b --adversary bogus")).unwrap_err();
        assert!(e.contains("adversary"), "{e}");
    }

    #[test]
    fn input_arity_mismatch_is_reported() {
        let e = dispatch(toks("run --protocol two --inputs a,b,a")).unwrap_err();
        assert!(e.contains("inputs"), "{e}");
    }
}
