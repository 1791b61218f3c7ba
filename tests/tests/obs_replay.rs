//! Observability integration: the stable `--trace` text format, JSONL
//! event capture → `cil replay` round trips, and the metrics layer's
//! no-perturbation guarantees — all exercised through the same `dispatch`
//! entry point the `cil` binary uses.

use cil_core::kvalued::KValued;
use cil_core::two::TwoProcessor;
use cil_obs::{MemorySink, RunEvent};
use cil_sim::{FixedSchedule, RandomScheduler, RoundRobin, Runner, Val};
use std::path::PathBuf;

fn dispatch(line: &str) -> Result<String, String> {
    cil_cli::dispatch(line.split_whitespace().map(String::from))
}

/// A per-process temp path; tests clean up behind themselves.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cil_obs_{}_{name}", std::process::id()))
}

/// Dispatches tokens through the binary's entry point: `Ok` is exit 0, a
/// failure carries its exit code.
fn dispatch_tokens(tokens: &[&str]) -> Result<String, cil_cli::CliFailure> {
    cil_cli::dispatch_full(tokens.iter().map(|t| t.to_string()))
}

/// The two reference captures: a simulator run and a controlled native
/// trial, written to fresh temp files.
fn reference_captures(tag: &str) -> [(PathBuf, String); 2] {
    let sim = tmp(&format!("{tag}_sim.jsonl"));
    let conc = tmp(&format!("{tag}_conc.jsonl"));
    dispatch(&format!(
        "run --protocol fig2 --inputs a,b,a --seed 3 --trace-json {}",
        sim.display()
    ))
    .unwrap();
    dispatch(&format!(
        "conc stress --protocol two --inputs a,b --trials 8 --seed 1 --trace-json {}",
        conc.display()
    ))
    .unwrap();
    [sim, conc].map(|p| {
        let text = std::fs::read_to_string(&p).unwrap();
        (p, text)
    })
}

/// Runs `replay` and `conc replay` on `path`.
fn both_replays(path: &std::path::Path) -> [Result<String, cil_cli::CliFailure>; 2] {
    let p = path.to_str().unwrap();
    [
        dispatch_tokens(&["replay", p]),
        dispatch_tokens(&["conc", "replay", p]),
    ]
}

// ---------------------------------------------------------------------------
// Satellite: the stable, documented `cil run --trace` column format.
// ---------------------------------------------------------------------------

/// Golden render of the documented trace format (see the `Display` docs in
/// `crates/sim/src/trace.rs`): step index right-aligned in 5 columns, two
/// spaces, `P<pid>`, the padded op keyword, `r<reg>`, and `->`/`<-` with
/// the value in its `Debug` form. If this test fails, the format drifted —
/// update it only together with the documentation.
#[test]
fn trace_text_format_is_stable() {
    let p = TwoProcessor::new();
    let out = Runner::new(&p, &[Val::A, Val::B], RoundRobin::new())
        .seed(0)
        .record_trace(true)
        .run();
    let golden = "    0  P0 write r0 <- Some(Val(0))
    1  P1 write r1 <- Some(Val(1))
    2  P0 read  r1 -> Some(Val(1))
    3  P1 read  r0 -> Some(Val(0))
    4  P0 write r0 <- Some(Val(0))
    5  P1 write r1 <- Some(Val(1))
    6  P0 read  r1 -> Some(Val(1))
    7  P1 read  r0 -> Some(Val(0))
    8  P0 write r0 <- Some(Val(0))
    9  P1 write r1 <- Some(Val(1))
   10  P0 read  r1 -> Some(Val(1))
   11  P1 read  r0 -> Some(Val(0))
   12  P0 write r0 <- Some(Val(1))
   13  P1 write r1 <- Some(Val(1))
   14  P0 read  r1 -> Some(Val(1))
   15  P1 read  r0 -> Some(Val(1))
";
    assert_eq!(out.trace.unwrap().to_string(), golden);
}

/// The same golden block must come out of the CLI's `run --trace`.
#[test]
fn cli_run_trace_prints_the_documented_format() {
    let text = dispatch("run --protocol two --inputs a,b --seed 0 --adversary round-robin --trace")
        .unwrap();
    assert!(text.contains("trace (16 steps):"), "{text}");
    assert!(
        text.contains("    0  P0 write r0 <- Some(Val(0))"),
        "{text}"
    );
    assert!(
        text.contains("   15  P1 read  r0 -> Some(Val(1))"),
        "{text}"
    );
}

// ---------------------------------------------------------------------------
// Satellite: JSONL event round-trip, `cil replay` byte-for-byte.
// ---------------------------------------------------------------------------

#[test]
fn cli_trace_json_capture_replays_byte_for_byte() {
    let path = tmp("two.jsonl");
    let spec = format!(
        "run --protocol two --inputs a,b --seed 7 --trace-json {}",
        path.display()
    );
    let out = dispatch(&spec).unwrap();
    assert!(out.contains("JSONL records"), "{out}");
    let replayed = dispatch(&format!("replay {}", path.display())).unwrap();
    assert!(replayed.contains("byte-for-byte"), "{replayed}");
    std::fs::remove_file(&path).unwrap();
    // Either replay command replays either engine's captures, alike.
    for (path, _) in reference_captures("cross") {
        let [plain, conc] = both_replays(&path);
        let plain = plain.expect("cil replay verifies");
        assert!(plain.contains("byte-for-byte"), "{plain}");
        assert_eq!(conc.expect("cil conc replay verifies"), plain);
        std::fs::remove_file(&path).unwrap();
    }
}

/// The round trip must also hold for a k-valued-register protocol, whose
/// register values are not plain `Val::A`/`Val::B`.
#[test]
fn cli_trace_json_roundtrip_covers_kvalued_registers() {
    let path = tmp("kvalued.jsonl");
    let spec = format!(
        "run --protocol kvalued:4 --inputs 0,3 --seed 5 --trace-json {}",
        path.display()
    );
    dispatch(&spec).unwrap();
    let replayed = dispatch(&format!("replay {}", path.display())).unwrap();
    assert!(replayed.contains("byte-for-byte"), "{replayed}");
    std::fs::remove_file(&path).unwrap();
}

/// Tampering with a captured value must make either replay command
/// diverge loudly, with a report that ends its last line.
#[test]
fn cli_replay_detects_a_tampered_capture() {
    let path = tmp("tampered.jsonl");
    dispatch(&format!(
        "run --protocol two --inputs a,b --seed 7 --trace-json {}",
        path.display()
    ))
    .unwrap();
    let references = reference_captures("tampered");
    for path in std::iter::once(&path).chain(references.iter().map(|(p, _)| p)) {
        let text = std::fs::read_to_string(path).unwrap();
        let tampered = text.replacen("Some(Val(0))", "Some(Val(9))", 1);
        assert_ne!(text, tampered, "capture should contain a Val(0)");
        std::fs::write(path, tampered).unwrap();
        for result in both_replays(path) {
            let failure = result.expect_err("a tampered value must diverge");
            assert_eq!(failure.exit_code(), 1, "{failure:?}");
            assert!(failure.message().contains("DIVERGED"), "{failure:?}");
            assert!(failure.message().ends_with('\n'), "{failure:?}");
        }
        std::fs::remove_file(path).unwrap();
    }
}

/// A capture whose step limit was raised past its steps diverges at the
/// first step beyond them instead of running on to the new limit: a
/// never-deciding run would otherwise replay without bound.
#[test]
fn cli_replay_stops_one_step_past_the_capture() {
    let path = tmp("raised_limit.jsonl");
    dispatch(&format!(
        "run --protocol det:always-keep --inputs a,b --max-steps 100 --seed 1 --trace-json {}",
        path.display()
    ))
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let raised = text.replacen("\"max_steps\":100,", "\"max_steps\":1000000000000,", 1);
    assert_ne!(text, raised);
    std::fs::write(&path, raised).unwrap();
    for result in both_replays(&path) {
        let failure = result.expect_err("the replay outruns the capture");
        assert_eq!(failure.exit_code(), 1, "{failure:?}");
        let message = failure.message();
        assert!(
            message.starts_with("replay DIVERGED at event 101:"),
            "{message}"
        );
        assert!(message.contains("\"index\":100"), "{message}");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cli_replay_rejects_a_capture_naming_a_missing_processor() {
    let path = tmp("tampered_pid.jsonl");
    dispatch(&format!(
        "run --protocol two --inputs a,b --seed 7 --trace-json {}",
        path.display()
    ))
    .unwrap();
    let [(sim, _), (conc, _)] = reference_captures("pid");
    std::fs::remove_file(&sim).unwrap();
    for path in [&path, &conc] {
        let text = std::fs::read_to_string(path).unwrap();
        // Make the first step event name pid 7, which the one-based
        // schedule notation calls processor 8, of a two-processor protocol.
        let first_step = "\"type\":\"step\",\"index\":0,\"pid\":";
        let at = text.find(first_step).expect("a first step") + first_step.len();
        let tampered = format!("{}7{}", &text[..at], &text[at + 1..]);
        assert_ne!(text, tampered, "the first step should name P0 or P1");
        std::fs::write(path, tampered).unwrap();
        for result in both_replays(path) {
            let failure = result.expect_err("a missing processor");
            assert_eq!(failure.exit_code(), 2, "{}", failure.message());
            assert!(
                failure.message().contains("processor 8"),
                "{}",
                failure.message()
            );
        }
        std::fs::remove_file(path).unwrap();
    }
}

/// Library-level round trip: every captured event survives JSONL
/// serialization, and re-executing the captured schedule (same coin seed)
/// regenerates the identical `Trace` and event stream — including for a
/// k-valued-register protocol.
#[test]
fn event_stream_schedule_replay_reproduces_the_trace() {
    fn check<P: cil_sim::Protocol>(p: &P, inputs: &[Val], seed: u64) {
        let mut sink = MemorySink::new();
        let original = Runner::new(p, inputs, RandomScheduler::new(seed ^ 0xC0FFEE))
            .seed(seed)
            .record_trace(true)
            .events(&mut sink)
            .run();

        // JSONL round trip: each event prints as one line and parses back.
        for event in &sink.events {
            let line = event.to_json();
            assert_eq!(&RunEvent::from_json(&line).unwrap(), event, "{line}");
        }

        // Rebuild the schedule from the step events alone.
        let schedule: Vec<usize> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                RunEvent::Step { pid, .. } => Some(*pid),
                _ => None,
            })
            .collect();

        let mut replay_sink = MemorySink::new();
        let replayed = Runner::new(p, inputs, FixedSchedule::new(schedule))
            .seed(seed)
            .record_trace(true)
            .events(&mut replay_sink)
            .run();
        assert_eq!(replayed.trace, original.trace);
        assert_eq!(replayed.decisions, original.decisions);
        assert_eq!(replay_sink.events, sink.events);
    }

    check(&TwoProcessor::new(), &[Val::A, Val::B], 11);
    check(&KValued::new(TwoProcessor::new(), 4), &[Val(0), Val(3)], 23);
}

// ---------------------------------------------------------------------------
// Satellite: metrics merge — jobs-invariant, and zero perturbation.
// ---------------------------------------------------------------------------

/// `--jobs 1` and `--jobs 8` sweeps with `--metrics-out` write byte-identical
/// metric snapshots, and their stdout reports differ only in the reported
/// worker count.
#[test]
fn cli_metrics_export_is_jobs_invariant() {
    let (p1, p8) = (tmp("m1.json"), tmp("m8.json"));
    let base = "sweep --protocol two --inputs a,b --trials 500 --seed 3";
    let out1 = dispatch(&format!("{base} --jobs 1 --metrics-out {}", p1.display())).unwrap();
    let out8 = dispatch(&format!("{base} --jobs 8 --metrics-out {}", p8.display())).unwrap();
    let (m1, m8) = (
        std::fs::read_to_string(&p1).unwrap(),
        std::fs::read_to_string(&p8).unwrap(),
    );
    assert_eq!(m1, m8, "metrics snapshots must not depend on --jobs");
    let strip_jobs = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("jobs:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip_jobs(&out1), strip_jobs(&out8));
    // The exported decided-by-k histogram accounts for every decided trial.
    assert!(m1.contains("\"sweep.trials\":500"), "{m1}");
    std::fs::remove_file(&p1).unwrap();
    std::fs::remove_file(&p8).unwrap();
}

/// Attaching `--metrics-out` must leave the sweep's visible results —
/// the stats digest surface printed to stdout — byte-identical.
#[test]
fn cli_metrics_export_does_not_perturb_the_sweep() {
    let path = tmp("noperturb.json");
    let base = "sweep --protocol two --inputs a,b --trials 400 --seed 9 --jobs 2";
    let plain = dispatch(base).unwrap();
    let observed = dispatch(&format!("{base} --metrics-out {}", path.display())).unwrap();
    assert_eq!(plain, observed);
    std::fs::remove_file(&path).unwrap();
}

/// Library-level digest check with a real protocol sweep: observer on/off
/// and every worker count produce the same `SweepStats::digest()`, and the
/// observer's exported JSON is identical at every worker count.
#[test]
fn sweep_digest_is_invariant_under_observation_and_jobs() {
    use cil_obs::Registry;
    use cil_sim::{SweepObserver, TrialResult, TrialSweep};
    let p = TwoProcessor::new();
    let trial_fn = |trial: cil_sim::Trial| {
        let out = Runner::new(&p, &[Val::A, Val::B], RandomScheduler::new(trial.seed))
            .seed(trial.seed)
            .run();
        TrialResult::from_run(&out).metric(out.total_steps)
    };
    let base = || TrialSweep::new(600).root_seed(17);
    let plain_digest = base().jobs(1).run(trial_fn).digest();
    let mut exports = Vec::new();
    for jobs in [1, 8] {
        let registry = Registry::new();
        let observer = SweepObserver::new(&registry);
        let stats = base().jobs(jobs).run_observed(Some(&observer), trial_fn);
        assert_eq!(stats.digest(), plain_digest, "jobs={jobs}");
        exports.push(registry.snapshot().to_json());
    }
    assert_eq!(exports[0], exports[1]);
}

// ---------------------------------------------------------------------------
// Truncated file inputs.
// ---------------------------------------------------------------------------

/// ROADMAP item 2's fuzz test, truncation half: every file input `cil`
/// reads back — certificates, metrics snapshots and both kinds of capture
/// — cut at every 7th byte exits 0, 1 or 2 and never panics. A cut
/// certificate or snapshot is malformed, so those exit 1 or 2.
#[test]
fn truncated_file_inputs_never_panic() {
    let cert = tmp("fuzz_cert.json");
    let snap = tmp("fuzz_snap.json");
    let cut = tmp("fuzz_cut");
    let cut_str = cut.to_str().unwrap();
    dispatch(&format!("prove two --cert {}", cert.display())).unwrap();
    dispatch(&format!(
        "sweep --protocol two --inputs a,b --trials 100 --seed 1 --metrics-out {}",
        snap.display()
    ))
    .unwrap();
    let [(sim, sim_text), (conc, conc_text)] = reference_captures("fuzz");
    let mut runs = 0;
    // Cuts `bytes` at every 7th byte, runs each command on the cut file and
    // checks its exit code is in `allowed`.
    let mut fuzz = |bytes: &[u8], commands: &[&[&str]], allowed: &[i32]| {
        for at in (0..bytes.len()).step_by(7) {
            std::fs::write(&cut, &bytes[..at]).unwrap();
            for command in commands {
                let code = match dispatch_tokens(command) {
                    Ok(_) => 0,
                    Err(failure) => failure.exit_code(),
                };
                assert!(allowed.contains(&code), "{command:?} at byte {at}: {code}");
                runs += 1;
            }
        }
    };
    let malformed = [1, 2];
    let any = [0, 1, 2];
    let cert_bytes = std::fs::read(&cert).unwrap();
    fuzz(
        &cert_bytes,
        &[&["prove", "--check-cert", cut_str]],
        &malformed,
    );
    let snap_bytes = std::fs::read(&snap).unwrap();
    fuzz(&snap_bytes, &[&["report", cut_str]], &malformed);
    let sim_commands: [&[&str]; 2] = [&["replay", cut_str], &["report", cut_str]];
    fuzz(sim_text.as_bytes(), &sim_commands, &any);
    let conc_commands: [&[&str]; 2] = [&["conc", "replay", cut_str], &["report", cut_str]];
    fuzz(conc_text.as_bytes(), &conc_commands, &any);
    assert!(runs > 2000, "{runs} cuts");
    for path in [cert, snap, cut, sim, conc] {
        std::fs::remove_file(path).unwrap();
    }
}
