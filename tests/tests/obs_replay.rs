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

/// Tampering with a captured value must make the replay diverge loudly.
#[test]
fn cli_replay_detects_a_tampered_capture() {
    let path = tmp("tampered.jsonl");
    dispatch(&format!(
        "run --protocol two --inputs a,b --seed 7 --trace-json {}",
        path.display()
    ))
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let tampered = text.replacen("Some(Val(0))", "Some(Val(9))", 1);
    assert_ne!(text, tampered, "capture should contain a Val(0)");
    std::fs::write(&path, tampered).unwrap();
    let err = dispatch(&format!("replay {}", path.display())).unwrap_err();
    assert!(err.contains("DIVERGED"), "{err}");
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
    let text = std::fs::read_to_string(&path).unwrap();
    // Make the first step event name pid 7, which the one-based schedule
    // notation calls processor 8, of a two-processor protocol.
    let first_step = "\"type\":\"step\",\"index\":0,\"pid\":";
    let tampered = text.replacen(&format!("{first_step}0"), &format!("{first_step}7"), 1);
    assert_ne!(text, tampered, "capture should start with a step of P0");
    std::fs::write(&path, tampered).unwrap();
    let line = format!("replay {}", path.display());
    let failure = cil_cli::dispatch_full(line.split_whitespace().map(String::from)).unwrap_err();
    assert_eq!(failure.exit_code(), 2, "{}", failure.message());
    assert!(
        failure.message().contains("processor 8"),
        "{}",
        failure.message()
    );
    std::fs::remove_file(&path).unwrap();
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
